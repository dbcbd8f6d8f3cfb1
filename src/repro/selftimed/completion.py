"""Completion detection.

Completion detection is what makes a circuit *speed-independent*: instead of
assuming how long an operation takes, the circuit observes when its dual-rail
outputs have all become valid (or all returned to spacers) and only then
acknowledges.  The paper uses it twice — in the dual-rail logic of Design 1
and, crucially, in the SI SRAM where the bit-line transients themselves are
completion-detected.

Two flavours are provided:

* :class:`CompletionDetector` — an event-driven detector that lives in the
  simulation: per-bit OR gates followed by a C-element tree, all built from
  :class:`~repro.selftimed.gates.LogicGate`, so it has real delay and energy.
* :class:`CompletionTreeModel` — a closed-form delay/energy estimate of the
  same tree, used by the analytical design-style models (Fig. 2) and by the
  SRAM energy model, where instantiating thousands of gates would add nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.models.gate import GateModel, GateType
from repro.models.technology import Technology
from repro.sim.probes import EnergyProbe
from repro.sim.signals import Signal
from repro.sim.simulator import Simulator
from repro.selftimed.celement import CElement
from repro.selftimed.dualrail import DualRailWord
from repro.selftimed.gates import LogicGate


class CompletionDetector:
    """Event-driven completion detector over a dual-rail word.

    Structure: one OR gate per dual-rail bit (asserted while the bit holds
    data), combined by a balanced tree of C-elements.  The ``done`` output
    rises when *every* bit is valid and falls when every bit has returned to
    the spacer — exactly the alternation a 4-phase handshake needs.
    """

    def __init__(self, sim: Simulator, supply, technology: Technology,
                 name: str, word: DualRailWord,
                 energy_probe: Optional[EnergyProbe] = None,
                 stall_retry_interval: Optional[float] = None) -> None:
        self.sim = sim
        self.name = name
        self.word = word
        self._stall_retry_interval = stall_retry_interval
        self._or_outputs: List[Signal] = []
        self._or_gates: List[LogicGate] = []
        self._tree_gates: List[CElement] = []

        for bit in word:
            out = Signal(f"{name}.valid[{len(self._or_outputs)}]", record=False)
            gate = LogicGate(
                sim, supply, technology, f"{name}.or{len(self._or_outputs)}",
                inputs=bit.rails(), output=out,
                function=lambda t, f: t or f,
                gate_type=GateType.OR2,
                energy_probe=energy_probe,
                stall_retry_interval=stall_retry_interval,
            )
            self._or_outputs.append(out)
            self._or_gates.append(gate)

        self.done = self._build_tree(self._or_outputs, supply, technology,
                                     energy_probe)

    # ------------------------------------------------------------------

    def _build_tree(self, leaves: Sequence[Signal], supply,
                    technology: Technology,
                    energy_probe: Optional[EnergyProbe]) -> Signal:
        """Combine *leaves* pairwise with C-elements down to a single signal."""
        level = list(leaves)
        depth = 0
        while len(level) > 1:
            next_level: List[Signal] = []
            for i in range(0, len(level) - 1, 2):
                out = Signal(f"{self.name}.cd{depth}_{i // 2}", record=False)
                gate = CElement(
                    self.sim, supply, technology,
                    f"{self.name}.c{depth}_{i // 2}",
                    inputs=[level[i], level[i + 1]], output=out,
                    energy_probe=energy_probe,
                    stall_retry_interval=self._stall_retry_interval,
                )
                self._tree_gates.append(gate)
                next_level.append(out)
            if len(level) % 2 == 1:
                next_level.append(level[-1])
            level = next_level
            depth += 1
        if len(level) == 1 and level[0] in self._or_outputs:
            # Single-bit word: expose the OR output directly but keep a
            # recorded alias so callers can watch "done".
            done = Signal(f"{self.name}.done", record=True)
            level[0].subscribe(lambda s, v, t: done.set(v, t))
            return done
        done = level[0]
        done.record = True
        done.history.append((self.sim.now, done.value))
        return done

    # ------------------------------------------------------------------

    @property
    def gate_count(self) -> int:
        """Number of gates the detector instantiated (area/overhead metric)."""
        return len(self._or_gates) + len(self._tree_gates)

    def energy_consumed(self) -> float:
        """Energy burned by the detector so far, in joules."""
        gates = list(self._or_gates) + list(self._tree_gates)
        return sum(gate.energy_consumed for gate in gates)


@dataclass(frozen=True)
class CompletionTreeModel:
    """Closed-form delay/energy model of a completion-detection tree.

    Parameters
    ----------
    technology:
        Process parameters.
    bits:
        Number of dual-rail bits being completion-detected.
    segment_size:
        Optional segmentation: the paper suggests "sectioning the completion
        detection in the column into smaller segments, say, of 8 bit each" to
        push the low-Vdd limit further down.  Segmentation shortens the
        C-element tree each segment sees (less load on the detected lines) at
        the cost of one extra merge level.
    """

    technology: Technology
    bits: int
    segment_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ConfigurationError("bits must be >= 1")
        if self.segment_size is not None and self.segment_size < 1:
            raise ConfigurationError("segment_size must be >= 1 when given")
        # Built once; plain attributes, so equality and stable_repr (hence
        # cache keys) see only the fields.
        object.__setattr__(self, "_or_gate", GateModel(
            technology=self.technology, gate_type=GateType.OR2))
        object.__setattr__(self, "_c_gate", GateModel(
            technology=self.technology, gate_type=GateType.C_ELEMENT))

    # ------------------------------------------------------------------

    def _tree_depth(self, leaves: int) -> int:
        return max(1, math.ceil(math.log2(max(2, leaves))))

    @property
    def gate_count(self) -> int:
        """OR gates plus C-elements of the (possibly segmented) tree."""
        or_gates = self.bits
        if self.segment_size is None:
            c_elements = self.bits - 1
        else:
            segments = math.ceil(self.bits / self.segment_size)
            c_elements = sum(
                max(0, min(self.segment_size, self.bits - s * self.segment_size) - 1)
                for s in range(segments)
            ) + max(0, segments - 1)
        return or_gates + c_elements

    def delay(self, vdd: float) -> float:
        """Detection latency in seconds at supply *vdd*."""
        if self.segment_size is None:
            depth = self._tree_depth(self.bits)
        else:
            segments = math.ceil(self.bits / self.segment_size)
            depth = self._tree_depth(min(self.segment_size, self.bits))
            depth += self._tree_depth(segments) if segments > 1 else 0
        return self._or_gate.delay(vdd) + depth * self._c_gate.delay(vdd)

    def energy(self, vdd: float) -> float:
        """Energy of one complete detect/reset cycle at supply *vdd*."""
        or_count = self.bits
        c_count = self.gate_count - or_count
        # Each gate switches twice per 4-phase cycle (set and reset).
        return 2.0 * (or_count * self._or_gate.transition_energy(vdd)
                      + c_count * self._c_gate.transition_energy(vdd))

    def leakage_power(self, vdd: float) -> float:
        """Static power of the detector at supply *vdd*, in watts."""
        or_count = self.bits
        c_count = self.gate_count - or_count
        return (or_count * self._or_gate.leakage_power(vdd)
                + c_count * self._c_gate.leakage_power(vdd))
