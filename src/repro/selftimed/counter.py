"""Self-timed counters.

Two counters appear in the paper:

* :class:`SelfTimedCounter` — the ripple chain of toggle flip-flops of
  Fig. 9, which, "connected in a pulse generator (oscillator) mode", converts
  the charge stored on a sampling capacitor into a binary code: every pulse
  drains a fixed quantum of charge, the logic slows as the voltage falls, and
  the chain stops when the supply collapses, freezing the count.
* :class:`DualRailCounter` — the 2-bit dual-rail, completion-detected
  sequential counter whose waveforms under an AC supply (200 mV ± 100 mV,
  1 MHz) are shown in Fig. 4.  Its value sequence is provably correct no
  matter how the supply wobbles, because every step is acknowledged through
  genuine completion detection; low supply only stretches the handshake.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional

from repro.errors import ConfigurationError, SupplyCollapseError
from repro.models.gate import GateModel, GateType
from repro.models.technology import Technology
from repro.sim.probes import EnergyProbe
from repro.sim.signals import Signal, vector_value
from repro.sim.simulator import Simulator
from repro.selftimed.completion import CompletionDetector
from repro.selftimed.dualrail import DualRailWord
from repro.selftimed.gates import CircuitElement, LogicGate
from repro.selftimed.toggle import ToggleFlipFlop


class SelfTimedCounter(CircuitElement):
    """Ripple counter of toggle flip-flops with an optional oscillator mode.

    Parameters
    ----------
    width:
        Number of toggle stages (output bits).
    oscillator_ring_stages:
        Number of gate delays making up one half-period of the pulse
        generator that drives the LSB in oscillator mode.
    internal_transitions_per_toggle:
        Energy/charge granularity of each toggle (see
        :class:`~repro.selftimed.toggle.ToggleFlipFlop`).
    max_pulses:
        Safety bound on the number of pulses generated in oscillator mode.
    """

    def __init__(self, sim: Simulator, supply, technology: Technology,
                 name: str = "counter", width: int = 8,
                 oscillator_ring_stages: int = 3,
                 internal_transitions_per_toggle: int = 3,
                 max_pulses: int = 1_000_000,
                 energy_probe: Optional[EnergyProbe] = None,
                 record_signals: bool = False) -> None:
        super().__init__(sim, supply, technology, name, energy_probe)
        if width < 1:
            raise ConfigurationError("width must be >= 1")
        if oscillator_ring_stages < 1:
            raise ConfigurationError("oscillator_ring_stages must be >= 1")
        if max_pulses < 1:
            raise ConfigurationError("max_pulses must be >= 1")
        self.width = width
        self.oscillator_ring_stages = oscillator_ring_stages
        self.max_pulses = max_pulses
        #: Pulse input of the least-significant toggle (signal R0 in Fig. 9).
        self.pulse_input = Signal(f"{name}.r0", record=record_signals)
        self._osc_model = GateModel(technology=technology,
                                    gate_type=GateType.INVERTER)
        self.toggles: List[ToggleFlipFlop] = []
        previous: Signal = self.pulse_input
        for i in range(width):
            toggle = ToggleFlipFlop(
                sim, supply, technology, f"{name}.t{i}",
                input_signal=previous,
                internal_transitions=internal_transitions_per_toggle,
                energy_probe=energy_probe,
                on_stall=self._on_toggle_stall,
                record_output=record_signals or i < 4,
                # Stage 0 counts pulses on their rising edge; higher stages
                # ripple from the falling edge of the previous Q so the Q
                # vector reads as a binary up-count.
                trigger_on_rising=(i == 0),
            )
            self.toggles.append(toggle)
            previous = toggle.output
        self.pulses_generated = 0
        self.running = False
        self.finished = False
        self.on_finish: Optional[Callable[["SelfTimedCounter"], None]] = None
        # Per-edge actions and labels, built once instead of once per edge:
        # index by the value the edge drives onto the pulse input.
        self._osc_edges = (partial(self._osc_edge, False),
                           partial(self._osc_edge, True))
        self._osc_label = f"{name}.osc"

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------

    def value(self) -> int:
        """Current binary count (LSB = stage 0 output)."""
        return vector_value([toggle.output for toggle in self.toggles])

    def total_toggle_transitions(self) -> int:
        """Total elementary transitions spent by all toggle stages."""
        return sum(t.transition_count for t in self.toggles)

    def energy_consumed_total(self) -> float:
        """Energy consumed by the oscillator and every toggle, in joules."""
        return self.energy_consumed + sum(t.energy_consumed for t in self.toggles)

    # ------------------------------------------------------------------
    # Oscillator (pulse-generator) mode — Fig. 9
    # ------------------------------------------------------------------

    def start_oscillator(self) -> None:
        """Start generating pulses on the LSB input from the local supply.

        The oscillator keeps running until the supply collapses below the
        technology's functional minimum, the pulse budget is exhausted, or
        :meth:`stop_oscillator` is called.
        """
        if self.running:
            return
        self.running = True
        self.finished = False
        self._schedule_half_period(next_value=True)

    def stop_oscillator(self) -> None:
        """Stop generating pulses (the count freezes at its current value)."""
        self.running = False

    def _half_period(self, vdd: float) -> float:
        """Half period of the pulse generator at supply *vdd*.

        The LSB toggle itself is part of the oscillation loop (Fig. 9), so the
        pulse period can never be shorter than the toggle's own service time —
        otherwise pulses would be generated faster than the counter can accept
        them, which the handshake structurally prevents.
        """
        ring = self.oscillator_ring_stages * self._osc_model.delay(vdd)
        toggle_service = (self.toggles[0].internal_transitions
                          * self.toggles[0].model.delay(vdd))
        return max(ring, toggle_service)

    def _schedule_half_period(self, next_value: bool) -> None:
        vdd = self.rail_voltage()
        if not self._can_continue(vdd):
            return
        delay = self._half_period(vdd)
        self.sim.schedule(delay, self._osc_edges[next_value],
                          label=self._osc_label)

    def _osc_edge(self, value: bool) -> None:
        if not self.running:
            return
        vdd = self.rail_voltage()
        if not self._can_continue(vdd):
            return
        try:
            # One ring transition per half period.
            self.bill_energy(self._osc_model.transition_energy(vdd),
                             label=self._osc_label)
        except SupplyCollapseError:
            self._finish()
            return
        self.transition_count += 1
        self.pulse_input.set(value, self.sim.now)
        if value:
            self.pulses_generated += 1
            if self.pulses_generated >= self.max_pulses:
                self._finish()
                return
        self._schedule_half_period(next_value=not value)

    def _can_continue(self, vdd: float) -> bool:
        if not self.running:
            return False
        if not self.is_functional(vdd):
            self._finish()
            return False
        return True

    def _on_toggle_stall(self, toggle: ToggleFlipFlop) -> None:
        """A toggle ran out of supply mid-count: the conversion is over."""
        self._finish()

    def _finish(self) -> None:
        if self.finished:
            return
        self.running = False
        self.finished = True
        if self.on_finish is not None:
            self.on_finish(self)


class DualRailCounter(CircuitElement):
    """Completion-detected dual-rail counter with a 4-phase handshake.

    Operation (one count step):

    1. environment raises ``req``;
    2. the counter computes ``count+1`` and drives it on the dual-rail output
       word (after the data-path delay at the *instantaneous* supply voltage);
    3. the event-driven completion detector sees a full codeword and raises
       ``ack``;
    4. environment lowers ``req``; the counter drives the spacer; completion
       detection sees the empty word and lowers ``ack``.

    Because each phase only proceeds on observed completion, the counter
    cannot mis-count no matter how slow (or briefly non-functional) the
    supply makes the logic — it is the behavioural equivalent of the paper's
    Fig. 4 demonstration.
    """

    def __init__(self, sim: Simulator, supply, technology: Technology,
                 name: str = "drcounter", width: int = 2,
                 datapath_gate_delays: int = 6,
                 stall_retry_interval: float = 50e-9,
                 energy_probe: Optional[EnergyProbe] = None) -> None:
        super().__init__(sim, supply, technology, name, energy_probe)
        if width < 1:
            raise ConfigurationError("width must be >= 1")
        if datapath_gate_delays < 1:
            raise ConfigurationError("datapath_gate_delays must be >= 1")
        self.width = width
        self.datapath_gate_delays = datapath_gate_delays
        self.stall_retry_interval = stall_retry_interval
        self.req = Signal(f"{name}.req")
        self.word = DualRailWord(f"{name}.d", width=width)
        self.detector = CompletionDetector(
            sim, supply, technology, f"{name}.cd", self.word,
            energy_probe=energy_probe,
            stall_retry_interval=stall_retry_interval,
        )
        #: ``ack`` is the completion detector's done output.
        self.ack = self.detector.done
        self._model = GateModel(technology=technology, gate_type=GateType.XOR2)
        self._count = 0
        self.values_emitted: List[int] = []
        self.req.subscribe(self._on_req)

    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of completed count steps."""
        return self._count

    def _on_req(self, signal: Signal, value: bool, time: float) -> None:
        if value:
            self._start_step(target=(self._count + 1) % (1 << self.width))
        else:
            self._start_step(target=None)

    def _start_step(self, target: Optional[int]) -> None:
        vdd = self.rail_voltage()
        if not self.is_functional(vdd):
            # Wait for the supply to recover, then retry the same phase.
            self.stall_count += 1
            self.stalled = True
            self.sim.schedule(self.stall_retry_interval,
                              lambda t=target: self._start_step(t),
                              label=f"{self.name}.retry")
            return
        self.stalled = False
        delay = self.datapath_gate_delays * self._model.delay(vdd)
        self.sim.schedule(delay, lambda t=target: self._drive(t),
                          label=f"{self.name}.data")

    def _drive(self, target: Optional[int]) -> None:
        vdd = self.rail_voltage()
        if not self.is_functional(vdd):
            self.stall_count += 1
            self.sim.schedule(self.stall_retry_interval,
                              lambda t=target: self._drive(t),
                              label=f"{self.name}.retry")
            return
        # Bill the data-path energy: one transition per rail that changes
        # plus the computation overhead.
        transitions = self.width + self.datapath_gate_delays
        try:
            self.bill_energy(transitions * self._model.transition_energy(vdd))
        except SupplyCollapseError:
            self.sim.schedule(self.stall_retry_interval,
                              lambda t=target: self._drive(t),
                              label=f"{self.name}.retry")
            return
        self.transition_count += transitions
        self.word.drive_value(target, self.sim.now)
        if target is not None:
            self._count = target
            self.values_emitted.append(target)

    # ------------------------------------------------------------------

    def expected_sequence(self, steps: int) -> List[int]:
        """The value sequence a correct counter must emit for *steps* steps."""
        return [(i + 1) % (1 << self.width) for i in range(steps)]

    def sequence_is_correct(self) -> bool:
        """Check the emitted values against the expected modulo sequence."""
        return self.values_emitted == self.expected_sequence(len(self.values_emitted))


# ---------------------------------------------------------------------------
# Fig. 4 scenario: the counter driven through a 4-phase environment


#: Names of the scalar summaries a :class:`CounterRun` exposes through
#: :meth:`CounterRun.metrics` — the quantity set of a Fig. 4 style plan.
COUNTER_RUN_METRICS = ("steps_emitted", "sequence_correct", "stalls",
                       "finish_time", "energy")


@dataclass
class CounterRun:
    """Outcome of one driven run of the dual-rail counter (Fig. 4).

    ``finish_time`` is the completion time of the last handshake — the run
    may sit idle afterwards waiting for a ``req`` that never comes.
    """

    values_emitted: List[int]
    expected: List[int]
    sequence_correct: bool
    stall_count: int
    finish_time: float
    energy: float

    def metrics(self) -> dict:
        """Scalar per-run summary keyed by :data:`COUNTER_RUN_METRICS`."""
        return {
            "steps_emitted": float(len(self.values_emitted)),
            "sequence_correct": float(self.sequence_correct),
            "stalls": float(self.stall_count),
            "finish_time": self.finish_time,
            "energy": self.energy,
        }


def drive_dualrail_counter(sim: Simulator, counter: DualRailCounter,
                           steps: int, handshake_gap: float = 0.5e-9) -> None:
    """Attach the 4-phase environment of the paper's Fig. 4 testbench.

    The environment toggles ``req`` on the counter's ``ack`` edges —
    lowering ``req`` when ``ack`` rises, raising it again *handshake_gap*
    after ``ack`` falls — until *steps* count steps have been requested.
    The handshake therefore runs exactly as fast as the (possibly sagging)
    supply permits, which is the point of the figure.
    """
    if steps < 1:
        raise ConfigurationError("steps must be >= 1")
    state = {"steps_left": steps}

    def on_ack(signal: Signal, value: bool, time: float) -> None:
        if value:
            sim.schedule_signal(counter.req, False, handshake_gap)
        elif state["steps_left"] > 0:
            state["steps_left"] -= 1
            sim.schedule_signal(counter.req, True, handshake_gap)

    counter.ack.subscribe(on_ack)
    state["steps_left"] -= 1
    sim.schedule_signal(counter.req, True, handshake_gap)


def run_dualrail_scenario(technology: Technology, supply, steps: int,
                          width: int = 2, handshake_gap: float = 0.5e-9,
                          max_time: float = 1.0) -> CounterRun:
    """Run a fresh :class:`DualRailCounter` for *steps* handshakes (Fig. 4).

    The per-point evaluation of a Fig. 4 style experiment plan: one plan
    point per supply condition (AC rail, DC rail, ...).  The run is fully
    deterministic — the event kernel is seeded by nothing but the supply
    waveform — so pool workers and the serial path produce bit-identical
    :class:`CounterRun` summaries.
    """
    sim = Simulator()
    counter = DualRailCounter(sim, supply, technology, width=width)
    drive_dualrail_counter(sim, counter, steps, handshake_gap=handshake_gap)
    sim.run_until_idle(max_time=max_time)
    return CounterRun(
        values_emitted=list(counter.values_emitted),
        expected=counter.expected_sequence(steps),
        sequence_correct=counter.sequence_is_correct(),
        stall_count=counter.stall_count,
        finish_time=counter.ack.last_change_time,
        energy=counter.energy_consumed,
    )


def dualrail_completion_violations(technology: Technology, vdd: float,
                                   steps: int = 4, width: int = 2,
                                   handshake_gap: float = 0.5e-9) -> List[str]:
    """Dual-rail completion violations of one constant-supply counter run.

    The self-timed layer's invariant adapter for
    :mod:`repro.analysis.campaign.invariants`: at any supply above the
    technology's functional minimum, a :func:`run_dualrail_scenario` run
    must complete every requested handshake — the counter emits exactly
    *steps* values, in the expected sequence, without stalling, in
    positive time, and pays a positive energy bill for doing so.

    Returns human-readable violation messages; empty means the run held.
    """
    from repro.power.supply import ConstantSupply

    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps!r}")
    if not vdd >= technology.vdd_min:
        raise ConfigurationError(
            f"vdd={vdd!r} V is below the functional minimum "
            f"{technology.vdd_min!r} V of {technology.name}")
    run = run_dualrail_scenario(technology, ConstantSupply(vdd), steps,
                                width=width, handshake_gap=handshake_gap)
    violations: List[str] = []
    if len(run.values_emitted) != steps:
        violations.append(
            f"emitted {len(run.values_emitted)} of {steps} handshakes "
            f"at vdd={vdd!r} V")
    if not run.sequence_correct:
        violations.append(
            f"counter sequence wrong at vdd={vdd!r} V: emitted "
            f"{run.values_emitted!r}, expected {run.expected!r}")
    if run.stall_count:
        violations.append(
            f"{run.stall_count} stall(s) on a constant {vdd!r} V rail")
    if not run.finish_time > 0.0:
        violations.append(
            f"finish time not positive ({run.finish_time!r} s)")
    if not run.energy > 0.0:
        violations.append(
            f"completed {steps} handshakes for non-positive energy "
            f"({run.energy!r} J)")
    return violations
