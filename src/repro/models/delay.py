"""Logic-delay reference rulers: inverter chains, FO4 and logical effort.

The paper uses the delay of an inverter chain as the *ruler* against which
other delays are expressed (Fig. 5 expresses SRAM read latency in "number of
inverter delays"; the reference-free voltage sensor of Fig. 12 literally uses
an inverter chain as the measuring tape).  This module provides those rulers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import ModelError
from repro.models.gate import GateModel, GateType
from repro.models.technology import Technology


def fo4_delay(technology: Technology, vdd: float) -> float:
    """Fan-out-of-4 inverter delay in seconds at supply *vdd*.

    The FO4 delay is the canonical process-independent unit of logic delay:
    one inverter driving four copies of itself.
    """
    inverter = GateModel(technology=technology, gate_type=GateType.INVERTER)
    return inverter.delay(vdd, external_load=4.0 * inverter.input_capacitance)


def logical_effort_delay(technology: Technology, vdd: float,
                         stage_efforts: Sequence[float],
                         parasitics: Sequence[float] = ()) -> float:
    """Delay in seconds of a multi-stage path given per-stage efforts.

    Implements the method of logical effort: each stage contributes
    ``(g·h + p)`` units of the technology's characteristic delay ``tau``
    (taken as the parasitic-free FO1 inverter delay at *vdd*), where ``g·h``
    is the stage effort and ``p`` its parasitic delay.
    """
    if not stage_efforts:
        raise ModelError("stage_efforts must not be empty")
    if parasitics and len(parasitics) != len(stage_efforts):
        raise ModelError("parasitics must match stage_efforts in length")
    inverter = GateModel(technology=technology, gate_type=GateType.INVERTER)
    tau = inverter.delay(vdd, external_load=inverter.input_capacitance)
    if not parasitics:
        parasitics = [1.0] * len(stage_efforts)
    units = sum(effort + par for effort, par in zip(stage_efforts, parasitics))
    return tau * units / 2.0


@dataclass(frozen=True)
class InverterChain:
    """A chain of identical inverters used as a delay line / time ruler.

    Parameters
    ----------
    technology:
        Process parameter set.
    stages:
        Number of inverters in the chain.
    fanout:
        Load seen by each stage, expressed in input capacitances of the next
        stage (the last stage sees the same load so the chain is uniform).
    drive_strength:
        Sizing of every inverter in the chain.
    """

    technology: Technology
    stages: int
    fanout: float = 1.0
    drive_strength: float = 1.0

    def __post_init__(self) -> None:
        if self.stages < 1:
            raise ModelError(f"stages must be >= 1, got {self.stages}")
        if self.fanout <= 0:
            raise ModelError("fanout must be positive")
        # Built once; a plain attribute, so equality and stable_repr (hence
        # cache keys) see only the fields.
        object.__setattr__(self, "_gate", GateModel(
            technology=self.technology,
            gate_type=GateType.INVERTER,
            drive_strength=self.drive_strength,
        ))

    def stage_delay(self, vdd: float) -> float:
        """Delay of a single stage in seconds at supply *vdd*."""
        gate = self._gate
        load = self.fanout * gate.input_capacitance
        return gate.delay(vdd, external_load=load)

    def total_delay(self, vdd: float) -> float:
        """End-to-end propagation delay of the whole chain in seconds."""
        return self.stages * self.stage_delay(vdd)

    def stage_arrival_times(self, vdd: float) -> List[float]:
        """Arrival time of the transition at the output of each stage.

        The reference-free voltage sensor (Fig. 12) samples this list with a
        "stop" event from the racing SRAM cell and converts the index reached
        into a thermometer code.
        """
        stage = self.stage_delay(vdd)
        return [stage * (i + 1) for i in range(self.stages)]

    def stages_reached(self, vdd: float, elapsed: float) -> int:
        """How many stages the transition has traversed after *elapsed* seconds."""
        if elapsed < 0:
            raise ModelError("elapsed time must be non-negative")
        stage = self.stage_delay(vdd)
        if stage <= 0:
            raise ModelError("non-physical stage delay")
        return min(self.stages, int(elapsed / stage))

    def energy(self, vdd: float) -> float:
        """Energy in joules of one transition propagating through the chain."""
        gate = self._gate
        load = self.fanout * gate.input_capacitance
        return self.stages * gate.transition_energy(vdd, external_load=load)

    def delay_in_inverters(self, vdd: float, other_delay: float) -> float:
        """Express an arbitrary *other_delay* in units of this chain's stage delay.

        This is exactly the y-axis of the paper's Fig. 5 ("delay of SRAM
        reading is equal to 50 inverters at 1 V, 158 inverters at 190 mV").
        """
        stage = self.stage_delay(vdd)
        if stage <= 0:
            raise ModelError("non-physical stage delay")
        return other_delay / stage
