"""Operation-level energy model: switching vs leakage and the minimum-energy point.

The key quantitative claim of the paper's SRAM section is that the
speed-independent SRAM has a *minimum energy per operation around Vdd = 0.4 V*
(5.8 pJ per 16-bit write at 1 V versus 1.9 pJ at 0.4 V).  The mechanism is
generic and well known: switching energy falls quadratically with Vdd while
the leakage energy *per operation* grows as operations get slower, so their
sum has an interior minimum.  :class:`EnergyModel` captures exactly that
trade-off for an arbitrary block characterised by a transition count, a
switched capacitance and an idle leakage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.errors import ModelError
from repro.models.gate import GateModel, GateType
from repro.models.technology import Technology


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one operation at one supply voltage, split by mechanism."""

    vdd: float
    switching: float
    short_circuit: float
    leakage: float

    @property
    def total(self) -> float:
        """Total energy in joules."""
        return self.switching + self.short_circuit + self.leakage

    def as_dict(self) -> dict:
        """Plain-dict view for report rendering."""
        return {
            "vdd": self.vdd,
            "switching": self.switching,
            "short_circuit": self.short_circuit,
            "leakage": self.leakage,
            "total": self.total,
        }


@dataclass(frozen=True)
class EnergyModel:
    """Energy-per-operation model for a digital block.

    Parameters
    ----------
    technology:
        Process parameter set.
    transitions_per_op:
        Number of gate output transitions one operation causes (e.g. the
        number of bit-line, word-line and control transitions of one SRAM
        write).
    switched_cap_per_transition:
        Average capacitance switched per transition, in farads.
    leakage_gates:
        Equivalent number of minimum-size inverters whose leakage is burned
        for the whole duration of the operation (idle parts of the array
        leak too).
    delay_model:
        Callable mapping Vdd (volts) to operation latency (seconds).  This is
        what couples "slower at low Vdd" to "more leakage per operation".
    """

    technology: Technology
    transitions_per_op: float
    switched_cap_per_transition: float
    leakage_gates: float
    delay_model: Callable[[float], float]

    def __post_init__(self) -> None:
        if self.transitions_per_op <= 0:
            raise ModelError("transitions_per_op must be positive")
        if self.switched_cap_per_transition <= 0:
            raise ModelError("switched_cap_per_transition must be positive")
        if self.leakage_gates < 0:
            raise ModelError("leakage_gates must be non-negative")
        # Built once; a plain attribute, so equality and stable_repr (hence
        # cache keys) see only the fields.
        object.__setattr__(self, "_reference_gate", GateModel(
            technology=self.technology, gate_type=GateType.INVERTER))

    # ------------------------------------------------------------------

    def switching_energy(self, vdd: float) -> float:
        """Dynamic switching energy of one operation in joules."""
        if vdd < 0:
            raise ModelError("vdd must be non-negative")
        per_transition = 0.5 * self.switched_cap_per_transition * vdd * vdd
        return self.transitions_per_op * per_transition

    def short_circuit_energy(self, vdd: float) -> float:
        """Crowbar energy of one operation (zero below threshold)."""
        if vdd <= self.technology.vth:
            return 0.0
        return 0.10 * self.switching_energy(vdd)

    def leakage_energy(self, vdd: float) -> float:
        """Leakage energy integrated over the operation's duration in joules."""
        latency = self.delay_model(vdd)
        if latency < 0:
            raise ModelError("delay_model returned a negative latency")
        leak_power = self.leakage_gates * self._reference_gate.leakage_power(vdd)
        return leak_power * latency

    def breakdown(self, vdd: float) -> EnergyBreakdown:
        """Full energy breakdown of one operation at supply *vdd*."""
        return EnergyBreakdown(
            vdd=vdd,
            switching=self.switching_energy(vdd),
            short_circuit=self.short_circuit_energy(vdd),
            leakage=self.leakage_energy(vdd),
        )

    def energy_per_op(self, vdd: float) -> float:
        """Total energy of one operation at supply *vdd* in joules."""
        return self.breakdown(vdd).total

    # ------------------------------------------------------------------
    # Sweeps and the minimum-energy point
    # ------------------------------------------------------------------

    def sweep(self, vdd_values: Sequence[float]) -> List[EnergyBreakdown]:
        """Evaluate :meth:`breakdown` over a sequence of supply voltages."""
        if not vdd_values:
            raise ModelError("vdd_values must not be empty")
        return [self.breakdown(v) for v in vdd_values]

    def minimum_energy_point(self, vdd_low: float, vdd_high: float,
                             samples: int = 200) -> Tuple[float, float]:
        """Locate the supply voltage minimising energy per operation.

        Returns ``(vdd_opt, energy_opt)``.  A dense scan followed by a local
        golden-section refinement is plenty for the smooth single-minimum
        curves this model produces.
        """
        if not (0 < vdd_low < vdd_high):
            raise ModelError("require 0 < vdd_low < vdd_high")
        if samples < 3:
            raise ModelError("samples must be >= 3")
        step = (vdd_high - vdd_low) / (samples - 1)
        grid = [vdd_low + i * step for i in range(samples)]
        energies = [self.energy_per_op(v) for v in grid]
        idx = energies.index(min(energies))
        lo = grid[max(0, idx - 1)]
        hi = grid[min(samples - 1, idx + 1)]

        golden = 0.381966011250105
        a, b = lo, hi
        for _ in range(60):
            c = a + golden * (b - a)
            d = b - golden * (b - a)
            if self.energy_per_op(c) < self.energy_per_op(d):
                b = d
            else:
                a = c
        vdd_opt = 0.5 * (a + b)
        return vdd_opt, self.energy_per_op(vdd_opt)

    def energy_delay_product(self, vdd: float) -> float:
        """Energy-delay product (J·s) of one operation at supply *vdd*."""
        return self.energy_per_op(vdd) * self.delay_model(vdd)
