"""Per-gate delay and energy model.

A :class:`GateModel` answers the two questions the event-driven simulator
asks for every logic transition:

* *how long* does the output take to switch, given the instantaneous supply
  voltage and the capacitive load being driven, and
* *how much energy* does the transition draw from that supply.

Both depend on the gate type (an inverter switches faster and costs less than
a C-element of the same drive), the transistor model and the technology.  The
gate types provided cover everything the paper's circuits need: plain
inverters and NAND/NOR for bundled-data logic, C-elements and dual-rail
completion gates for the speed-independent designs, and the toggle flip-flop
used by the charge-to-digital converter.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ModelError
from repro.models.mosfet import MosfetModel
from repro.models.technology import Technology


class GateType(enum.Enum):
    """Gate archetypes with distinct drive / capacitance / complexity factors.

    The three numbers attached to each member are, in order:

    * ``logical_effort`` — ratio of the gate's input capacitance to an
      inverter delivering the same output current (Sutherland's logical
      effort);
    * ``parasitic`` — intrinsic output capacitance in units of the unit
      inverter's parasitic capacitance;
    * ``transistors`` — transistor count, used for leakage scaling.
    """

    INVERTER = ("inverter", 1.0, 1.0, 2)
    BUFFER = ("buffer", 1.0, 2.0, 4)
    NAND2 = ("nand2", 4.0 / 3.0, 2.0, 4)
    NOR2 = ("nor2", 5.0 / 3.0, 2.0, 4)
    AND2 = ("and2", 4.0 / 3.0, 3.0, 6)
    OR2 = ("or2", 5.0 / 3.0, 3.0, 6)
    XOR2 = ("xor2", 2.0, 4.0, 8)
    C_ELEMENT = ("c_element", 2.0, 3.0, 8)
    C_ELEMENT3 = ("c_element3", 2.5, 4.0, 10)
    TOGGLE = ("toggle", 2.5, 5.0, 14)
    LATCH = ("latch", 1.5, 3.0, 8)
    SRAM_CELL = ("sram_cell", 1.2, 1.0, 6)
    SRAM_CELL_8T = ("sram_cell_8t", 1.3, 1.2, 8)
    SENSE_AMP = ("sense_amp", 2.0, 4.0, 10)
    WRITE_DRIVER = ("write_driver", 1.0, 3.0, 6)
    MUTEX = ("mutex", 2.0, 3.0, 8)

    def __init__(self, label: str, logical_effort: float, parasitic: float,
                 transistors: int) -> None:
        self.label = label
        self.logical_effort = logical_effort
        self.parasitic = parasitic
        self.transistors = transistors


@dataclass(frozen=True)
class GateModel:
    """Delay/energy model for a single gate instance.

    Parameters
    ----------
    technology:
        Process parameter set.
    gate_type:
        One of :class:`GateType`; sets logical effort, parasitics, leakage.
    drive_strength:
        Sizing factor relative to a minimum-size gate (X1, X2, X4 ...).
    vth_offset, drive_derating:
        Forwarded to the underlying :class:`~repro.models.mosfet.MosfetModel`
        (used for corners and for intentionally slow paths).
    activity_factor:
        Fraction of the rail-to-rail swing the output actually performs per
        "transition" reported to the simulator (1.0 for full-swing logic).
    """

    technology: Technology
    gate_type: GateType = GateType.INVERTER
    drive_strength: float = 1.0
    vth_offset: float = 0.0
    drive_derating: float = 1.0
    activity_factor: float = 1.0
    _mosfet: MosfetModel = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if self.drive_strength <= 0:
            raise ModelError("drive_strength must be positive")
        if not (0.0 < self.activity_factor <= 1.0):
            raise ModelError("activity_factor must lie in (0, 1]")
        tech = self.technology
        width = tech.min_width_um * 3.0 * self.drive_strength
        object.__setattr__(
            self,
            "_mosfet",
            MosfetModel(
                technology=tech,
                width_um=width,
                vth_offset=self.vth_offset,
                drive_derating=self.drive_derating,
            ),
        )
        # Capacitances depend only on the fields, so they are computed once
        # and stored like ``_mosfet``: outside the dataclass fields,
        # invisible to equality and stable_repr.
        cin = (tech.unit_inverter_input_cap * self.gate_type.logical_effort
               * self.drive_strength)
        cp = (tech.unit_inverter_output_cap * self.gate_type.parasitic
              * self.drive_strength)
        object.__setattr__(self, "_cin", cin)
        object.__setattr__(self, "_cp", cp)
        # Total load of the default fan-out of one like gate.
        object.__setattr__(self, "_default_load", cp + cin)
        # Read on every delay / energy call (the Technology is frozen).
        object.__setattr__(self, "_vdd_min", tech.vdd_min)
        object.__setattr__(self, "_vth_nominal", tech.vth)

    # ------------------------------------------------------------------
    # Capacitances
    # ------------------------------------------------------------------

    @property
    def input_capacitance(self) -> float:
        """Capacitance presented to whatever drives this gate, in farads."""
        return self._cin

    @property
    def parasitic_capacitance(self) -> float:
        """Intrinsic output (self-load) capacitance in farads."""
        return self._cp

    def total_load(self, external_load: Optional[float] = None) -> float:
        """Total switched capacitance in farads for *external_load*.

        ``None`` means a fan-out of one like gate.
        """
        if external_load is None:
            return self._default_load
        if external_load < 0:
            raise ModelError("external load must be non-negative")
        return self._cp + external_load

    # ------------------------------------------------------------------
    # Delay
    # ------------------------------------------------------------------

    def delay(self, vdd: float, external_load: Optional[float] = None) -> float:
        """Propagation delay in seconds at supply *vdd* driving *external_load*.

        ``t = C_total · Vdd / (2 · I_on(Vdd))`` — the classical CV/I estimate
        with the factor 2 accounting for switching at the 50 % crossing.
        Raises :class:`~repro.errors.ModelError` if *vdd* is below the
        technology's minimum functional voltage (the caller — usually a
        supply node — decides whether that means "stall" or "fail").
        """
        if vdd < self._vdd_min:
            tech = self.technology
            raise ModelError(
                f"vdd={vdd:.3f} V below functional minimum {tech.vdd_min:.3f} V "
                f"for {tech.name}"
            )
        if external_load is None:
            load = self._default_load
        else:
            load = self.total_load(external_load)
        current = self._mosfet.on_current(vdd)
        if not 0.0 < current < math.inf:  # also rejects NaN
            raise ModelError(f"non-physical drive current {current} at vdd={vdd}")
        return load * vdd / (2.0 * current)

    def frequency(self, vdd: float, external_load: Optional[float] = None,
                  stages: int = 2) -> float:
        """Equivalent toggle frequency in hertz of a *stages*-deep loop.

        Used for ring-oscillator style sensors: a loop of ``stages`` gates
        oscillates at ``1 / (2 · stages · delay)``.
        """
        if stages < 1:
            raise ModelError("stages must be >= 1")
        return 1.0 / (2.0 * stages * self.delay(vdd, external_load))

    # ------------------------------------------------------------------
    # Energy
    # ------------------------------------------------------------------

    def switching_energy(self, vdd: float,
                         external_load: Optional[float] = None) -> float:
        """Energy in joules drawn from the supply for one output transition.

        A full charge of the load through the PMOS network draws ``C·Vdd²``
        from the rail, half of which is dissipated on the way and half stored
        (and later dumped on the falling edge).  Averaged over a
        rising/falling pair each transition therefore costs ``½·C·Vdd²``,
        scaled by the gate's activity factor.
        """
        if vdd < 0:
            raise ModelError("vdd must be non-negative")
        load = self.total_load(external_load)
        return 0.5 * load * vdd * vdd * self.activity_factor

    def short_circuit_energy(self, vdd: float,
                             external_load: Optional[float] = None) -> float:
        """Crowbar (short-circuit) energy per transition in joules.

        Modelled as a fixed 10 % of the switching energy above threshold and
        zero below it (both devices can no longer conduct strongly at once).
        """
        switching = self.switching_energy(vdd, external_load)
        return 0.0 if vdd <= self._vth_nominal else 0.10 * switching

    def leakage_power(self, vdd: float) -> float:
        """Static power in watts burned while the gate is idle at *vdd*."""
        per_transistor = self._mosfet.leakage_current(vdd) / 2.0
        return per_transistor * self.gate_type.transistors * vdd

    def transition_energy(self, vdd: float,
                          external_load: Optional[float] = None) -> float:
        """Total dynamic energy (switching + short-circuit) per transition.

        :meth:`switching_energy` plus :meth:`short_circuit_energy`, with
        both expressions evaluated inline so one call is one frame.
        """
        if vdd < 0:
            raise ModelError("vdd must be non-negative")
        if external_load is None:
            load = self._default_load
        else:
            load = self.total_load(external_load)
        switching = 0.5 * load * vdd * vdd * self.activity_factor
        # switching + short_circuit_energy, operand for operand.
        if vdd <= self._vth_nominal:
            return switching + 0.0
        return switching + 0.10 * switching

    def transition_charge(self, vdd: float,
                          external_load: Optional[float] = None) -> float:
        """Charge in coulombs drawn from the supply for one transition.

        The charge-to-digital converter's proportionality between sampled
        charge and final count (Fig. 11) comes directly from this quantity.
        """
        if vdd <= 0:
            return 0.0
        return self.transition_energy(vdd, external_load) / vdd * 2.0
