"""Continuous weak/strong-inversion MOSFET drive-current model.

The paper's circuits operate across an extreme supply range (0.2 V – 1 V in
90 nm, i.e. from deep sub-threshold to nominal).  The single property all of
its arguments rest on is how the *drive current* — and therefore gate delay —
degrades as Vdd approaches and crosses the threshold voltage:

* above threshold the alpha-power law holds,  ``I ∝ (Vdd - Vth)^α``;
* below threshold the current is exponential, ``I ∝ exp((Vdd - Vth)/(n·kT/q))``;
* the transition between the two regions must be smooth, otherwise sweeps of
  delay/energy versus Vdd develop artificial kinks.

We use an EKV-flavoured interpolation based on ``ln(1 + exp(x))`` (the
"softplus" function), raised to the alpha power, and normalised so that the
current at nominal Vdd equals the technology's quoted on-current.  This gives
one continuous, monotonic expression valid over the whole range, which is all
the behavioural simulator needs.
"""

from __future__ import annotations

import math
from math import exp, log1p
from dataclasses import dataclass

from repro.errors import ModelError
from repro.models.technology import Technology
from repro.units import thermal_voltage


def _softplus(x: float) -> float:
    """Numerically stable ``ln(1 + exp(x))``."""
    if x > 40.0:
        return x
    if x < -40.0:
        return math.exp(x)
    return math.log1p(math.exp(x))


@dataclass(frozen=True)
class MosfetModel:
    """Drive-current and leakage model for one transistor (or stack).

    Parameters
    ----------
    technology:
        The :class:`~repro.models.technology.Technology` supplying Vth, the
        sub-threshold slope factor, alpha and the per-micron current scales.
    width_um:
        Effective transistor width in microns.
    vth_offset:
        Additional threshold voltage in volts.  SRAM cell access paths,
        stacked transistors (8T cells) and slow process corners are modelled
        by raising the effective threshold; fast corners by lowering it.
    drive_derating:
        Multiplicative factor on the on-current (models stacking factor,
        mobility differences between NMOS/PMOS, corner strength).
    """

    technology: Technology
    width_um: float = 1.0
    vth_offset: float = 0.0
    drive_derating: float = 1.0

    def __post_init__(self) -> None:
        if self.width_um <= 0:
            raise ModelError(f"width_um must be positive, got {self.width_um}")
        if self.drive_derating <= 0:
            raise ModelError(
                f"drive_derating must be positive, got {self.drive_derating}"
            )
        # Constants of the frozen fields, computed once.  Keep each float
        # expression operand for operand (``tech.vth + 0.0`` included): the
        # results must stay bit-identical, which tests/test_models_gate.py
        # checks with ==.  Plain attributes, not fields, so equality,
        # hashing and stable_repr (hence cache keys) ignore them.
        tech = self.technology
        n_ut = tech.subthreshold_slope_factor * thermal_voltage(tech.temperature_k)
        # The nominal device (zero offset, unit width and derating) at
        # nominal Vdd sets the current scale.
        reference = _softplus(
            (tech.vdd_nominal - (tech.vth + 0.0)) / n_ut) ** tech.alpha
        if reference <= 0:
            raise ModelError("technology parameters give zero reference current")
        object.__setattr__(self, "_n_ut", n_ut)
        object.__setattr__(self, "_alpha", tech.alpha)
        object.__setattr__(self, "_vth", tech.vth + self.vth_offset)
        object.__setattr__(
            self, "_scale",
            tech.i_on_per_um * self.width_um * self.drive_derating / reference)

    # ------------------------------------------------------------------
    # Core current expressions
    # ------------------------------------------------------------------

    @property
    def effective_vth(self) -> float:
        """Threshold voltage including the per-device offset."""
        return self._vth

    def on_current(self, vgs: float) -> float:
        """Saturation drive current in amperes with gate at *vgs* volts.

        ``scale · softplus((vgs - vth) / (n·Ut)) ** alpha`` — exponential
        below threshold, power-law above, smooth in between — normalised so
        that at the technology's nominal Vdd (and zero ``vth_offset``, unit
        derating) the current equals ``i_on_per_um × width``.  The softplus
        is evaluated inline, with :func:`_softplus`'s three branches, so one
        call is one frame.
        """
        if vgs < 0:
            raise ModelError(f"vgs must be non-negative, got {vgs}")
        x = (vgs - self._vth) / self._n_ut
        if x > 40.0:
            softplus = x
        elif x < -40.0:
            softplus = exp(x)
        else:
            softplus = log1p(exp(x))
        return self._scale * softplus ** self._alpha

    def leakage_current(self, vdd: float) -> float:
        """Sub-threshold (off-state) leakage in amperes at supply *vdd*.

        Modelled as the technology's quoted per-micron leakage at nominal
        Vdd, scaled by a DIBL-like exponential in the supply voltage and by
        the same threshold offset used for the on-current (stacked devices
        leak exponentially less).
        """
        if vdd < 0:
            raise ModelError(f"vdd must be non-negative, got {vdd}")
        if vdd == 0:
            return 0.0
        tech = self.technology
        dibl = 0.08  # V of effective Vth reduction per V of Vds, typical 90 nm
        exponent = (dibl * (vdd - tech.vdd_nominal) - self.vth_offset) / self._n_ut
        return tech.i_leak_per_um * self.width_um * math.exp(exponent)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    def on_off_ratio(self, vdd: float) -> float:
        """Ratio of drive current to leakage at supply *vdd*.

        This collapses toward 1 in deep sub-threshold, which is the physical
        reason the minimum-energy point exists: below it, operations take so
        long that leakage dominates.
        """
        leak = self.leakage_current(vdd)
        if leak <= 0:
            return math.inf
        return self.on_current(vdd) / leak

    def discharge_time(self, vdd: float, capacitance: float, swing: float) -> float:
        """Time in seconds to slew *capacitance* farads by *swing* volts.

        First-order model: constant-current discharge at the saturation drive
        current, ``t = C·ΔV / I_on(vdd)``.  Used for bitlines and long wires.
        """
        if capacitance < 0 or swing < 0:
            raise ModelError("capacitance and swing must be non-negative")
        current = self.on_current(vdd)
        if current <= 0:
            raise ModelError(f"zero drive current at vdd={vdd}")
        return capacitance * swing / current
