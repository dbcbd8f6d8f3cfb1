"""Vectorised (sample-batched) counterparts of the scalar device models.

The scalar models (:mod:`repro.models.mosfet`, :mod:`repro.models.gate`)
evaluate one device at one operating point per call — the right shape for
the event-driven simulator, and far too slow for Monte-Carlo studies that
evaluate the *same* closed-form expression at thousands of perturbed
parameter sets.  This module provides the batched view: a
:class:`TechnologyBatch` carries the per-sample arrays of the three
parameters process variation perturbs (``vth``, ``i_on_per_um``,
``i_leak_per_um``) next to the shared base :class:`~repro.models.technology.Technology`,
and the kernel functions below evaluate whole batches with numpy
elementwise arithmetic.

Numerical contract
------------------
Every kernel is strictly *elementwise*: the value computed for sample ``i``
depends only on sample ``i``'s inputs, never on the batch size or on the
sample's position (numpy's vectorised transcendentals are elementwise
deterministic).  Evaluating a one-sample batch therefore returns exactly
the same bits as evaluating that sample inside a larger batch — the
property the runner's batched-quantity protocol
(:func:`repro.analysis.runner.batched`) relies on for its serial/batched
bit-identity guarantee.  Against the *scalar* models the kernels agree to
within a few ULPs only (``numpy``'s ``exp``/``log1p``/``**`` and the C
library's disagree in the last bit), which is why batched quantities
derive their per-point path from the batch kernel rather than from the
scalar models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.models.gate import GateType
from repro.models.technology import Technology
from repro.units import thermal_voltage


def _as_array(values) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if array.ndim == 0:
        array = array.reshape(1)
    if array.ndim != 1:
        raise ModelError(f"batch arrays must be 1-D, got shape {array.shape}")
    return array


@dataclass(frozen=True)
class TechnologyBatch:
    """A batch of technologies: one base plus per-sample perturbed arrays.

    Process variation (:class:`~repro.models.variation.ProcessVariation`)
    only ever perturbs the threshold voltage, the drive current and the
    leakage current; every other technology parameter is shared by all
    samples and read from :attr:`base`.
    """

    base: Technology
    vth: np.ndarray
    i_on_per_um: np.ndarray
    i_leak_per_um: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "vth", _as_array(self.vth))
        object.__setattr__(self, "i_on_per_um", _as_array(self.i_on_per_um))
        object.__setattr__(self, "i_leak_per_um",
                           _as_array(self.i_leak_per_um))
        if not (len(self.vth) == len(self.i_on_per_um)
                == len(self.i_leak_per_um)):
            raise ModelError("batch parameter arrays must share one length")

    @property
    def size(self) -> int:
        """Number of samples in the batch."""
        return len(self.vth)

    @classmethod
    def of(cls, technology: Technology) -> "TechnologyBatch":
        """A one-sample batch wrapping *technology* unchanged."""
        return cls(base=technology,
                   vth=np.array([technology.vth]),
                   i_on_per_um=np.array([technology.i_on_per_um]),
                   i_leak_per_um=np.array([technology.i_leak_per_um]))

    @classmethod
    def from_samples(cls, base: Technology, vth_offsets, drive_deratings,
                     leakage_factors) -> "TechnologyBatch":
        """Apply per-sample variation draws to *base*.

        The arithmetic mirrors
        :meth:`~repro.models.variation.ProcessVariation.apply_to` exactly
        (``vth + offset``, ``i_on × derating``, ``i_leak × factor``), so a
        batch built from pre-drawn sample arrays carries bit-identical
        parameters to the per-sample ``Technology`` objects the scalar
        path builds.
        """
        offsets = _as_array(vth_offsets)
        deratings = _as_array(drive_deratings)
        factors = _as_array(leakage_factors)
        return cls(base=base,
                   vth=base.vth + offsets,
                   i_on_per_um=base.i_on_per_um * deratings,
                   i_leak_per_um=base.i_leak_per_um * factors)


# ---------------------------------------------------------------------------
# MOSFET kernels (vectorised MosfetModel)


def softplus(x) -> np.ndarray:
    """Numerically stable ``ln(1 + exp(x))``, elementwise.

    Same three-branch split as :func:`repro.models.mosfet._softplus` so
    the batched current model has the scalar model's asymptotics.
    """
    x = np.asarray(x, dtype=float)
    clipped = np.clip(x, -700.0, 40.0)
    exp = np.exp(clipped)
    return np.where(x > 40.0, x, np.where(x < -40.0, exp, np.log1p(exp)))


def inversion_charge(batch: TechnologyBatch, vgs,
                     vth_offset=0.0) -> np.ndarray:
    """Dimensionless inversion-charge factor, elementwise over the batch.

    ``softplus((vgs - vth) / (n·Ut)) ** alpha``, the factor
    :meth:`~repro.models.mosfet.MosfetModel.on_current` scales; *vgs* and
    *vth_offset* may be scalars or arrays broadcasting against the batch.
    """
    tech = batch.base
    n_ut = tech.subthreshold_slope_factor * thermal_voltage(tech.temperature_k)
    x = (np.asarray(vgs, dtype=float) - (batch.vth + vth_offset)) / n_ut
    return softplus(x) ** tech.alpha


def on_current(batch: TechnologyBatch, vgs, width_um: float = 1.0,
               vth_offset=0.0, drive_derating: float = 1.0) -> np.ndarray:
    """Saturation drive current (A), elementwise over the batch.

    Vectorised :meth:`~repro.models.mosfet.MosfetModel.on_current`: the
    normalisation reference is evaluated per sample because the perturbed
    threshold moves it.
    """
    if np.any(np.asarray(vgs, dtype=float) < 0):
        raise ModelError("vgs must be non-negative")
    reference = inversion_charge(batch, batch.base.vdd_nominal)
    if np.any(reference <= 0):
        raise ModelError("technology parameters give zero reference current")
    scale = batch.i_on_per_um * width_um * drive_derating / reference
    return scale * inversion_charge(batch, vgs, vth_offset)


def leakage_current(batch: TechnologyBatch, vdd,
                    width_um: float = 1.0, vth_offset=0.0) -> np.ndarray:
    """Sub-threshold leakage (A), elementwise over the batch.

    Vectorised :meth:`~repro.models.mosfet.MosfetModel.leakage_current`.
    """
    vdd = np.asarray(vdd, dtype=float)
    if np.any(vdd < 0):
        raise ModelError("vdd must be non-negative")
    tech = batch.base
    n_ut = tech.subthreshold_slope_factor * thermal_voltage(tech.temperature_k)
    dibl = 0.08  # matches the scalar model's typical 90 nm value
    exponent = (dibl * (vdd - tech.vdd_nominal) - vth_offset) / n_ut
    current = batch.i_leak_per_um * width_um * np.exp(exponent)
    return np.where(vdd == 0.0, 0.0, current)


# ---------------------------------------------------------------------------
# Gate kernels (vectorised GateModel)


def gate_input_capacitance(technology: Technology, gate_type: GateType,
                           drive_strength: float = 1.0) -> float:
    """Input capacitance (F) of a gate — shared by all batch samples."""
    return (technology.unit_inverter_input_cap
            * gate_type.logical_effort * drive_strength)


def gate_parasitic_capacitance(technology: Technology, gate_type: GateType,
                               drive_strength: float = 1.0) -> float:
    """Intrinsic output capacitance (F) — shared by all batch samples."""
    return (technology.unit_inverter_output_cap
            * gate_type.parasitic * drive_strength)


def gate_delay(batch: TechnologyBatch, vdd,
               gate_type: GateType = GateType.INVERTER,
               drive_strength: float = 1.0, vth_offset=0.0,
               drive_derating: float = 1.0,
               external_load=None) -> np.ndarray:
    """Propagation delay (s), elementwise over the batch.

    Vectorised :meth:`~repro.models.gate.GateModel.delay`: same CV/I
    estimate, same below-``vdd_min`` rejection.  *vdd* and
    *external_load* may be arrays broadcasting against the batch (for
    sweep-axis batching over voltages).
    """
    tech = batch.base
    vdd = np.asarray(vdd, dtype=float)
    if np.any(vdd < tech.vdd_min):
        raise ModelError(
            f"vdd below functional minimum {tech.vdd_min:.3f} V "
            f"for {tech.name}")
    if external_load is None:
        external_load = gate_input_capacitance(tech, gate_type,
                                               drive_strength)
    load = (gate_parasitic_capacitance(tech, gate_type, drive_strength)
            + np.asarray(external_load, dtype=float))
    width = tech.min_width_um * 3.0 * drive_strength
    current = on_current(batch, vdd, width, vth_offset, drive_derating)
    if np.any(current <= 0) or not np.all(np.isfinite(current)):
        raise ModelError(f"non-physical drive current at vdd={vdd}")
    return load * vdd / (2.0 * current)


def gate_transition_energy(batch: TechnologyBatch, vdd,
                           gate_type: GateType = GateType.INVERTER,
                           drive_strength: float = 1.0,
                           activity_factor: float = 1.0,
                           external_load=None) -> np.ndarray:
    """Dynamic energy (J) per transition, elementwise over the batch.

    Vectorised switching + short-circuit sum of
    :meth:`~repro.models.gate.GateModel.transition_energy`; the crowbar
    term cuts off at the *per-sample* threshold voltage.
    """
    tech = batch.base
    vdd = np.asarray(vdd, dtype=float)
    if np.any(vdd < 0):
        raise ModelError("vdd must be non-negative")
    if external_load is None:
        external_load = gate_input_capacitance(tech, gate_type,
                                               drive_strength)
    load = (gate_parasitic_capacitance(tech, gate_type, drive_strength)
            + np.asarray(external_load, dtype=float))
    switching = 0.5 * load * vdd * vdd * activity_factor
    short_circuit = np.where(vdd > batch.vth, 0.10 * switching, 0.0)
    return switching + short_circuit


def inverter_stage_delay(batch: TechnologyBatch, vdd, fanout: float = 1.0,
                         drive_strength: float = 1.0) -> np.ndarray:
    """Delay (s) of one inverter-chain stage, elementwise over the batch.

    Vectorised :meth:`~repro.models.delay.InverterChain.stage_delay`.
    """
    load = fanout * gate_input_capacitance(batch.base, GateType.INVERTER,
                                           drive_strength)
    return gate_delay(batch, vdd, GateType.INVERTER, drive_strength,
                      external_load=load)


def fo4_delay(batch: TechnologyBatch, vdd) -> np.ndarray:
    """Fan-out-of-4 inverter delay (s), elementwise over the batch.

    Vectorised :func:`repro.models.delay.fo4_delay`.
    """
    cin = gate_input_capacitance(batch.base, GateType.INVERTER)
    return gate_delay(batch, vdd, GateType.INVERTER,
                      external_load=4.0 * cin)
