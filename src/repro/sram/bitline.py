"""Bit-line delay and energy model, calibrated to the paper's Fig. 5.

Fig. 5 of the paper quantifies the core problem with conventional (matched
delay) SRAM timing under voltage scaling: expressed in inverter delays, an
SRAM read costs ~50 inverters at Vdd = 1 V but ~158 inverters at 190 mV — the
memory slows down three times faster than the logic that would be used to
time it.  The physical origin is that the cell's read path (access transistor
in series with the pull-down, discharging a heavily loaded bit line) has a
higher effective threshold and a long RC load, so its current collapses
earlier than a logic gate's as Vdd approaches the threshold.

:class:`BitlineModel` is a first-order model of that mechanism: constant-
current discharge of the bit-line capacitance by the cell's read current,
with a configurable effective threshold penalty.  Because the first-order
model cannot capture every second-order contribution of the real 90 nm
design, :func:`calibrate_bitline_to_fig5` solves for the effective penalty
and bit-line capacitance that land exactly on the paper's two anchor points;
the calibrated model then *predicts* the whole curve in between (and below),
which is what the FIG5 benchmark regenerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError, ModelError
from repro.models.delay import InverterChain
from repro.models.gate import GateModel, GateType
from repro.models.mosfet import MosfetModel
from repro.models.technology import Technology
from repro.sram.cell import CellType, SRAMCell


@dataclass
class BitlineModel:
    """Delay/energy model of one SRAM column's bit line.

    Parameters
    ----------
    technology:
        Process parameters.
    rows:
        Number of cells hanging on the bit line (64 for the paper's array).
    swing_fraction:
        Fraction of Vdd the bit line must move before the sense/completion
        logic can react (differential sensing needs only a partial swing).
    read_vth_penalty:
        Effective extra threshold (V) of the cell read path relative to a
        logic inverter.  Defaults to the 6T cell's physical penalty; the
        Fig. 5 calibration replaces it with the fitted effective value.
    bitline_capacitance:
        Total bit-line capacitance in farads; ``None`` derives it from the
        per-row wire and drain capacitance.
    fixed_overhead_inverters:
        Read-path overhead that scales like ordinary logic (decoder, word
        line driver, sense buffering), expressed in inverter delays.
    """

    technology: Technology
    rows: int = 64
    swing_fraction: float = 0.15
    read_vth_penalty: Optional[float] = None
    bitline_capacitance: Optional[float] = None
    fixed_overhead_inverters: float = 10.0

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise ConfigurationError("rows must be >= 1")
        if not (0.0 < self.swing_fraction <= 1.0):
            raise ConfigurationError("swing_fraction must lie in (0, 1]")
        if self.fixed_overhead_inverters < 0:
            raise ConfigurationError("fixed_overhead_inverters must be >= 0")
        if self.read_vth_penalty is None:
            self.read_vth_penalty = CellType.SIX_T.read_vth_penalty
        if self.bitline_capacitance is None:
            per_row = (2.0 * self.technology.wire_cap_per_um  # ~2 µm pitch of wire
                       + 0.5 * self.technology.unit_inverter_output_cap)  # drain
            self.bitline_capacitance = self.rows * per_row
        if self.bitline_capacitance <= 0:
            raise ConfigurationError("bitline_capacitance must be positive")
        self._cell_device = MosfetModel(
            technology=self.technology,
            width_um=self.technology.min_width_um,
            vth_offset=self.read_vth_penalty,
        )
        self._ruler = InverterChain(technology=self.technology, stages=1)
        self._sense = GateModel(technology=self.technology,
                                gate_type=GateType.SENSE_AMP)
        self._driver = GateModel(technology=self.technology,
                                 gate_type=GateType.WRITE_DRIVER)

    # ------------------------------------------------------------------
    # Delay
    # ------------------------------------------------------------------

    def discharge_delay(self, vdd: float) -> float:
        """Time (s) for the selected cell to develop the required swing."""
        swing = self.swing_fraction * vdd
        current = self._cell_device.on_current(vdd)
        if current <= 0:
            raise ModelError(f"cell read current is zero at vdd={vdd}")
        return self.bitline_capacitance * swing / current

    def read_delay(self, vdd: float) -> float:
        """Complete read latency (s): logic overhead + bit-line discharge."""
        overhead = self.fixed_overhead_inverters * self._ruler.stage_delay(vdd)
        return overhead + self.discharge_delay(vdd)

    def read_delay_in_inverters(self, vdd: float) -> float:
        """Read latency expressed in inverter delays — the y-axis of Fig. 5."""
        return self.read_delay(vdd) / self._ruler.stage_delay(vdd)

    def mismatch_ratio(self, vdd: float, reference_vdd: Optional[float] = None) -> float:
        """How much worse the inverter-delay count is at *vdd* vs the reference."""
        if reference_vdd is None:
            reference_vdd = self.technology.vdd_nominal
        return (self.read_delay_in_inverters(vdd)
                / self.read_delay_in_inverters(reference_vdd))

    # ------------------------------------------------------------------
    # Energy
    # ------------------------------------------------------------------

    def precharge_energy(self, vdd: float) -> float:
        """Energy (J) to precharge both bit lines back to Vdd after an access."""
        swing = self.swing_fraction * vdd
        return 2.0 * self.bitline_capacitance * swing * vdd

    def read_energy(self, vdd: float) -> float:
        """Energy (J) of one column read: discharge + sense + restore."""
        return self.precharge_energy(vdd) + self._sense.transition_energy(vdd)

    def write_energy(self, vdd: float) -> float:
        """Energy (J) of one column write: full-swing drive of both bit lines."""
        return (2.0 * self.bitline_capacitance * vdd * vdd
                + self._driver.transition_energy(vdd))

    def leakage_power(self, vdd: float, cell: Optional[SRAMCell] = None) -> float:
        """Static power (W) of the whole column (all cells leak)."""
        if cell is None:
            cell = SRAMCell(self.technology)
        return self.rows * cell.leakage_power(vdd)


def calibrate_bitline_to_fig5(
    technology: Technology,
    anchor_high: Tuple[float, float] = (1.0, 50.0),
    anchor_low: Tuple[float, float] = (0.19, 158.0),
    rows: int = 64,
    fixed_overhead_inverters: float = 10.0,
    swing_fraction: float = 0.15,
) -> BitlineModel:
    """Fit a :class:`BitlineModel` to the two Fig. 5 anchor points.

    The fit has two degrees of freedom:

    * the effective read-path threshold penalty, which controls the *shape*
      (how fast the inverter-delay count grows as Vdd falls), solved by
      bisection;
    * the bit-line capacitance, which controls the *level* (the count at the
      high-voltage anchor), solved in closed form once the shape is fixed.

    Returns the calibrated model; the FIG5 benchmark asserts that it
    reproduces both anchors to within a few percent and that the curve is
    monotonically increasing as Vdd falls.
    """
    vdd_high, target_high = anchor_high
    vdd_low, target_low = anchor_low
    if vdd_low >= vdd_high:
        raise ConfigurationError("anchor_low must be at a lower voltage")
    if target_low <= target_high:
        raise ConfigurationError("the low-voltage anchor must be slower")
    if target_high <= fixed_overhead_inverters:
        raise ConfigurationError(
            "fixed overhead must be smaller than the high-voltage anchor"
        )

    ruler = InverterChain(technology=technology, stages=1)
    t_inv_high = ruler.stage_delay(vdd_high)
    t_inv_low = ruler.stage_delay(vdd_low)
    bl_high = target_high - fixed_overhead_inverters
    bl_low = target_low - fixed_overhead_inverters
    target_shape = (bl_low * t_inv_low) / (bl_high * t_inv_high)

    def shape(penalty: float) -> float:
        device = MosfetModel(technology=technology,
                             width_um=technology.min_width_um,
                             vth_offset=penalty)
        # Discharge time per unit capacitance, absolute seconds.
        t_low = swing_fraction * vdd_low / device.on_current(vdd_low)
        t_high = swing_fraction * vdd_high / device.on_current(vdd_high)
        return t_low / t_high

    lo, hi = 0.0, 0.35
    if not (shape(lo) <= target_shape <= shape(hi)):
        raise ModelError(
            "Fig. 5 anchors are outside the range the bit-line model can fit"
        )
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if shape(mid) < target_shape:
            lo = mid
        else:
            hi = mid
    penalty = 0.5 * (lo + hi)

    device = MosfetModel(technology=technology,
                         width_um=technology.min_width_um,
                         vth_offset=penalty)
    per_farad_high = swing_fraction * vdd_high / device.on_current(vdd_high)
    capacitance = bl_high * t_inv_high / per_farad_high

    return BitlineModel(
        technology=technology,
        rows=rows,
        swing_fraction=swing_fraction,
        read_vth_penalty=penalty,
        bitline_capacitance=capacitance,
        fixed_overhead_inverters=fixed_overhead_inverters,
    )
