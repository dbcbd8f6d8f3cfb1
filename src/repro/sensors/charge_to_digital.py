"""Charge-to-digital converter (paper Figs. 8, 9 and 11).

The converter *is* energy-modulated computing in miniature: "a circuit which
turns an amount of energy into the amount of computation".  A sampling
capacitor is charged from the node being measured (switch S1), then handed to
a self-timed counter running in oscillator mode (switch S2).  Every counter
transition removes a fixed quantum of charge; the logic slows as the
capacitor sags and finally stalls, and the frozen count is a monotonic
function of the sampled voltage — no voltage, current or time reference
anywhere.

Two evaluation paths are provided:

* :meth:`ChargeToDigitalConverter.convert` — full event-driven simulation of
  the counter draining the capacitor (the ground truth, used by tests and the
  Fig. 11 benchmark);
* :meth:`ChargeToDigitalConverter.predicted_count` — the closed-form estimate
  from charge conservation, used for quick sweeps and as an independent
  cross-check of the simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError, SensorError
from repro.models.gate import GateModel, GateType
from repro.models.technology import Technology
from repro.power.capacitor import SamplingCapacitor
from repro.power.supply import SupplyNode
from repro.sensors.calibration import CalibrationTable, build_calibration
from repro.sim.probes import EnergyProbe
from repro.sim.simulator import Simulator
from repro.selftimed.counter import SelfTimedCounter


@dataclass
class ConversionResult:
    """Outcome of one charge-to-digital conversion."""

    sampled_voltage: float
    final_voltage: float
    count: int
    counter_value: int
    pulses: int
    conversion_time: float
    energy_consumed: float
    charge_consumed: float

    @property
    def charge_per_count(self) -> float:
        """Average charge drawn per counted pulse, in coulombs."""
        if self.pulses == 0:
            return float("nan")
        return self.charge_consumed / self.pulses


class ChargeToDigitalConverter:
    """Sampling capacitor + self-timed counter voltage sensor.

    Parameters
    ----------
    technology:
        Process parameters.
    sampling_capacitance:
        The sampling capacitor C_sample in farads.  Larger capacitors store
        more charge per volt and therefore produce larger (finer-grained)
        codes at the cost of longer conversions.
    counter_width:
        Number of toggle stages in the counter; the code saturates at
        ``2**width - 1`` pulses.
    sampling_time:
        How long switch S1 stays closed; with a constant sampling time the
        acquired charge is proportional to the measured voltage.
    switch_resistance:
        On-resistance of S1 in ohms.
    stop_voltage:
        Supply level at which the counter is considered stalled; defaults to
        the technology's functional minimum.
    """

    def __init__(self, technology: Technology,
                 sampling_capacitance: float = 30e-12,
                 counter_width: int = 16,
                 sampling_time: float = 1e-6,
                 switch_resistance: float = 1e3,
                 stop_voltage: Optional[float] = None) -> None:
        if sampling_capacitance <= 0:
            raise ConfigurationError("sampling_capacitance must be positive")
        if counter_width < 1:
            raise ConfigurationError("counter_width must be >= 1")
        if sampling_time <= 0:
            raise ConfigurationError("sampling_time must be positive")
        self.technology = technology
        self.sampling_capacitance = sampling_capacitance
        self.counter_width = counter_width
        self.sampling_time = sampling_time
        self.switch_resistance = switch_resistance
        self.stop_voltage = (technology.vdd_min if stop_voltage is None
                             else stop_voltage)
        if self.stop_voltage < technology.vdd_min:
            raise ConfigurationError(
                "stop_voltage cannot be below the technology's functional minimum"
            )
        self._toggle_model = GateModel(technology=technology,
                                       gate_type=GateType.TOGGLE)
        self._osc_model = GateModel(technology=technology,
                                    gate_type=GateType.INVERTER)
        self.calibration: Optional[CalibrationTable] = None

    # ------------------------------------------------------------------
    # Event-driven conversion (the real thing)
    # ------------------------------------------------------------------

    def convert(self, source: SupplyNode,
                energy_probe: Optional[EnergyProbe] = None,
                max_pulses: Optional[int] = None) -> ConversionResult:
        """Run one full conversion against *source*.

        The source is only touched during the sampling phase (S1); the
        conversion itself runs entirely off the sampling capacitor.
        *max_pulses* bounds the pulse count (default: the counter's full
        range, ``2**width - 1``); it must be at least 1.
        """
        sim = Simulator()
        capacitor = SamplingCapacitor(
            capacitance=self.sampling_capacitance,
            switch_resistance=self.switch_resistance,
            min_operating_voltage=self.stop_voltage,
            name="ctd.csample",
        )
        sampled = capacitor.sample(source, self.sampling_time, time=0.0)
        counter = SelfTimedCounter(
            sim, capacitor, self.technology,
            name="ctd.counter",
            width=self.counter_width,
            max_pulses=((1 << self.counter_width) - 1 if max_pulses is None
                        else max_pulses),
            energy_probe=energy_probe,
        )
        if sampled >= self.technology.vdd_min:
            counter.start_oscillator()
            sim.run()
        return ConversionResult(
            sampled_voltage=sampled,
            final_voltage=capacitor.voltage(sim.now),
            count=counter.pulses_generated,
            counter_value=counter.value(),
            pulses=counter.pulses_generated,
            conversion_time=sim.now,
            energy_consumed=capacitor.energy_delivered,
            charge_consumed=capacitor.charge_delivered,
        )

    # ------------------------------------------------------------------
    # Closed-form prediction (charge conservation)
    # ------------------------------------------------------------------

    def charge_per_pulse(self, vdd: float) -> float:
        """Charge (C) one oscillator pulse plus its toggles draws at *vdd*.

        One pulse costs two oscillator edges plus, on average, two toggle
        events' worth of internal transitions spread over the chain
        (each stage toggles half as often as the previous one, summing to
        < 2 toggles per pulse).
        """
        osc = 2.0 * self._osc_model.transition_energy(vdd) / max(vdd, 1e-12)
        toggles = (2.0 * 3.0 * self._toggle_model.transition_energy(vdd)
                   / max(vdd, 1e-12))
        return osc + toggles

    def predicted_count(self, sampled_voltage: float) -> int:
        """Closed-form pulse-count estimate from charge conservation.

        Each pulse at capacitor voltage ``V`` removes ``q(V) ∝ V`` of charge,
        dropping the voltage by ``q(V)/C``; integrating from the sampled
        voltage down to the stop voltage gives a count that grows roughly
        logarithmically-linearly with the initial voltage.  The event-driven
        simulation is the reference; this estimate typically agrees within a
        few percent.
        """
        if sampled_voltage <= self.stop_voltage:
            return 0
        count = 0
        voltage = sampled_voltage
        cap = self.sampling_capacitance
        limit = (1 << self.counter_width) - 1
        while voltage > self.stop_voltage and count < limit:
            charge = self.charge_per_pulse(voltage)
            voltage -= charge / cap
            count += 1
        return count

    def conversion_gain(self, v_low: float = 0.3, v_high: float = 1.0) -> float:
        """Average counts per volt over the given input range."""
        if v_high <= v_low:
            raise ConfigurationError("v_high must exceed v_low")
        return ((self.predicted_count(v_high) - self.predicted_count(v_low))
                / (v_high - v_low))

    # ------------------------------------------------------------------
    # Measurement interface
    # ------------------------------------------------------------------

    def calibrate(self, voltages: Sequence[float],
                  use_simulation: bool = False) -> CalibrationTable:
        """Build the code→voltage table by characterisation.

        *use_simulation* selects the event-driven path (slow, exact) or the
        closed-form prediction (fast) for the characterisation runs.
        """
        if use_simulation:
            from repro.power.supply import ConstantSupply

            def measure(v: float) -> float:
                return float(self.convert(ConstantSupply(v)).count)
        else:
            def measure(v: float) -> float:
                return float(self.predicted_count(v))
        self.calibration = build_calibration(measure, voltages)
        return self.calibration

    def measure(self, source: SupplyNode,
                use_simulation: bool = True) -> float:
        """Measure the voltage of *source* in volts via the calibration table."""
        if self.calibration is None:
            raise SensorError("sensor must be calibrated before measuring")
        if use_simulation:
            code = self.convert(source).count
        else:
            code = self.predicted_count(source.voltage(0.0))
        return self.calibration.voltage_for_code(float(code))

    def energy_per_conversion(self, sampled_voltage: float) -> float:
        """Energy (J) one conversion takes from the *measured node*.

        Only the sampling charge is taken from the measured node; the
        conversion itself spends the capacitor's stored energy.  This is why
        the paper positions the converter as ultra-energy-frugal.
        """
        if sampled_voltage <= 0:
            return 0.0
        return 0.5 * self.sampling_capacitance * sampled_voltage * sampled_voltage


# ---------------------------------------------------------------------------
# Per-point quantities for declared experiment plans (Figs. 8, 9, 11)


#: Names of the scalars :func:`conversion_metrics` reports (the Fig. 9
#: plan's quantity set).
CONVERSION_METRICS = ("count", "charge_consumed", "charge_per_count",
                      "conversion_time", "final_voltage")


def conversion_metrics(converter: ChargeToDigitalConverter,
                       sampled_voltage: float) -> dict:
    """One event-driven conversion from a rail at *sampled_voltage*.

    The per-point evaluation of a Fig. 9/11 style plan: sample the voltage
    onto the converter's capacitor, run the self-timed counter until the
    charge collapses, and report the whole Fig. 9 row.  Deterministic for a
    given (technology, converter configuration, voltage), so pool workers
    and cache replays reproduce the counts exactly.
    """
    from repro.power.supply import ConstantSupply

    result = converter.convert(ConstantSupply(sampled_voltage))
    return {
        "count": float(result.count),
        "charge_consumed": result.charge_consumed,
        "charge_per_count": result.charge_per_count,
        "conversion_time": result.conversion_time,
        "final_voltage": result.final_voltage,
    }


@dataclass
class RailMeasurement:
    """One metering of a live rail by the charge-to-digital sensor (Fig. 8)."""

    code: int
    measured_voltage: float
    store_energy_taken: float


def meter_rail(sensor: ChargeToDigitalConverter, chain) -> RailMeasurement:
    """Measure *chain*'s regulated output rail with a calibrated sensor.

    The per-point evaluation of the Fig. 8 plan (one fresh power chain per
    regulated set-point): sample the DC-DC output onto the sensor's
    capacitor, convert, translate the code back to volts through the
    calibration table, and report how much energy the measurement took
    from the chain's store — the metering must be near-free for the
    closed loop to make sense.
    """
    if sensor.calibration is None:
        raise ConfigurationError(
            "meter_rail() needs a calibrated sensor; call calibrate() first")
    store_before = chain.store.stored_energy(0.0)
    result = sensor.convert(chain.output_rail)
    measured = sensor.calibration.voltage_for_code(float(result.count))
    store_after = chain.store.stored_energy(0.0)
    return RailMeasurement(code=result.count, measured_voltage=measured,
                           store_energy_taken=store_before - store_after)


def conversion_violations(technology: Technology, voltage: float,
                          sampling_capacitance: float = 20e-12,
                          counter_width: int = 10) -> List[str]:
    """Charge-conservation violations of one charge-to-digital conversion.

    The sensor layer's invariant adapter for
    :mod:`repro.analysis.campaign.invariants`: one
    :class:`ChargeToDigitalConverter` conversion against a constant
    *voltage* rail can only count pulses by *removing* charge from the
    sampling capacitor — the count stays inside the counter's range, the
    charge drawn never exceeds what ``C·V`` stored, the capacitor never
    ends above where it started, and counting takes time.

    Returns human-readable violation messages; empty means the model held.
    """
    from repro.power.supply import ConstantSupply

    if not voltage > 0.0:
        raise ConfigurationError(f"voltage must be positive, got {voltage!r}")
    converter = ChargeToDigitalConverter(
        technology, sampling_capacitance=sampling_capacitance,
        counter_width=counter_width)
    result = converter.convert(ConstantSupply(voltage))
    violations: List[str] = []
    ceiling = (1 << counter_width) - 1
    if not 0 <= result.count <= ceiling:
        violations.append(
            f"count {result.count!r} outside [0, {ceiling}] at "
            f"{voltage!r} V")
    budget = sampling_capacitance * result.sampled_voltage
    if result.charge_consumed > budget * (1.0 + 1e-9):
        violations.append(
            f"drew {result.charge_consumed!r} C from a capacitor holding "
            f"only {budget!r} C at {voltage!r} V")
    if result.charge_consumed < 0.0:
        violations.append(
            f"negative charge consumed ({result.charge_consumed!r} C)")
    if result.final_voltage > result.sampled_voltage * (1.0 + 1e-12):
        violations.append(
            f"capacitor voltage rose during conversion: sampled "
            f"{result.sampled_voltage!r} V, finished {result.final_voltage!r} V")
    if result.count > 0 and not result.conversion_time > 0.0:
        violations.append(
            f"counted {result.count} pulses in non-positive time "
            f"({result.conversion_time!r} s)")
    return violations
