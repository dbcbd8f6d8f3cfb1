"""Tests for the three voltage-sensing styles and the calibration machinery."""

import pytest

from repro.errors import CalibrationError, ConfigurationError, SensorError
from repro.models.technology import get_technology
from repro.power.supply import ACSupply, ConstantSupply
from repro.sensors.calibration import CalibrationTable, build_calibration
from repro.sensors.charge_to_digital import ChargeToDigitalConverter
from repro.sensors.reference_free import ReferenceFreeVoltageSensor
from repro.sensors.ring_oscillator import RingOscillatorSensor
from repro.selftimed.counter import run_dualrail_scenario
from repro.analysis.metrics import monotonicity_violations


class TestCalibrationTable:
    def test_voltage_for_code_interpolates(self):
        table = CalibrationTable(points=[(10.0, 0.2), (20.0, 0.4), (30.0, 0.6)])
        assert table.voltage_for_code(15.0) == pytest.approx(0.3)
        assert table.voltage_for_code(30.0) == pytest.approx(0.6)

    def test_code_for_voltage_is_the_inverse(self):
        table = CalibrationTable(points=[(10.0, 0.2), (30.0, 0.6)])
        assert table.code_for_voltage(0.4) == pytest.approx(20.0)

    def test_resolution_reported_in_volts_per_code(self):
        table = CalibrationTable(points=[(0.0, 0.2), (100.0, 1.2)])
        assert table.resolution_at(0.5) == pytest.approx(0.01)
        assert table.worst_resolution() >= table.resolution_at(0.5) - 1e-12

    def test_ranges(self):
        table = CalibrationTable(points=[(5.0, 0.2), (50.0, 1.0)])
        assert table.code_range == (5.0, 50.0)
        assert table.voltage_range == (0.2, 1.0)

    def test_build_calibration_from_measurement_function(self):
        table = build_calibration(lambda v: 100.0 * v, [0.2, 0.4, 0.6, 0.8, 1.0])
        assert table.voltage_for_code(50.0) == pytest.approx(0.5, abs=0.01)

    def test_degenerate_calibration_rejected(self):
        with pytest.raises((CalibrationError, ConfigurationError)):
            CalibrationTable(points=[(1.0, 0.5)])


class TestRingOscillatorSensor:
    def test_frequency_increases_with_vdd(self, tech):
        sensor = RingOscillatorSensor(technology=tech)
        assert sensor.frequency(1.0) > sensor.frequency(0.5) > sensor.frequency(0.3)

    def test_raw_code_counts_cycles_in_the_window(self, tech):
        sensor = RingOscillatorSensor(technology=tech, measurement_window=1e-6)
        code = sensor.raw_code(0.8)
        assert code == pytest.approx(sensor.frequency(0.8) * 1e-6, rel=0.01)

    def test_calibrated_measurement_recovers_voltage(self, tech):
        sensor = RingOscillatorSensor(technology=tech)
        sensor.calibrate([0.2 + 0.05 * i for i in range(17)])
        for vdd in (0.3, 0.55, 0.9):
            assert sensor.measure(vdd) == pytest.approx(vdd, abs=0.02)

    def test_reference_error_degrades_accuracy(self, tech):
        """This baseline *needs* a time reference; the paper's sensors do not."""
        good = RingOscillatorSensor(technology=tech, reference_error=0.0)
        bad = RingOscillatorSensor(technology=tech, reference_error=0.1)
        voltages = [0.2 + 0.05 * i for i in range(17)]
        good.calibrate(voltages)
        bad.calibrate(voltages)
        assert bad.measurement_error(0.6) >= good.measurement_error(0.6)

    def test_energy_per_measurement_positive(self, tech):
        sensor = RingOscillatorSensor(technology=tech)
        assert sensor.energy_per_measurement(0.5) > 0


class TestChargeToDigitalConverter:
    @pytest.fixture(scope="class")
    def converter(self, tech):
        return ChargeToDigitalConverter(technology=tech,
                                        sampling_capacitance=30e-12)

    def test_conversion_produces_a_count_and_drains_the_cap(self, converter, tech):
        result = converter.convert(ConstantSupply(0.8))
        assert result.sampled_voltage == pytest.approx(0.8, rel=1e-3)
        assert result.count > 0
        assert result.final_voltage <= 2 * tech.vdd_min
        assert result.energy_consumed > 0
        assert result.conversion_time > 0

    def test_count_monotone_in_sampled_voltage(self, converter):
        """Fig. 11: the code grows with the initial capacitor voltage."""
        counts = [converter.convert(ConstantSupply(v)).count
                  for v in (0.3, 0.5, 0.7, 0.9)]
        assert monotonicity_violations(counts) == 0
        assert counts[-1] > counts[0]

    def test_zero_input_gives_zero_count(self, converter, tech):
        result = converter.convert(ConstantSupply(tech.vdd_min * 0.5))
        assert result.count == 0

    def test_max_pulses_bounds_the_count(self, converter):
        result = converter.convert(ConstantSupply(0.8), max_pulses=7)
        assert result.count == 7

    def test_max_pulses_zero_is_rejected(self, converter):
        """``max_pulses=0`` used to fall back to the full 16-bit range."""
        with pytest.raises(ConfigurationError):
            converter.convert(ConstantSupply(0.8), max_pulses=0)

    def test_predicted_count_tracks_simulation(self, converter):
        simulated = converter.convert(ConstantSupply(0.6)).count
        predicted = converter.predicted_count(0.6)
        assert predicted == pytest.approx(simulated, rel=0.25)

    def test_charge_per_count_roughly_constant(self, converter):
        """The paper's 'strong proportionality between charge and counts'."""
        r1 = converter.convert(ConstantSupply(0.5))
        r2 = converter.convert(ConstantSupply(1.0))
        assert r2.charge_consumed > r1.charge_consumed
        assert r1.charge_per_count == pytest.approx(r2.charge_per_count, rel=0.35)

    def test_larger_capacitor_gives_finer_codes(self, tech):
        small = ChargeToDigitalConverter(technology=tech, sampling_capacitance=10e-12)
        large = ChargeToDigitalConverter(technology=tech, sampling_capacitance=60e-12)
        assert (large.convert(ConstantSupply(0.8)).count
                > small.convert(ConstantSupply(0.8)).count)

    def test_measure_requires_calibration(self, tech):
        sensor = ChargeToDigitalConverter(technology=tech)
        with pytest.raises(SensorError):
            sensor.measure(ConstantSupply(0.5))

    def test_calibrated_measurement_recovers_voltage(self, tech):
        sensor = ChargeToDigitalConverter(technology=tech)
        sensor.calibrate([0.3 + 0.1 * i for i in range(8)], use_simulation=True)
        assert sensor.measure(ConstantSupply(0.65)) == pytest.approx(0.65, abs=0.03)

    def test_energy_per_conversion_is_small(self, converter):
        # Only the sampling charge is taken from the measured node.
        assert converter.energy_per_conversion(1.0) < 100e-12


class TestEventPathBitIdentity:
    """Exact pins on the event-driven conversion and dual-rail counter.

    The Fig. 11 goldens check charge and time only to ``rel=1e-4``; these
    pin every float of a conversion to the last bit (``float.hex``), so a
    refactor of the device models or the event kernel that reorders a
    single floating-point operation fails here.
    """

    #: (technology, sampled V) -> (count, final_voltage, conversion_time,
    #: charge_consumed, energy_consumed) of a 10 pF / 16-bit conversion.
    PINS = {
        ("cmos90", 0.3): (1285, "0x1.1eae3baf85d66p-3", "0x1.60f77bf0e95b1p-15", "0x1.c26a038389cacp-40", "0x1.8c656e1fe3c31p-42"),
        ("cmos90", 0.5): (2077, "0x1.1eadac5d63910p-3", "0x1.6334ff1acab80p-15", "0x1.faaefc51e8223p-39", "0x1.444f580846943p-40"),
        ("cmos90", 0.8): (2798, "0x1.1eaffd49f18d8p-3", "0x1.6594cdeca8bf4p-15", "0x1.d071e47cf4944p-38", "0x1.b4a12e5b4647ep-39"),
        ("cmos65", 0.3): (2349, "0x1.0a3cc9b5824c7p-3", "0x1.3b860940e8f44p-16", "0x1.de82ce5a7eec4p-40", "0x1.9b8c80aa9b820p-42"),
        ("cmos65", 0.5): (3652, "0x1.0a381cf1512a0p-3", "0x1.3e69b6eb3803ep-16", "0x1.045f1ad4be072p-38", "0x1.4816c06eebf1ep-40"),
        ("cmos65", 0.8): (4852, "0x1.0a3cf7a606cbfp-3", "0x1.3f64cafa31d71p-16", "0x1.d778a1e553f27p-38", "0x1.b680d7e6fced7p-39"),
        ("cmos180", 0.3): (193, "0x1.99627945e9235p-3", "0x1.e24860d5a7a8bp-8", "0x1.19c55be87b044p-40", "0x1.19d6563e544f9p-42"),
        ("cmos180", 0.5): (427, "0x1.993ef33c2a669p-3", "0x1.debdade0b89ccp-8", "0x1.a674af67349f6p-39", "0x1.27c7e4f78f766p-40"),
        ("cmos180", 0.8): (626, "0x1.99673d97bfffdp-3", "0x1.dd4d7c8a0b254p-8", "0x1.a647b1c540a57p-38", "0x1.a6710a4a66cc6p-39"),
    }

    @pytest.mark.parametrize("name,voltage", sorted(PINS))
    def test_conversion_is_bit_identical(self, name, voltage):
        converter = ChargeToDigitalConverter(
            technology=get_technology(name), sampling_capacitance=10e-12)
        result = converter.convert(ConstantSupply(voltage))
        observed = (result.count, result.final_voltage.hex(),
                    result.conversion_time.hex(),
                    result.charge_consumed.hex(),
                    result.energy_consumed.hex())
        assert observed == self.PINS[(name, voltage)]

    def test_fig04_ac_run_is_bit_identical(self, tech):
        supply = ACSupply(offset=0.2, amplitude=0.1, frequency=1e6)
        run = run_dualrail_scenario(tech, supply, 12)
        assert run.values_emitted == [1, 2, 3, 0] * 3
        assert run.stall_count == 0
        assert run.finish_time.hex() == "0x1.3c0a6c339aff8p-23"
        assert run.energy.hex() == "0x1.4bbd42235e60fp-47"


class TestReferenceFreeVoltageSensor:
    @pytest.fixture(scope="class")
    def sensor(self, tech):
        return ReferenceFreeVoltageSensor(technology=tech)

    def test_code_decreases_as_vdd_rises(self, sensor):
        """The SRAM catches up with the inverter ruler at high Vdd (Fig. 12)."""
        codes = [sensor.raw_code(v) for v in (0.25, 0.4, 0.6, 0.8, 1.0)]
        assert monotonicity_violations(list(reversed(codes))) == 0
        assert codes[0] > codes[-1]

    def test_race_reports_delays_and_code(self, sensor):
        result = sensor.race(0.5)
        assert result.sram_delay > 0
        assert result.ruler_stage_delay > 0
        assert result.thermometer_code > 0
        assert len(result.thermometer_bits(result.thermometer_code + 2)) == \
            result.thermometer_code + 2

    def test_below_functional_minimum_rejected(self, sensor, tech):
        with pytest.raises(SensorError):
            sensor.race(tech.vdd_min * 0.5)

    def test_paper_accuracy_10mv_over_operating_range(self, sensor):
        """Paper: 0.2-1 V range with ~10 mV accuracy, no analog references."""
        calibration_points = [0.2 + 0.01 * i for i in range(81)]
        sensor.calibrate(calibration_points)
        probe_points = [0.225 + 0.05 * i for i in range(15)]
        assert sensor.worst_case_accuracy(probe_points) <= 0.010 + 1e-9

    def test_measure_requires_calibration(self, tech):
        fresh = ReferenceFreeVoltageSensor(technology=tech)
        with pytest.raises(SensorError):
            fresh.measure(0.5)

    def test_energy_per_measurement_positive(self, sensor):
        assert sensor.energy_per_measurement(0.5) > 0

    def test_operating_range_spans_the_paper_window(self, sensor):
        low, high = sensor.operating_range()
        assert low <= 0.25
        assert high >= 0.9
