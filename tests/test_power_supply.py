"""Tests for ideal, AC, piecewise and ramp supplies."""

import math

import pytest

from repro.errors import ConfigurationError, PowerError
from repro.power.supply import ACSupply, ConstantSupply, PiecewiseSupply, RampSupply


class TestConstantSupply:
    def test_voltage_is_time_independent(self):
        supply = ConstantSupply(0.8)
        assert supply.voltage(0.0) == 0.8
        assert supply.voltage(123.4) == 0.8

    def test_draw_charge_accumulates_energy(self):
        supply = ConstantSupply(1.0)
        supply.draw_charge(2e-12, 0.0)
        supply.draw_charge(3e-12, 1.0)
        assert supply.charge_delivered == pytest.approx(5e-12)
        assert supply.energy_delivered == pytest.approx(5e-12)  # Q·V at 1 V

    def test_negative_charge_rejected(self):
        supply = ConstantSupply(1.0)
        with pytest.raises(PowerError):
            supply.draw_charge(-1e-12, 0.0)

    def test_set_voltage(self):
        supply = ConstantSupply(1.0)
        supply.set_voltage(0.4)
        assert supply.voltage(0.0) == 0.4

    def test_draw_energy_helper(self):
        supply = ConstantSupply(0.5)
        supply.draw_energy(1e-12, 0.0)
        assert supply.charge_delivered == pytest.approx(2e-12)


class TestACSupply:
    """The paper's Fig. 4 rail: 200 mV ± 100 mV at 1 MHz."""

    @pytest.fixture()
    def rail(self):
        return ACSupply(offset=0.2, amplitude=0.1, frequency=1e6)

    def test_min_max(self, rail):
        assert rail.minimum_voltage == pytest.approx(0.1)
        assert rail.maximum_voltage == pytest.approx(0.3)

    def test_periodicity(self, rail):
        t = 0.37e-6
        assert rail.voltage(t) == pytest.approx(rail.voltage(t + 1e-6), abs=1e-12)

    def test_sweep_covers_the_range(self, rail):
        samples = [rail.voltage(i * 1e-8) for i in range(200)]
        assert min(samples) == pytest.approx(0.1, abs=5e-3)
        assert max(samples) == pytest.approx(0.3, abs=5e-3)

    def test_phase_offsets_the_waveform(self):
        base = ACSupply(offset=0.2, amplitude=0.1, frequency=1e6)
        shifted = ACSupply(offset=0.2, amplitude=0.1, frequency=1e6,
                           phase=math.pi / 2)
        assert base.voltage(0.0) != pytest.approx(shifted.voltage(0.0))


class TestPiecewiseSupply:
    def test_step_profile(self):
        supply = PiecewiseSupply([(0.0, 0.3), (1.0, 1.0), (2.0, 0.5)])
        assert supply.voltage(0.5) == pytest.approx(0.3)
        assert supply.voltage(1.5) == pytest.approx(1.0)
        assert supply.voltage(5.0) == pytest.approx(0.5)

    def test_interpolated_profile(self):
        supply = PiecewiseSupply([(0.0, 0.0), (1.0, 1.0)], interpolate=True)
        assert supply.voltage(0.5) == pytest.approx(0.5)

    def test_requires_breakpoints(self):
        with pytest.raises(ConfigurationError):
            PiecewiseSupply([])


class TestRampSupply:
    def test_ramps_between_endpoints(self):
        supply = RampSupply(v_start=0.2, v_end=1.0, duration=1.0)
        assert supply.voltage(0.0) == pytest.approx(0.2)
        assert supply.voltage(0.5) == pytest.approx(0.6)
        assert supply.voltage(1.0) == pytest.approx(1.0)
        assert supply.voltage(2.0) == pytest.approx(1.0)

    def test_falling_ramp(self):
        supply = RampSupply(v_start=1.0, v_end=0.2, duration=2.0)
        assert supply.voltage(1.0) == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# Every supply node refuses a draw that is not a finite, non-negative number:
# a NaN or infinite draw must raise, not silently empty the node.


def _supply_nodes():
    from repro.power.battery import Battery
    from repro.power.capacitor import Capacitor, SamplingCapacitor
    from repro.power.dcdc import DCDCConverter

    return {
        "constant": lambda: ConstantSupply(1.0),
        "ac": lambda: ACSupply(offset=0.5, amplitude=0.1, frequency=1e6),
        "piecewise": lambda: PiecewiseSupply([(0.0, 0.4), (1.0, 1.0)]),
        "ramp": lambda: RampSupply(v_start=0.2, v_end=1.0, duration=1.0),
        "battery": lambda: Battery(nominal_voltage=3.0, capacity_joules=1.0),
        "capacitor": lambda: Capacitor(1e-12, 1.0),
        "sampling_capacitor": lambda: SamplingCapacitor(1e-12),
        "dcdc": lambda: DCDCConverter(
            input_store=Capacitor(100e-6, initial_voltage=2.0),
            target_voltage=1.0),
    }


def _state(node):
    return (node.voltage(0.0).hex(), node.charge_delivered.hex(),
            node.energy_delivered.hex())


@pytest.mark.parametrize("kind", sorted(_supply_nodes()))
@pytest.mark.parametrize("amount", (math.nan, math.inf, -math.inf, -1e-12))
def test_non_finite_or_negative_draw_is_refused(kind, amount):
    node = _supply_nodes()[kind]()
    if kind == "sampling_capacitor":
        node.set_voltage(1.0, 0.0)
    before = _state(node)
    with pytest.raises(PowerError):
        node.draw_charge(amount, 0.0)
    if hasattr(node, "draw_energy"):
        with pytest.raises(PowerError):
            node.draw_energy(amount, 0.0)
    assert _state(node) == before
    node.draw_charge(1e-15, 0.0)  # a finite draw still goes through
    assert node.charge_delivered == 1e-15
