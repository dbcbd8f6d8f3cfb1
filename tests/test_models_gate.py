"""Tests for the voltage-aware gate delay/energy model."""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from repro.analysis.cache import stable_repr
from repro.errors import ModelError
from repro.models.gate import GateModel, GateType
from repro.models.mosfet import MosfetModel, _softplus
from repro.models.technology import TECHNOLOGIES, get_technology
from repro.models.variation import Corner, ProcessVariation
from repro.units import thermal_voltage


@pytest.fixture(scope="module")
def inverter(tech):
    return GateModel(technology=tech, gate_type=GateType.INVERTER)


@pytest.fixture(scope="module")
def c_element(tech):
    return GateModel(technology=tech, gate_type=GateType.C_ELEMENT)


class TestDelay:
    def test_delay_decreases_with_vdd(self, inverter):
        assert (inverter.delay(0.2) > inverter.delay(0.4)
                > inverter.delay(0.7) > inverter.delay(1.0) > 0)

    def test_delay_blows_up_near_functional_minimum(self, inverter, tech):
        near_min = tech.vdd_min * 1.05
        assert inverter.delay(near_min) > 50 * inverter.delay(1.0)

    def test_external_load_slows_the_gate(self, inverter):
        unloaded = inverter.delay(1.0)
        loaded = inverter.delay(1.0, external_load=20 * inverter.input_capacitance)
        assert loaded > unloaded

    def test_complex_gate_slower_than_inverter(self, inverter, c_element):
        assert c_element.delay(0.6) > inverter.delay(0.6)

    def test_higher_drive_strength_is_faster_into_fixed_load(self, tech):
        load = 50e-15
        weak = GateModel(technology=tech, drive_strength=1.0)
        strong = GateModel(technology=tech, drive_strength=4.0)
        assert strong.delay(1.0, external_load=load) < weak.delay(1.0, external_load=load)

    def test_frequency_is_inverse_of_period(self, inverter):
        f = inverter.frequency(1.0)
        assert f > 0
        assert inverter.frequency(0.5) < f


class TestEnergy:
    def test_switching_energy_scales_quadratically(self, inverter):
        e_half = inverter.switching_energy(0.5)
        e_full = inverter.switching_energy(1.0)
        assert e_full == pytest.approx(4 * e_half, rel=0.01)

    def test_transition_energy_exceeds_pure_switching(self, inverter):
        # Transition energy folds in short-circuit current.
        assert inverter.transition_energy(1.0) >= inverter.switching_energy(1.0)

    def test_transition_charge_consistent_with_energy(self, inverter):
        vdd = 0.8
        assert inverter.transition_charge(vdd) == pytest.approx(
            inverter.transition_energy(vdd) / vdd, rel=1e-6)

    def test_leakage_power_increases_with_vdd(self, inverter):
        assert inverter.leakage_power(1.0) > inverter.leakage_power(0.3) > 0

    def test_complex_gate_leaks_more(self, inverter, tech):
        toggle = GateModel(technology=tech, gate_type=GateType.TOGGLE)
        assert toggle.leakage_power(1.0) > inverter.leakage_power(1.0)

    def test_short_circuit_energy_nonnegative(self, inverter):
        assert inverter.short_circuit_energy(1.0) >= 0
        assert inverter.short_circuit_energy(0.25) >= 0


class TestCapacitances:
    def test_input_cap_tracks_logical_effort(self, inverter, c_element):
        assert c_element.input_capacitance > inverter.input_capacitance

    def test_total_load_includes_parasitic(self, inverter):
        assert inverter.total_load(0.0) >= inverter.parasitic_capacitance
        assert (inverter.total_load(10e-15)
                == pytest.approx(inverter.total_load(0.0) + 10e-15))


class TestValidation:
    def test_non_positive_vdd_rejected(self, inverter):
        with pytest.raises((ModelError, ValueError)):
            inverter.delay(0.0)

    def test_below_functional_minimum_delay_is_huge_or_raises(self, inverter, tech):
        try:
            value = inverter.delay(tech.vdd_min * 0.5)
        except ModelError:
            return
        assert value > inverter.delay(tech.vdd_min * 2)


@given(vdd=st.floats(min_value=0.2, max_value=1.1))
def test_gate_delay_energy_always_positive_property(vdd):
    gate = GateModel(technology=get_technology("cmos90"),
                     gate_type=GateType.NAND2)
    assert gate.delay(vdd) > 0
    assert gate.transition_energy(vdd) > 0
    assert gate.leakage_power(vdd) > 0


# ---------------------------------------------------------------------------
# Construction-time constants: the models compute their reference current,
# n·Ut, effective Vth and capacitances once in __post_init__.  These are the
# per-call expressions they replaced, kept verbatim so the memoised values
# can be compared with ``==`` rather than approx.


def _reference_on_current(tech, width_um, vth_offset, drive_derating, vgs):
    n_ut = tech.subthreshold_slope_factor * thermal_voltage(tech.temperature_k)

    def inversion_charge(effective_vth, v):
        return _softplus((v - effective_vth) / n_ut) ** tech.alpha

    reference = inversion_charge(tech.vth + 0.0, tech.vdd_nominal)
    scale = tech.i_on_per_um * width_um * drive_derating / reference
    return scale * inversion_charge(tech.vth + vth_offset, vgs)


def _reference_leakage(tech, width_um, vth_offset, vdd):
    ut = thermal_voltage(tech.temperature_k)
    n_ut = tech.subthreshold_slope_factor * ut
    exponent = (0.08 * (vdd - tech.vdd_nominal) - vth_offset) / n_ut
    return tech.i_leak_per_um * width_um * math.exp(exponent)


def _reference_load(gate, external_load):
    tech = gate.technology
    if external_load is None:
        external_load = (tech.unit_inverter_input_cap
                         * gate.gate_type.logical_effort * gate.drive_strength)
    parasitic = (tech.unit_inverter_output_cap * gate.gate_type.parasitic
                 * gate.drive_strength)
    return parasitic + external_load


def _reference_delay(gate, vdd, external_load):
    width = gate.technology.min_width_um * 3.0 * gate.drive_strength
    current = _reference_on_current(gate.technology, width, gate.vth_offset,
                                    gate.drive_derating, vdd)
    return _reference_load(gate, external_load) * vdd / (2.0 * current)


def _reference_transition_energy(gate, vdd, external_load):
    load = _reference_load(gate, external_load)
    switching = 0.5 * load * vdd * vdd * gate.activity_factor
    short = (0.0 if vdd <= gate.technology.vth
             else 0.10 * (0.5 * load * vdd * vdd * gate.activity_factor))
    return switching + short


def _varied_technologies():
    """Built-in technologies plus seeded process-variation samples of each."""
    techs = list(TECHNOLOGIES.values())
    for seed, corner in enumerate((Corner.TYPICAL, Corner.SLOW, Corner.FAST)):
        variation = ProcessVariation(corner=corner, seed=seed)
        techs.extend(variation.apply_to(base) for base in TECHNOLOGIES.values())
    return techs


#: Supplies from deep sub-threshold to far above nominal: 2.5 V and 6 V
#: put ``(vgs - vth) / (n·Ut)`` past softplus's upper cut-off (40) in every
#: technology, and :data:`DEEP_OFFSET` puts 0.2 V past its lower one (-40).
VOLTAGES = (0.2, 0.25, 0.33, 0.45, 0.7, 1.0, 1.3, 2.5, 6.0)

#: A threshold offset large enough that every technology's
#: ``(0.2 - vth - DEEP_OFFSET) / (n·Ut)`` lies below -40.
DEEP_OFFSET = 2.0


class TestConstructionTimeConstants:
    @pytest.mark.parametrize("tech_index", range(12))
    def test_mosfet_matches_per_call_expressions(self, tech_index):
        tech = _varied_technologies()[tech_index]
        for width, offset, derating in ((1.0, 0.0, 1.0), (0.36, 0.031, 0.83),
                                        (2.5, -0.02, 1.2),
                                        (1.0, DEEP_OFFSET, 1.0)):
            device = MosfetModel(tech, width_um=width, vth_offset=offset,
                                 drive_derating=derating)
            assert device.effective_vth == tech.vth + offset
            for vgs in VOLTAGES:
                assert device.on_current(vgs) == _reference_on_current(
                    tech, width, offset, derating, vgs)
                assert device.leakage_current(vgs) == _reference_leakage(
                    tech, width, offset, vgs)

    @pytest.mark.parametrize("tech_index", range(12))
    def test_gate_matches_per_call_expressions(self, tech_index):
        tech = _varied_technologies()[tech_index]
        gates = [
            GateModel(technology=tech),
            GateModel(technology=tech, gate_type=GateType.TOGGLE),
            GateModel(technology=tech, gate_type=GateType.C_ELEMENT,
                      drive_strength=2.7, vth_offset=0.024,
                      drive_derating=0.9, activity_factor=0.6),
            GateModel(technology=tech, gate_type=GateType.XOR2,
                      drive_strength=0.5, vth_offset=-0.015),
            GateModel(technology=tech, gate_type=GateType.NAND2,
                      vth_offset=DEEP_OFFSET),
        ]
        for gate in gates:
            assert gate.total_load(gate.input_capacitance) == \
                _reference_load(gate, None)
            for load in (None, 0.0, 3.3e-15, 42e-15):
                for vdd in VOLTAGES:
                    if vdd < tech.vdd_min:
                        continue
                    assert gate.delay(vdd, load) == _reference_delay(
                        gate, vdd, load)
                    assert gate.transition_energy(vdd, load) == \
                        _reference_transition_energy(gate, vdd, load)
                    assert gate.transition_energy(vdd, load) == (
                        gate.switching_energy(vdd, load)
                        + gate.short_circuit_energy(vdd, load))

    @pytest.mark.parametrize("tech_index", range(12))
    def test_voltages_reach_both_softplus_cutoffs(self, tech_index):
        tech = _varied_technologies()[tech_index]
        n_ut = tech.subthreshold_slope_factor * thermal_voltage(
            tech.temperature_k)
        assert (VOLTAGES[-2] - tech.vth) / n_ut > 40.0
        assert (VOLTAGES[0] - tech.vth - DEEP_OFFSET) / n_ut < -40.0

    def test_errors_are_kept(self, tech):
        gate = GateModel(technology=tech, gate_type=GateType.TOGGLE)
        with pytest.raises(ModelError, match="non-physical drive current"):
            gate.delay(math.nan)
        infinite = GateModel(technology=dataclasses.replace(
            tech, i_on_per_um=math.inf))
        with pytest.raises(ModelError, match="non-physical drive current"):
            infinite.delay(0.5)
        for call in (gate.delay, gate.transition_energy):
            with pytest.raises(ModelError, match="external load"):
                call(0.5, -1e-15)
        with pytest.raises(ModelError, match="below functional minimum"):
            gate.delay(math.nextafter(tech.vdd_min, 0.0))
        assert gate.delay(tech.vdd_min) > 0.0
        with pytest.raises(ModelError):
            gate.transition_energy(-1e-3)
        assert gate.transition_energy(0.0) == 0.0
        with pytest.raises(ModelError, match="non-negative"):
            gate._mosfet.on_current(-1e-3)
        assert gate._mosfet.on_current(0.0) > 0.0

    def test_constants_stay_out_of_equality_and_stable_repr(self, tech):
        gate = GateModel(technology=tech, gate_type=GateType.TOGGLE,
                         drive_strength=2.0)
        twin = GateModel(technology=tech, gate_type=GateType.TOGGLE,
                         drive_strength=2.0)
        assert gate == twin
        text = stable_repr(gate) + stable_repr(MosfetModel(tech))
        assert stable_repr(gate) == stable_repr(twin)
        for constant in ("_cin", "_cp=", "_default_load", "_scale", "_n_ut",
                         "_vth="):
            assert constant not in text
