"""Tests for the assembled SI SRAM, the bundled baseline and replica bundling."""

import pytest

from repro.errors import AddressError, ConfigurationError
from repro.models.gate import GateModel
from repro.power.supply import ConstantSupply, PiecewiseSupply
from repro.selftimed.bundled import TimingViolation
from repro.sim.simulator import Simulator
from repro.sram.bundling import ReplicaColumnBundling
from repro.sram.sram import BundledSRAM, SRAMConfig, SpeedIndependentSRAM


class TestSRAMConfig:
    def test_default_matches_the_paper(self):
        config = SRAMConfig()
        assert config.rows == 64
        assert config.columns == 16
        assert config.bits == 1024

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            SRAMConfig(rows=1)
        with pytest.raises(ConfigurationError):
            SRAMConfig(columns=0)


class TestSpeedIndependentSRAMAnalytical:
    def test_storage_peek_poke(self, fresh_si_sram):
        sram = fresh_si_sram
        assert sram.peek(5) is None
        sram.poke(5, 0xBEEF & 0xFFFF)
        assert sram.peek(5) == 0xBEEF & 0xFFFF
        assert sram.stored_words() == 1

    def test_address_and_value_bounds(self, fresh_si_sram):
        with pytest.raises(AddressError):
            fresh_si_sram.peek(64)
        with pytest.raises(ConfigurationError):
            fresh_si_sram.poke(0, 1 << 16)

    def test_operates_across_the_paper_voltage_range(self, si_sram):
        assert si_sram.minimum_operating_voltage() < 0.25
        for vdd in (0.25, 0.4, 0.7, 1.0):
            assert si_sram.read_latency(vdd) > 0
            assert si_sram.write_latency(vdd) > 0

    def test_latency_grows_monotonically_as_vdd_drops(self, si_sram):
        voltages = [1.0, 0.8, 0.6, 0.4, 0.3, 0.25]
        latencies = [si_sram.write_latency(v) for v in voltages]
        assert all(b > a for a, b in zip(latencies, latencies[1:]))

    def test_write_energy_matches_paper_anchors(self, si_sram):
        """Paper: 5.8 pJ per 16-bit write at 1 V, 1.9 pJ at 0.4 V."""
        assert si_sram.write_energy(1.0) == pytest.approx(5.8e-12, rel=0.05)
        assert si_sram.write_energy(0.4) == pytest.approx(1.9e-12, rel=0.05)

    def test_minimum_energy_point_near_0v4(self, si_sram):
        """Paper: 'minimum energy point per read or write at 0.4 V'."""
        model = si_sram.energy_model("write")
        vdd_opt, _ = model.minimum_energy_point(0.2, 1.0)
        assert 0.3 <= vdd_opt <= 0.55

    def test_read_cheaper_than_write(self, si_sram):
        assert si_sram.read_energy(1.0) < si_sram.write_energy(1.0) * 1.5

    def test_leakage_power_positive_and_voltage_dependent(self, si_sram):
        assert si_sram.total_leakage_power(1.0) > si_sram.total_leakage_power(0.3) > 0

    def test_uncalibrated_config_skips_energy_fit(self, tech):
        raw = SpeedIndependentSRAM(tech, SRAMConfig(calibrate_energy=False))
        assert raw.dynamic_energy_scale == 1.0
        assert raw.leakage_energy_scale == 1.0


class TestSpeedIndependentSRAMEventDriven:
    def test_write_then_read_through_the_controller(self, tech, small_sram_config):
        sram = SpeedIndependentSRAM(tech, small_sram_config)
        sim = Simulator()
        controller = sram.attach(sim, ConstantSupply(1.0))
        results = []
        controller.write(3, 0b1010,
                         on_complete=lambda rec, val: results.append(("w", val)))
        sim.run()
        controller.read(3, on_complete=lambda rec, val: results.append(("r", val)))
        sim.run()
        assert sram.peek(3) == 0b1010
        assert ("r", 0b1010) in results

    def test_operation_record_has_phases_and_latency(self, tech, small_sram_config):
        sram = SpeedIndependentSRAM(tech, small_sram_config)
        sim = Simulator()
        controller = sram.attach(sim, ConstantSupply(1.0))
        controller.write(1, 5)
        sim.run()
        record = controller.last_record()
        assert record.latency > 0
        assert record.energy > 0
        phase_names = [phase.name for phase in record.phases]
        assert any("precharge" in name for name in phase_names)

    def test_fig7_write_slower_at_low_vdd(self, tech, small_sram_config):
        """Fig. 7: the first (low-Vdd) write takes much longer than the second."""
        latencies = {}
        for vdd in (0.25, 1.0):
            sram = SpeedIndependentSRAM(tech, small_sram_config)
            sim = Simulator()
            controller = sram.attach(sim, ConstantSupply(vdd))
            controller.write(0, 1)
            sim.run()
            latencies[vdd] = controller.last_record().latency
        assert latencies[0.25] > 3 * latencies[1.0]
        # Both writes still committed the data — only the speed changed.

    def test_busy_controller_rejects_overlapping_operations(self, tech,
                                                            small_sram_config):
        sram = SpeedIndependentSRAM(tech, small_sram_config)
        sim = Simulator()
        controller = sram.attach(sim, ConstantSupply(1.0))
        controller.write(0, 1)
        with pytest.raises(ConfigurationError):
            controller.read(0)
        sim.run()

    def test_operation_survives_a_supply_dip(self, tech, small_sram_config):
        """The supply droops mid-operation; the handshake stretches, data lands."""
        sram = SpeedIndependentSRAM(tech, small_sram_config)
        sim = Simulator()
        supply = PiecewiseSupply([(0.0, 1.0), (20e-12, 0.1), (5e-6, 0.8)])
        controller = sram.attach(sim, supply)
        controller.write(2, 0b111)
        sim.run_until_idle(max_time=1e-3)
        assert sram.peek(2) == 0b111
        # The dip stretched the operation well past its nominal ~0.1 ns latency.
        assert controller.last_record().latency > 1e-6


class TestBundledSRAM:
    def test_functional_window_is_narrower_than_si(self, si_sram, bundled_sram):
        assert (bundled_sram.minimum_operating_voltage()
                > si_sram.minimum_operating_voltage())
        assert bundled_sram.is_functional(1.0)
        assert not bundled_sram.is_functional(0.2)

    def test_raises_timing_violation_below_floor(self, bundled_sram):
        low = bundled_sram.minimum_operating_voltage() - 0.05
        with pytest.raises(TimingViolation):
            bundled_sram.read_latency(low)

    def test_margin_shrinks_with_vdd(self, bundled_sram):
        assert bundled_sram.timing_margin(0.5) < bundled_sram.timing_margin(1.0)

    def test_faster_than_si_sram_at_nominal(self, si_sram, bundled_sram):
        # The bundled design does not pay for completion detection at 1 V.
        assert bundled_sram.read_latency(1.0) < si_sram.read_latency(1.0) * 1.2

    def test_storage_is_shared_infrastructure(self, tech):
        bundled = BundledSRAM(tech, SRAMConfig(rows=8, columns=4,
                                               calibrate_energy=False))
        bundled.poke(1, 3)
        assert bundled.peek(1) == 3


class TestDeviceModelsBuiltOnce:
    """The SRAMs' analytical models hold their gate models: a latency or
    energy query evaluates them and builds none."""

    @pytest.fixture
    def builds(self, monkeypatch):
        counter = {"n": 0}
        original = GateModel.__post_init__

        def counting(gate):
            counter["n"] += 1
            original(gate)

        monkeypatch.setattr(GateModel, "__post_init__", counting)
        return counter

    @pytest.mark.parametrize("cls", [SpeedIndependentSRAM, BundledSRAM])
    def test_no_gate_model_is_built_per_query(self, tech, cls, builds):
        sram = cls(tech, SRAMConfig(rows=8, columns=4,
                                    calibrate_energy=False))
        assert builds["n"] > 0  # the counter sees construction
        queries = [sram.read_latency, sram.write_latency, sram.read_energy,
                   sram.write_energy]
        if cls is SpeedIndependentSRAM:
            queries.append(sram.completion.cycle_energy)
        for query in queries:
            before = builds["n"]
            assert query(0.9) > 0.0
            assert builds["n"] == before, query.__name__


class TestReplicaColumnBundling:
    def test_replica_tracks_column_delay(self, tech):
        replica = ReplicaColumnBundling(technology=tech, seed=1)
        for vdd in (0.4, 0.7, 1.0):
            assert replica.replica_delay(vdd) >= replica.column_delay(vdd)

    def test_failure_probability_grows_at_low_vdd(self, tech):
        replica = ReplicaColumnBundling(technology=tech, sigma_delay=0.15, seed=1)
        assert (replica.failure_probability(0.25, samples=500)
                >= replica.failure_probability(1.0, samples=500))

    def test_analyse_produces_consistent_report(self, tech):
        replica = ReplicaColumnBundling(technology=tech, seed=2)
        report = replica.analyse(0.5, samples=300)
        assert report.vdd == 0.5
        assert report.replica_delay > 0
        assert 0.0 <= report.failure_probability <= 1.0

    def test_cheaper_read_energy_than_full_completion(self, tech, si_sram):
        """Reference [8]: only one column has full completion detection."""
        replica = ReplicaColumnBundling(technology=tech, seed=3)
        assert replica.read_energy(1.0) < si_sram.read_energy(1.0)
