"""Tests for the parallel experiment engine (:mod:`repro.analysis.runner`).

The engine's contract is strict: a plan enumerates its points in one
deterministic order, and the serial path, the process pool and any future
executor must produce *bit-identical* values for the same plan and seed.
"""

import pytest

from repro.analysis.montecarlo import run_study
from repro.analysis.runner import (
    Executor,
    ExperimentPlan,
    TechnologyCache,
)
from repro.analysis.sweep import Series, SweepResult, sweep
from repro.errors import ConfigurationError
from repro.models.gate import GateModel


def _delay_quantity(tech):
    gate = GateModel(technology=tech)
    return gate.delay


def _mc_delay(perturbed):
    return GateModel(technology=perturbed).delay(0.4)


VDDS = [0.25, 0.3, 0.4, 0.6, 0.8, 1.0]
TEMPS = [250.0, 300.0, 350.0]


class TestExperimentPlan:
    def test_sweep_plan_geometry(self):
        plan = ExperimentPlan.sweep("vdd", VDDS)
        assert plan.kind == "sweep"
        assert plan.shape == (len(VDDS),)
        assert plan.point_count == len(VDDS)
        assert plan.points() == [(v,) for v in VDDS]
        assert plan.describe_axes() == {"vdd": len(VDDS)}

    def test_grid_plan_is_row_major_with_last_axis_fastest(self):
        plan = ExperimentPlan.grid("vdd", [0.3, 1.0], "t", TEMPS)
        assert plan.shape == (2, 3)
        assert plan.point_count == 6
        assert plan.points() == [(0.3, 250.0), (0.3, 300.0), (0.3, 350.0),
                                 (1.0, 250.0), (1.0, 300.0), (1.0, 350.0)]

    def test_monte_carlo_plan_carries_seed_and_spec(self, tech):
        plan = ExperimentPlan.monte_carlo(8, technology=tech, seed=42,
                                          sigma_vth=0.02)
        assert plan.kind == "montecarlo"
        assert plan.seed == 42
        assert plan.variation.sigma_vth == 0.02
        assert plan.shape == (8,)

    def test_invalid_plans_rejected(self, tech):
        with pytest.raises(ConfigurationError):
            ExperimentPlan.sweep("vdd", [])
        with pytest.raises(ConfigurationError):
            ExperimentPlan.grid("vdd", [0.3], "vdd", [0.4])
        with pytest.raises(ConfigurationError):
            ExperimentPlan.grid("vdd", [], "t", TEMPS)
        with pytest.raises(ConfigurationError):
            ExperimentPlan.monte_carlo(0, technology=tech)


class TestSerialParallelEquivalence:
    def test_sweep_serial_and_parallel_bit_identical(self, tech):
        plan = ExperimentPlan.sweep("vdd", VDDS)
        quantities = {"delay": _delay_quantity(tech)}
        serial = Executor(workers=0).run(plan, quantities)
        pooled = Executor(workers=2).run(plan, quantities)
        assert serial.values == pooled.values
        assert pooled.provenance.executor.startswith("fork-pool")
        assert serial.provenance.executor == "serial"

    def test_grid_serial_and_parallel_bit_identical(self, tech):
        plan = ExperimentPlan.grid("vdd", VDDS, "width_um", [0.12, 0.24])

        def delay(vdd, width_um):
            scaled = tech.scaled(min_width_um=width_um)
            return GateModel(technology=scaled).delay(vdd)

        serial = Executor(workers=0).run(plan, {"delay": delay})
        pooled = Executor(workers=2).run(plan, {"delay": delay})
        assert serial.values == pooled.values

    def test_monte_carlo_serial_and_parallel_bit_identical(self, tech):
        plan = ExperimentPlan.monte_carlo(24, technology=tech, seed=9)
        serial = Executor(workers=0).run(plan, {"delay": _mc_delay})
        pooled = Executor(workers=3).run(plan, {"delay": _mc_delay})
        assert serial.values == pooled.values
        assert serial.summary("delay").relative_spread > 0.0

    def test_single_worker_falls_back_to_serial(self, tech):
        plan = ExperimentPlan.sweep("vdd", VDDS)
        result = Executor(workers=1).run(plan, {"delay": _delay_quantity(tech)})
        assert result.provenance.executor == "serial"

    def test_concurrent_pool_claim_falls_back_to_serial(self, tech):
        """While one pool run is in flight its payload global is claimed;
        a second run must take the serial path, never the wrong payload."""
        from repro.analysis import runner as runner_module

        plan = ExperimentPlan.sweep("vdd", VDDS)
        quantities = {"delay": _delay_quantity(tech)}
        assert runner_module._POOL_CLAIM.acquire(blocking=False)
        try:
            result = Executor(workers=2).run(plan, quantities)
        finally:
            runner_module._POOL_CLAIM.release()
        assert result.provenance.executor == "serial"
        assert result.values == Executor(workers=0).run(plan, quantities).values
        # The claim is free again: the next run uses the pool.
        pooled = Executor(workers=2).run(plan, quantities)
        assert pooled.provenance.executor.startswith("fork-pool")

    def test_quantity_exceptions_propagate_from_the_pool(self):
        plan = ExperimentPlan.sweep("x", [1.0, 2.0, 3.0])

        def explode(x):
            raise ValueError(f"boom at {x}")

        with pytest.raises(ValueError):
            Executor(workers=2).run(plan, {"f": explode})


class TestResults:
    def test_sweep_result_round_trip_matches_legacy_loop(self, tech):
        gate = GateModel(technology=tech)
        quantities = {"delay": gate.delay, "energy": gate.transition_energy}
        result = sweep("vdd", VDDS, quantities)
        assert isinstance(result, SweepResult)
        assert result.names == ["delay", "energy"]
        # Exactly what the hand-rolled loop produced before the port.
        expected = [(float(v), float(gate.delay(v))) for v in VDDS]
        assert result["delay"].points == expected

    def test_grid_views_shape_and_cuts(self):
        plan = ExperimentPlan.grid("x", [1.0, 2.0], "y", [10.0, 20.0, 30.0])
        result = Executor().run(plan, {"sum": lambda x, y: x + y})
        assert result.value_grid("sum") == [[11.0, 21.0, 31.0],
                                            [12.0, 22.0, 32.0]]
        cut = result.series_at("sum", y=20.0)
        assert isinstance(cut, Series)
        assert cut.points == [(1.0, 21.0), (2.0, 22.0)]
        cut_x = result.series_at("sum", x=2.0)
        assert cut_x.points == [(10.0, 12.0), (20.0, 22.0), (30.0, 32.0)]
        assert result.argmin("sum") == ((1.0, 10.0), 11.0)

    def test_argmin_raises_on_nan(self):
        plan = ExperimentPlan.sweep("x", [1.0, 2.0, 3.0])
        result = Executor().run(
            plan, {"f": lambda x: float("nan") if x == 1.0 else x})
        with pytest.raises(ConfigurationError):
            result.argmin("f")

    def test_grid_views_reject_wrong_plan_kind(self):
        plan = ExperimentPlan.sweep("x", [1.0, 2.0])
        result = Executor().run(plan, {"f": lambda x: x})
        with pytest.raises(ConfigurationError):
            result.value_grid("f")
        with pytest.raises(ConfigurationError):
            result.series_at("f", x=1.0)
        with pytest.raises(ConfigurationError):
            result.summary("f")
        with pytest.raises(ConfigurationError):
            result.series("missing")

    def test_provenance_records_the_run(self, tech):
        plan = ExperimentPlan.monte_carlo(6, technology=tech, seed=3)
        result = Executor(workers=0).run(plan, {"delay": _mc_delay})
        record = result.provenance
        assert record.kind == "montecarlo"
        assert record.axes == {"sample": 6}
        assert record.quantities == ("delay",)
        assert record.points == 6
        assert record.seed == 3
        assert record.wall_time_s >= 0.0
        as_dict = record.as_dict()
        assert as_dict["executor"] == "serial"
        assert as_dict["axes"] == {"sample": 6}

    def test_cache_stats_in_provenance_are_per_run(self, tech):
        executor = Executor(workers=0)
        plan = ExperimentPlan.monte_carlo(6, technology=tech, seed=3)
        first = executor.run(plan, {"delay": _mc_delay})
        second = executor.run(plan, {"delay": _mc_delay})
        # The shared cache outlives both runs, but each RunRecord reports
        # only its own run's hits and misses.
        assert (first.provenance.cache_hits,
                first.provenance.cache_misses) == (0, 6)
        assert (second.provenance.cache_hits,
                second.provenance.cache_misses) == (6, 0)


class TestTechnologyCache:
    def test_scaled_rebuilds_are_deduplicated(self, tech):
        cache = TechnologyCache()
        first = cache.scaled(tech, temperature_k=350.0)
        second = cache.scaled(tech, temperature_k=350.0)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)
        cache.scaled(tech, temperature_k=250.0)
        assert (cache.hits, cache.misses) == (1, 2)

    def test_mc_sample_shared_across_quantities(self, tech):
        executor = Executor(workers=0)
        plan = ExperimentPlan.monte_carlo(5, technology=tech, seed=1)
        executor.run(plan, {"a": _mc_delay,
                            "b": lambda t: GateModel(technology=t).delay(1.0)})
        # One perturbation per sample, shared by both quantities.
        assert executor.cache.misses == 5
        # Re-running the same plan hits the cache for every sample.
        executor.run(plan, {"a": _mc_delay})
        assert executor.cache.misses == 5
        assert executor.cache.hits >= 5

    def test_cache_is_bounded(self, tech):
        cache = TechnologyCache(max_entries=2)
        for temp in (250.0, 300.0, 350.0):
            cache.scaled(tech, temperature_k=temp)
        assert len(cache) == 2


class TestSeededMonteCarlo:
    def test_run_study_is_reproducible(self, tech):
        a = run_study(tech, _mc_delay, samples=16, seed=21)
        b = run_study(tech, _mc_delay, samples=16, seed=21)
        assert a.samples == b.samples

    def test_run_study_seed_changes_samples(self, tech):
        a = run_study(tech, _mc_delay, samples=16, seed=21)
        b = run_study(tech, _mc_delay, samples=16, seed=22)
        assert a.samples != b.samples

    def test_per_sample_streams_make_prefixes_stable(self, tech):
        """Sample i depends only on (seed, i), not on the batch size."""
        small = run_study(tech, _mc_delay, samples=4, seed=5)
        large = run_study(tech, _mc_delay, samples=9, seed=5)
        assert large.samples[:4] == small.samples

    def test_adjacent_seeds_share_no_streams(self, tech):
        """Replications over seeds 0, 1, 2, ... must be independent — a
        naive ``seed + i`` stream would make seed 1 a shifted copy of
        seed 0."""
        a = run_study(tech, _mc_delay, samples=10, seed=0)
        b = run_study(tech, _mc_delay, samples=10, seed=1)
        assert b.samples[:-1] != a.samples[1:]
        assert not set(a.samples) & set(b.samples)

    def test_run_study_parallel_equals_serial(self, tech):
        serial = run_study(tech, _mc_delay, samples=20, seed=13)
        pooled = run_study(tech, _mc_delay, samples=20, seed=13,
                           executor=Executor(workers=2))
        assert serial.samples == pooled.samples
