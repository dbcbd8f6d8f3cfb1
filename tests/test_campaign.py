"""The scenario campaign engine and the seeded invariant fuzzer.

Covers the four contracts the campaign layer makes:

* the declarative spec compiles deterministically (same registry + seed
  => identical plan set and signature) and the bundled ``paper_space``
  campaign enumerates the full figure space from one TOML file;
* execution goes through the Session front door, so serial, pooled and
  distrib-sharded runs of the same campaign are bit-identical and a warm
  persistent cache answers a re-run entirely from disk;
* the fuzzer's violation corpus replays byte-for-byte — demonstrated
  against a deliberately broken capacitor model that over-reports its
  stored charge, which the fuzzer must catch, shrink and persist within
  a bounded seed budget;
* the CLI surfaces misconfiguration as one clear ``error:`` line and an
  exit code, never a traceback.
"""

import json

import pytest

from repro.analysis.campaign import (
    DEFAULT_INVARIANTS,
    Invariant,
    compile_campaign,
    fuzz,
    load_case,
    reproduce,
    run_campaign,
)
from repro.analysis.campaign.spec import (
    AxisSpec,
    CampaignSpec,
    ScenarioSpec,
    builtin_campaign_path,
    load_campaign,
)
from repro.analysis.session import RunConfig, Session
from repro.errors import ConfigurationError
from repro.power.capacitor import (
    Capacitor,
    charge_conservation_violations,
)


def small_campaign(seed=7):
    """A hand-built two-scenario campaign (no tomllib dependency)."""
    return CampaignSpec(
        name="unit", seed=seed, scenarios=(
            ScenarioSpec(
                point="gate_metrics", technologies=("cmos90", "cmos65"),
                axes=(AxisSpec("vdd", (0.4, 0.7, 1.0)),),
                matrix=(("gate", ("INVERTER", "NAND2")),)),
            ScenarioSpec(
                point="mc_gate", technologies=("cmos90",),
                params=(("vdd", 0.5),), samples=6, seed_batches=2),
        ))


# ---------------------------------------------------------------------------
# Spec + compilation


class TestCampaignSpec:
    def test_compilation_expands_the_cross_product(self):
        campaign = compile_campaign(small_campaign())
        # 2 tech x 2 gates sweeps of 3 points, plus 2 MC batches of 6
        assert len(campaign.runs) == 2 * 2 + 2
        assert campaign.point_count == 4 * 3 + 2 * 6
        labels = [run.label for run in campaign.runs]
        assert "gate_metrics[cmos90]#0" in labels
        assert "mc_gate[cmos90]@1" in labels

    def test_same_spec_and_seed_compile_identically(self):
        first = compile_campaign(small_campaign())
        again = compile_campaign(small_campaign())
        assert first.signature() == again.signature()
        assert [r.label for r in first.runs] == \
            [r.label for r in again.runs]
        assert [r.plan.points() for r in first.runs] == \
            [r.plan.points() for r in again.runs]

    def test_seed_changes_the_monte_carlo_plans(self):
        base = compile_campaign(small_campaign(seed=7))
        other = compile_campaign(small_campaign(seed=8))
        assert base.signature() != other.signature()

    def test_unknown_point_function_rejected(self):
        with pytest.raises(ConfigurationError, match="point function"):
            compile_campaign(CampaignSpec(
                name="bad", seed=0, scenarios=(
                    ScenarioSpec(point="nonsense",
                                 technologies=("cmos90",)),)))

    def test_axes_must_match_the_point_function(self):
        with pytest.raises(ConfigurationError, match="needs axes"):
            compile_campaign(CampaignSpec(
                name="bad", seed=0, scenarios=(
                    ScenarioSpec(point="gate_metrics",
                                 technologies=("cmos90",),
                                 axes=(AxisSpec("volts", (0.5,)),)),)))

    def test_monte_carlo_rejects_axes_and_needs_samples(self):
        with pytest.raises(ConfigurationError, match="samples"):
            compile_campaign(CampaignSpec(
                name="bad", seed=0, scenarios=(
                    ScenarioSpec(point="mc_gate",
                                 technologies=("cmos90",)),)))
        with pytest.raises(ConfigurationError, match="not axes"):
            compile_campaign(CampaignSpec(
                name="bad", seed=0, scenarios=(
                    ScenarioSpec(point="mc_gate", technologies=("cmos90",),
                                 samples=4,
                                 axes=(AxisSpec("vdd", (0.5,)),)),)))

    def test_empty_campaign_rejected(self):
        with pytest.raises(ConfigurationError, match="no scenarios"):
            compile_campaign(CampaignSpec(name="bad", seed=0,
                                          scenarios=()))

    def test_trimmed_keeps_every_scenario_but_shrinks_the_space(self):
        spec = small_campaign()
        smoke = compile_campaign(spec.trimmed())
        full = compile_campaign(spec)
        assert smoke.point_count < full.point_count
        assert {r.scenario_index for r in smoke.runs} == \
            {r.scenario_index for r in full.runs}


class TestBundledCampaign:
    def test_paper_space_enumerates_the_figure_space(self):
        pytest.importorskip("tomllib")
        spec = load_campaign(builtin_campaign_path("paper_space"))
        campaign = compile_campaign(spec)
        # the acceptance bar: one TOML file, >= 5000 distinct plan points
        assert campaign.point_count >= 5000
        points = {scenario.point for scenario in spec.scenarios}
        assert {"gate_metrics", "sram_latency", "dualrail_counter",
                "charge_to_digital", "harvester_power",
                "mc_gate"} <= points

    def test_smoke_trim_is_seconds_sized(self):
        pytest.importorskip("tomllib")
        spec = load_campaign(builtin_campaign_path("paper_space"))
        smoke = compile_campaign(spec.trimmed())
        assert smoke.point_count < 200

    def test_unknown_bundled_name_lists_what_exists(self):
        with pytest.raises(ConfigurationError, match="paper_space"):
            builtin_campaign_path("nonsense")

    def test_schema_errors_name_the_scenario(self, tmp_path):
        pytest.importorskip("tomllib")
        bad = tmp_path / "bad.toml"
        bad.write_text('[[scenario]]\npoint = "gate_metrics"\n'
                       'bogus_key = 1\n')
        with pytest.raises(ConfigurationError, match="unknown keys"):
            load_campaign(bad)
        with pytest.raises(ConfigurationError, match="no \\[\\[scenario\\]\\]"):
            empty = tmp_path / "empty.toml"
            empty.write_text('[campaign]\nname = "x"\n')
            load_campaign(empty)


# ---------------------------------------------------------------------------
# Execution determinism across executors (the satellite-d contract)


class TestCampaignDeterminism:
    @pytest.fixture(scope="class")
    def campaign(self):
        return compile_campaign(small_campaign().trimmed())

    def serial_values(self, campaign):
        config = RunConfig.resolve(config_file=False)
        with Session(config) as session:
            return run_campaign(campaign, session).values()

    def test_serial_and_pooled_are_bit_identical(self, campaign):
        serial = self.serial_values(campaign)
        pooled_config = RunConfig.resolve(config_file=False, workers=2)
        with Session(pooled_config) as session:
            pooled = run_campaign(campaign, session)
        assert pooled.values() == serial

    def test_distrib_sharding_is_bit_identical(self, campaign, tmp_path):
        serial = self.serial_values(campaign)
        config = RunConfig.resolve(config_file=False,
                                   distrib_root=str(tmp_path / "fleet"))
        with Session(config) as session:
            distrib = run_campaign(campaign, session)
        assert distrib.values() == serial
        assert all(e.startswith("distrib[")
                   for e in distrib.summary()["executors"])

    def test_warm_cache_answers_a_rerun_from_disk(self, campaign, tmp_path):
        config = RunConfig.resolve(config_file=False, cache_mode="rw",
                                   cache_root=str(tmp_path / "cache"))
        with Session(config) as session:
            cold = run_campaign(campaign, session)
        with Session(config) as session:
            warm = run_campaign(campaign, session)
        assert warm.values() == cold.values()
        summary = warm.summary()
        assert summary["persistent_hits"] == campaign.point_count
        assert summary["persistent_misses"] == 0

    def test_signature_is_stable_across_executions(self, campaign):
        before = campaign.signature()
        self.serial_values(campaign)
        assert campaign.signature() == before


class TestRowCachePickle:
    """Regression: the scenario-row memo used to break executor payloads.

    A quantity closure can drag the module-level ``_ROWS`` memo into a
    pickled submission; its ``threading.Lock`` made that a ``TypeError``
    until ``__getstate__`` learned to ship the configuration only.
    """

    def test_row_cache_survives_a_pickle_round_trip(self):
        import pickle

        from repro.analysis.campaign.registry import _RowCache

        memo = _RowCache(max_entries=3)
        memo.get(("k",), lambda: {"v": 1.0})
        clone = pickle.loads(pickle.dumps(memo))
        # Configuration travels; per-process execution state does not.
        assert clone.max_entries == 3
        assert clone._entries == {}
        # The clone's lock is re-armed and functional.
        assert clone.get(("k",), lambda: {"v": 2.0}) == {"v": 2.0}

    def test_module_level_memo_is_picklable(self):
        import pickle

        from repro.analysis.campaign import registry

        assert pickle.loads(pickle.dumps(registry._ROWS)) is not None


# ---------------------------------------------------------------------------
# The fuzzer and its replayable corpus


class OverReportingCapacitor(Capacitor):
    """The deliberately broken model: its ledger invents 20% extra charge."""

    def stored_charge(self, time):
        return super().stored_charge(time) * 1.2


def _check_broken_charge_conservation(params):
    return charge_conservation_violations(
        float(params["capacitance"]), float(params["initial_voltage"]),
        [float(d) for d in params["draws"]],
        capacitor_factory=OverReportingCapacitor)


def broken_registry():
    """The default registry with the capacitor invariant checking the
    over-reporting model — the mutation the fuzzer must catch."""
    healthy = DEFAULT_INVARIANTS["charge_conservation"]
    table = dict(DEFAULT_INVARIANTS)
    table["charge_conservation"] = Invariant(
        name=healthy.name, description=healthy.description,
        draw=healthy.draw, check=_check_broken_charge_conservation,
        shrink_floors=healthy.shrink_floors)
    return table


class TestFuzzer:
    def test_healthy_models_survive_a_pinned_budget(self, tmp_path):
        report = fuzz(seed=20260808, budget=16, corpus_dir=tmp_path)
        assert report.evaluated + report.rejected == 16
        assert report.violation_count == 0
        assert list(tmp_path.glob("*.json")) == []

    def test_budget_and_names_are_validated(self, tmp_path):
        with pytest.raises(ConfigurationError, match="budget"):
            fuzz(seed=0, budget=0, corpus_dir=tmp_path)
        with pytest.raises(ConfigurationError, match="unknown invariants"):
            fuzz(seed=0, budget=4, corpus_dir=tmp_path, names=["nonsense"])

    def test_broken_model_is_caught_shrunk_and_replayable(self, tmp_path):
        report = fuzz(seed=1, budget=8, corpus_dir=tmp_path,
                      invariants=broken_registry(),
                      names=["charge_conservation"])
        assert report.violation_count >= 1
        case = report.cases[0]
        # shrinking drove the draw list down to a single element
        assert len(case.params["draws"]) == 1
        assert case.violations
        # the persisted case round-trips and replays byte-for-byte
        loaded = load_case(case.case_id, corpus_dir=tmp_path)
        assert loaded == case
        identical, violations = reproduce(loaded,
                                          invariants=broken_registry())
        assert identical
        assert tuple(violations) == case.violations

    def test_fixed_model_fails_to_reproduce_the_case(self, tmp_path):
        report = fuzz(seed=1, budget=8, corpus_dir=tmp_path,
                      invariants=broken_registry(),
                      names=["charge_conservation"])
        case = report.cases[0]
        identical, violations = reproduce(case)  # healthy registry
        assert not identical
        assert violations == []

    def test_every_index_is_independently_re_drawable(self, tmp_path):
        first = fuzz(seed=1, budget=8, corpus_dir=tmp_path / "a",
                     invariants=broken_registry(),
                     names=["charge_conservation"])
        again = fuzz(seed=1, budget=8, corpus_dir=tmp_path / "b",
                     invariants=broken_registry(),
                     names=["charge_conservation"])
        assert [c.as_dict() for c in first.cases] == \
            [c.as_dict() for c in again.cases]

    def test_unknown_case_id_is_a_clear_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no fuzz case"):
            load_case("deadbeef", corpus_dir=tmp_path)


# ---------------------------------------------------------------------------
# The CLI (python -m repro campaign ... / python -m repro run ...)


class TestCampaignCLI:
    def test_plan_only_reports_the_full_geometry(self, capsys):
        pytest.importorskip("tomllib")
        from repro.cli import main

        assert main(["campaign", "run", "--plan-only", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points"] >= 5000
        assert payload["runs"] > 0
        assert len(payload["signature"]) == 64

    def test_smoke_run_executes_every_scenario(self, tmp_path, monkeypatch,
                                               capsys):
        pytest.importorskip("tomllib")
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["campaign", "run", "--smoke", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["evaluated_points"] == summary["points"] > 0
        assert summary["executors"]

    def test_list_names_points_and_invariants(self, capsys):
        from repro.cli import main

        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "gate_metrics" in out
        assert "charge_conservation" in out

    def test_unknown_campaign_is_one_error_line(self, capsys):
        from repro.cli import main

        assert main(["campaign", "run", "--campaign", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_fuzz_and_repro_round_trip(self, tmp_path, monkeypatch,
                                       capsys):
        import importlib

        from repro.cli import main

        # (the package re-exports the fuzz() function under the same name)
        fuzz_module = importlib.import_module("repro.analysis.campaign.fuzz")

        with monkeypatch.context() as patch:
            patch.setattr(fuzz_module, "DEFAULT_INVARIANTS",
                          broken_registry())
            code = main(["campaign", "fuzz", "--budget", "6", "--seed", "1",
                         "--corpus", str(tmp_path)])
            assert code == 1
            out = capsys.readouterr().out
            assert "VIOLATION" in out
            case_id = sorted(p.stem for p in tmp_path.glob("*.json"))[0]
            assert main(["campaign", "repro", case_id,
                         "--corpus", str(tmp_path)]) == 0
            assert "reproduced byte-for-byte" in capsys.readouterr().out
        # against the healthy registry the case must NOT reproduce
        assert main(["campaign", "repro", case_id,
                     "--corpus", str(tmp_path)]) == 1
        assert "DID NOT reproduce" in capsys.readouterr().out

    def test_repro_unknown_case_exits_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["campaign", "repro", "deadbeef",
                     "--corpus", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("spec", [
        "no-colon-here",
        "definitely_missing_module:factory",
        "repro.analysis.distrib:no_such_factory",
    ])
    def test_malformed_plan_spec_is_one_error_line(self, spec, capsys):
        from repro.cli import main

        assert main(["run", "--plan", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert spec.split(":")[0] in err
        assert "Traceback" not in err
