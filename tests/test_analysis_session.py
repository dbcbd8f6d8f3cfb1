"""RunConfig resolution, the Session facade, and the consolidated CLI."""

import json
import os
import sys

import pytest

from repro.analysis.cache import ResultCache
from repro.analysis.runner import Executor, ExperimentPlan
from repro.analysis.session import (
    RunConfig,
    RunHandle,
    Session,
    default_session,
    reset_default_session,
)
from repro.analysis.sweep import sweep
from repro.errors import ConfigurationError

HAVE_TOMLLIB = sys.version_info >= (3, 11)


def delay_fn(vdd):
    from repro.models.gate import GateModel
    from repro.models.technology import get_technology

    return GateModel(technology=get_technology("cmos90")).delay(vdd)


def energy_fn(vdd):
    from repro.models.gate import GateModel
    from repro.models.technology import get_technology

    return GateModel(technology=get_technology("cmos90")).transition_energy(vdd)


PLAN = ExperimentPlan.sweep("vdd", [0.3 + 0.1 * i for i in range(8)])
QUANTITIES = {"delay": delay_fn, "energy": energy_fn}


# ---------------------------------------------------------------------------
# RunConfig resolution


class TestRunConfigResolution:
    def test_defaults(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # no stray repro.toml
        config = RunConfig.resolve(environ={})
        assert config.workers == 0
        assert config.cache_mode == "off"
        assert config.cache_root is None
        assert config.distrib_root is None
        assert config.shard_size == 4
        assert set(config.sources.values()) == {"default"}

    def test_env_beats_defaults(self):
        env = {"REPRO_WORKERS": "5", "REPRO_CACHE_MODE": "ro",
               "REPRO_CACHE_DIR": "/tmp/somewhere",
               "REPRO_DISTRIB_ROOT": "http://host:1/bucket",
               "REPRO_SHARD_SIZE": "7"}
        config = RunConfig.resolve(environ=env)
        assert config.workers == 5
        assert config.cache_mode == "ro"
        assert config.cache_root == "/tmp/somewhere"
        assert config.distrib_root == "http://host:1/bucket"
        assert config.shard_size == 7
        assert config.sources["workers"] == "env REPRO_WORKERS"

    def test_kwargs_beat_env(self):
        env = {"REPRO_WORKERS": "5", "REPRO_CACHE_MODE": "ro"}
        config = RunConfig.resolve(environ=env, workers=2, cache_mode="rw")
        assert config.workers == 2
        assert config.cache_mode == "rw"
        assert config.sources["workers"] == "kwargs"
        assert config.sources["cache_mode"] == "kwargs"

    def test_none_kwarg_falls_through_to_env(self):
        config = RunConfig.resolve(environ={"REPRO_WORKERS": "3"},
                                   workers=None)
        assert config.workers == 3

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown RunConfig"):
            RunConfig.resolve(environ={}, worker_count=4)

    @pytest.mark.skipif(not HAVE_TOMLLIB, reason="tomllib needs >= 3.11")
    def test_file_beats_defaults_env_beats_file(self, tmp_path):
        path = tmp_path / "repro.toml"
        path.write_text('[run]\nworkers = 6\ncache_mode = "rw"\n'
                        'shard_size = 2\n')
        from_file = RunConfig.resolve(environ={}, config_file=str(path))
        assert from_file.workers == 6
        assert from_file.cache_mode == "rw"
        assert from_file.shard_size == 2
        assert from_file.sources["workers"] == f"file {path}"
        layered = RunConfig.resolve(environ={"REPRO_WORKERS": "1"},
                                    config_file=str(path))
        assert layered.workers == 1          # env wins
        assert layered.cache_mode == "rw"    # file still fills the rest

    @pytest.mark.skipif(not HAVE_TOMLLIB, reason="tomllib needs >= 3.11")
    def test_implicit_repro_toml_in_cwd(self, tmp_path, monkeypatch):
        (tmp_path / "repro.toml").write_text('[run]\nworkers = "auto"\n')
        monkeypatch.chdir(tmp_path)
        config = RunConfig.resolve(environ={})
        assert config.workers == RunConfig.available_cpus()

    @pytest.mark.skipif(not HAVE_TOMLLIB, reason="tomllib needs >= 3.11")
    def test_unknown_file_key_rejected(self, tmp_path):
        path = tmp_path / "repro.toml"
        path.write_text("[run]\nworker_count = 4\n")
        with pytest.raises(ConfigurationError, match="unknown"):
            RunConfig.resolve(environ={}, config_file=str(path))

    def test_explicit_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            RunConfig.resolve(environ={},
                              config_file=str(tmp_path / "nope.toml"))
        with pytest.raises(ConfigurationError, match="does not exist"):
            RunConfig.resolve(
                environ={"REPRO_CONFIG": str(tmp_path / "nope.toml")})

    def test_parse_workers(self):
        assert RunConfig.parse_workers("auto") == RunConfig.available_cpus()
        assert RunConfig.parse_workers("3") == 3
        assert RunConfig.parse_workers(0) == 0
        for bad in ("many", "-1", -1, 2.5, True):
            with pytest.raises(ConfigurationError):
                RunConfig.parse_workers(bad)

    def test_parse_root(self):
        assert RunConfig.parse_root(None) is None
        # "fs" is an *explicit* choice of the default local root, so a
        # flag saying "fs" beats an env var pointing elsewhere.
        assert RunConfig.parse_root("fs") == ".repro_cache"
        assert RunConfig.parse_root("") is None
        assert RunConfig.parse_root("obj:http://h:9/b") == "http://h:9/b"
        assert RunConfig.parse_root("/some/dir") == "/some/dir"
        assert RunConfig.parse_root("https://h:9/b") == "https://h:9/b"
        with pytest.raises(ConfigurationError):
            RunConfig.parse_root("obj:ftp://nope")

    def test_explicit_fs_flag_beats_env(self):
        config = RunConfig.resolve(
            environ={"REPRO_CACHE_DIR": "http://host:1/bucket"},
            cache_root="fs")
        assert config.cache_root == ".repro_cache"
        assert config.sources["cache_root"] == "kwargs"

    def test_config_file_false_disables_file_tier(self, tmp_path,
                                                  monkeypatch):
        (tmp_path / "repro.toml").write_text("[run]\nworkers = 5\n")
        monkeypatch.chdir(tmp_path)
        config = RunConfig.resolve(environ={}, config_file=False)
        assert config.workers == 0
        assert config.sources["workers"] == "default"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RunConfig(workers=-1)
        with pytest.raises(ConfigurationError):
            RunConfig(cache_mode="maybe")
        with pytest.raises(ConfigurationError):
            RunConfig(shard_size=0)

    def test_override(self):
        base = RunConfig.resolve(environ={})
        assert base.override() is base
        changed = base.override(workers="auto", cache_mode=None)
        assert changed.workers == RunConfig.available_cpus()
        assert changed.cache_mode == "off"
        assert changed.sources["workers"] == "kwargs"
        with pytest.raises(ConfigurationError):
            base.override(nonsense=1)

    def test_describe_and_fingerprint(self):
        config = RunConfig.resolve(environ={}, workers=2)
        described = config.describe()
        assert described["workers"] == 2
        assert described["sources"]["workers"] == "kwargs"
        # Policy must not perturb result content keys.
        assert config.__cache_fingerprint__() == "RunConfig"


# ---------------------------------------------------------------------------
# The Session facade


class TestSession:
    def test_run_mapping_and_kwargs_forms_identical(self):
        with Session(RunConfig.resolve(environ={})) as session:
            a = session.run(PLAN, QUANTITIES)
            b = session.run(PLAN, delay=delay_fn, energy=energy_fn)
        assert a.values == b.values
        assert a.provenance.quantities == b.provenance.quantities

    def test_serial_pooled_and_submit_are_bit_identical(self):
        serial = Executor(workers=0).run(PLAN, QUANTITIES)
        with Session(RunConfig.resolve(environ={}, workers=2)) as session:
            pooled = session.run(PLAN, QUANTITIES)
            handles = [session.submit(PLAN, QUANTITIES) for _ in range(3)]
            gathered = session.gather(handles)
        assert pooled.values == serial.values
        for result in gathered:
            assert result.values == serial.values
            record = result.provenance
            assert record.kind == "sweep"
            assert record.points == PLAN.point_count
            assert record.quantities == ("delay", "energy")
            assert record.wall_time_s >= 0.0

    def test_concurrent_submits_fork_pool_against_shared_cache(self, tech):
        # Monte-Carlo points build technologies through the shared cache
        # from pool children forked while sibling submits are mid-run —
        # the fork-guard / lock-rearm path must keep this deadlock-free
        # and bit-identical.
        def mc_delay(technology):
            from repro.models.gate import GateModel

            return GateModel(technology=technology).delay(0.4)

        mc = ExperimentPlan.monte_carlo(8, technology=tech, seed=3)
        serial = Executor(workers=0).run(mc, {"delay": mc_delay})
        with Session(RunConfig.resolve(environ={}, workers=2)) as session:
            handles = [session.submit(mc, delay=mc_delay)
                       for _ in range(3)]
            results = session.gather(handles)
        assert all(r.values == serial.values for r in results)

    def test_many_tenant_threads_submit_bit_identical(self):
        # The experiment service drives one shared Session from several
        # dispatcher threads; many threads interleaving submit()/gather()
        # must each get results bit-identical to the serial executor.
        import threading

        serial = Executor(workers=0).run(PLAN, QUANTITIES)
        results = {}
        errors = []
        with Session(RunConfig.resolve(environ={}, workers=2)) as session:
            def tenant(name):
                try:
                    handles = [session.submit(PLAN, QUANTITIES)
                               for _ in range(2)]
                    results[name] = session.gather(handles)
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append((name, exc))

            threads = [threading.Thread(target=tenant, args=(f"t{i}",))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
        assert not errors
        assert len(results) == 6
        for gathered in results.values():
            assert all(r.values == serial.values for r in gathered)

    def test_technology_cache_is_consistent_under_contention(self, tech):
        # Monte-Carlo submits from many threads hammer one shared
        # TechnologyCache in-process (workers=0).  Contract under
        # contention: identical values, first-insert-wins entries (one
        # per perturbed sample), and no lost counter updates — every
        # lookup lands in exactly one of hits/misses.
        import threading

        def mc_delay(technology):
            from repro.models.gate import GateModel

            return GateModel(technology=technology).delay(0.4)

        mc = ExperimentPlan.monte_carlo(8, technology=tech, seed=3)
        serial = Executor(workers=0).run(mc, {"delay": mc_delay})
        n_threads, runs_each = 6, 2
        errors = []
        with Session(RunConfig.resolve(environ={})) as session:
            def tenant():
                try:
                    handles = [session.submit(mc, delay=mc_delay)
                               for _ in range(runs_each)]
                    for result in session.gather(handles):
                        assert result.values == serial.values
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=tenant)
                       for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
            assert not errors
            lookups = n_threads * runs_each * mc.point_count
            assert session.cache.hits + session.cache.misses == lookups
            # Racing misses may build a sample twice, but the entry set
            # converges to exactly one Technology per perturbed sample.
            assert len(session.cache) == mc.point_count
            assert session.cache.misses >= mc.point_count

    def test_gather_accepts_variadic_handles(self):
        with Session(RunConfig.resolve(environ={})) as session:
            h1 = session.submit(PLAN, delay=delay_fn)
            h2 = session.submit(PLAN, energy=energy_fn)
            r1, r2 = session.gather(h1, h2)
        assert isinstance(h1, RunHandle)
        assert h1.done() and h2.done()
        assert list(r1.values) == ["delay"]
        assert list(r2.values) == ["energy"]

    def test_handle_surfaces_quantity_exceptions(self):
        def broken(vdd):
            raise ValueError("modelling bug")

        with Session(RunConfig.resolve(environ={})) as session:
            handle = session.submit(PLAN, broken=broken)
            assert isinstance(handle.exception(timeout=30), ValueError)
            with pytest.raises(ValueError, match="modelling bug"):
                handle.result()

    def test_shared_technology_cache(self, tech):
        grid = ExperimentPlan.grid("vdd", [0.4, 0.7], "temperature_k",
                                   [260.0, 300.0])
        with Session(RunConfig.resolve(environ={})) as session:
            def energy(vdd, temperature_k):
                warm = session.cache.scaled(tech,
                                            temperature_k=temperature_k)
                return energy_fn(vdd) * warm.temperature_k

            session.run(grid, energy=energy)
            misses_after_first = session.cache.misses
            session.run(grid, energy=energy)
        # The second run rebuilds nothing: one shared cache across runs.
        assert session.cache.misses == misses_after_first
        assert session.executor is session.executor  # memoised wiring

    def test_persistent_cache_through_facade(self, tmp_path):
        config = RunConfig.resolve(environ={}, cache_mode="rw",
                                   cache_root=str(tmp_path))
        with Session(config) as session:
            assert isinstance(session.persistent, ResultCache)
            assert session.distrib is None
            first = session.run(PLAN, QUANTITIES)
            second = session.run(PLAN, QUANTITIES)
        assert first.provenance.persistent_misses == PLAN.point_count
        assert second.provenance.executor == "persistent-cache"
        assert second.values == first.values
        # A fresh session over the same root replays from disk.
        with Session(config) as replay:
            again = replay.run(PLAN, QUANTITIES)
        assert again.provenance.executor == "persistent-cache"
        assert again.values == first.values

    def test_session_overrides_and_bad_args(self):
        session = Session(workers="auto", environ={})
        assert session.config.workers == RunConfig.available_cpus()
        base = RunConfig.resolve(environ={})
        overridden = Session(base, workers=2)
        assert overridden.config.workers == 2
        assert base.workers == 0  # the original is untouched
        with pytest.raises(ConfigurationError):
            Session("not-a-config")
        with pytest.raises(ConfigurationError):
            Session(base, max_inflight=0)
        with pytest.raises(ConfigurationError):
            session.run(PLAN)  # no quantities
        with pytest.raises(ConfigurationError):
            session.run(PLAN, {"delay": delay_fn}, delay=delay_fn)

    def test_submit_after_close_is_refused(self):
        session = Session(RunConfig.resolve(environ={}))
        session.run(PLAN, delay=delay_fn)
        session.close()
        session.close()  # idempotent
        with pytest.raises(ConfigurationError, match="closed"):
            session.submit(PLAN, delay=delay_fn)
        # Synchronous runs stay available after close.
        assert session.run(PLAN, delay=delay_fn).values


# ---------------------------------------------------------------------------
# The legacy sweep() helper rides the default session


class TestDefaultSession:
    @pytest.fixture(autouse=True)
    def _fresh_default_session(self):
        reset_default_session()
        yield
        reset_default_session()

    def test_sweep_routes_through_default_session(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_MODE", "rw")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        reset_default_session()
        first = sweep("vdd", [0.4, 0.6, 0.8], {"delay": delay_fn})
        session = default_session()
        assert session.persistent is not None
        assert session.persistent.writes > 0
        second = sweep("vdd", [0.4, 0.6, 0.8], {"delay": delay_fn})
        assert session.persistent.hits > 0
        assert second["delay"].points == first["delay"].points

    def test_explicit_executor_still_wins(self):
        executor = Executor(workers=0)
        result = sweep("vdd", [0.5, 0.9], {"delay": delay_fn},
                       executor=executor)
        assert [x for x, _ in result["delay"].points] == [0.5, 0.9]


# ---------------------------------------------------------------------------
# The consolidated CLI


class TestConsolidatedCLI:
    def test_bare_invocation_prints_help(self, capsys):
        from repro.cli import main

        assert main([]) == 2
        out = capsys.readouterr().out
        assert all(name in out for name in ("run", "cache", "distrib",
                                            "serve", "campaign", "obs",
                                            "check"))

    def test_cache_alias_forwards_flags_verbatim(self, tmp_path,
                                                 monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "--stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["root"] == str(tmp_path)

    def test_run_subcommand_json(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main(["run", "--plan", "repro.analysis.distrib:selftest_plan",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["provenance"]["points"] == 12
        assert sorted(payload["values"]) == ["delay", "energy"]
        assert payload["config"]["workers"] == 0

    def test_run_matches_direct_execution(self, tmp_path, monkeypatch,
                                          capsys):
        from repro.analysis.distrib import selftest_plan
        from repro.cli import main

        plan, quantities = selftest_plan()
        direct = Executor(workers=0).run(plan, quantities)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--plan",
                     "repro.analysis.distrib:selftest_plan",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["values"] == direct.values
