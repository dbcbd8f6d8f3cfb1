"""Observability (:mod:`repro.analysis.obs`): trajectory, gate, dashboard.

The honest-keeping contract, pinned in three pieces: (1) the perf
trajectory round-trips pytest-benchmark snapshots into the tracked
``BENCH_history.jsonl`` and computes trailing-median baselines; (2) the
regression gate passes improvements, fails >20% slowdowns, honours the
``--allow`` recalibration escape hatch, and never fails a benchmark
that has no baseline yet; (3) the dashboard renders all five feed
sections — tenants, admission, fleet, cache, trajectory — from canned
JSON, from a live ``GET /v1/dashboard`` on the experiment server, and
from the standalone fleet-only server.
"""

import json
from urllib.request import urlopen

import pytest

from repro.analysis.obs.dashboard import (
    DashboardServer,
    collect_feeds,
    render_dashboard,
    sparkline,
)
from repro.analysis.obs.trajectory import (
    TrajectoryPoint,
    append_history,
    baseline_for,
    check_regressions,
    ingest_report,
    load_history,
)
from repro.analysis.serve import ExperimentServer, ExperimentService
from repro.analysis.session import RunConfig
from repro.cli import main as cli_main

#: Every feed section the dashboard must always render.
SECTIONS = ("tenants", "admission", "fleet", "cache", "trajectory")


def obs_cli(argv):
    """``python -m repro obs ARGV`` in-process; returns the exit code."""
    return cli_main(["obs", *argv])


def bench_report(median_s, name="test_hot_path", extra=None):
    """A minimal pytest-benchmark JSON document with one benchmark."""
    return {"benchmarks": [{"name": name, "stats": {"median": median_s},
                            "extra_info": dict(extra or {})}]}


def history_of(*medians, name="test_hot_path"):
    """A history list with one entry per median, in append order."""
    return [TrajectoryPoint(benchmark=name, median_s=median, sha=f"c{i}",
                            date="2026-08-08")
            for i, median in enumerate(medians)]


def canned_status():
    """A GET /v1/status payload shaped like ExperimentService.status()."""
    return {
        "uptime_s": 12.5, "dispatchers": 2,
        "scheduler": {"scheduler": "vtc", "depth": 3, "queued_cost": 24.0,
                      "queued_by_tenant": {"alice": 2, "bob": 1},
                      "virtual_time": {"alice": 16.0, "bob": 8.0},
                      "dispatched": {"alice": 4, "bob": 2}},
        "admission": {"max_depth": 64, "max_cost": 100000.0,
                      "admitted": 9, "rejected": 1,
                      "drain_rate_cost_per_s": 42.0},
        "plans": {"queued": 3, "running": 1, "done": 5, "failed": 0},
        "tenants": {"alice": {"submitted": 6, "completed": 4, "failed": 0},
                    "bob": {"submitted": 3, "completed": 1, "failed": 0}},
        "technology_cache": {"entries": 7, "hits": 30, "misses": 7},
        "cache": {"root": "/tmp/cache", "mode": "rw", "current_salt": "s1",
                  "salts": {"s1": {"results": 11, "result_bytes": 2048}},
                  "session": {"hits": 8, "misses": 3, "writes": 3}},
        "distrib": {"jobs": 2, "queue_depth": 5, "leased": 1,
                    "oldest_unclaimed_age_s": 7.5},
    }


# ---------------------------------------------------------------------------
# Trajectory store


class TestTrajectory:
    def test_ingest_reads_median_and_extra_info(self):
        points = ingest_report(
            bench_report(0.25, extra={"speedup_vs_per_point": 55.0}),
            sha="abc1234", date="2026-08-08")
        assert len(points) == 1
        point = points[0]
        assert point.benchmark == "test_hot_path"
        assert point.median_s == 0.25
        assert point.sha == "abc1234"
        assert point.extra == {"speedup_vs_per_point": 55.0}

    def test_ingest_skips_entries_without_a_median(self):
        report = {"benchmarks": [{"name": "test_a", "stats": {}},
                                 {"stats": {"median": 1.0}},
                                 {"name": "test_ok",
                                  "stats": {"median": 0.5}}]}
        assert [p.benchmark for p in ingest_report(report, sha="s")] \
            == ["test_ok"]

    def test_append_then_load_round_trips(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        written = append_history(path, history_of(0.1, 0.2))
        assert written == 2
        loaded = load_history(path)
        assert [point.median_s for point in loaded] == [0.1, 0.2]
        # Every line is an independent JSON object (merge-friendly).
        lines = path.read_text().splitlines()
        assert all(isinstance(json.loads(line), dict) for line in lines)

    def test_load_skips_torn_lines_and_missing_file(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        assert load_history(path) == []
        append_history(path, history_of(0.1))
        path.write_text(path.read_text() + "{torn...\n\n[1,2]\n")
        assert [point.median_s for point in load_history(path)] == [0.1]

    def test_baseline_is_trailing_median(self):
        history = history_of(1.0, 1.0, 0.10, 0.12, 0.08, 0.11, 0.09)
        # Trailing 5 entries: the old 1.0s outliers age out.
        assert baseline_for(history, "test_hot_path", trailing=5) == 0.10
        assert baseline_for(history, "test_other") is None


# ---------------------------------------------------------------------------
# Regression gate


class TestRegressionGate:
    def test_improvement_passes(self):
        regressions, unbaselined = check_regressions(
            history_of(0.10, 0.11, 0.10),
            ingest_report(bench_report(0.08), sha="s"))
        assert regressions == [] and unbaselined == []

    def test_within_threshold_passes(self):
        regressions, _ = check_regressions(
            history_of(0.10), ingest_report(bench_report(0.119), sha="s"))
        assert regressions == []

    def test_over_threshold_fails(self):
        regressions, _ = check_regressions(
            history_of(0.10), ingest_report(bench_report(0.15), sha="s"))
        assert len(regressions) == 1
        reg = regressions[0]
        assert not reg.allowed
        assert reg.baseline_s == 0.10 and reg.new_s == 0.15
        assert reg.ratio == pytest.approx(1.5)

    def test_allow_marks_the_regression_waived(self):
        regressions, _ = check_regressions(
            history_of(0.10), ingest_report(bench_report(0.15), sha="s"),
            allow=["test_hot_path"])
        assert len(regressions) == 1 and regressions[0].allowed

    def test_missing_baseline_is_not_an_error(self):
        regressions, unbaselined = check_regressions(
            history_of(0.10), ingest_report(
                bench_report(9.9, name="test_brand_new"), sha="s"))
        assert regressions == []
        assert unbaselined == ["test_brand_new"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        history = tmp_path / "BENCH_history.jsonl"
        report = tmp_path / "BENCH_ci.json"
        report.write_text(json.dumps(bench_report(0.10)))
        # Seed the trajectory through the append CLI.
        assert obs_cli(["append", str(report), "--history", str(history),
                            "--sha", "c0", "--date", "2026-08-08"]) == 0
        # Same timing: gate passes.
        assert obs_cli(["check", str(report), "--history", str(history)]) == 0
        # A 50% slowdown: gate fails...
        report.write_text(json.dumps(bench_report(0.15)))
        assert obs_cli(["check", str(report), "--history", str(history)]) == 1
        # ...unless deliberately allowed.
        assert obs_cli(["check", str(report), "--history", str(history),
                           "--allow", "test_hot_path"]) == 0
        # A benchmark with no baseline never fails the gate.
        report.write_text(json.dumps(bench_report(9.9, name="test_new")))
        assert obs_cli(["check", str(report), "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "NEW" in out and "ALLOWED" in out and "FAIL" in out

    def test_cli_reachable_through_repro_obs(self, tmp_path):
        history = tmp_path / "h.jsonl"
        report = tmp_path / "r.json"
        report.write_text(json.dumps(bench_report(0.10)))
        assert obs_cli(["append", str(report), "--history", str(history),
                         "--sha", "c0"]) == 0
        assert obs_cli(["check", str(report), "--history",
                         str(history)]) == 0
        with pytest.raises(SystemExit) as exit_info:
            obs_cli(["no-such-verb"])
        assert exit_info.value.code == 2


# ---------------------------------------------------------------------------
# Dashboard rendering


class TestDashboardRender:
    def test_renders_all_five_sections_from_canned_json(self):
        page = render_dashboard(
            service=canned_status(),
            trajectory=history_of(0.10, 0.11, 0.09))
        for section in SECTIONS:
            assert f'id="{section}"' in page
        # Tenant/queue/virtual-time state lands in the page.
        assert "alice" in page and "bob" in page
        # Admission gate counters and drain rate.
        assert "drain rate" in page and "42" in page
        # Fleet queue depth and oldest-unclaimed age.
        assert "7.5s" in page
        # Cache hit rate (8 of 11).
        assert "73%" in page
        # Trajectory sparkline.
        assert '<svg class="spark"' in page and "test_hot_path" in page

    def test_sections_survive_missing_feeds(self):
        page = render_dashboard()
        for section in SECTIONS:
            assert f'id="{section}"' in page
        assert "no service feed" in page
        assert "no distrib feed" in page

    def test_feed_errors_render_as_unavailable(self):
        page = render_dashboard(fleet={"error": "root gone"},
                                cache={"error": "store gone"})
        assert "fleet feed error" in page and "cache feed error" in page

    def test_html_is_escaped(self):
        status = canned_status()
        status["tenants"]["<script>alert(1)</script>"] = {
            "submitted": 1, "completed": 0, "failed": 0}
        page = render_dashboard(service=status)
        assert "<script>alert(1)</script>" not in page
        assert "&lt;script&gt;" in page

    def test_sparkline_handles_degenerate_series(self):
        assert "svg" in sparkline([1.0])
        assert "svg" in sparkline([2.0, 2.0, 2.0])
        assert "no data" in sparkline([])


# ---------------------------------------------------------------------------
# Live servers


def hermetic_config():
    """No repro.toml / REPRO_* leakage into service-owned sessions."""
    return RunConfig.resolve(environ={}, config_file=False)


class TestDashboardServers:
    def test_experiment_server_serves_v1_dashboard(self, tmp_path):
        history = tmp_path / "BENCH_history.jsonl"
        append_history(history, history_of(0.10, 0.12))
        service = ExperimentService(hermetic_config(), start=False)
        with service, ExperimentServer(service, port=0,
                                       history_path=str(history)) as server:
            with urlopen(f"{server.url}/v1/dashboard") as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith(
                    "text/html")
                page = response.read().decode()
        for section in SECTIONS:
            assert f'id="{section}"' in page
        assert "test_hot_path" in page and '<svg class="spark"' in page

    def test_v1_dashboard_without_history_still_renders(self):
        service = ExperimentService(hermetic_config(), start=False)
        with service, ExperimentServer(service, port=0) as server:
            with urlopen(f"{server.url}/v1/dashboard") as response:
                page = response.read().decode()
        for section in SECTIONS:
            assert f'id="{section}"' in page
        assert "no committed trajectory" in page

    def test_standalone_fleet_dashboard(self, tmp_path):
        history = tmp_path / "BENCH_history.jsonl"
        append_history(history, history_of(0.10))

        def collect():
            return collect_feeds(root=str(tmp_path / "fleet"),
                                 history=str(history))

        with DashboardServer(collect, port=0) as server:
            with urlopen(f"{server.url}/") as response:
                assert response.status == 200
                page = response.read().decode()
            with urlopen(f"{server.url}/v1/dashboard") as response:
                assert response.status == 200
        for section in SECTIONS:
            assert f'id="{section}"' in page
        # An empty fleet root is an empty queue, not an error.
        assert "queue depth" in page

    def test_collect_feeds_swallows_feed_errors(self, tmp_path):
        feeds = collect_feeds(
            service_url="http://127.0.0.1:9",   # nothing listens here
            history=str(tmp_path / "absent.jsonl"))
        assert "error" in feeds["service"]
        assert feeds["trajectory"] is None
