"""Tests for sharded multi-machine execution (:mod:`repro.analysis.distrib`).

The subsystem's contract: a plan partitions into content-addressed shards
whose concatenation is bit-identical to the serial executor; workers claim
shards through atomic, heartbeated leases (an expired lease is stolen, a
live one is exclusive); and the coordinator merges shard slices — and the
per-shard provenance — back into one result stored under the very key a
plain persistent-cache run would compute.

Most of it runs in-process (a :class:`Worker` object is just driven by
the test).  :class:`TestRealFleet` runs real ``python -m repro distrib
worker`` subprocesses over a directory and over an object-store bucket:
a fleet merge, a worker SIGKILLed mid-lease whose shard a survivor
reclaims, and a batched Monte-Carlo kernel executed by a worker process.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

from repro.analysis.cache import ResultCache, result_key
from repro.analysis.distrib import (
    DistribBackend,
    DistribJob,
    DistribTimeout,
    UnpicklablePayload,
    Worker,
    fleet_queue_stats,
    job_status,
    list_jobs,
    list_workers,
    merge_job,
    queue_summary,
    shard_key,
    submit,
    selftest_plan,
    wait_for_job,
    worker_id,
)
from repro.analysis.distrib import _selftest_delay, _selftest_energy
from repro.analysis.runner import (
    Executor,
    ExperimentPlan,
    _selftest_batch_mc_delay,
    batched,
)
from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.models.technology import get_technology

XS = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]


def _double(x):
    return 2.0 * x


def _square(x):
    return x * x


def _grid_sum(x, y):
    return x + 10.0 * y


def _mc_delay(perturbed):
    from repro.models.gate import GateModel

    return GateModel(technology=perturbed).delay(0.4)


def _explode_above_two(x):
    if x > 2.0:
        raise ValueError(f"boom at {x}")
    return x


def tiny_plan():
    """Plan factory used by the CLI tests (MODULE:CALLABLE spec)."""
    return ExperimentPlan.sweep("x", XS), {"double": _double}


def distrib_main(argv):
    """``python -m repro distrib ARGV`` in-process; returns the exit code."""
    return cli_main(["distrib", *argv])


def worker_command(root, *extra):
    """argv and environment of a real ``repro distrib worker`` process
    importing this same ``repro`` package."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "repro", "distrib", "worker",
            "--root", str(root), *extra]
    return argv, env


@pytest.fixture()
def plan():
    return ExperimentPlan.sweep("x", XS)


@pytest.fixture()
def quantities():
    return {"double": _double, "square": _square}


class TestShardGeometry:
    def test_ranges_are_contiguous_and_balanced(self, plan):
        ranges = plan.shard_ranges(3)
        assert ranges == [(0, 3), (3, 5), (5, 7)]
        sizes = [stop - start for start, stop in ranges]
        assert max(sizes) <= 3
        assert max(sizes) - min(sizes) <= 1

    def test_one_shard_covers_everything(self, plan):
        assert plan.shard_ranges(100) == [(0, len(XS))]

    def test_invalid_shard_size_rejected(self, plan):
        with pytest.raises(ConfigurationError):
            plan.shard_ranges(0)

    def test_shard_keys_are_deterministic_and_distinct(self):
        assert shard_key("job", 0, 3) == shard_key("job", 0, 3)
        assert shard_key("job", 0, 3) != shard_key("job", 3, 6)
        assert shard_key("job", 0, 3) != shard_key("other", 0, 3)


class TestRunShard:
    def test_shard_concatenation_is_bit_identical(self, plan, quantities):
        full = Executor(workers=0).run(plan, quantities)
        merged = {name: [] for name in quantities}
        for start, stop in plan.shard_ranges(2):
            part = Executor(workers=0).run_shard(plan, quantities,
                                                 start, stop)
            for name in quantities:
                merged[name].extend(part[name])
        assert merged == full.values

    def test_monte_carlo_shards_keep_global_seed_streams(self, tech):
        plan = ExperimentPlan.monte_carlo(9, technology=tech, seed=11)
        full = Executor(workers=0).run(plan, {"d": _mc_delay})
        tail = Executor(workers=0).run_shard(plan, {"d": _mc_delay}, 6, 9)
        assert tail["d"] == full.values["d"][6:9]

    def test_out_of_range_shard_rejected(self, plan, quantities):
        executor = Executor(workers=0)
        with pytest.raises(ConfigurationError):
            executor.run_shard(plan, quantities, 3, 99)
        with pytest.raises(ConfigurationError):
            executor.run_shard(plan, quantities, -1, 2)
        with pytest.raises(ConfigurationError):
            executor.run_shard(plan, {}, 0, 1)


class TestSubmit:
    def test_manifest_round_trip(self, tmp_path, plan, quantities):
        job = submit(plan, quantities, root=tmp_path, shard_size=2)
        loaded = DistribJob.load(tmp_path, job.salt, job.key)
        assert loaded == job
        reloaded_plan, reloaded_quantities = loaded.load_payload()
        assert reloaded_plan == plan
        assert set(reloaded_quantities) == set(quantities)

    def test_submit_is_idempotent(self, tmp_path, plan, quantities):
        first = submit(plan, quantities, root=tmp_path, shard_size=2)
        second = submit(plan, quantities, root=tmp_path, shard_size=2)
        assert first == second
        assert len(list_jobs(tmp_path)) == 1

    def test_job_key_matches_the_persistent_cache_key(self, tmp_path, plan,
                                                      quantities):
        job = submit(plan, quantities, root=tmp_path)
        assert job.key == result_key(plan, quantities, salt=job.salt)

    def test_closure_payload_is_rejected(self, tmp_path, plan):
        scale = 3.0
        with pytest.raises(UnpicklablePayload):
            submit(plan, {"q": lambda x: scale * x}, root=tmp_path)

    def test_fresh_job_status_is_all_pending(self, tmp_path, plan,
                                             quantities):
        job = submit(plan, quantities, root=tmp_path, shard_size=2)
        status = job_status(job)
        assert status["done"] == 0
        assert status["total"] == len(job.shards)
        assert not status["complete"]
        assert all(s["state"] == "pending" for s in status["shards"])

    def test_cache_clear_removes_jobs_and_presence(self, tmp_path, plan,
                                                   quantities):
        job = submit(plan, quantities, root=tmp_path)
        worker = Worker(root=tmp_path)
        worker.announce()
        cache = ResultCache(root=tmp_path, mode="rw", salt=job.salt)
        # manifest + payload + presence file
        assert cache.clear() == 3
        assert list_jobs(tmp_path) == []
        assert list_workers(tmp_path) == []
        assert DistribJob.load(tmp_path, job.salt, job.key) is None

    def test_stale_clear_keeps_current_salt_jobs(self, tmp_path, plan,
                                                 quantities):
        current = submit(plan, quantities, root=tmp_path)
        submit(plan, quantities, root=tmp_path, salt="old-code")
        cache = ResultCache(root=tmp_path, mode="rw", salt=current.salt)
        assert cache.clear(stale_only=True) == 2  # old manifest + payload
        assert [job.key for job in list_jobs(tmp_path)] == [current.key]


class TestWorkerExecution:
    def test_worker_completes_a_job(self, tmp_path, plan, quantities):
        job = submit(plan, quantities, root=tmp_path, shard_size=2)
        worker = Worker(root=tmp_path)
        assert worker.run_once() == len(job.shards)
        status = job_status(job)
        assert status["complete"]
        serial = Executor(workers=0).run(plan, quantities)
        values, metas = merge_job(job)
        assert values == serial.values
        assert [m["worker"] for m in metas] == [worker.id] * len(job.shards)
        assert all(m["wall_time_s"] >= 0.0 for m in metas)

    def test_second_pass_finds_nothing_to_do(self, tmp_path, plan,
                                             quantities):
        submit(plan, quantities, root=tmp_path, shard_size=2)
        worker = Worker(root=tmp_path)
        assert worker.run_once() > 0
        assert worker.run_once() == 0

    def test_live_lease_is_respected(self, tmp_path, plan, quantities):
        job = submit(plan, quantities, root=tmp_path, shard_size=2)
        cache = ResultCache(root=tmp_path, mode="rw", salt=job.salt)
        assert cache.claim_lease(job.shards[0].key, "other-host:1", ttl=30.0)
        worker = Worker(root=tmp_path)
        assert worker.process_job(job) == len(job.shards) - 1
        assert not cache.has_result(job.shards[0].key)

    def test_expired_lease_is_reclaimed_and_completed(self, tmp_path, plan,
                                                      quantities):
        job = submit(plan, quantities, root=tmp_path, shard_size=2)
        cache = ResultCache(root=tmp_path, mode="rw", salt=job.salt)
        # A worker that died mid-shard: claimed, then stopped heartbeating.
        assert cache.claim_lease(job.shards[0].key, "dead-host:9", ttl=0.05)
        time.sleep(0.1)
        worker = Worker(root=tmp_path)
        assert worker.process_job(job) == len(job.shards)
        values, metas = merge_job(job)
        assert values == Executor(workers=0).run(plan, quantities).values
        assert metas[0]["worker"] == worker.id

    def test_worker_skips_jobs_of_other_code_versions(self, tmp_path, plan,
                                                      quantities, capsys):
        submit(plan, quantities, root=tmp_path, salt="other-code")
        worker = Worker(root=tmp_path)
        assert worker.run_once() == 0
        assert "salt" in capsys.readouterr().out

    def test_daemon_survives_a_poisoned_shard(self, tmp_path, capsys):
        # Shard size 1: points 1.0 and 2.0 succeed, the rest raise.
        plan = ExperimentPlan.sweep("x", XS)
        job = submit(plan, {"q": _explode_above_two}, root=tmp_path,
                     shard_size=1)
        worker = Worker(root=tmp_path)
        assert worker.run_once() == 2  # the healthy shards completed
        assert "boom" in capsys.readouterr().out
        # Poisoned shards are remembered, not hot-looped; their leases
        # were released so other workers may still try.
        assert worker.run_once() == 0
        cache = ResultCache(root=tmp_path, mode="ro", salt=job.salt)
        assert all(cache.lease_info(shard.key) is None
                   for shard in job.shards)
        assert not job_status(job)["complete"]

    def test_coordinator_propagates_quantity_errors(self, tmp_path):
        plan = ExperimentPlan.sweep("x", XS)
        job = submit(plan, {"q": _explode_above_two}, root=tmp_path,
                     shard_size=1)
        with pytest.raises(ValueError):
            wait_for_job(job, timeout_s=60.0)

    def test_worker_presence_announce_and_retire(self, tmp_path):
        worker = Worker(root=tmp_path)
        worker.announce()
        fleet = list_workers(tmp_path)
        assert [info["worker"] for info in fleet] == [worker.id]
        assert fleet[0]["age_s"] < 5.0
        worker.retire()
        assert list_workers(tmp_path) == []

    def test_torn_presence_objects_are_skipped_and_counted(self, tmp_path):
        import json as _json
        import time as _time

        worker = Worker(root=tmp_path)
        worker.announce()
        # A torn/partial write as a concurrent reader may observe it, a
        # wrong-typed heartbeat, and a foreign object under workers/.
        worker.store.put_atomic("workers/torn.json", b'{"worker": "x", "he')
        worker.store.put_atomic("workers/badtype.json", _json.dumps(
            {"worker": "y", "heartbeat": "soon"}).encode())
        worker.store.put_atomic("workers/notes.json", b'"operator note"')
        fleet = list_workers(tmp_path)
        assert [info["worker"] for info in fleet] == [worker.id]
        assert fleet.skipped == 3

        # A worker clock ahead of the reader's must clamp to age zero,
        # not report a negative heartbeat age.
        worker.store.put_atomic("workers/future.json", _json.dumps(
            {"worker": "z", "heartbeat": _time.time() + 3600.0}).encode())
        ages = {info["worker"]: info["age_s"]
                for info in list_workers(tmp_path)}
        assert ages["z"] == 0.0

    def test_status_surfaces_skipped_presences(self, tmp_path, capsys):
        import json as _json

        worker = Worker(root=tmp_path)
        worker.announce()
        worker.store.put_atomic("workers/torn.json", b'{"worker": "x", "he')
        assert distrib_main(["status", "--root", str(tmp_path),
                             "--json"]) == 0
        report = _json.loads(capsys.readouterr().out)
        assert len(report["workers"]) == 1
        assert report["workers_skipped"] == 1
        assert distrib_main(["status", "--root", str(tmp_path)]) == 0
        assert "1 unreadable worker presence" in capsys.readouterr().out


class TestCoordination:
    def test_participating_wait_needs_no_fleet(self, tmp_path, plan,
                                               quantities):
        job = submit(plan, quantities, root=tmp_path, shard_size=3)
        values, metas = wait_for_job(job, timeout_s=60.0)
        assert values == Executor(workers=0).run(plan, quantities).values
        assert len(metas) == len(job.shards)
        assert job_status(job)["merged"]

    def test_merged_job_feeds_the_plain_persistent_cache(self, tmp_path,
                                                         plan, quantities):
        job = submit(plan, quantities, root=tmp_path, shard_size=3)
        wait_for_job(job, timeout_s=60.0)
        replay = Executor(
            persistent=ResultCache(root=tmp_path, mode="ro")).run(
            plan, quantities)
        assert replay.provenance.executor == "persistent-cache"
        assert replay.values == Executor(workers=0).run(plan,
                                                        quantities).values

    def test_wait_heals_a_corrupt_merged_entry(self, tmp_path, plan,
                                               quantities):
        job = submit(plan, quantities, root=tmp_path, shard_size=3)
        cache = ResultCache(root=tmp_path, mode="rw", salt=job.salt)
        cache.store.put_atomic(cache._result_obj(job.key),
                               b"{corrupt leftover}")
        values, _ = wait_for_job(job, timeout_s=60.0)
        assert cache.load_result(job.key, list(job.names),
                                 job.points) == values

    def test_unattended_wait_times_out(self, tmp_path, plan, quantities):
        job = submit(plan, quantities, root=tmp_path)
        with pytest.raises(DistribTimeout):
            wait_for_job(job, participate=False, poll_s=0.01, timeout_s=0.1)

    def test_merge_refuses_partial_results(self, tmp_path, plan, quantities):
        job = submit(plan, quantities, root=tmp_path, shard_size=2)
        worker = Worker(root=tmp_path)
        cache = ResultCache(root=tmp_path, mode="rw", salt=job.salt)
        # Block the last shard so exactly one slice is missing.
        assert cache.claim_lease(job.shards[-1].key, "other:1", ttl=30.0)
        worker.process_job(job)
        with pytest.raises(ConfigurationError):
            merge_job(job)

    def test_monte_carlo_distributed_run_matches_serial(self, tmp_path,
                                                        tech):
        plan = ExperimentPlan.monte_carlo(8, technology=tech, seed=5)
        serial = Executor(workers=0).run(plan, {"d": _mc_delay})
        job = submit(plan, {"d": _mc_delay}, root=tmp_path, shard_size=3)
        values, _ = wait_for_job(job, timeout_s=120.0)
        assert values == serial.values


class TestExecutorBackend:
    def test_distributed_run_is_bit_identical(self, tmp_path, plan,
                                              quantities):
        serial = Executor(workers=0).run(plan, quantities)
        backend = DistribBackend(root=tmp_path, shard_size=2,
                                 timeout_s=60.0)
        distributed = Executor(distrib=backend).run(plan, quantities)
        assert distributed.values == serial.values

    def test_provenance_folds_per_shard_records(self, tmp_path, plan,
                                                quantities):
        backend = DistribBackend(root=tmp_path, shard_size=2,
                                 timeout_s=60.0)
        record = Executor(distrib=backend).run(plan, quantities).provenance
        assert record.executor == f"distrib[{len(record.shards)} shards]"
        assert len(record.shards) == len(plan.shard_ranges(2))
        assert sum(s["points"] for s in record.shards) == plan.point_count
        assert record.shard_workers == (worker_id(),)
        assert record.as_dict()["shards"] == [dict(s)
                                              for s in record.shards]

    def test_closure_quantities_fall_back_to_local(self, tmp_path, plan):
        scale = 4.0
        backend = DistribBackend(root=tmp_path, timeout_s=60.0)
        result = Executor(distrib=backend).run(plan,
                                               {"q": lambda x: scale * x})
        assert result.provenance.executor == "serial"
        assert result.provenance.shards == ()
        assert result.values["q"] == [scale * x for x in XS]

    def test_shared_root_keeps_the_fleet_provenance_meta(self, tmp_path,
                                                         plan, quantities):
        # Persistent cache and distrib backend over the SAME root: the
        # coordinator stores the merge under the job key with the fleet's
        # meta, and Executor.run must not re-store (and clobber) it.
        store = ResultCache(root=tmp_path, mode="rw")
        backend = DistribBackend(root=tmp_path, shard_size=2,
                                 timeout_s=60.0)
        result = Executor(persistent=store, distrib=backend).run(plan,
                                                                 quantities)
        assert result.provenance.executor.startswith("distrib[")
        meta = store.load_meta(store.result_key(plan, quantities))
        assert meta is not None and meta["distrib"] is True
        assert meta["workers"] == [worker_id()]

    def test_persistent_hit_short_circuits_distribution(self, tmp_path,
                                                        plan, quantities):
        store = ResultCache(root=tmp_path, mode="rw")
        Executor(persistent=store).run(plan, quantities)
        backend = DistribBackend(root=tmp_path / "unused", timeout_s=60.0)
        replay = Executor(persistent=store, distrib=backend).run(plan,
                                                                 quantities)
        assert replay.provenance.executor == "persistent-cache"
        assert not (tmp_path / "unused" / "jobs").exists()


class TestQueueStats:
    def test_queue_summary_counts_claimable_and_leased(self):
        statuses = [
            {"created": 100.0, "shards": [{"state": "pending"},
                                          {"state": "leased"}]},
            {"created": 50.0, "shards": [{"state": "done"},
                                         {"state": "expired"}]},
            {"created": 10.0, "shards": [{"state": "done"}]},
        ]
        stats = queue_summary(statuses, now=110.0)
        assert stats["jobs"] == 3
        # pending + expired are claimable; done jobs add nothing.
        assert stats["queue_depth"] == 2
        assert stats["leased"] == 1
        # The oldest job *with claimable work* (created=50), not the
        # oldest job overall (created=10, fully done).
        assert stats["oldest_unclaimed_age_s"] == 60.0

    def test_empty_queue_has_no_age(self):
        stats = queue_summary([])
        assert stats == {"jobs": 0, "queue_depth": 0, "leased": 0,
                         "oldest_unclaimed_age_s": None}

    def test_fleet_queue_stats_over_a_real_root(self, tmp_path, plan,
                                                quantities):
        job = submit(plan, quantities, root=tmp_path, shard_size=2)
        cache = ResultCache(root=tmp_path, mode="rw", salt=job.salt)
        assert cache.claim_lease(job.shards[0].key, "host:1", ttl=30.0)
        stats = fleet_queue_stats(tmp_path)
        assert stats["jobs"] == 1
        assert stats["queue_depth"] == len(job.shards) - 1
        assert stats["leased"] == 1
        assert stats["oldest_unclaimed_age_s"] >= 0.0
        # Drain the job: the queue empties and the age clears.
        assert cache.release_lease(job.shards[0].key, "host:1")
        Worker(root=tmp_path).run_once()
        drained = fleet_queue_stats(tmp_path)
        assert drained["queue_depth"] == 0
        assert drained["leased"] == 0
        assert drained["oldest_unclaimed_age_s"] is None

    def test_status_cli_reports_queue_pressure(self, tmp_path, capsys):
        import json

        root = str(tmp_path)
        assert distrib_main(["submit", "--root", root, "--plan",
                             "test_analysis_distrib:tiny_plan",
                             "--shard-size", "2"]) == 0
        capsys.readouterr()
        assert distrib_main(["status", "--root", root, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        shards = sum(len(j["shards"]) for j in payload["jobs"])
        assert payload["queue_depth"] == shards
        assert payload["leased"] == 0
        assert payload["oldest_unclaimed_age_s"] >= 0.0
        assert distrib_main(["status", "--root", root]) == 0
        text = capsys.readouterr().out
        assert f"queue: {shards} unclaimed shard(s)" in text


class TestCLI:
    def test_no_arguments_prints_help(self, capsys):
        assert distrib_main([]) == 2
        assert "worker" in capsys.readouterr().out

    def test_submit_status_run_round_trip(self, tmp_path, capsys):
        spec = "test_analysis_distrib:tiny_plan"
        root = str(tmp_path)
        assert distrib_main(["submit", "--root", root, "--plan", spec,
                             "--shard-size", "2"]) == 0
        assert "submitted job" in capsys.readouterr().out
        assert distrib_main(["status", "--root", root]) == 0
        assert "pending" in capsys.readouterr().out
        assert distrib_main(["run", "--root", root, "--plan", spec,
                             "--shard-size", "2", "--timeout", "60"]) == 0
        assert "merged" in capsys.readouterr().out
        plan, quantities = tiny_plan()
        values, _ = merge_job(list_jobs(tmp_path)[0])
        assert values == Executor(workers=0).run(plan, quantities).values

    def test_worker_skips_payloads_it_cannot_import(self, tmp_path, plan,
                                                    quantities, capsys,
                                                    monkeypatch):
        job = submit(plan, quantities, root=tmp_path, shard_size=2)
        worker = Worker(root=tmp_path)
        monkeypatch.setattr(DistribJob, "load_payload",
                            lambda self, store=None: (_ for _ in ()).throw(
                                ImportError("no module named elsewhere")))
        # A payload referencing a module this machine does not ship must
        # leave the job untouched for capable fleet members, not crash.
        assert worker.process_job(job) == 0
        assert "elsewhere" in capsys.readouterr().out
        assert not job_status(job)["done"]

    def test_worker_once_subprocess_executes_a_job(self, tmp_path):
        """One real ``worker --once`` process over a pre-submitted job.

        Uses the library's own :func:`selftest_plan` so the payload's
        quantities resolve inside the subprocess (a quantity defined in
        this test module would pickle by reference to a module the worker
        cannot import — exactly the skip case tested above).
        """
        plan, quantities = selftest_plan()
        job = submit(plan, quantities, root=tmp_path, shard_size=4)
        argv, env = worker_command(tmp_path, "--once")
        completed = subprocess.run(argv, env=env, cwd=tmp_path,
                                   capture_output=True, text=True,
                                   timeout=120)
        assert completed.returncode == 0, completed.stderr
        assert job_status(job)["complete"]
        values, metas = merge_job(job)
        assert values == Executor(workers=0).run(plan, quantities).values
        # The subprocess, not this test process, executed the shards.
        assert all(m["worker"] != worker_id() for m in metas)


# ---------------------------------------------------------------------------
# A real multi-process fleet, over each storage backend


def wait_until(predicate, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


@pytest.fixture(params=["fs", "obj"])
def fleet_root(request, tmp_path):
    """A shared root: a directory, or a bucket on an in-process object
    store the worker processes reach only over HTTP (shared-nothing)."""
    if request.param == "obj":
        from repro.analysis.objstore import FakeObjectServer

        with FakeObjectServer() as server:
            yield f"{server.url}/fleet"
    else:
        yield str(tmp_path / "fleet")


@pytest.fixture()
def spawn(tmp_path):
    """Start worker subprocesses; every one is stopped at teardown."""
    procs = []

    def start(root, *extra):
        argv, env = worker_command(root, *extra)
        proc = subprocess.Popen(argv, env=env, cwd=tmp_path,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        procs.append(proc)
        return proc

    yield start
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class TestRealFleet:
    def test_fleet_merge_is_bit_identical(self, fleet_root, spawn):
        plan, quantities = selftest_plan()
        serial = Executor(workers=0).run(plan, quantities)
        for _ in range(2):
            spawn(fleet_root, "--lease-ttl", "5", "--poll", "0.05",
                  "--max-idle", "60")
        assert wait_until(lambda: len(list_workers(fleet_root)) >= 2)
        job = submit(plan, quantities, root=fleet_root, shard_size=1)
        assert submit(plan, quantities, root=fleet_root,
                      shard_size=1).key == job.key
        values, metas = wait_for_job(job, participate=False, poll_s=0.05,
                                     timeout_s=90.0)
        assert values == serial.values
        assert len(metas) == len(job.shards)
        assert all(m["worker"] != "?" and m["wall_time_s"] > 0.0
                   for m in metas)
        # The deliberately slowed quantity lets both workers win shards.
        assert len({m["worker"] for m in metas}) >= 2
        assert worker_id() not in {m["worker"] for m in metas}
        replay = Executor(persistent=ResultCache(root=fleet_root,
                                                 mode="ro")).run(
            plan, quantities)
        assert replay.provenance.executor == "persistent-cache"
        assert replay.values == serial.values
        status = job_status(job)
        assert status["complete"] and status["merged"]

    def test_sigkilled_worker_lease_is_reclaimed(self, fleet_root, spawn):
        plan = ExperimentPlan.sweep("vdd",
                                    [0.27 + 0.05 * i for i in range(12)])
        quantities = {"delay": _selftest_delay, "energy": _selftest_energy}
        serial = Executor(workers=0).run(plan, quantities)
        job = submit(plan, quantities, root=fleet_root, shard_size=1)
        cache = ResultCache(root=fleet_root, mode="ro", salt=job.salt)
        staller = spawn(fleet_root, "--lease-ttl", "1", "--poll", "0.05",
                        "--stall")

        def stalled_lease():
            for shard in job.shards:
                info = cache.lease_info(shard.key)
                if info is not None:
                    return shard, info
            return None

        assert wait_until(lambda: stalled_lease() is not None)
        stalled_shard, stalled_info = stalled_lease()
        os.kill(staller.pid, signal.SIGKILL)
        staller.wait()
        for _ in range(2):
            spawn(fleet_root, "--lease-ttl", "1", "--poll", "0.05",
                  "--max-idle", "60")
        values, metas = wait_for_job(job, participate=False, poll_s=0.05,
                                     timeout_s=90.0)
        assert values == serial.values
        reclaimed = metas[stalled_shard.index]["worker"]
        assert reclaimed not in ("?", stalled_info["owner"])

    def test_batched_monte_carlo_runs_in_a_worker(self, fleet_root, spawn):
        plan = ExperimentPlan.monte_carlo(
            16, technology=get_technology("cmos90"), seed=11)
        quantities = {"delay": batched(_selftest_batch_mc_delay)}
        per_point = Executor(workers=0, batch=False).run(plan, quantities)
        spawn(fleet_root, "--poll", "0.05", "--max-idle", "60")
        job = submit(plan, quantities, root=fleet_root, shard_size=4)
        values, metas = wait_for_job(job, participate=False, poll_s=0.05,
                                     timeout_s=90.0)
        assert values == per_point.values
        assert len(metas) == len(job.shards)
        assert worker_id() not in {m["worker"] for m in metas}
