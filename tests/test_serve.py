"""The multi-tenant experiment service (:mod:`repro.analysis.serve`).

The subsystem's contract, pinned here over a real HTTP socket: plans
POSTed in the ``run MODULE:FACTORY`` wire format (or as campaign
references) are ordered across tenants by a fair-share scheduler and
executed on one shared Session, so every served result is byte-identical
to a direct ``Session.run``; the admission gate refuses *new* work past
the watermarks with 429 + retry hint but never touches plans already
admitted.  A heavier two-tenant burst over a real server subprocess
runs in ``scripts/service_smoke.py`` (the CI service job); these tests
keep each piece small and fast.
"""

import json
import threading

import pytest

from repro.analysis.runner import Executor, ExperimentPlan
from repro.analysis.serve import (
    AdmissionGate,
    ExperimentServer,
    ExperimentService,
    FIFOScheduler,
    PlanTicket,
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
    VTCScheduler,
    demo_plan,
    estimate_cost,
    make_scheduler,
    steady_plan,
)
from repro.analysis.serve.client import PlanFailed
from repro.analysis.session import RunConfig, Session
from repro.errors import ConfigurationError


def hermetic_config():
    """No repro.toml / REPRO_* leakage into service-owned sessions."""
    return RunConfig.resolve(environ={}, config_file=False)


def failing_plan():
    """Plan factory whose quantity always raises (MODULE:CALLABLE spec)."""
    def broken(vdd):
        raise ValueError(f"modelling bug at {vdd}")

    return ExperimentPlan.sweep("vdd", [0.4, 0.6]), {"broken": broken}


def ticket(tenant, n, cost=1.0):
    plan, quantities = steady_plan()
    return PlanTicket(plan_id=f"{tenant}{n}", tenant=tenant, plan=plan,
                      quantities=quantities, cost=cost)


@pytest.fixture()
def service():
    svc = ExperimentService(hermetic_config(), dispatchers=1)
    yield svc
    svc.close()


@pytest.fixture()
def server(service):
    with ExperimentServer(service, port=0) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServiceClient(server.url) as cli:
        yield cli


# ---------------------------------------------------------------------------
# Schedulers


class TestSchedulers:
    def test_registry_and_unknown_name(self):
        assert isinstance(make_scheduler("fifo"), FIFOScheduler)
        assert isinstance(make_scheduler("vtc"), VTCScheduler)
        with pytest.raises(ConfigurationError, match="unknown scheduler"):
            make_scheduler("priority")

    def test_fifo_is_arrival_order(self):
        fifo = FIFOScheduler()
        for i in range(3):
            fifo.enqueue(ticket("a", i))
        fifo.enqueue(ticket("b", 0))
        assert [fifo.pop().plan_id for _ in range(4)] == \
            ["a0", "a1", "a2", "b0"]
        assert fifo.pop() is None

    def test_vtc_interleaves_and_charges_cost(self):
        vtc = VTCScheduler()
        for i in range(4):
            vtc.enqueue(ticket("a", i))
        for i in range(2):
            vtc.enqueue(ticket("b", i))
        assert [vtc.pop().plan_id for _ in range(6)] == \
            ["a0", "b0", "a1", "b1", "a2", "a3"]
        assert vtc.counters == {"a": 4.0, "b": 2.0}
        assert vtc.dispatched == {"a": 4, "b": 2}

    def test_vtc_keeps_per_tenant_fifo(self):
        vtc = VTCScheduler()
        for i in range(3):
            vtc.enqueue(ticket("a", i, cost=5.0))
        popped = [vtc.pop().plan_id for _ in range(3)]
        assert popped == ["a0", "a1", "a2"]

    def test_vtc_counter_lift_blocks_banked_credit(self):
        vtc = VTCScheduler()
        for i in range(4):
            vtc.enqueue(ticket("a", i, cost=10.0))
        vtc.pop(), vtc.pop()  # a has consumed 20 cost units
        # b arrives only now: lifted to a's floor, no idle-time credit —
        # it gets its fair share from here on, not a 20-unit head start.
        vtc.enqueue(ticket("b", 0, cost=10.0))
        assert vtc.counters["b"] == 20.0
        assert [vtc.pop().plan_id for _ in range(3)] == ["a2", "b0", "a3"]

    def test_depth_cost_and_describe(self):
        vtc = VTCScheduler()
        vtc.enqueue(ticket("a", 0, cost=3.0))
        vtc.enqueue(ticket("b", 0, cost=4.0))
        assert vtc.depth() == 2
        assert vtc.queued_cost() == 7.0
        described = vtc.describe()
        assert described["scheduler"] == "vtc"
        assert described["queued_by_tenant"] == {"a": 1, "b": 1}
        assert set(described) >= {"depth", "queued_cost", "virtual_time",
                                  "dispatched"}

    def test_estimate_cost_is_points_times_quantities(self):
        plan, quantities = demo_plan()
        assert estimate_cost(plan, quantities) == \
            plan.point_count * len(quantities)
        assert estimate_cost(plan, {}) == plan.point_count


# ---------------------------------------------------------------------------
# Admission gate


class TestAdmissionGate:
    def test_admits_under_both_watermarks(self):
        gate = AdmissionGate(max_depth=4, max_cost=100.0)
        decision = gate.decide(2, 50.0, depth=1, queued_cost=10.0)
        assert decision.admitted
        assert gate.admitted == 2

    def test_refuses_depth_and_cost_watermarks(self):
        gate = AdmissionGate(max_depth=4, max_cost=100.0)
        by_depth = gate.decide(3, 1.0, depth=2, queued_cost=0.0)
        by_cost = gate.decide(1, 95.0, depth=0, queued_cost=10.0)
        assert not by_depth.admitted and "depth watermark" in by_depth.reason
        assert not by_cost.admitted and "cost watermark" in by_cost.reason
        assert by_depth.retry_after_s > 0
        assert gate.rejected == 2

    def test_refusal_is_atomic_for_multi_plan_submissions(self):
        # 3 plans, 2 slots: none admitted (a half-admitted campaign would
        # hand the client a result set it never asked for).
        gate = AdmissionGate(max_depth=4, max_cost=None)
        assert not gate.decide(3, 3.0, depth=2, queued_cost=0.0).admitted
        assert gate.admitted == 0

    def test_none_disables_the_cost_watermark(self):
        gate = AdmissionGate(max_depth=4, max_cost=None)
        assert gate.decide(1, 1e12, depth=0, queued_cost=1e12).admitted

    def test_retry_hint_tracks_drain_rate_and_stays_bounded(self):
        gate = AdmissionGate(max_depth=1, max_cost=None)
        slow_before = gate.decide(2, 1.0, depth=0, queued_cost=500.0)
        # 10 cost units per second observed: 500 queued ≈ 50 s to drain.
        for _ in range(50):
            gate.record_completion(10.0, 1.0)
        slow_after = gate.decide(2, 1.0, depth=0, queued_cost=500.0)
        assert slow_after.retry_after_s > slow_before.retry_after_s
        assert 0.1 <= slow_after.retry_after_s <= 60.0
        described = gate.describe()
        assert described["rejected"] == 2
        assert described["drain_rate_cost_per_s"] == pytest.approx(10.0,
                                                                   rel=0.1)

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionGate(max_depth=0)
        with pytest.raises(ConfigurationError):
            AdmissionGate(max_cost=0.0)


# ---------------------------------------------------------------------------
# The service (no sockets)


class TestServiceSubmission:
    def test_malformed_bodies_are_rejected(self, service):
        for body, match in [
            ([], "JSON object"),
            ({}, "exactly one of"),
            ({"plan": "a:b", "campaign": "c"}, "exactly one of"),
            ({"plan": "a:b", "tenant": "  "}, "tenant"),
            ({"plan": 7}, "MODULE:FACTORY"),
            ({"campaign": 7}, "bundled name"),
            ({"plan": "a:b", "shard": 1}, "unknown submission key"),
            ({"campaign": "paper_space", "runs": "gate_metrics"},
             "list of run labels"),
            ({"campaign": "paper_space", "runs": ["nope"]}, "no run"),
        ]:
            with pytest.raises(ConfigurationError, match=match):
                service.submit(body)

    def test_submit_returns_full_records(self, service):
        [record] = service.submit(
            {"tenant": "alice", "plan": "repro.analysis.serve:demo_plan"})
        plan, quantities = demo_plan()
        assert record["tenant"] == "alice"
        assert record["spec"] == "repro.analysis.serve:demo_plan"
        assert record["kind"] == "sweep"
        assert record["points"] == plan.point_count
        assert record["quantities"] == sorted(quantities)
        assert record["cost"] == estimate_cost(plan, quantities)
        assert record["state"] in ("queued", "running", "done")

    def test_campaign_reference_expands_atomically(self, service):
        records = service.submit({"campaign": "paper_space", "smoke": True,
                                  "runs": ["gate_metrics[cmos90]",
                                           "sram_latency[cmos65]"],
                                  "tenant": "carol"})
        assert [r["label"] for r in records] == ["gate_metrics[cmos90]",
                                                 "sram_latency[cmos65]"]
        assert all(r["tenant"] == "carol" for r in records)

    def test_failed_plan_reports_error_and_counts_terminal(self, service):
        [record] = service.submit({"plan": "test_serve:failing_plan"})
        done = service.wait_for(record["id"], timeout_s=30)
        assert done["state"] == "failed"
        assert "ValueError: modelling bug" in done["error"]
        assert done["completed_seq"] is not None
        status = service.status()
        assert status["plans"]["failed"] == 1
        assert status["tenants"]["anonymous"]["failed"] == 1

    def test_submit_after_close_is_refused(self):
        service = ExperimentService(hermetic_config(), dispatchers=1)
        service.close()
        with pytest.raises(ConfigurationError, match="closed"):
            service.submit({"plan": "repro.analysis.serve:demo_plan"})
        with pytest.raises(ConfigurationError, match="closed"):
            service.start()

    def test_uptime_survives_a_backwards_wall_clock_step(self,
                                                         monkeypatch):
        import time

        with ExperimentService(hermetic_config(), start=False) as service:
            # NTP steps the wall clock an hour back mid-run.
            stepped = time.time() - 3600.0
            monkeypatch.setattr(time, "time", lambda: stepped)
            assert 0.0 <= service.status()["uptime_s"] < 3600.0

    def test_concurrent_close_joins_every_dispatcher(self):
        # Regression: close() used to walk self._threads outside the
        # lock, racing start()'s appends and a second closer's clear().
        import threading

        service = ExperimentService(hermetic_config(), dispatchers=2)
        [record] = service.submit(
            {"plan": "repro.analysis.serve:demo_plan"})
        assert service.wait_for(record["id"], timeout_s=60)["state"] == "done"
        threads = list(service._threads)
        closers = [threading.Thread(target=service.close) for _ in range(3)]
        for closer in closers:
            closer.start()
        for closer in closers:
            closer.join(timeout=60)
        assert not any(closer.is_alive() for closer in closers)
        assert all(not t.is_alive() for t in threads)
        assert service._threads == []
        service.close()  # idempotent after the race

    def test_unstarted_service_queues_without_executing(self):
        with ExperimentService(hermetic_config(), dispatchers=1,
                               start=False) as service:
            [record] = service.submit(
                {"plan": "repro.analysis.serve:demo_plan"})
            waited = service.wait_for(record["id"], timeout_s=0.05)
            assert waited["state"] == "queued"
            service.start()
            assert service.wait_for(record["id"],
                                    timeout_s=60)["state"] == "done"

    def test_shared_external_session_is_not_closed(self):
        with Session(hermetic_config()) as session:
            service = ExperimentService(session=session, dispatchers=1)
            [record] = service.submit(
                {"plan": "repro.analysis.serve:demo_plan"})
            assert service.wait_for(record["id"],
                                    timeout_s=60)["state"] == "done"
            service.close()
            # The caller's session survives the service shutdown.
            plan, quantities = demo_plan()
            assert session.run(plan, quantities).values


# ---------------------------------------------------------------------------
# The wire: HTTP server + client


class TestHTTPEndpoints:
    def test_served_result_is_byte_identical_to_direct_run(self, client):
        plan, quantities = demo_plan()
        direct = Executor(workers=0).run(plan, quantities)
        record = client.submit_plan("repro.analysis.serve:demo_plan",
                                    tenant="alice")
        finished = client.wait(record["id"], timeout_s=60)
        assert finished["state"] == "done"
        result = client.result(record["id"])
        assert result["values"] == direct.values
        assert result["provenance"]["points"] == plan.point_count

    def test_status_surfaces_queue_tenants_and_caches(self, client):
        record = client.submit_plan("repro.analysis.serve:steady_plan",
                                    tenant="bob")
        client.wait(record["id"], timeout_s=60)
        status = client.status()
        assert status["scheduler"]["scheduler"] == "vtc"
        assert status["tenants"]["bob"]["submitted"] == 1
        assert status["admission"]["admitted"] == 1
        assert status["plans"]["done"] >= 1
        assert "technology_cache" in status
        assert status["config"]["workers"] == 0

    def test_long_poll_returns_on_state_change(self, service, client):
        # Submit against a drained service: long-poll with the terminal
        # state as "known" must return at the timeout, not hang.
        record = client.submit_plan("repro.analysis.serve:steady_plan")
        client.wait(record["id"], timeout_s=60)
        polled = client.plan(record["id"], wait_s=0.05, known_state="done")
        assert polled["state"] == "done"

    def test_result_before_done_is_202(self):
        with ExperimentService(hermetic_config(), dispatchers=1,
                               start=False) as service, \
                ExperimentServer(service, port=0) as server:
            client = ServiceClient(server.url)
            record = client.submit_plan("repro.analysis.serve:demo_plan")
            with pytest.raises(ServiceError, match="still queued"):
                client.result(record["id"])

    def test_failed_plan_result_is_500(self, client):
        record = client.submit_plan("test_serve:failing_plan")
        assert client.wait(record["id"], timeout_s=60)["state"] == "failed"
        with pytest.raises(PlanFailed, match="modelling bug"):
            client.result(record["id"])

    def test_unknown_plan_and_endpoint_are_404(self, client):
        with pytest.raises(ConfigurationError, match="no plan"):
            client.plan("p999999")
        with pytest.raises(ConfigurationError, match="no plan"):
            client.result("p999999")

    def test_bad_submission_is_400(self, client):
        with pytest.raises(ConfigurationError, match="exactly one of"):
            client.submit({"tenant": "alice"})
        with pytest.raises(ConfigurationError, match="unknown submission"):
            client.submit({"plan": "a:b", "nonsense": 1})

    def test_overload_is_429_with_retry_after_header(self):
        import http.client as http_client

        with ExperimentService(hermetic_config(), dispatchers=1,
                               max_queue_depth=1, start=False) as service, \
                ExperimentServer(service, port=0) as server:
            client = ServiceClient(server.url)
            admitted = client.submit_plan("repro.analysis.serve:steady_plan")
            with pytest.raises(ServiceOverloaded) as refusal:
                client.submit_plan("repro.analysis.serve:steady_plan")
            assert refusal.value.retry_after_s > 0
            # The raw response carries the Retry-After header too.
            host, port = server.url.replace("http://", "").split(":")
            raw = http_client.HTTPConnection(host, int(port), timeout=30)
            raw.request("POST", "/v1/plans", body=json.dumps(
                {"plan": "repro.analysis.serve:steady_plan"}),
                headers={"Content-Type": "application/json"})
            response = raw.getresponse()
            response.read()
            assert response.status == 429
            assert int(response.getheader("Retry-After")) >= 1
            raw.close()
            # Refusal never touches admitted work, and the gate reopens
            # once the queue drains.
            service.start()
            assert client.wait(admitted["id"],
                               timeout_s=60)["state"] == "done"
            reopened = client.submit_plan("repro.analysis.serve:steady_plan")
            assert client.wait(reopened["id"],
                               timeout_s=60)["state"] == "done"
            assert client.status()["admission"]["rejected"] == 2

    def test_client_rejects_malformed_urls(self):
        for bad in ("ftp://h:1", "127.0.0.1:9210", "http://h:1/path"):
            with pytest.raises(ConfigurationError, match="http"):
                ServiceClient(bad)

    def test_client_wait_timeout_raises(self):
        with ExperimentService(hermetic_config(), dispatchers=1,
                               start=False) as service, \
                ExperimentServer(service, port=0) as server:
            client = ServiceClient(server.url)
            record = client.submit_plan("repro.analysis.serve:demo_plan")
            with pytest.raises(ServiceError, match="still queued"):
                client.wait(record["id"], timeout_s=0.1)

    def test_unreachable_service_raises_service_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout_s=2)
        with pytest.raises(ServiceError, match="unreachable"):
            client.status()


# ---------------------------------------------------------------------------
# Multi-tenant behaviour over the wire


class TestMultiTenant:
    def test_vtc_interleaves_two_tenants_over_http(self):
        burst_n, steady_n = 12, 4
        with ExperimentService(hermetic_config(), scheduler="vtc",
                               dispatchers=1, max_queue_depth=64,
                               max_queued_cost=None,
                               start=False) as service, \
                ExperimentServer(service, port=0) as server:
            client = ServiceClient(server.url)
            burst_ids = [client.submit_plan(
                "repro.analysis.serve:demo_plan", tenant="burst")["id"]
                for _ in range(burst_n)]
            steady_ids = [client.submit_plan(
                "repro.analysis.serve:steady_plan", tenant="steady")["id"]
                for _ in range(steady_n)]
            service.start()
            records = {pid: client.wait(pid, timeout_s=120)
                       for pid in burst_ids + steady_ids}
            assert all(r["state"] == "done" for r in records.values())
            # demo_plan costs 16, steady_plan 12: the steady tenant runs
            # at least every other dispatch, so its k-th completion
            # cannot sit behind more than ~2k burst plans.
            steady_seqs = [records[pid]["completed_seq"]
                           for pid in steady_ids]
            assert all(seq <= 3 * (k + 1)
                       for k, seq in enumerate(steady_seqs))
            assert max(steady_seqs) < burst_n
            virtual = client.status()["scheduler"]["virtual_time"]
            assert virtual["burst"] > virtual["steady"] > 0

    def test_concurrent_tenant_threads_get_identical_results(self, server):
        plan, quantities = demo_plan()
        direct = Executor(workers=0).run(plan, quantities)
        results = {}
        errors = []

        def tenant_thread(name):
            try:
                with ServiceClient(server.url) as mine:
                    ids = [mine.submit_plan(
                        "repro.analysis.serve:demo_plan", tenant=name)["id"]
                        for _ in range(3)]
                    for pid in ids:
                        mine.wait(pid, timeout_s=120)
                    results[name] = [mine.result(pid)["values"]
                                     for pid in ids]
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append((name, exc))

        threads = [threading.Thread(target=tenant_thread, args=(f"t{i}",))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
        assert not errors
        assert set(results) == {f"t{i}" for i in range(4)}
        for values in results.values():
            assert values == [direct.values] * 3


# ---------------------------------------------------------------------------
# The consolidated CLI front (python -m repro serve ...)


class TestServeCLI:
    def test_bare_serve_prints_help(self, capsys):
        from repro.cli import main

        assert main(["serve"]) == 2
        out = capsys.readouterr().out
        assert "start" in out and "objstore" in out
        # The pre-service object-store spelling is gone, not aliased.
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--port", "1"])
        assert exit_info.value.code == 2

    def test_serve_objstore_subcommand_has_no_warning(self, monkeypatch,
                                                      capsys):
        import repro.analysis.objstore as objstore
        from repro.cli import main

        calls = []
        monkeypatch.setattr(objstore, "_serve",
                            lambda args: calls.append(args) or 0)
        assert main(["serve", "objstore", "--port", "7"]) == 0
        [args] = calls
        assert (args.host, args.port) == ("127.0.0.1", 7)
        assert capsys.readouterr().err == ""

    def test_submit_status_wait_round_trip(self, server, capsys):
        from repro.cli import main

        url = server.url
        assert main(["serve", "submit", "--url", url,
                     "--plan", "repro.analysis.serve:demo_plan",
                     "--tenant", "alice", "--wait", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        [record] = payload["plans"]
        assert record["state"] == "done"
        assert record["tenant"] == "alice"
        assert main(["serve", "wait", record["id"], "--url", url]) == 0
        assert record["id"] in capsys.readouterr().out
        assert main(["serve", "status", "--url", url, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["tenants"]["alice"]["completed"] == 1

    def test_submit_needs_exactly_one_source(self, capsys):
        from repro.cli import main

        assert main(["serve", "submit"]) == 2
        assert "exactly one of" in capsys.readouterr().err
        assert main(["serve", "submit", "--plan", "a:b",
                     "--campaign", "c"]) == 2

    def test_unreachable_url_is_a_clean_error(self, capsys):
        from repro.cli import main

        assert main(["serve", "status",
                     "--url", "http://127.0.0.1:9"]) == 1
        assert "unreachable" in capsys.readouterr().err
