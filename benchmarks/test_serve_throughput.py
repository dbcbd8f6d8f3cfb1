"""Admission + scheduling overhead of the multi-tenant experiment service.

The service's promise is that fairness and overload control are a thin
tier over the Session: a plan admitted through
:class:`~repro.analysis.serve.service.ExperimentService` pays for
``MODULE:FACTORY`` resolution, the admission-gate verdict, a VTC
scheduler hop and record bookkeeping — and then runs on exactly the
``Session.run`` the direct path calls alone.  This benchmark measures
that tax per plan (in-process service vs direct session, same plans,
same warm caches) and records it in the CI ``BENCH_ci.json`` artifact's
``extra_info``, alongside one timed round over the real HTTP wire for
scale.

The service path uses three tenants so the measured number includes real
multi-tenant VTC accounting, not the single-queue fast path.
"""

import time

import pytest

from repro.analysis.report import format_table
from repro.analysis.serve import (
    ExperimentServer,
    ExperimentService,
    ServiceClient,
    demo_plan,
)
from repro.analysis.session import RunConfig, Session

from conftest import emit

# The overhead ceiling reads the benchmark's own timings.
pytestmark = pytest.mark.timed

#: Plans per measured round; enough to amortize dispatcher spin-up.
N_PLANS = 24
SPEC = "repro.analysis.serve:demo_plan"


def _service_round(session):
    """Submit N_PLANS across three tenants and wait for all of them."""
    with ExperimentService(session=session, scheduler="vtc",
                           dispatchers=1) as service:
        records = [service.submit({"plan": SPEC,
                                   "tenant": f"tenant{i % 3}"})[0]
                   for i in range(N_PLANS)]
        for record in records:
            service.wait_for(record["id"], timeout_s=300)
        return [service.record(record["id"], with_values=True)
                for record in records]


def _http_round(session):
    """The same round over a real socket (client + server overhead)."""
    with ExperimentService(session=session, scheduler="vtc",
                           dispatchers=1, start=True) as service, \
            ExperimentServer(service, port=0) as server:
        client = ServiceClient(server.url)
        ids = [client.submit_plan(SPEC, tenant=f"tenant{i % 3}")["id"]
               for i in range(N_PLANS)]
        return [client.wait(plan_id, timeout_s=300) for plan_id in ids]


def test_service_admission_scheduling_overhead(benchmark):
    config = RunConfig.resolve(environ={}, config_file=False)
    plan, quantities = demo_plan()
    with Session(config) as session:
        session.run(plan, quantities)  # warm the shared technology cache
        finished = benchmark(lambda: _service_round(session))

        start = time.perf_counter()
        for _ in range(N_PLANS):
            direct = session.run(plan, quantities)
        direct_s = time.perf_counter() - start

        start = time.perf_counter()
        over_http = _http_round(session)
        http_s = time.perf_counter() - start

    assert all(record["state"] == "done" for record in finished)
    assert all(record["state"] == "done" for record in over_http)

    service_s = benchmark.stats.stats.min
    overhead_per_plan = max(0.0, (service_s - direct_s) / N_PLANS)
    http_overhead_per_plan = max(0.0, (http_s - direct_s) / N_PLANS)
    benchmark.extra_info["plans"] = N_PLANS
    benchmark.extra_info["direct_session_s"] = direct_s
    benchmark.extra_info["service_s"] = service_s
    benchmark.extra_info["http_round_s"] = http_s
    benchmark.extra_info["overhead_per_plan_s"] = overhead_per_plan
    benchmark.extra_info["http_overhead_per_plan_s"] = http_overhead_per_plan

    emit(format_table(
        "Experiment service — admission + scheduling tax per plan",
        ["path", "round", "per plan", "overhead/plan"],
        [["direct Session.run", direct_s, direct_s / N_PLANS, 0.0],
         ["in-process service", service_s, service_s / N_PLANS,
          overhead_per_plan],
         ["HTTP client+server", http_s, http_s / N_PLANS,
          http_overhead_per_plan]],
        unit_hints=["", "s", "s", "s"]))

    # The fairness/admission tier must stay a thin wrapper: well under
    # 50 ms of bookkeeping per plan even on a loaded CI runner.
    assert overhead_per_plan < 0.05
    # And the service changes ordering, never arithmetic.
    assert all(record["values"] == direct.values for record in finished)
