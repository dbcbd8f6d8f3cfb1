"""Multi-tenant experiment service: ``python -m repro serve``.

Everything below the :class:`~repro.analysis.session.Session` layer is
pooled, cached, distrib-shardable and bit-identical — but a session
serves one process.  This package is the tier that lets *many callers*
share one stack: a long-running HTTP service where tenants POST
experiment plans, a fair-share scheduler orders them, and an admission
gate sheds load by refusing — never by throttling work in flight.

====================================  ==================================
module                                role
====================================  ==================================
:mod:`~repro.analysis.serve.scheduler`  dispatch order: FIFO baseline +
                                        fair-share ``VTCScheduler``
                                        (per-tenant virtual-time
                                        counters weighted by estimated
                                        point-cost)
:mod:`~repro.analysis.serve.admission`  OIT-style overload gate:
                                        queue-depth / queued-cost
                                        watermarks, 429 + retry hint,
                                        no mid-flight throttling
:mod:`~repro.analysis.serve.service`    ``ExperimentService``: admission
                                        → scheduling → execution on one
                                        shared ``Session``
:mod:`~repro.analysis.serve.http`       the stdlib HTTP server
                                        (``POST /v1/plans``,
                                        ``GET /v1/plans/{id}[/result]``,
                                        ``GET /v1/status``)
:mod:`~repro.analysis.serve.client`     ``ServiceClient`` — the tenant
                                        side of the same wire protocol
====================================  ==================================

The wire format for a plan is the CLI's existing ``MODULE:FACTORY``
spec, so anything ``python -m repro run --plan`` can execute can also be
POSTed; campaign references (``{"campaign": "paper_space", "smoke":
true}``) expand server-side into one plan per planned run.  Results are
bit-identical to a direct ``Session.run`` of the same plan — the
service adds ordering and admission, never arithmetic.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.runner import ExperimentPlan

from repro.analysis.serve.admission import (  # noqa: F401 (re-exports)
    AdmissionDecision,
    AdmissionGate,
    OverloadedError,
)
from repro.analysis.serve.client import (  # noqa: F401
    PlanFailed,
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
)
from repro.analysis.serve.http import DEFAULT_PORT, ExperimentServer  # noqa: F401
from repro.analysis.serve.scheduler import (  # noqa: F401
    FIFOScheduler,
    PlanScheduler,
    PlanTicket,
    SCHEDULERS,
    VTCScheduler,
    estimate_cost,
    make_scheduler,
)
from repro.analysis.serve.service import (  # noqa: F401
    ExperimentService,
    PlanRecord,
)

__all__ = [
    "AdmissionDecision",
    "AdmissionGate",
    "DEFAULT_PORT",
    "ExperimentServer",
    "ExperimentService",
    "FIFOScheduler",
    "OverloadedError",
    "PlanFailed",
    "PlanRecord",
    "PlanScheduler",
    "PlanTicket",
    "SCHEDULERS",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloaded",
    "VTCScheduler",
    "demo_plan",
    "estimate_cost",
    "make_scheduler",
    "smoke_mc_plan",
    "steady_plan",
]


# ---------------------------------------------------------------------------
# Wire-format demo workloads (MODULE:FACTORY specs used by the tests, the
# CI smoke script and the docs; all pure, all fast).


def demo_plan() -> Tuple[ExperimentPlan, Dict]:
    """An 8-point gate sweep — the burst tenant's workload::

        {"tenant": "you", "plan": "repro.analysis.serve:demo_plan"}
    """
    from repro.analysis.runner import _selftest_delay, _selftest_energy

    vdds = [0.30 + 0.05 * i for i in range(8)]
    return (ExperimentPlan.sweep("vdd", vdds),
            {"delay": _selftest_delay, "energy": _selftest_energy})


def steady_plan() -> Tuple[ExperimentPlan, Dict]:
    """A 6-point gate sweep with a distinct axis (the steady tenant)."""
    from repro.analysis.runner import _selftest_delay, _selftest_energy

    vdds = [0.32 + 0.06 * i for i in range(6)]
    return (ExperimentPlan.sweep("vdd", vdds),
            {"delay": _selftest_delay, "energy": _selftest_energy})


def smoke_mc_plan() -> Tuple[ExperimentPlan, Dict]:
    """A pinned-seed Monte-Carlo plan (48 perturbed technologies).

    Heavy enough (one technology rebuild per sample) that a burst of
    these keeps a real server's queue visibly backlogged — what the CI
    smoke script needs to observe fair interleaving over the wire.
    """
    from repro.models.technology import get_technology

    return (ExperimentPlan.monte_carlo(48,
                                       technology=get_technology("cmos90"),
                                       seed=20260808),
            {"delay": _smoke_mc_delay})


def _smoke_mc_delay(technology) -> float:
    from repro.models.gate import GateModel

    return GateModel(technology=technology).delay(0.4)
