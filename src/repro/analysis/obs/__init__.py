"""Observability: the perf trajectory, its regression gate, the dashboard.

The honest-keeping layer over everything the stack already measures.
Three verbs behind ``python -m repro obs``:

====================================  ==================================
module                                role
====================================  ==================================
:mod:`~repro.analysis.obs.trajectory`  the committed perf trajectory
                                       (``BENCH_history.jsonl``): ingest
                                       pytest-benchmark snapshots,
                                       append, trailing-median baselines
                                       and the >20% regression gate with
                                       its ``--allow`` escape hatch
:mod:`~repro.analysis.obs.dashboard`   the live HTML status page over
                                       the JSON feeds (tenants,
                                       admission, fleet, cache,
                                       trajectory sparklines) — served
                                       standalone here or as
                                       ``GET /v1/dashboard`` on the
                                       experiment service
====================================  ==================================

::

    python -m repro obs append BENCH_ci.json     # snapshot → trajectory
    python -m repro obs check BENCH_ci.json      # the CI regression gate
    python -m repro obs dashboard --root ROOT    # fleet-only dashboard

The full feed and policy reference is ``docs/observability.md``.
"""

from __future__ import annotations

from repro.analysis.obs.dashboard import (  # noqa: F401 (re-exports)
    DashboardServer,
    collect_feeds,
    render_dashboard,
    sparkline,
)
from repro.analysis.obs.trajectory import (  # noqa: F401
    DEFAULT_HISTORY,
    DEFAULT_THRESHOLD,
    DEFAULT_TRAILING,
    Regression,
    TrajectoryPoint,
    append_history,
    baseline_for,
    check_regressions,
    ingest_report,
    load_history,
)

__all__ = [
    "DEFAULT_HISTORY",
    "DEFAULT_THRESHOLD",
    "DEFAULT_TRAILING",
    "DashboardServer",
    "Regression",
    "TrajectoryPoint",
    "append_history",
    "baseline_for",
    "check_regressions",
    "collect_feeds",
    "ingest_report",
    "load_history",
    "render_dashboard",
    "sparkline",
]


def register_cli(parser) -> None:
    """``python -m repro obs``: ``append`` / ``check`` / ``dashboard``."""
    from repro.analysis.obs import dashboard, trajectory

    commands = parser.add_subparsers(metavar="SUBCOMMAND")
    for name, help_text, register in (
            ("append", "append a pytest-benchmark snapshot to the perf "
                       "trajectory", trajectory.register_append_cli),
            ("check", "gate a snapshot against the trailing-median "
                      "baseline", trajectory.register_check_cli),
            ("dashboard", "serve the live HTML dashboard (--out FILE "
                          "renders once)", dashboard.register_cli)):
        register(commands.add_parser(name, help=help_text,
                                     description=help_text))
