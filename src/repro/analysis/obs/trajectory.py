"""The benchmark perf trajectory: a tracked history + a regression gate.

``BENCH_ci.json`` (the pytest-benchmark artifact CI uploads) is a
snapshot: one commit's timings, thrown away with the workflow run.
This module turns those snapshots into a *trajectory* — a committed
``BENCH_history.jsonl`` where each line is one benchmark's timing at one
commit — and gates new snapshots against it, so a hot-path regression
has to be *deliberate* (the ``--allow`` escape hatch, mirroring the
golden-figure recalibration policy) rather than silent.

The format, one JSON object per line (append-only, git-merge friendly)::

    {"benchmark": "test_fig07_write_latency_mc_batched_speedup",
     "median_s": 0.0123, "sha": "767e09c", "date": "2026-08-08",
     "extra": {"speedup_vs_per_point": 57.2}}

* ``benchmark`` — the pytest-benchmark ``name`` (the benchmark id).
* ``median_s`` — the run's median wall time in seconds (the gate's
  signal; medians resist the outlier noise CI runners inject).
* ``sha`` / ``date`` — provenance: the commit and the run date.
* ``extra`` — the benchmark's ``extra_info`` verbatim (batched
  speedups, per-plan overheads, ...) so the dashboard can plot more
  than wall time; never consulted by the gate.

**The gate policy.**  For every benchmark in a new snapshot that also
has history, the baseline is the median of the trailing
:data:`DEFAULT_TRAILING` recorded ``median_s`` values (a trailing
median, so one historic outlier cannot poison the baseline).  A new
median more than ``threshold`` (default 20%) above baseline is a
regression and fails the gate — unless the benchmark id was explicitly
allowed (``--allow ID``, for deliberate recalibrations: commit the
slowdown, append the new timing, and the baseline follows).  A
benchmark with *no* history is never an error: new benchmarks enter the
trajectory by being appended, not by being gated.

CLI::

    python -m repro obs append BENCH_ci.json   # append
    python -m repro obs check BENCH_ci.json    # gate
"""

from __future__ import annotations

import json
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_HISTORY",
    "DEFAULT_THRESHOLD",
    "DEFAULT_TRAILING",
    "Regression",
    "TrajectoryPoint",
    "append_history",
    "baseline_for",
    "check_regressions",
    "current_sha",
    "ingest_report",
    "load_history",
]

#: The tracked trajectory file at the repository root.
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: Regression threshold: fail when ``new > baseline * (1 + threshold)``.
DEFAULT_THRESHOLD = 0.20

#: Trailing window: the baseline is the median of the last N entries.
DEFAULT_TRAILING = 5


@dataclass(frozen=True)
class TrajectoryPoint:
    """One benchmark's timing at one commit — one history line."""

    benchmark: str
    median_s: float
    sha: str = "unknown"
    date: str = ""
    extra: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {"benchmark": self.benchmark, "median_s": self.median_s,
                "sha": self.sha, "date": self.date, "extra": self.extra}


@dataclass(frozen=True)
class Regression:
    """One gate verdict: a benchmark's new median against its baseline."""

    benchmark: str
    baseline_s: float
    new_s: float
    allowed: bool = False

    @property
    def ratio(self) -> float:
        """``new / baseline`` — 1.25 means 25% slower."""
        return self.new_s / self.baseline_s


def current_sha(default: str = "unknown") -> str:
    """The short git SHA of HEAD, or *default* outside a checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return default
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else default


def ingest_report(report: Dict[str, object],
                  sha: Optional[str] = None,
                  date: Optional[str] = None) -> List[TrajectoryPoint]:
    """pytest-benchmark JSON → one :class:`TrajectoryPoint` per benchmark.

    Reads each entry's ``stats.median`` and ``extra_info``; entries
    without a median (malformed, or ``--benchmark-disable`` runs) are
    skipped rather than fatal, so a partial report still appends what it
    measured.
    """
    sha = current_sha() if sha is None else sha
    if date is None:
        date = time.strftime("%Y-%m-%d", time.gmtime())
    points = []
    for bench in report.get("benchmarks", []):
        name = bench.get("name")
        median = bench.get("stats", {}).get("median")
        if not name or not isinstance(median, (int, float)) or median <= 0:
            continue
        points.append(TrajectoryPoint(
            benchmark=str(name), median_s=float(median), sha=sha, date=date,
            extra=dict(bench.get("extra_info") or {})))
    return points


def append_history(path, points: Iterable[TrajectoryPoint]) -> int:
    """Append *points* as JSONL lines; returns how many were written."""
    path = Path(path)
    count = 0
    with path.open("a", encoding="utf-8") as handle:
        for point in points:
            handle.write(json.dumps(point.as_dict(), sort_keys=True) + "\n")
            count += 1
    return count


def load_history(path) -> List[TrajectoryPoint]:
    """Read a trajectory file, skipping blank or unparsable lines.

    Tolerance matters here: the file is hand-mergeable and append-only,
    so one mangled line (a conflict marker, a truncated append) must not
    take the whole gate — or the dashboard — down with it.
    """
    path = Path(path)
    if not path.exists():
        return []
    points = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
            point = TrajectoryPoint(
                benchmark=str(raw["benchmark"]),
                median_s=float(raw["median_s"]),
                sha=str(raw.get("sha", "unknown")),
                date=str(raw.get("date", "")),
                extra=dict(raw.get("extra") or {}))
        except (ValueError, KeyError, TypeError):
            continue
        if point.median_s > 0:
            points.append(point)
    return points


def baseline_for(history: Sequence[TrajectoryPoint], benchmark: str,
                 trailing: int = DEFAULT_TRAILING) -> Optional[float]:
    """The trailing-median baseline for one benchmark, or ``None``.

    File order is history order (append-only), so "trailing" means the
    last *trailing* lines recorded for this benchmark id.
    """
    medians = [point.median_s for point in history
               if point.benchmark == benchmark]
    if not medians:
        return None
    return statistics.median(medians[-max(1, trailing):])


def check_regressions(history: Sequence[TrajectoryPoint],
                      new_points: Sequence[TrajectoryPoint],
                      threshold: float = DEFAULT_THRESHOLD,
                      trailing: int = DEFAULT_TRAILING,
                      allow: Sequence[str] = (),
                      ) -> Tuple[List[Regression], List[str]]:
    """Gate *new_points* against *history*.

    Returns ``(regressions, unbaselined)``: every benchmark whose new
    median exceeds its trailing-median baseline by more than
    *threshold* (flagged ``allowed`` when its id is in *allow*), and
    the ids that had no history to gate against (informational only —
    never a failure).
    """
    allowed = set(allow)
    regressions: List[Regression] = []
    unbaselined: List[str] = []
    for point in new_points:
        baseline = baseline_for(history, point.benchmark, trailing=trailing)
        if baseline is None:
            unbaselined.append(point.benchmark)
            continue
        if point.median_s > baseline * (1.0 + threshold):
            regressions.append(Regression(
                benchmark=point.benchmark, baseline_s=baseline,
                new_s=point.median_s,
                allowed=point.benchmark in allowed))
    return regressions, unbaselined


# ---------------------------------------------------------------------------
# CLI (python -m repro obs append / check)


def _load_report(json_path: str) -> Dict[str, object]:
    with open(json_path, encoding="utf-8") as handle:
        return json.load(handle)


def register_append_cli(parser) -> None:
    """``python -m repro obs append``: one snapshot onto the history."""
    parser.add_argument("json_path", help="pytest-benchmark JSON file "
                                          "(the BENCH_ci.json artifact)")
    parser.add_argument("--history", default=DEFAULT_HISTORY, metavar="FILE",
                        help=f"trajectory file (default: {DEFAULT_HISTORY})")
    parser.add_argument("--sha", default=None,
                        help="commit id to record (default: git HEAD)")
    parser.add_argument("--date", default=None, metavar="YYYY-MM-DD",
                        help="run date to record (default: today, UTC)")
    parser.set_defaults(func=_append_cmd)


def _append_cmd(args) -> int:
    points = ingest_report(_load_report(args.json_path),
                           sha=args.sha, date=args.date)
    if not points:
        print(f"no benchmarks with a median in {args.json_path}; "
              "nothing appended")
        return 1
    count = append_history(args.history, points)
    print(f"appended {count} benchmark timing(s) @ {points[0].sha} "
          f"to {args.history}")
    return 0


def register_check_cli(parser) -> None:
    """``python -m repro obs check``: the CI regression gate."""
    parser.description = (
        "Fail when any benchmark in a pytest-benchmark JSON snapshot "
        "regresses more than the threshold against its trailing-median "
        "baseline in the committed trajectory.")
    parser.add_argument("json_path", help="pytest-benchmark JSON file")
    parser.add_argument("--history", default=DEFAULT_HISTORY, metavar="FILE",
                        help=f"trajectory file (default: {DEFAULT_HISTORY})")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        metavar="FRAC",
                        help="tolerated slowdown fraction (default: "
                             f"{DEFAULT_THRESHOLD:g} = "
                             f"{DEFAULT_THRESHOLD:.0%}%)")  # %% for argparse
    parser.add_argument("--trailing", type=int, default=DEFAULT_TRAILING,
                        metavar="N",
                        help="baseline = median of the last N history "
                             f"entries (default: {DEFAULT_TRAILING})")
    parser.add_argument("--allow", action="append", default=[],
                        metavar="BENCHMARK_ID",
                        help="waive a named benchmark's regression (a "
                             "deliberate recalibration; repeatable)")
    parser.set_defaults(func=_check_cmd)


def _check_cmd(args) -> int:
    history = load_history(args.history)
    points = ingest_report(_load_report(args.json_path))
    regressions, unbaselined = check_regressions(
        history, points, threshold=args.threshold,
        trailing=args.trailing, allow=args.allow)

    flagged = {reg.benchmark for reg in regressions}
    for point in points:
        if point.benchmark in flagged or point.benchmark in unbaselined:
            continue
        baseline = baseline_for(history, point.benchmark,
                                trailing=args.trailing)
        print(f"ok       {point.benchmark}: {point.median_s * 1e3:.2f} ms "
              f"(baseline {baseline * 1e3:.2f} ms)")
    for name in unbaselined:
        print(f"NEW      {name}: no baseline in {args.history} "
              "(append to start gating it)")
    failures = 0
    for reg in regressions:
        verdict = "ALLOWED " if reg.allowed else "FAIL    "
        print(f"{verdict} {reg.benchmark}: {reg.new_s * 1e3:.2f} ms vs "
              f"baseline {reg.baseline_s * 1e3:.2f} ms "
              f"({reg.ratio:.2f}x > {1 + args.threshold:.2f}x)")
        if not reg.allowed:
            failures += 1
    if failures:
        print(f"{failures} regression(s) above the "
              f"{args.threshold:.0%} threshold — commit a fix, or waive "
              "deliberate recalibrations with --allow BENCHMARK_ID")
    elif not history:
        print(f"note: {args.history} is empty or missing — nothing gated")
    return 1 if failures else 0
