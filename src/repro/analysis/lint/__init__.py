"""Project-invariant static analysis: ``python -m repro check``.

The stack's correctness story — bit-identical determinism across
executors, all persistence through ``CacheStore``, skew-free monotonic
leases, lock-disciplined dispatchers, shared batched/per-point cache
keys — lives in docs and tests.  This package turns it into
machine-checked invariants over the AST of ``src/``:

====  =====================================================================
rule  invariant
====  =====================================================================
R0    lint meta: files must parse; every ``repro: allow`` carries a reason
R1    model layer / point functions / fuzzer invariants read no clocks and
      no global RNG state (seeded ``SeedSequence`` streams only)
R2    cache/distrib/serve modules do no raw ``open``/``os``/pathlib I/O
      outside the ``LocalFSStore``/object-server allowlist
R3    lease/staleness logic consumes ``time.monotonic`` only
R4    serve-layer shared state is accessed under ``self._lock``; payload
      classes drop locks in ``__getstate__``
R5    explicit batched/per-point kernel pairs share ``__cache_fingerprint__``
====  =====================================================================

::

    python -m repro check                      # scan the installed repro/
    python -m repro check src/repro/models     # scan specific paths
    python -m repro check --json               # stable report document
    python -m repro check --rule R1            # one rule only
    python -m repro check --select R1,R2 --ignore R2

False positives are silenced inline with ``# repro: allow[RULE] --
reason`` (same line, or a comment-only line directly above); a bare
allow with no reason is itself a finding.  Exit status: 0 clean, 1
findings, 2 usage error.  The rule catalogue, suppression policy and
JSON schema live in ``docs/static-analysis.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.lint.engine import (RULES, check_paths,  # noqa: F401
                                        default_root, known_rule_ids)
from repro.analysis.lint.findings import (Finding,  # noqa: F401
                                          SCHEMA_VERSION, report_json,
                                          report_text)

__all__ = ["Finding", "SCHEMA_VERSION", "check_paths", "default_root",
           "register_cli", "report_json", "report_text"]


def _split(value: Optional[str]) -> List[str]:
    return [item.strip() for item in (value or "").split(",")
            if item.strip()]


def register_cli(parser) -> None:
    """``python -m repro check``: exit 0 clean, 1 findings, 2 usage error."""
    parser.description = (
        "Check the source tree against the project invariants "
        "(determinism, store layering, clock and lock discipline, batched "
        "cache-key hygiene).")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories (default: the "
                             "installed repro package)")
    parser.add_argument("--json", action="store_true",
                        help="emit the versioned JSON report instead of "
                             "text (docs/static-analysis.md)")
    parser.add_argument("--rule", action="append", default=[],
                        metavar="ID", help="run only this rule "
                                           "(repeatable)")
    parser.add_argument("--select", default=None, metavar="LIST",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--ignore", default=None, metavar="LIST",
                        help="comma-separated rule ids to skip")
    parser.set_defaults(func=_check_cmd)


def _check_cmd(args) -> int:
    select = _split(args.select) + list(args.rule)
    paths = args.paths or [default_root()]
    missing = [path for path in paths if not path.exists()]
    if missing:
        print(f"error: no such path(s): "
              f"{', '.join(str(path) for path in missing)}",
              file=sys.stderr)
        return 2
    try:
        findings, files, suppressed = check_paths(
            paths, select=select or None, ignore=_split(args.ignore) or None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(report_json(findings, files=files, suppressed=suppressed))
    else:
        for line in report_text(findings, files=files,
                                suppressed=suppressed):
            print(line)
    return 1 if findings else 0
