"""Docs freshness: the README map and the doc links cannot rot silently.

Checks, all also run by the CI ``docs`` job:

* every ``benchmarks/test_*.py`` file appears in the README's
  figure → benchmark → module map table (and every file the table
  names exists), so a new benchmark cannot land undocumented and a
  renamed one cannot leave a stale row behind;
* every relative link and anchor in ``README.md`` and ``docs/*.md``
  resolves (``scripts/check_doc_links.py``);
* every ``python -m repro <command> [<subcommand>]`` the docs spell
  exists in :mod:`repro.cli`'s tree, and no retired
  ``python -m repro.analysis.<module>`` entry point is documented.
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"
DOCS = [README, *sorted((REPO_ROOT / "docs").glob("*.md"))]


def readme_benchmark_references():
    """Every ``benchmarks/...py`` path the README mentions."""
    return set(re.findall(r"benchmarks/test_\w+\.py", README.read_text()))


def benchmark_files():
    return {f"benchmarks/{path.name}"
            for path in (REPO_ROOT / "benchmarks").glob("test_*.py")}


def test_every_benchmark_is_in_the_readme_map():
    missing = benchmark_files() - readme_benchmark_references()
    assert not missing, (
        "benchmark file(s) missing from README's "
        f"figure → benchmark → module map: {sorted(missing)} — add a row "
        "for each so the docs stay a complete inventory")


def test_every_readme_benchmark_reference_exists():
    stale = readme_benchmark_references() - benchmark_files()
    assert not stale, (
        f"README references benchmark file(s) that do not exist: "
        f"{sorted(stale)} — a rename or removal left stale docs behind")


def test_doc_links_resolve():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts/check_doc_links.py")],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=60)
    assert result.returncode == 0, (
        f"broken doc links:\n{result.stdout}{result.stderr}")


def test_observability_doc_covers_every_feed():
    """docs/observability.md documents each feed the dashboard renders."""
    doc = (REPO_ROOT / "docs" / "observability.md").read_text()
    for needle in ("GET /v1/status", "GET /v1/dashboard",
                   "distrib status --json", "cache --stats --json",
                   "BENCH_history.jsonl", "--allow",
                   "repro obs check", "repro obs append"):
        assert needle in doc, f"docs/observability.md lost {needle!r}"


def subcommands(parser):
    """name -> parser of *parser*'s subcommands (empty for a leaf)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def test_documented_cli_spellings_parse():
    """Each ``python -m repro WORD [WORD]`` in the docs names a command
    (and, for a command group, a subcommand) of the real tree."""
    commands = subcommands(build_parser())
    pattern = re.compile(r"python -m repro((?:[ \t]+[\w-]+){1,2})")
    unknown = []
    for doc in DOCS:
        for match in pattern.finditer(doc.read_text()):
            words = match.group(1).split()
            command = commands.get(words[0])
            if command is None:
                unknown.append(f"{doc.name}: {match.group(0)}")
                continue
            nested = subcommands(command.ensure_registered())
            if (nested and len(words) > 1 and not words[1].startswith("-")
                    and words[1] not in nested):
                unknown.append(f"{doc.name}: {match.group(0)}")
    assert not unknown, (
        "docs spell command lines the CLI does not have:\n  "
        + "\n  ".join(unknown))


def test_no_retired_module_entry_points_are_documented():
    stale = [f"{doc.name}: {line.strip()}"
             for doc in DOCS for line in doc.read_text().splitlines()
             if "python -m repro.analysis." in line]
    assert not stale, (
        "docs name retired 'python -m repro.analysis.X' entry points — "
        "spell them as 'python -m repro' subcommands:\n  "
        + "\n  ".join(stale))
