"""The project-invariant linter: rules, suppressions, CLI, JSON schema.

Backed by the committed corpus in ``tests/lint_fixtures/`` (one
known-bad and one known-good tree, laid out as miniature ``repro/``
packages) plus generated-on-the-fly trees for the suppression and CLI
edge cases.  The two capstone pins: the real source tree comes back
clean, and a seeded violation fails the gate — the same teeth check CI
runs.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.lint import (SCHEMA_VERSION, check_paths, default_root,
                                 report_json)
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "lint_fixtures"
BAD = FIXTURES / "bad"
GOOD = FIXTURES / "good"


def check_cli(argv):
    """``python -m repro check ARGV`` in-process; returns the exit code."""
    return cli_main(["check", *argv])


def findings_for(path, **kwargs):
    findings, _, _ = check_paths([path], **kwargs)
    return findings


def rules_of(findings):
    return sorted({finding.rule for finding in findings})


def write_tree(root, rel, source):
    target = root / "repro" / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return target


class TestDeterminismRule:
    BAD_FILE = BAD / "repro/models/determinism.py"

    def test_wall_clock_flagged(self):
        findings = findings_for(self.BAD_FILE)
        assert any(f.rule == "R1" and "time.time" in f.message
                   for f in findings)

    def test_global_numpy_rng_flagged(self):
        findings = findings_for(self.BAD_FILE)
        assert any(f.rule == "R1" and "numpy.random.normal" in f.message
                   for f in findings)

    def test_stdlib_random_flagged(self):
        findings = findings_for(self.BAD_FILE)
        assert any(f.rule == "R1" and "random.random" in f.message
                   for f in findings)

    def test_unseeded_default_rng_flagged(self):
        findings = findings_for(self.BAD_FILE)
        assert any(f.rule == "R1" and "no seed" in f.message
                   for f in findings)

    def test_os_entropy_flagged(self):
        findings = findings_for(self.BAD_FILE)
        assert any(f.rule == "R1" and "uuid.uuid4" in f.message
                   for f in findings)

    def test_seeded_streams_pass(self):
        assert findings_for(GOOD / "repro/models/determinism.py") == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        # The obs layer measures wall time on purpose: not in R1 scope.
        target = write_tree(tmp_path, "analysis/obs/timing.py",
                            "import time\n\n\ndef now():\n"
                            "    return time.time()\n")
        assert findings_for(target) == []

    def test_every_finding_carries_location_and_hint(self):
        for finding in findings_for(self.BAD_FILE):
            assert finding.line > 0 and finding.path and finding.hint


class TestStoreLayeringRule:
    BAD_FILE = BAD / "repro/analysis/serve/layering.py"

    def test_raw_open_os_pathlib_shutil_all_flagged(self):
        messages = [f.message for f in findings_for(self.BAD_FILE)
                    if f.rule == "R2"]
        assert len(messages) == 4
        assert any("open()" in m for m in messages)
        assert any("os.replace" in m for m in messages)
        assert any("write_text" in m for m in messages)
        assert any("shutil.rmtree" in m for m in messages)

    def test_localfsstore_allowlist_passes(self):
        assert findings_for(GOOD / "repro/analysis/cache.py") == []

    def test_non_store_module_ignored(self, tmp_path):
        target = write_tree(tmp_path, "analysis/obs/writer.py",
                            "def dump(path, text):\n"
                            "    with open(path, 'w') as fh:\n"
                            "        fh.write(text)\n")
        assert findings_for(target) == []


class TestClockDisciplineRule:
    def test_wall_clock_in_lease_logic_flagged(self):
        findings = findings_for(BAD / "repro/analysis/distrib.py")
        assert rules_of(findings) == ["R3"] and len(findings) == 2

    def test_monotonic_and_non_lease_wall_clock_pass(self):
        assert findings_for(GOOD / "repro/analysis/distrib.py") == []

    def test_str_replace_is_not_pathlib_replace(self):
        # Pinned regression: `wid.replace(":", "-")` in the good fixture
        # must not be read as Path.replace (the two-arg str form).
        findings = findings_for(GOOD / "repro/analysis/distrib.py",
                                select=["R2"])
        assert findings == []


class TestLockDisciplineRule:
    BAD_FILE = BAD / "repro/analysis/serve/locks.py"

    def test_unlocked_writes_flagged(self):
        findings = findings_for(self.BAD_FILE)
        writes = [f for f in findings
                  if f.rule == "R4" and f.message.startswith("write")]
        assert {"_completed" in f.message or "_records" in f.message
                for f in writes} == {True}
        assert len(writes) == 2

    def test_unlocked_read_flagged(self):
        findings = findings_for(self.BAD_FILE)
        assert any(f.rule == "R4" and f.message.startswith("read")
                   and "snapshot" in f.message for f in findings)

    def test_payload_class_without_getstate_flagged(self):
        findings = findings_for(self.BAD_FILE)
        assert any(f.rule == "R4" and "PayloadMemo" in f.message
                   and "__getstate__" in f.message for f in findings)

    def test_disciplined_class_passes(self):
        # Locked accesses, a helper only called lock-held, an immutable
        # config attribute read unlocked, and a __getstate__-bearing
        # payload class: all clean.
        assert findings_for(GOOD / "repro/analysis/serve/locks.py") == []

    def test_lockless_class_ignored(self, tmp_path):
        target = write_tree(tmp_path, "analysis/serve/plain.py",
                            "class Plain:\n"
                            "    def __init__(self):\n"
                            "        self.count = 0\n\n"
                            "    def bump(self):\n"
                            "        self.count += 1\n")
        assert findings_for(target) == []


class TestBatchedContractRule:
    BAD_FILE = BAD / "repro/analysis/campaign/contracts.py"

    def test_unpaired_twin_flagged(self):
        findings = findings_for(self.BAD_FILE)
        assert any(f.rule == "R5" and "no __cache_fingerprint__" in f.message
                   for f in findings)

    def test_mismatched_fingerprints_flagged(self):
        findings = findings_for(self.BAD_FILE)
        assert any(f.rule == "R5" and "different" in f.message
                   for f in findings)

    def test_direct_batchedquantity_flagged(self):
        findings = findings_for(self.BAD_FILE)
        assert any(f.rule == "R5" and "BatchedQuantity" in f.message
                   for f in findings)

    def test_bare_batched_and_shared_pair_pass(self):
        assert findings_for(
            GOOD / "repro/analysis/campaign/contracts.py") == []


class TestSuppressions:
    def test_reasoned_allow_suppresses_and_counts(self):
        findings, _, suppressed = check_paths(
            [GOOD / "repro/models/suppressions.py"])
        assert findings == [] and suppressed == 1

    def test_bare_allow_is_a_finding(self):
        findings = findings_for(BAD / "repro/models/suppressions.py")
        assert any(f.rule == "R0" and "no reason" in f.message
                   for f in findings)

    def test_unknown_rule_allow_is_a_finding(self):
        findings = findings_for(BAD / "repro/models/suppressions.py")
        assert any(f.rule == "R0" and "R9" in f.message for f in findings)

    def test_same_line_allow(self, tmp_path):
        target = write_tree(
            tmp_path, "models/a.py",
            "import time\n\n\ndef f(x):\n"
            "    return x + time.time()  "
            "# repro: allow[R1] -- fixture\n")
        findings, _, suppressed = check_paths([target])
        assert findings == [] and suppressed == 1

    def test_comment_block_above_allow(self, tmp_path):
        target = write_tree(
            tmp_path, "models/b.py",
            "import time\n\n\ndef f(x):\n"
            "    # repro: allow[R1] -- a justification that wraps over\n"
            "    # two comment lines stays in force\n"
            "    return x + time.time()\n")
        findings, _, suppressed = check_paths([target])
        assert findings == [] and suppressed == 1

    def test_allow_does_not_leak_past_code(self, tmp_path):
        target = write_tree(
            tmp_path, "models/c.py",
            "import time\n\n\ndef f(x):\n"
            "    # repro: allow[R1] -- covers only the adjacent line\n"
            "    y = x + time.time()\n"
            "    return y + time.time()\n")
        findings, _, suppressed = check_paths([target])
        assert suppressed == 1
        assert [f.rule for f in findings] == ["R1"]

    def test_allow_is_rule_scoped(self, tmp_path):
        target = write_tree(
            tmp_path, "models/d.py",
            "import time\n\n\ndef f(x):\n"
            "    return x + time.time()  "
            "# repro: allow[R5] -- wrong rule\n")
        findings, _, suppressed = check_paths([target])
        assert suppressed == 0
        assert [f.rule for f in findings] == ["R1"]

    def test_r0_cannot_be_suppressed(self, tmp_path):
        target = write_tree(
            tmp_path, "models/e.py",
            "def f(x):\n"
            "    return x  # repro: allow[R0,R1]\n")
        findings = findings_for(target)
        assert any(f.rule == "R0" for f in findings)

    def test_string_literal_is_not_an_allow(self, tmp_path):
        target = write_tree(
            tmp_path, "models/f.py",
            "import time\n\n\ndef f():\n"
            "    note = '# repro: allow[R1] -- in a string'\n"
            "    return note, time.time()\n")
        findings, _, suppressed = check_paths([target])
        assert suppressed == 0
        assert [f.rule for f in findings] == ["R1"]


class TestEngineAndSelection:
    def test_select_restricts_rules(self):
        # The meta rule R0 runs regardless of --select; only an explicit
        # --ignore R0 silences it.
        findings = findings_for(BAD, select=["R1"])
        assert rules_of(findings) == ["R0", "R1"]
        assert rules_of(findings_for(BAD, select=["R1"],
                                     ignore=["R0"])) == ["R1"]

    def test_ignore_drops_rules(self):
        findings = findings_for(BAD, ignore=["R1", "R2", "R3", "R5", "R0"])
        assert rules_of(findings) == ["R4"]

    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="R99"):
            check_paths([BAD], select=["R99"])

    def test_syntax_error_becomes_r0_finding(self, tmp_path):
        target = write_tree(tmp_path, "models/broken.py",
                            "def broken(:\n    pass\n")
        findings = findings_for(target)
        assert [f.rule for f in findings] == ["R0"]
        assert "does not parse" in findings[0].message

    def test_pycache_is_skipped(self, tmp_path):
        write_tree(tmp_path, "models/__pycache__/junk.py",
                   "import time\nx = time.time()\n")
        findings, files, _ = check_paths([tmp_path])
        assert files == 0 and findings == []

    def test_file_count_reported(self):
        _, files, _ = check_paths([BAD])
        assert files == 6


class TestJSONReport:
    def test_schema_round_trip(self):
        findings, files, suppressed = check_paths([BAD])
        doc = json.loads(report_json(findings, files=files,
                                     suppressed=suppressed))
        assert doc["version"] == SCHEMA_VERSION
        assert doc["files"] == files
        assert doc["suppressed"] == suppressed
        assert len(doc["findings"]) == len(findings)
        for entry in doc["findings"]:
            assert set(entry) == {"rule", "path", "line", "message", "hint"}
        assert sum(doc["counts"].values()) == len(findings)

    def test_findings_sorted_by_path_line_rule(self):
        findings, files, suppressed = check_paths([BAD])
        doc = json.loads(report_json(findings, files=files,
                                     suppressed=suppressed))
        keys = [(e["path"], e["line"], e["rule"]) for e in doc["findings"]]
        assert keys == sorted(keys)

    def test_clean_document_shape(self):
        doc = json.loads(report_json([], files=3, suppressed=0))
        assert doc == {"version": SCHEMA_VERSION, "files": 3,
                       "findings": [], "counts": {}, "suppressed": 0}


class TestCLI:
    def test_clean_tree_exits_zero(self, capsys):
        assert check_cli([str(GOOD)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert check_cli([str(BAD)]) == 1
        assert "finding(s)" in capsys.readouterr().out

    def test_json_flag(self, capsys):
        assert check_cli([str(BAD), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == SCHEMA_VERSION and doc["findings"]

    def test_rule_flag(self, capsys):
        assert check_cli([str(BAD), "--rule", "R5", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["counts"]) <= {"R0", "R5"}
        assert doc["counts"]["R5"] == 3

    def test_select_ignore_flags(self, capsys):
        assert check_cli([str(BAD), "--select", "R1,R2", "--ignore", "R2",
                     "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["counts"]) <= {"R0", "R1"}

    def test_unknown_rule_exits_two(self, capsys):
        assert check_cli([str(BAD), "--rule", "R99"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert check_cli(["no/such/dir"]) == 2
        assert "no such path" in capsys.readouterr().err


class TestRepositoryIsClean:
    def test_source_tree_has_no_findings(self):
        findings, files, _ = check_paths([default_root()])
        assert files > 100
        assert findings == []

    def test_gate_has_teeth_on_a_seeded_violation(self, tmp_path):
        # The CI self-check in miniature: a seeded R1 violation dropped
        # into a repro/ tree must fail the gate with exit 1.
        target = write_tree(tmp_path, "models/seeded.py",
                            "import time\n\n\ndef point(x):\n"
                            "    return x * time.time()\n")
        assert check_cli([str(target)]) == 1
