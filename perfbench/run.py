"""perfbench: the repository's end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload sensor_sim --seed 1 --seconds 15 \\
        --trace 0

Run from the root of a checkout.  Four seeded workloads exercise
different layers of the program (see ``BENCHMARK.json`` for why each was
chosen):

* ``sensor_sim`` — Fig. 11 charge-to-digital conversions (30 pF, 16-bit
  counter) through ``Session.run``, serial, cache off: the event-driven
  sim path ``repro.sensors`` -> ``repro.selftimed`` -> ``repro.sim`` ->
  ``repro.models``;
* ``campaign_fs`` — a generated campaign over the nine non-sensor
  registry point functions on a local-fs ``ResultCache``, one plan in
  flight: a cold pass that evaluates and stores every result, then a
  warm pass on a fresh ``Session`` that reads every one back;
* ``service_obj`` — an open loop of seeded Poisson arrivals (5 plans/s
  from three tenants, one bursty, plus dashboard status polls) against a
  ``repro serve start`` subprocess whose cache is an object-store
  bucket, primed with one copy of each plan so the window measures
  served cache hits;
* ``fleet_obj`` — a small generated campaign through a ``Session`` whose
  distrib root and cache are one object-store bucket, with a
  ``repro distrib worker`` subprocess beside the coordinator; cold, then
  warm.

A run is several repetitions.  Each starts a fresh interpreter
(``workloads.py``) with a fresh cache root and bucket, so every cold pass
starts from empty caches and no process-global memo carries over; the
interpreter start, imports, campaign compile and subprocess starts count
as set-up.  Repetition ``r`` draws its inputs from ``(workload, seed,
r)``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics from traced repetitions (every other repetition runs untraced,
which gives the tracing overhead).  Traced spans are written to
``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from generate import digest, rep_inputs
from tracing import (highest_percentile, median, percentile,
                     self_time_by_name)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

#: Nominal host seconds of one repetition on a 2-CPU machine, which sets
#: how many repetitions fill ``--seconds``.
REP_SECONDS = {"sensor_sim": 4.0, "campaign_fs": 1.9, "service_obj": 3.75,
               "fleet_obj": 5.0}
#: Set-up is measured this many times at least, and reported as a median.
MIN_REPS = 3
#: The tail percentile reported; a run repeats until it has ten latency
#: samples beyond it.
TAIL = 90
#: Seconds a whole run may take before it is abandoned.
RUN_TIMEOUT_S = 170.0
#: The seed the recorded output digests belong to.
REFERENCE_SEED = 1

#: Root spans that time a measured phase (the rest time probes).
MEASURED = ("sensor.measure", "campaign.cold", "campaign.warm",
            "service.open_loop", "fleet.cold", "fleet.warm")
STORE_OPS = {"fs": ("get", "put_atomic", "list"),
             "obj": ("get", "put_atomic", "put_if_absent", "put_if_match",
                     "list", "stat")}


def run_rep(workload: str, inputs: Dict, workdir: Path, trace: bool,
            deadline: float) -> Dict:
    """One repetition in a fresh interpreter; its record plus set-up time."""
    workdir.mkdir(parents=True)
    inputs_path = workdir / "inputs.json"
    output_path = workdir / "output.json"
    inputs_path.write_text(json.dumps(inputs))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned = time.monotonic()
    # A session of its own, so a timeout can stop the program
    # subprocesses the repetition started along with it.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), workload,
         str(inputs_path), str(output_path), "1" if trace else "0"],
        cwd=workdir, env=env, start_new_session=True)
    try:
        code = proc.wait(max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        outcome = "timed out" if code is None else f"exited {code}"
        raise RuntimeError(f"{workload} repetition in {workdir} {outcome}")
    record = json.loads(output_path.read_text())
    record["setup_s"] = record["ready"] - spawned
    record["traced"] = trace
    return record


def run_reps(workload: str, seed: int, seconds: float, trace: bool,
             workdir: Path) -> List[Dict]:
    """Repetitions until both the time share and the sample floor are met.

    The count depends only on the arguments and on how many latency
    samples each repetition yields, so a seed always gets the same
    inputs.
    """
    target = max(MIN_REPS, round(seconds / REP_SECONDS[workload]))
    deadline = time.monotonic() + RUN_TIMEOUT_S
    records: List[Dict] = []
    while (len(records) < target or highest_percentile(
            sum(len(r["latencies_ms"]) for r in records)) < TAIL):
        rep = len(records)
        inputs = rep_inputs(workload, seed, rep)
        record = run_rep(workload, inputs, workdir / f"rep{rep}",
                         trace and rep % 2 == 0, deadline)
        record["input_digest"] = digest(inputs)
        record["output_digest"] = digest(record["outputs"])
        records.append(record)
    return records


def end_to_end(records: List[Dict]) -> Dict[str, float]:
    """The metrics every workload reports, each in its own terms.

    ``work_per_s``: simulated counter pulses (sensor_sim), cold-pass
    points (campaign_fs, fleet_obj) or served plans (service_obj) per
    host second.  ``latency_*``: one conversion, one warm-pass plan, or
    one served plan from when it was due.  ``peak_rss_mb``: the process
    hosting the program's stack.  ``setup_s``: the median set-up of the
    repetitions.
    """
    latencies = [ms for r in records for ms in r["latencies_ms"]]
    return {
        "setup_s": median([r["setup_s"] for r in records]),
        "peak_rss_mb": median([r["rss_mb"] for r in records]),
        "work_per_s": median([r["units"] / r["seconds"] for r in records]),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, TAIL),
    }


def rep_cost(record: Dict, workload: str) -> float:
    """Host seconds per unit of work; on the open loop, whose window the
    schedule fixes, the median latency instead."""
    if workload == "service_obj":
        return median(record["latencies_ms"])
    return record["seconds"] / record["units"]


def per_layer(records: List[Dict], workload: str) -> Dict[str, float]:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    counts: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}
    durations: Dict[str, List[float]] = {}
    own: Dict[str, float] = {}
    measured = measured_self = 0.0
    for record in traced:
        for name, value in record["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, values in record["samples"].items():
            samples.setdefault(name, []).extend(values)
        for span in record["spans"]:
            durations.setdefault(span["name"], []).append(
                span["end"] - span["start"])
        for name, value in self_time_by_name(record["spans"]).items():
            own[name] = own.get(name, 0.0) + value
    for name in MEASURED:
        measured += sum(durations.get(name, ()))
        measured_self += own.get(name, 0.0)

    def total(name: str) -> float:
        return sum(durations.get(name, ()))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def ms_p50(name: str) -> float:
        return median(durations.get(name, ())) * 1e3

    pulses = counts.get("sensors.sim_pulses", 0)
    shards = counts.get("distrib.shards", 0)
    key_calls = counts.get("cache.result_key.calls", 0)
    latency_s = sum(ms for r in traced for ms in r["latencies_ms"]) / 1e3
    overhead = ratio(median([rep_cost(r, workload) for r in traced]),
                     median([rep_cost(r, workload) for r in plain])) - 1.0
    metrics = {
        "sensors.convert.calls": counts.get("sensors.convert.calls", 0),
        "sensors.convert.busy_s": total("sensors.convert"),
        "sensors.convert.us_per_pulse": ratio(total("sensors.convert"),
                                              pulses) * 1e6,
        "sensors.convert.host_share": ratio(own.get("sensors.convert", 0.0),
                                            measured),
        "sensors.sim_pulses": pulses,
        "models.gate_delay.ns_per_call": median(
            samples.get("models.gate_delay.ns", ())),
        "runner.serial.us_per_point": median(
            samples.get("runner.serial.us_per_point", ())),
        "runner.batched.us_per_point": median(
            samples.get("runner.batched.us_per_point", ())),
        "runner.persistent.ms_per_plan": median(
            samples.get("runner.persistent.ms", ())),
        "session.wait_s": median(samples.get("session.wait_s", ())),
        "cache.result_key.calls": key_calls,
        "cache.result_key.ms_per_call": ratio(total("cache.result_key"),
                                              key_calls) * 1e3,
        "cache.hit_ratio": ratio(counts.get("cache.hits", 0),
                                 counts.get("cache.lookups", 0)),
        "distrib.shards": shards,
        "distrib.shard_ms_p50": median(samples.get("distrib.shard_ms", ())),
        "distrib.coordinator_share": ratio(
            counts.get("distrib.shards.coordinator", 0), shards),
        "distrib.claim_success_ratio": ratio(
            counts.get("distrib.claim.wins", 0),
            counts.get("distrib.claim.attempts", 0)),
        "serve.submit.ms_p50": ms_p50("serve.submit"),
        "serve.wait.ms_p50": ms_p50("serve.wait"),
        "serve.status.ms_p50": ms_p50("serve.status"),
        "serve.queue_wait_ms_p50": median(
            samples.get("serve.queue_wait_ms", ())),
        "serve.exec_ms_p50": median(samples.get("serve.exec_ms", ())),
        "serve.refused": counts.get("serve.refused", 0),
        "serve.submit_wait_share": ratio(
            total("serve.submit") + total("serve.wait"), latency_s),
        "service.generator_lag_ms": percentile(
            samples["service.generator_lag_ms"], 90)
        if samples.get("service.generator_lag_ms") else 0.0,
        "campaign.compile_s": median(samples.get("campaign.compile_s", ())),
        "latency.samples": sum(len(r["latencies_ms"]) for r in records),
        "trace.overhead_pct": 100.0 * overhead,
        "trace.unattributed_share": ratio(measured_self, measured),
    }
    for kind, ops in STORE_OPS.items():
        for op in ops:
            name = f"store.{kind}.{op}"
            metrics[f"{name}.calls"] = len(durations.get(name, ()))
            if kind == "fs":
                metrics[f"{name}.busy_s"] = total(name)
            else:
                metrics[f"{name}.ms_p50"] = ms_p50(name)
    return metrics


def check_reference(workload: str, seed: int, records: List[Dict]) -> int:
    """Repetitions whose digests differ from the recorded reference."""
    if seed != REFERENCE_SEED or not REFERENCE.exists():
        return 0
    reference = json.loads(REFERENCE.read_text()).get(workload, {})
    mismatches = 0
    for rep, record in enumerate(records):
        for kind in ("input_digest", "output_digest"):
            recorded = reference.get(kind + "s", [])
            if rep < len(recorded) and recorded[rep] != record[kind]:
                print(f"{workload} rep {rep}: {kind} {record[kind]} != "
                      f"reference {recorded[rep]}", file=sys.stderr)
                mismatches += 1
    return mismatches


def record_reference(workload: str, records: List[Dict]) -> None:
    reference = json.loads(REFERENCE.read_text()) \
        if REFERENCE.exists() else {}
    reference[workload] = {kind + "s": [r[kind] for r in records]
                           for kind in ("input_digest", "output_digest")}
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True)
                         + "\n")


def write_trace(workload: str, seed: int, records: List[Dict]) -> Path:
    path = ROOT / ".perfbench" / "traces" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([{"rep": rep, "spans": r["spans"],
                                 "counts": r["counts"]}
                                for rep, r in enumerate(records)
                                if r["traced"]]))
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(REP_SECONDS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests as the reference "
                             f"(seed {REFERENCE_SEED} only)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src'}; run perfbench from "
              "the root of a full checkout", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        records = run_reps(args.workload, args.seed, args.seconds,
                           bool(args.trace), workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.record:
        if args.seed != REFERENCE_SEED:
            parser.error(f"--record needs --seed {REFERENCE_SEED}")
        record_reference(args.workload, records)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    failed += check_reference(args.workload, args.seed, records)
    for record in records:
        for error in record["errors"]:
            print(f"failed: {error}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(records, args.workload)
        print(f"trace: {write_trace(args.workload, args.seed, records)}",
              file=sys.stderr)
    else:
        metrics = end_to_end(records)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"]
               for m in declared["end_to_end"] + declared["per_layer"]}
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit_of[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
