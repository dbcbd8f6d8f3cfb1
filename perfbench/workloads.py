"""One repetition of one workload, in a fresh interpreter.

The orchestrator (``run.py``) starts this file once per repetition, so
every repetition begins with cold process-global state — the campaign
registry's row memo, the technology caches, ``default_session()`` — an
empty cache root and, for the obj workloads, an empty bucket.  Cold
passes therefore always start from empty caches.

    python3 perfbench/workloads.py WORKLOAD INPUTS.json OUTPUT.json TRACE

It drives the program only through its public API — ``Session`` and
``run_campaign``-style submits, ``ServiceClient`` against a
``repro serve start`` subprocess, ``repro distrib worker`` and
``repro serve objstore`` subprocesses — and writes one JSON record: when
set-up finished, the measured work and latencies, the operations
attempted and failed, an output digest, and (traced) spans and counts.
"""

from __future__ import annotations

import concurrent.futures
import importlib
import json
import resource
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from generate import TECHNOLOGIES  # noqa: E402
from tracing import Tracer  # noqa: E402

#: The Fig. 11 test's band: a simulated count stays within 35% of the
#: closed-form ``predicted_count``.
PREDICTED_BAND = 0.35
#: Client threads of the service's open loop: enough that a burst of the
#: bursty tenant never waits for a free thread at about 5 plans/s.
CLIENT_THREADS = 8
#: Seconds one served plan may take before it counts as failed.
SERVICE_TIMEOUT_S = 60.0


def canonical(values) -> str:
    """Values as canonical JSON; floats keep every bit through ``repr``."""
    return json.dumps(values, sort_keys=True)


class Rep:
    """What one repetition measured, checked and (when traced) recorded."""

    def __init__(self, workdir: Path, trace: bool) -> None:
        self.workdir = workdir
        self.tracer = Tracer(enabled=trace)
        self.ready = None
        self.units = 0
        self.seconds = 0.0
        self.latencies_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.outputs: List = []
        self.samples: Dict[str, List[float]] = {}
        self.rss_mb = None

    def setup_done(self) -> None:
        self.ready = time.monotonic()

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def fail(self, what: str) -> None:
        """One operation failed (raised, was refused or failed a check)."""
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    @contextmanager
    def timed(self, name: str):
        """A measured phase: a root span, its seconds added to the work."""
        start = time.perf_counter()
        with self.tracer.span(name):
            yield
        self.seconds += time.perf_counter() - start

    def record_run(self, provenance: Dict) -> None:
        """Layer samples of one ``RunRecord`` (as a dict)."""
        if provenance["executor"] == "persistent-cache":
            self.sample("runner.persistent.ms",
                        provenance["wall_time_s"] * 1e3)
        self.tracer.count("cache.hits", provenance["persistent_hits"])
        self.tracer.count("cache.lookups", provenance["persistent_hits"]
                          + provenance["persistent_misses"])

    def record_session_call(self, elapsed_s: float, result) -> None:
        """A ``Session`` call's latency, its wait beyond the executor's
        own wall time, and its ``RunRecord``."""
        self.latencies_ms.append(elapsed_s * 1e3)
        self.sample("session.wait_s",
                    elapsed_s - result.provenance.wall_time_s)
        self.record_run(result.provenance.as_dict())

    def result(self) -> Dict:
        if self.rss_mb is None:
            # ru_maxrss is in KiB on Linux.
            self.rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {"ready": self.ready, "units": self.units,
                "seconds": self.seconds, "latencies_ms": self.latencies_ms,
                "attempted": self.attempted, "failed": self.failed,
                "errors": self.errors, "outputs": self.outputs,
                "samples": self.samples, "rss_mb": self.rss_mb,
                "spans": self.tracer.spans, "counts": self.tracer.counts}


# ---------------------------------------------------------------------------
# Layer probes (traced repetitions only)


def _unit(vdd: float) -> float:
    return vdd


def _unit_batch(vdds):
    return vdds


def probe_layers(rep: Rep, voltages: List[float], planned=()) -> None:
    """Time one device-model call, the executor's per-point overhead and
    ``result_key`` at this repetition's own inputs."""
    from repro.analysis.cache import result_key
    from repro.analysis.runner import ExperimentPlan, batched
    from repro.analysis.session import RunConfig, Session
    from repro.models.gate import GateModel
    from repro.models.technology import get_technology

    calls = 50 * len(voltages)
    for name in TECHNOLOGIES:
        gate = GateModel(technology=get_technology(name))
        with rep.tracer.span("models.gate_delay") as span:
            for _ in range(50):
                for vdd in voltages:
                    gate.delay(vdd)
        rep.sample("models.gate_delay.ns",
                   (span["end"] - span["start"]) / calls * 1e9)

    plan = ExperimentPlan.sweep("vdd", voltages * max(1, 400 // len(voltages)))
    session = Session(RunConfig())
    for label, quantity in (("serial", _unit),
                            ("batched", batched(_unit_batch))):
        with rep.tracer.span(f"runner.{label}"):
            record = session.run(plan, v=quantity).provenance
        rep.sample(f"runner.{label}.us_per_point",
                   record.wall_time_s / record.points * 1e6)

    for plan, quantities in planned:
        with rep.tracer.span("cache.result_key"):
            result_key(plan, quantities)
        rep.tracer.count("cache.result_key.calls")


# ---------------------------------------------------------------------------
# sensor_sim


class Conversion:
    """The per-point quantity: one event-driven charge-to-digital run."""

    def __init__(self, converter, rep: Rep) -> None:
        from repro.power.supply import ConstantSupply

        self.converter = converter
        self.supply = ConstantSupply
        self.rep = rep
        self.last = None

    def __call__(self, voltage: float) -> float:
        with self.rep.tracer.span("sensors.convert"):
            self.last = self.converter.convert(self.supply(voltage))
        self.rep.tracer.count("sensors.convert.calls")
        self.rep.tracer.count("sensors.sim_pulses", self.last.pulses)
        return float(self.last.count)


def sensor_sim(rep: Rep, inputs: Dict) -> None:
    from repro.analysis.runner import ExperimentPlan
    from repro.analysis.session import RunConfig, Session
    from repro.models.technology import get_technology
    from repro.sensors.batch import predicted_counts
    from repro.sensors.charge_to_digital import ChargeToDigitalConverter

    capacitance = inputs["capacitance_pf"] * 1e-12
    quantities = {name: Conversion(ChargeToDigitalConverter(
        get_technology(name), sampling_capacitance=capacitance,
        counter_width=inputs["counter_width"]), rep) for name in TECHNOLOGIES}
    session = Session(RunConfig())  # serial, cache off
    rep.setup_done()

    counts: Dict[str, List] = {name: [] for name in TECHNOLOGIES}
    with rep.timed("sensor.measure"):
        for index, conversion in enumerate(inputs["conversions"]):
            name, voltage = conversion["technology"], conversion["voltage"]
            quantity = quantities[name]
            rep.attempted += 1
            plan = ExperimentPlan.sweep("sampled_vdd", [voltage])
            start = time.perf_counter()
            try:
                with rep.tracer.span("session.run", request=f"c{index}"):
                    result = session.run(plan, count=quantity)
            except Exception as exc:  # a failing conversion never aborts
                rep.fail(f"conversion {name}@{voltage}: {exc!r}")
                continue
            rep.record_session_call(time.perf_counter() - start, result)
            done = quantity.last
            rep.units += done.pulses
            counts[name].append((voltage, done.count))
            rep.outputs.append([name, voltage, done.count,
                                done.final_voltage, done.conversion_time,
                                done.charge_consumed])

    for name, points in counts.items():
        points.sort()
        predicted = predicted_counts(get_technology(name),
                                     [v for v, _ in points],
                                     sampling_capacitance=capacitance,
                                     counter_width=inputs["counter_width"])
        for (voltage, count), expect in zip(points, predicted):
            if abs(count - expect) > PREDICTED_BAND * expect:
                rep.fail(f"{name}@{voltage}: count {count} outside the "
                         f"band of predicted {int(expect)}")
        for (low_v, low), (high_v, high) in zip(points, points[1:]):
            if high <= low:
                rep.fail(f"{name}: count {high} at {high_v} V does not "
                         f"exceed {low} at {low_v} V")

    if rep.tracer.enabled:
        probe_layers(rep, [c["voltage"] for c in inputs["conversions"]])


# ---------------------------------------------------------------------------
# campaign_fs / fleet_obj


def build_campaign(inputs: Dict):
    """The generated campaign dict as a compiled ``CampaignSpec``."""
    from repro.analysis.campaign.spec import (AxisSpec, CampaignSpec,
                                              ScenarioSpec, compile_campaign)

    scenarios = tuple(ScenarioSpec(
        point=entry["point"],
        technologies=tuple(entry["technologies"]),
        axes=tuple(AxisSpec.from_table(axis["name"], axis)
                   for axis in entry.get("axes", ())),
        matrix=tuple((name, tuple(values))
                     for name, values in entry.get("matrix", {}).items()),
        params=tuple(sorted(entry.get("params", {}).items())),
        samples=entry.get("samples", 0),
        seed_batches=entry.get("seed_batches", 1),
    ) for entry in inputs["scenarios"])
    spec = CampaignSpec(name=inputs["name"], seed=inputs["seed"],
                        scenarios=scenarios)
    return compile_campaign(spec)


def cold_pass(rep: Rep, session, compiled) -> List:
    """Every planned run submitted up front, as ``run_campaign`` does.

    Gathered handle by handle rather than through ``run_campaign``,
    whose ``gather`` raises on the first failed run: here a failed plan
    is counted and the pass goes on.
    """
    handles = [session.submit(run.plan, run.quantities)
               for run in compiled.runs]
    results = []
    for run, handle in zip(compiled.runs, handles):
        rep.attempted += 1
        try:
            results.append(handle.result())
        except Exception as exc:
            rep.fail(f"cold {run.label}: {exc!r}")
            results.append(None)
    return results


def warm_pass(rep: Rep, session, compiled, cold: List) -> None:
    """Read every result back, one plan at a time, timing each one."""
    for run, first in zip(compiled.runs, cold):
        rep.attempted += 1
        start = time.perf_counter()
        try:
            with rep.tracer.span("session.submit", request=run.label):
                result = session.submit(run.plan, run.quantities).result()
        except Exception as exc:
            rep.fail(f"warm {run.label}: {exc!r}")
            continue
        rep.record_session_call(time.perf_counter() - start, result)
        if result.provenance.executor != "persistent-cache":
            rep.fail(f"warm {run.label} missed the cache "
                     f"({result.provenance.executor})")
        elif first is None or canonical(result.values) != canonical(
                first.values):
            rep.fail(f"warm {run.label} differs from its cold values")


def record_cold(rep: Rep, compiled, cold: List) -> None:
    from repro.analysis.distrib import worker_id

    me = worker_id()
    for run, result in zip(compiled.runs, cold):
        if result is None:
            continue
        rep.units += result.plan.point_count
        rep.outputs.append([run.label, result.values])
        for shard in result.provenance.shards:
            rep.tracer.count("distrib.shards")
            rep.tracer.count("distrib.shards.coordinator",
                             int(shard["worker"] == me))
            rep.sample("distrib.shard_ms", shard["wall_time_s"] * 1e3)


def compile_timed(rep: Rep, inputs: Dict):
    start = time.perf_counter()
    with rep.tracer.span("campaign.compile"):
        compiled = build_campaign(inputs)
    rep.sample("campaign.compile_s", time.perf_counter() - start)
    return compiled


def cold_then_warm(rep: Rep, name: str, compiled, config,
                   cold_inflight: int) -> None:
    """The measured cold pass, then the warm pass on a fresh Session."""
    from repro.analysis.session import Session

    with rep.timed(f"{name}.cold"):
        with Session(config, max_inflight=cold_inflight) as session:
            cold = cold_pass(rep, session, compiled)
    record_cold(rep, compiled, cold)
    with rep.tracer.span(f"{name}.warm"):
        with Session(config, max_inflight=1) as session:
            warm_pass(rep, session, compiled, cold)
    if rep.tracer.enabled:
        voltages = next((list(run.plan.axes[0].values)
                         for run in compiled.runs
                         if run.plan.axes and run.plan.axes[0].name == "vdd"),
                        [0.5])
        probe_layers(rep, voltages,
                     [(run.plan, run.quantities) for run in compiled.runs])


def campaign_fs(rep: Rep, inputs: Dict) -> None:
    from repro.analysis.session import RunConfig
    from stack import TimedStore

    compiled = compile_timed(rep, inputs)
    root = str(rep.workdir / "cache")
    store = TimedStore(root, "fs", rep.tracer) if rep.tracer.enabled \
        else root
    rep.setup_done()
    # One plan in flight: LocalFSStore stages every write as
    # <key>.tmp<pid>, so concurrent technology merges from one Session's
    # threads race on the same staging file (FileNotFoundError).
    cold_then_warm(rep, "campaign", compiled,
                   RunConfig(cache_mode="rw", cache_root=store), 1)


def fleet_obj(rep: Rep, inputs: Dict) -> None:
    from repro.analysis.session import RunConfig, Session
    from stack import (Program, TimedStore, program_env, start_objstore,
                       stop_all)

    compiled = compile_timed(rep, inputs)
    objstore = start_objstore(rep.workdir, SRC)
    worker = None
    try:
        bucket = objstore.url("serving at ") + "/fleet"
        worker = Program(["distrib", "worker", "--root", bucket],
                         "joining fleet", rep.workdir, program_env(SRC))
        root = TimedStore(bucket, "obj", rep.tracer) \
            if rep.tracer.enabled else bucket
        rep.setup_done()
        cold_then_warm(rep, "fleet", compiled,
                       RunConfig(cache_mode="rw", cache_root=root,
                                 distrib_root=root),
                       Session.MAX_INFLIGHT)
    finally:
        stop_all(worker, objstore)


# ---------------------------------------------------------------------------
# service_obj


def plan_of(body: Dict):
    """The ``(plan, quantities)`` a submission body names."""
    from repro.analysis.campaign.spec import (builtin_campaign_path,
                                              compile_campaign,
                                              load_campaign)

    if "plan" in body:
        module, _, factory = body["plan"].partition(":")
        return getattr(importlib.import_module(module), factory)()
    spec = load_campaign(builtin_campaign_path(body["campaign"]))
    runs = compile_campaign(spec.trimmed()).runs
    run = next(run for run in runs if run.label == body["runs"][0])
    return run.plan, run.quantities


def prime(rep: Rep, url: str, bodies: List[Dict]) -> None:
    """Serve one copy of every distinct plan before the window opens.

    The window then measures served cache hits.  Which plans happen to
    arrive first varies with the seed, and the few first-arrival misses
    would otherwise set the p90 by themselves.
    """
    from repro.analysis.serve.client import ServiceClient

    distinct = {canonical(body): body for body in bodies}
    with ServiceClient(url) as client:
        submitted = {}
        for key, body in sorted(distinct.items()):
            rep.attempted += 1
            try:
                submitted[key] = client.submit(body)[0]["id"]
            except Exception as exc:
                rep.fail(f"priming {key}: {exc!r}")
        for key, plan_id in submitted.items():
            try:
                record = client.wait(plan_id, timeout_s=SERVICE_TIMEOUT_S)
            except Exception as exc:
                rep.fail(f"priming {key}: {exc!r}")
                continue
            if record["state"] != "done":
                rep.fail(f"priming {key}: {record['state']}")


def service_obj(rep: Rep, inputs: Dict) -> None:
    from repro.analysis.serve.client import ServiceClient, ServiceOverloaded
    from repro.analysis.session import RunConfig, Session
    from stack import (Program, TimedStore, probe_store, program_env,
                       start_objstore, stop_all)

    objstore = start_objstore(rep.workdir, SRC)
    server = None
    try:
        bucket = objstore.url("serving at ") + "/service"
        server = Program(["serve", "start", "--port", "0"],
                         "experiment service on ", rep.workdir,
                         program_env(SRC, REPRO_CACHE_MODE="rw",
                                     REPRO_CACHE_DIR=bucket))
        url = server.url("experiment service on ")
        clients = threading.local()
        rep.setup_done()

        def request(index: int, entry: Dict, due: float):
            rep.sample("service.generator_lag_ms",
                       (time.perf_counter() - due) * 1e3)
            if not hasattr(clients, "client"):
                clients.client = ServiceClient(url)
            client = clients.client
            tag = f"r{index}"
            if entry["body"] is None:
                with rep.tracer.span("serve.status", request=tag):
                    client.status()
                return None
            with rep.tracer.span("service.request", request=tag):
                with rep.tracer.span("serve.submit"):
                    plan_id = client.submit(entry["body"])[0]["id"]
                with rep.tracer.span("serve.wait"):
                    record = client.wait(plan_id,
                                         timeout_s=SERVICE_TIMEOUT_S)
            latency = time.perf_counter() - due
            if record["state"] != "done":
                raise RuntimeError(f"plan {plan_id} {record['state']}: "
                                   f"{record.get('error')}")
            with rep.tracer.span("serve.result", request=tag):
                values = canonical(client.result(plan_id)["values"])
            return latency, record, values

        schedule = inputs["schedule"]
        prime(rep, url, [entry["body"] for entry in schedule
                         if entry["body"] is not None])
        pool = concurrent.futures.ThreadPoolExecutor(CLIENT_THREADS)
        with rep.tracer.span("service.open_loop"):
            origin = time.perf_counter()
            futures = []
            for index, entry in enumerate(schedule):
                due = origin + entry["due_s"]
                time.sleep(max(0.0, due - time.perf_counter()))
                futures.append(pool.submit(request, index, entry, due))
            served = []
            for index, (entry, future) in enumerate(zip(schedule, futures)):
                rep.attempted += 1
                try:
                    outcome = future.result()
                except ServiceOverloaded as exc:
                    rep.tracer.count("serve.refused")
                    rep.fail(f"request {index} refused: {exc}")
                    continue
                except Exception as exc:
                    rep.fail(f"request {index}: {exc!r}")
                    continue
                if outcome is not None:
                    served.append((index, entry["body"], outcome))
            finished = time.perf_counter()
        pool.shutdown()
        rep.rss_mb = server.peak_rss_mb()

        expected: Dict[str, str] = {}
        for index, body, (latency, record, values) in served:
            rep.latencies_ms.append(latency * 1e3)
            rep.sample("serve.queue_wait_ms",
                       (record["started_at"] - record["submitted_at"]) * 1e3)
            rep.sample("serve.exec_ms",
                       (record["finished_at"] - record["started_at"]) * 1e3)
            rep.record_run(record["provenance"])
            key = canonical(body)
            if key not in expected:
                plan, quantities = plan_of(body)
                expected[key] = canonical(
                    Session(RunConfig()).run(plan, quantities).values)
            if values != expected[key]:
                rep.fail(f"request {index}: served values differ from a "
                         "direct Session.run")
            rep.outputs.append([index, values])
        rep.units = len(served)
        rep.seconds = finished - origin
        if rep.tracer.enabled:
            probe_store(TimedStore(bucket, "obj", rep.tracer))
    finally:
        stop_all(server, objstore)

    if rep.tracer.enabled:
        probe_layers(rep, [0.3 + 0.05 * i for i in range(8)],
                     [plan_of(json.loads(key)) for key in sorted(expected)])


WORKLOADS = {
    "sensor_sim": sensor_sim,
    "campaign_fs": campaign_fs,
    "service_obj": service_obj,
    "fleet_obj": fleet_obj,
}


def main(argv: List[str]) -> int:
    workload, inputs_path, output_path, trace = argv
    rep = Rep(Path(output_path).parent, trace == "1")
    WORKLOADS[workload](rep, json.loads(Path(inputs_path).read_text()))
    Path(output_path).write_text(json.dumps(rep.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
