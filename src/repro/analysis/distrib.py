"""Sharded multi-machine experiment execution over a shared cache root.

The :class:`~repro.analysis.runner.Executor` parallelises one plan across
the cores of one machine; this module parallelises it across a *fleet*.
The coordination substrate is the persistent, content-keyed
:class:`~repro.analysis.cache.ResultCache`: a shared root is all the
machines need to agree on.  The root is a storage-backend spec resolved
by :func:`~repro.analysis.cache.open_store` — a directory (an NFS mount,
a synced directory, or just ``.repro_cache/`` for local fleets), or an
``http://host:port/bucket`` object-store URL
(:mod:`repro.analysis.objstore`) for genuinely shared-nothing fleets
with no common filesystem at all.

The model, end to end:

1. **Partition.**  :func:`submit` splits an
   :class:`~repro.analysis.runner.ExperimentPlan` into contiguous,
   balanced index ranges (:meth:`ExperimentPlan.shard_ranges
   <repro.analysis.runner.ExperimentPlan.shard_ranges>`) and derives one
   content-addressed key per shard from the job's
   :func:`~repro.analysis.cache.result_key` plus the range — the *shard
   key scheme*.  The plan and its quantity callables are pickled into a
   job payload under ``<root>/jobs/<salt>/<job>/``, so distributed
   quantities must be importable (the per-point functions the libraries
   already export); closures fall back to local execution.
2. **Claim.**  Workers — ``python -m repro distrib worker --root DIR``
   — scan the job directory and claim shards through the cache's
   atomic lease files (:meth:`ResultCache.claim_lease
   <repro.analysis.cache.ResultCache.claim_lease>`).  A claimed shard is
   heartbeated from a background thread while it executes; a worker
   *process* that dies mid-shard stops heartbeating, its lease expires
   after its TTL, and a surviving worker steals the lease and re-executes
   the shard.  (A process that is alive but wedged keeps its lease;
   ``status`` names the owner so an operator can kill it.)
3. **Execute + publish.**  A shard runs through the ordinary executor
   (:meth:`Executor.run_shard <repro.analysis.runner.Executor.run_shard>`)
   over *global* point indices — which is what keeps Monte-Carlo seeding
   shard-invariant — and its values land in the result store under the
   shard key, with per-shard provenance (worker id, wall time, cache
   economics) in the payload's ``meta``.
4. **Merge.**  The coordinator (:func:`wait_for_job`, or the ``run`` CLI
   command, or an ``Executor(distrib=DistribBackend(...))``) blocks until
   every shard key is present, concatenates the slices in shard order —
   bit-identical to the serial path, because every executor enumerates
   the same canonical point order — and stores the merged values under
   the *job* key, which is exactly the key a plain
   ``Executor(persistent=...)`` computes: after a distributed run, every
   machine's persistent cache hits.

Duplicated execution (two workers racing a stolen lease) is benign by
construction: shard results are pure functions of the plan, published
atomically under content keys, so the loser's write is byte-identical.

Command line::

    python -m repro distrib worker --root ROOT     # join the fleet
    python -m repro distrib submit --root ROOT --plan MODULE:FACTORY
    python -m repro distrib status --root ROOT [--json]
    python -m repro distrib run    --root ROOT --plan MODULE:FACTORY

``ROOT`` is a shared directory or an object-store bucket URL.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import pickle
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.cache import (
    DEFAULT_LEASE_TTL,
    CacheStore,
    ResultCache,
    code_version_salt,
    default_cache_root,
    open_store,
    result_key,
)
from repro.analysis.runner import Executor, ExperimentPlan, _selftest_energy
from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_POLL_S",
    "DEFAULT_SHARD_SIZE",
    "DistribBackend",
    "DistribJob",
    "DistribTimeout",
    "ShardSpec",
    "UnpicklablePayload",
    "Worker",
    "fleet_queue_stats",
    "job_status",
    "list_jobs",
    "list_workers",
    "merge_job",
    "queue_summary",
    "selftest_plan",
    "shard_key",
    "submit",
    "wait_for_job",
    "worker_id",
]

#: Default points per shard.  Figure plans are small (tens of points) but a
#: point can be an entire event-driven simulation, so shards stay fine-
#: grained enough for a fleet to balance.
DEFAULT_SHARD_SIZE = 4
#: Default coordinator/worker polling interval in seconds.
DEFAULT_POLL_S = 0.2


class UnpicklablePayload(ConfigurationError):
    """The plan or a quantity cannot cross a process boundary.

    Raised by :func:`submit` when pickling the job payload fails —
    typically a quantity closing over local state.  The
    :class:`DistribBackend` catches it and falls back to local execution.
    """


class DistribTimeout(ConfigurationError):
    """A coordinator gave up waiting for outstanding shards."""


def worker_id() -> str:
    """This process's fleet identity: ``hostname:pid``."""
    return f"{socket.gethostname()}:{os.getpid()}"


def shard_key(job_key: str, start: int, stop: int) -> str:
    """Content key of the shard covering plan indices ``[start, stop)``.

    Derived from the job's :func:`~repro.analysis.cache.result_key` (which
    already covers the plan declaration, the quantity fingerprints and the
    code-version salt) plus the index range, so every machine computes the
    same key for the same slice of the same work.
    """
    digest = hashlib.sha256(f"{job_key}:{start}:{stop}".encode())
    return digest.hexdigest()[:32]


# ---------------------------------------------------------------------------
# Jobs


@dataclass(frozen=True)
class ShardSpec:
    """One claimable unit of a job: a contiguous index range and its key."""

    index: int
    start: int
    stop: int
    key: str

    @property
    def points(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class DistribJob:
    """A submitted plan: manifest metadata plus the pickled payload object.

    The manifest (``manifest.json``) is what workers trust: it records the
    precomputed job and shard keys, so key derivation happens exactly once,
    on the submitting machine.  The payload (``payload.pkl``) carries the
    plan and quantity callables; it is written *before* the manifest, so a
    manifest's existence implies a loadable job.  ``root`` is the backend
    spec (directory or bucket URL) the job lives under — everything is
    addressed by object key through the
    :class:`~repro.analysis.cache.CacheStore` interface, never by path.
    """

    root: object  # backend spec: a directory Path/str or a bucket URL
    key: str
    salt: str
    kind: str
    axes: Dict[str, int]
    points: int
    seed: Optional[int]
    names: Tuple[str, ...]
    shard_size: int
    created: float
    shards: Tuple[ShardSpec, ...]

    # -- object keys -------------------------------------------------------

    @property
    def manifest_obj(self) -> str:
        return f"jobs/{self.salt}/{self.key}/manifest.json"

    @property
    def payload_obj(self) -> str:
        return f"jobs/{self.salt}/{self.key}/payload.pkl"

    # -- persistence -------------------------------------------------------

    def save(self, payload: bytes,
             store: Optional[CacheStore] = None) -> None:
        """Write payload then manifest (atomically, in that order)."""
        store = store if store is not None else open_store(self.root)
        store.put_atomic(self.payload_obj, payload)
        manifest = {
            "key": self.key,
            "salt": self.salt,
            "kind": self.kind,
            "axes": dict(self.axes),
            "points": self.points,
            "seed": self.seed,
            "names": list(self.names),
            "shard_size": self.shard_size,
            "created": self.created,
            "shards": [{"index": s.index, "start": s.start,
                        "stop": s.stop, "key": s.key} for s in self.shards],
        }
        store.put_atomic(self.manifest_obj, json.dumps(manifest).encode())

    def load_payload(self, store: Optional[CacheStore] = None,
                     ) -> Tuple[ExperimentPlan, Dict[str, Callable]]:
        """The plan and quantities this job executes."""
        store = store if store is not None else open_store(self.root)
        obj = store.get(self.payload_obj)
        if obj is None:
            raise OSError(f"job {self.key} has no payload under {self.root}")
        plan, quantities = pickle.loads(obj.data)
        return plan, quantities

    @classmethod
    def from_manifest(cls, root, data: bytes) -> Optional["DistribJob"]:
        """Parse one manifest payload; ``None`` if malformed/incomplete."""
        try:
            manifest = json.loads(data)
            shards = tuple(ShardSpec(index=int(s["index"]),
                                     start=int(s["start"]),
                                     stop=int(s["stop"]),
                                     key=str(s["key"]))
                           for s in manifest["shards"])
            return cls(root=root, key=str(manifest["key"]),
                       salt=str(manifest["salt"]),
                       kind=str(manifest["kind"]),
                       axes={str(k): int(v)
                             for k, v in manifest["axes"].items()},
                       points=int(manifest["points"]),
                       seed=(None if manifest["seed"] is None
                             else int(manifest["seed"])),
                       names=tuple(str(n) for n in manifest["names"]),
                       shard_size=int(manifest["shard_size"]),
                       created=float(manifest["created"]),
                       shards=shards)
        except (ValueError, KeyError, TypeError):
            return None

    @classmethod
    def load(cls, root, salt: str, key: str,
             store: Optional[CacheStore] = None) -> Optional["DistribJob"]:
        """The job submitted under ``(salt, key)``, or ``None``."""
        store = store if store is not None else open_store(root)
        obj = store.get(f"jobs/{salt}/{key}/manifest.json")
        if obj is None:
            return None
        return cls.from_manifest(root, obj.data)


def submit(plan: ExperimentPlan, quantities: Mapping[str, Callable], *,
           root=None, shard_size: int = DEFAULT_SHARD_SIZE,
           salt: Optional[str] = None,
           store: Optional[CacheStore] = None) -> DistribJob:
    """Partition *plan* into shards and publish the job under *root*.

    Idempotent: re-submitting an identical ``(plan, quantities)`` pair
    (same content key) returns the already-published job, so many
    machines may race to submit the same work.  Raises
    :class:`UnpicklablePayload` when the payload cannot be pickled.
    """
    if not quantities:
        raise ConfigurationError("at least one quantity is required")
    if root is None:
        root = default_cache_root()
    store = store if store is not None else open_store(root)
    salt = salt or code_version_salt()
    key = result_key(plan, quantities, salt=salt)
    existing = DistribJob.load(root, salt, key, store=store)
    if existing is not None:
        return existing
    try:
        payload = pickle.dumps((plan, dict(quantities)))
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise UnpicklablePayload(
            f"plan payload cannot cross a process boundary: {exc}") from exc
    shards = tuple(
        ShardSpec(index=i, start=start, stop=stop,
                  key=shard_key(key, start, stop))
        for i, (start, stop) in enumerate(plan.shard_ranges(shard_size)))
    job = DistribJob(root=root, key=key, salt=salt, kind=plan.kind,
                     axes=plan.describe_axes(), points=plan.point_count,
                     seed=plan.seed, names=tuple(quantities),
                     shard_size=shard_size, created=time.time(),
                     shards=shards)
    job.save(payload, store=store)
    return job


def list_jobs(root, salt: Optional[str] = None,
              store: Optional[CacheStore] = None,
              manifest_memo: Optional[Dict[str, Optional[DistribJob]]] = None,
              ) -> List[DistribJob]:
    """All submitted jobs under *root* (optionally one code version only).

    *manifest_memo* (manifest object key → parsed job) skips re-fetching
    manifests already seen: manifests are content-keyed and immutable, so
    a polling worker pays one GET per job *lifetime*, not per poll.
    """
    store = store if store is not None else open_store(root)
    jobs: List[DistribJob] = []
    for info in store.list("jobs/"):
        if not info.key.endswith("/manifest.json"):
            continue
        if manifest_memo is not None and info.key in manifest_memo:
            job = manifest_memo[info.key]
        else:
            obj = store.get(info.key)
            if obj is None:  # deleted between listing and fetch
                continue
            job = DistribJob.from_manifest(root, obj.data)
            if manifest_memo is not None:
                manifest_memo[info.key] = job
        if job is not None and (salt is None or job.salt == salt):
            jobs.append(job)
    return sorted(jobs, key=lambda job: (job.created, job.key))


def job_status(job: DistribJob,
               cache: Optional[ResultCache] = None) -> Dict[str, object]:
    """Shard-by-shard state of *job*: done / leased / expired / pending."""
    if cache is None:
        cache = ResultCache(root=job.root, mode="ro", salt=job.salt)
    shards: List[Dict[str, object]] = []
    done = 0
    for shard in job.shards:
        if cache.has_result(shard.key):
            state, owner = "done", None
            meta = cache.load_meta(shard.key)
            if meta is not None:
                owner = meta.get("worker")
            done += 1
        else:
            lease = cache.lease_info(shard.key)
            if lease is None:
                state, owner = "pending", None
            elif lease["expired"]:
                state, owner = "expired", lease["owner"]
            else:
                state, owner = "leased", lease["owner"]
        shards.append({"index": shard.index, "start": shard.start,
                       "stop": shard.stop, "key": shard.key,
                       "state": state, "owner": owner})
    return {
        "key": job.key,
        "salt": job.salt,
        "kind": job.kind,
        "points": job.points,
        "names": list(job.names),
        "created": job.created,
        "done": done,
        "total": len(job.shards),
        "complete": done == len(job.shards),
        "merged": cache.has_result(job.key),
        "shards": shards,
    }


def queue_summary(statuses: Sequence[Dict[str, object]],
                  now: Optional[float] = None) -> Dict[str, object]:
    """Fleet-level queue pressure, aggregated from :func:`job_status` dicts.

    The one signal the experiment service's overload gate and future
    fleet controllers share: ``queue_depth`` counts *claimable* shards
    (``pending`` plus ``expired`` — an expired lease is work waiting for
    a worker again), ``leased`` counts shards actively held, and
    ``oldest_unclaimed_age_s`` is the age of the oldest job that still
    has a claimable shard (``None`` when the queue is empty) — a queue
    that is shallow but *old* means the fleet is missing, not merely
    busy.
    """
    now = time.time() if now is None else now
    depth = 0
    leased = 0
    oldest_created: Optional[float] = None
    for status in statuses:
        claimable = sum(1 for shard in status["shards"]
                        if shard["state"] in ("pending", "expired"))
        leased += sum(1 for shard in status["shards"]
                      if shard["state"] == "leased")
        if claimable:
            depth += claimable
            created = float(status["created"])
            if oldest_created is None or created < oldest_created:
                oldest_created = created
    return {
        "jobs": len(statuses),
        "queue_depth": depth,
        "leased": leased,
        "oldest_unclaimed_age_s": (None if oldest_created is None
                                   else max(0.0, now - oldest_created)),
    }


def fleet_queue_stats(root,
                      store: Optional[CacheStore] = None,
                      ) -> Dict[str, object]:
    """:func:`queue_summary` over every job under *root* (one-call form)."""
    store = store if store is not None else open_store(root)
    return queue_summary([job_status(job)
                          for job in list_jobs(root, store=store)])


# ---------------------------------------------------------------------------
# Workers


def _presence_obj(wid: str) -> str:
    sanitized = wid.replace(":", "-").replace("/", "_")
    return f"workers/{sanitized}.json"


class WorkerListing(List[Dict[str, object]]):
    """The readable worker presences, plus a count of unreadable ones.

    A plain list of worker dicts (fully backward compatible) carrying a
    ``skipped`` attribute: how many presence objects were dropped because
    a concurrent reader observed a torn/partial write or a wrong-typed
    field.  Status surfaces must report the count rather than silently
    understate the fleet.
    """

    def __init__(self) -> None:
        super().__init__()
        self.skipped = 0


def list_workers(root,
                 store: Optional[CacheStore] = None,
                 ) -> WorkerListing:
    """Fleet presence: every worker that announced itself under *root*.

    Ages are clamped to zero: a worker whose clock runs ahead of the
    reader's would otherwise report a negative heartbeat age, and
    presence ages only answer "how long since we heard from it".
    """
    store = store if store is not None else open_store(root)
    workers = WorkerListing()
    now = time.time()
    for info in store.list("workers/"):
        obj = store.get(info.key)
        if obj is None:
            continue
        try:
            data = json.loads(obj.data)
            workers.append({"worker": str(data["worker"]),
                            "heartbeat": float(data["heartbeat"]),
                            "age_s": max(0.0, now - float(data["heartbeat"])),
                            "executed": int(data.get("executed", 0))})
        except (ValueError, KeyError, TypeError):
            # Torn/partial JSON from a non-atomic reader view, or a
            # foreign object under workers/: count it instead of crashing
            # (or silently hiding) the status surfaces.
            workers.skipped += 1
            continue
    return workers


class Worker:
    """One fleet member: scans jobs, claims shards, executes, publishes.

    Parameters
    ----------
    root:
        The shared cache root every fleet member reaches — a mounted
        directory, or an object-store bucket URL for shared-nothing
        fleets.
    lease_ttl:
        Seconds a claimed shard may go without a heartbeat before another
        worker may steal it.  A background thread heartbeats at a third
        of this while the shard executes, so expiry means the worker
        *process* died (killed, crashed, machine lost).  A process that
        is alive but wedged inside a quantity keeps heartbeating and
        keeps its lease — deliberately, because stealing a live worker's
        shard buys duplicated work, not progress; ``status`` names the
        lease owner so an operator can kill the wedged process, at which
        point the normal expiry/steal path completes the shard.
    executor_workers:
        Pool size of the per-shard :class:`Executor` (0 = serial inside
        the worker; the fleet itself is the parallelism).
    propagate_errors:
        Whether a shard whose quantity raises propagates the exception to
        the caller.  ``True`` for a coordinator's in-process worker (a
        quantity that cannot be evaluated is a modelling bug the
        experiment should surface, exactly as in a local run); ``False``
        (the daemon default) logs the failure, remembers the shard as
        poisoned and moves on — one broken submission must not serially
        crash every worker joined to the shared root.
    stall_after_claim:
        Test hook (``worker --stall``): claim one shard, keep heartbeating,
        never execute — emulates a worker wedged mid-shard so a test can
        kill it and prove lease reclaim.
    store:
        An explicit :class:`~repro.analysis.cache.CacheStore` instead of
        resolving *root* — how fault-injection tests wrap the backend.
    """

    def __init__(self, root, lease_ttl: float = DEFAULT_LEASE_TTL,
                 poll_s: float = DEFAULT_POLL_S,
                 executor_workers: int = 0,
                 propagate_errors: bool = False,
                 stall_after_claim: bool = False,
                 store: Optional[CacheStore] = None) -> None:
        if lease_ttl <= 0:
            raise ConfigurationError("lease_ttl must be > 0")
        self.root = root
        self.store = store if store is not None else open_store(root)
        self.id = worker_id()
        self.lease_ttl = lease_ttl
        self.poll_s = poll_s
        self.executor_workers = executor_workers
        self.propagate_errors = propagate_errors
        self.stall_after_claim = stall_after_claim
        self.executed = 0
        self._payloads: Dict[str, Tuple[ExperimentPlan,
                                        Dict[str, Callable]]] = {}
        self._manifests: Dict[str, Optional[DistribJob]] = {}
        self._resources: Dict[str, Tuple[ResultCache, Executor]] = {}
        self._skipped_salts: set = set()
        self._poisoned_shards: set = set()
        # Shard keys this worker has observed as published.  Results are
        # exclusive-create immutable, so a positive probe never needs
        # repeating — without this, every poll re-HEADs every completed
        # shard of every job against the shared root.
        self._done_shards: set = set()

    # -- fleet presence ----------------------------------------------------

    def announce(self) -> None:
        """Publish this worker's heartbeat for fleet monitoring/status."""
        self.store.put_atomic(_presence_obj(self.id), json.dumps({
            "worker": self.id, "pid": os.getpid(),
            "heartbeat": time.time(), "executed": self.executed,
        }).encode())

    def retire(self) -> None:
        """Remove this worker's presence object (graceful shutdown)."""
        try:
            self.store.delete(_presence_obj(self.id))
        except OSError:
            pass

    # -- shard execution ---------------------------------------------------

    def run_once(self) -> int:
        """One scan over every job; returns the number of shards executed."""
        executed = 0
        my_salt = code_version_salt()
        for job in list_jobs(self.root, store=self.store,
                             manifest_memo=self._manifests):
            if job.salt != my_salt:
                if job.salt not in self._skipped_salts:
                    self._skipped_salts.add(job.salt)
                    print(f"[{self.id}] skipping job {job.key[:12]}: "
                          f"code-version salt {job.salt} != {my_salt}")
                continue
            executed += self.process_job(job)
        self.executed += executed
        return executed

    def process_job(self, job: DistribJob) -> int:
        """Claim and execute every claimable pending shard of *job*."""
        cache, executor = self._resources_for(job)
        pending = []
        for shard in job.shards:
            if shard.key in self._done_shards:
                continue
            if cache.has_result(shard.key):
                self._done_shards.add(shard.key)
                continue
            pending.append(shard)
        if not pending:
            return 0
        try:
            plan, quantities = self._payload_for(job)
        except (OSError, pickle.UnpicklingError, AttributeError,
                ImportError, EOFError) as exc:
            # E.g. a payload referencing a module this machine does not
            # ship: leave the job to fleet members that can resolve it.
            print(f"[{self.id}] cannot load payload of {job.key[:12]}: {exc}")
            return 0
        executed = 0
        for shard in pending:
            if shard.key in self._poisoned_shards:
                continue
            if not cache.claim_lease(shard.key, self.id, ttl=self.lease_ttl):
                continue
            if self.stall_after_claim:
                self._hold_lease(cache, shard)
                continue
            try:
                try:
                    values, meta = self._execute_shard(
                        executor, plan, quantities, job, shard, cache)
                except Exception as exc:
                    if self.propagate_errors:
                        raise
                    # A quantity that raises is the submitter's bug; a
                    # daemon serving foreign submissions must survive it.
                    # Remember the shard so this worker does not hot-loop
                    # on it (other workers, and a participating
                    # coordinator, still may).
                    self._poisoned_shards.add(shard.key)
                    print(f"[{self.id}] shard {shard.index} of job "
                          f"{job.key[:12]} failed: {exc!r}; skipping",
                          flush=True)
                    continue
                # The publish sits OUTSIDE the poison handler: a storage
                # fault here is transient backend trouble, not a quantity
                # bug — it must propagate (the daemon loop retries next
                # poll), never poison a shard whose values computed fine.
                # if_absent: the loser of a stolen-lease race must never
                # re-publish (and clobber the provenance of) a shard a
                # survivor already landed.  The done-memo is NOT updated
                # here — only an *observed* result (next poll's probe)
                # counts, so a backend that acks a write it then loses
                # cannot trick this worker into abandoning the shard.
                cache.store_result(shard.key, values, meta=meta,
                                   if_absent=True)
                executed += 1
            finally:
                try:
                    cache.release_lease(shard.key, self.id)
                except OSError:
                    pass  # unreleased leases expire on their own TTL
        if executed:
            cache.merge_technologies(executor.cache.snapshot())
        return executed

    def _payload_for(self, job: DistribJob):
        if job.key not in self._payloads:
            self._payloads[job.key] = job.load_payload(self.store)
        return self._payloads[job.key]

    def _resources_for(self, job: DistribJob):
        # One cache handle and one executor per salt, memoised: polling
        # loops call process_job several times a second, and rebuilding
        # them would re-read the pickled technology store on every poll
        # (over NFS or HTTP, for a real fleet).  The shared executor also
        # lets a long-lived worker reuse Technology rebuilds across jobs.
        if job.salt not in self._resources:
            cache = ResultCache(root=self.root, mode="rw", salt=job.salt,
                                store=self.store)
            executor = Executor(workers=self.executor_workers)
            executor.cache.preload(cache.load_technologies())
            self._resources[job.salt] = (cache, executor)
        return self._resources[job.salt]

    def _execute_shard(self, executor: Executor, plan: ExperimentPlan,
                       quantities: Mapping[str, Callable], job: DistribJob,
                       shard: ShardSpec, cache: ResultCache):
        stop_beating = threading.Event()
        interval = max(self.lease_ttl / 3.0, 0.05)

        def beat() -> None:
            while not stop_beating.wait(interval):
                try:
                    if not cache.heartbeat_lease(shard.key, self.id):
                        return  # lease lost (stolen): stop quietly
                except OSError:
                    # A transient store fault is a *missed* beat, not a
                    # lost lease: keep trying — the lease survives as
                    # long as one beat lands per TTL.
                    continue

        heartbeat = threading.Thread(target=beat, daemon=True)
        heartbeat.start()
        hits_before = executor.cache.hits
        misses_before = executor.cache.misses
        started = time.perf_counter()
        try:
            values = executor.run_shard(plan, quantities,
                                        shard.start, shard.stop)
        finally:
            stop_beating.set()
            heartbeat.join()
        meta = {
            "job": job.key,
            "shard": shard.index,
            "start": shard.start,
            "stop": shard.stop,
            "points": shard.points,
            "worker": self.id,
            "wall_time_s": time.perf_counter() - started,
            "cache_hits": executor.cache.hits - hits_before,
            "cache_misses": executor.cache.misses - misses_before,
        }
        return values, meta

    def _hold_lease(self, cache: ResultCache, shard: ShardSpec) -> None:
        """``--stall`` test hook: heartbeat forever, never execute."""
        print(f"[{self.id}] stalling on shard {shard.index} "
              f"({shard.key[:12]})", flush=True)
        while cache.heartbeat_lease(shard.key, self.id):
            time.sleep(max(self.lease_ttl / 3.0, 0.05))

    # -- the daemon loop ---------------------------------------------------

    def run_forever(self, max_idle_s: Optional[float] = None) -> int:
        """Scan-execute-sleep until idle for *max_idle_s* (None = forever)."""
        last_work = time.monotonic()
        # Presence is monitoring data at lease-TTL granularity; announcing
        # on every poll would hammer the shared root (5 writes/s per idle
        # worker at the default poll) for no information gain.
        announce_every = max(self.lease_ttl / 3.0, self.poll_s)
        last_announce: Optional[float] = None
        try:
            while True:
                now = time.monotonic()
                try:
                    if (last_announce is None
                            or now - last_announce >= announce_every):
                        self.announce()
                        last_announce = now
                    if self.run_once() > 0:
                        last_work = time.monotonic()
                        continue
                except OSError as exc:
                    # A transient backend fault (an object-store blip, an
                    # NFS hiccup) must not kill the fleet: log, sleep,
                    # rescan.  Quantity errors are already handled inside
                    # process_job; what reaches here is storage I/O.
                    print(f"[{self.id}] store fault, retrying next poll: "
                          f"{exc}", flush=True)
                if (max_idle_s is not None
                        and time.monotonic() - last_work > max_idle_s):
                    return self.executed
                time.sleep(self.poll_s)
        finally:
            self.retire()


# ---------------------------------------------------------------------------
# Coordination


def merge_job(job: DistribJob, cache: Optional[ResultCache] = None):
    """Concatenate every shard slice of *job* in shard order.

    Returns ``(values, shard_metas)``.  Raises
    :class:`~repro.errors.ConfigurationError` if any shard payload is
    missing or malformed — merging never serves a partial result.
    """
    if cache is None:
        cache = ResultCache(root=job.root, mode="ro", salt=job.salt)
    names = list(job.names)
    values: Dict[str, List[float]] = {name: [] for name in names}
    metas: List[Dict[str, object]] = []
    for shard in job.shards:
        part = cache.load_result(shard.key, names, shard.points)
        if part is None:
            raise ConfigurationError(
                f"shard {shard.index} [{shard.start}, {shard.stop}) of job "
                f"{job.key} is missing or malformed; cannot merge")
        for name in names:
            values[name].extend(part[name])
        meta = cache.load_meta(shard.key) or {}
        metas.append({"shard": shard.index, "start": shard.start,
                      "stop": shard.stop, "points": shard.points,
                      "worker": str(meta.get("worker", "?")),
                      "wall_time_s": float(meta.get("wall_time_s", 0.0)),
                      "cache_hits": int(meta.get("cache_hits", 0)),
                      "cache_misses": int(meta.get("cache_misses", 0))})
    return values, tuple(metas)


def wait_for_job(job: DistribJob, *, participate: bool = True,
                 poll_s: float = DEFAULT_POLL_S,
                 timeout_s: Optional[float] = None,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 executor_workers: int = 0):
    """Block until every shard of *job* has landed, then merge.

    With ``participate=True`` (the default) the coordinator is itself a
    fleet member: it claims and executes whatever shards no worker holds,
    so progress never depends on external workers — a fleet only makes
    the job finish sooner.  Returns ``(values, shard_metas)`` and stores
    the merged values under the job key, so subsequent plain
    ``Executor(persistent=...)`` runs of the same plan hit the cache
    without re-coordination.
    """
    cache = ResultCache(root=job.root, mode="rw", salt=job.salt)
    local = None
    if participate:
        # propagate_errors: a coordinator surfaces quantity bugs to its
        # caller, exactly as a local Executor.run would.
        local = Worker(root=job.root, lease_ttl=lease_ttl, poll_s=poll_s,
                       executor_workers=executor_workers,
                       propagate_errors=True)
    deadline = (None if timeout_s is None
                else time.monotonic() + timeout_s)
    # Results are exclusive-create immutable: once a shard key probes
    # done it stays done, so remember it rather than re-probing every
    # completed shard on every poll (per-poll HEADs against an HTTP
    # backend would otherwise grow with the *finished* part of the job).
    done: set = set()
    while True:
        for shard in job.shards:
            if shard.key not in done and cache.has_result(shard.key):
                done.add(shard.key)
        if len(done) == len(job.shards):
            break
        try:
            if local is not None and local.process_job(job) > 0:
                continue
        except OSError as exc:
            # Same contract as the worker daemon's loop: a transient
            # backend fault (an object-store blip, an NFS hiccup) in a
            # claim or publish is retried next poll, bounded by the
            # deadline — quantity bugs still propagate (they are not
            # OSErrors raised by the store).
            print(f"[coordinator] store fault, retrying next poll: {exc}",
                  flush=True)
        if deadline is not None and time.monotonic() >= deadline:
            status = job_status(job, cache)
            raise DistribTimeout(
                f"job {job.key} timed out with "
                f"{status['done']}/{status['total']} shards done")
        time.sleep(poll_s)
    values, metas = merge_job(job, cache)
    # result_valid, not has_result: a pre-existing corrupt payload under
    # the job key must be overwritten, not preserved.
    if cache.writable and not cache.result_valid(job.key, list(job.names),
                                                 job.points):
        cache.store_result(job.key, values, meta={
            "kind": job.kind,
            "axes": dict(job.axes),
            "points": job.points,
            "seed": job.seed,
            "quantities": list(job.names),
            "distrib": True,
            "workers": sorted({str(m["worker"]) for m in metas}),
        })
    return values, metas


class DistribBackend:
    """The ``Executor(distrib=...)`` hook: partition → fleet → merge.

    Parameters
    ----------
    root:
        Shared cache root — a directory or an object-store bucket URL
        (default: the process's
        :func:`~repro.analysis.cache.default_cache_root`).
    shard_size:
        Points per shard (:data:`DEFAULT_SHARD_SIZE`).
    participate:
        Whether the submitting process also executes unclaimed shards
        (default ``True`` — never block on an empty fleet).
    timeout_s:
        Give up (:class:`DistribTimeout`) after this many seconds;
        ``None`` waits forever.
    """

    def __init__(self, root=None, shard_size: int = DEFAULT_SHARD_SIZE,
                 participate: bool = True,
                 poll_s: float = DEFAULT_POLL_S,
                 timeout_s: Optional[float] = None,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 executor_workers: int = 0) -> None:
        self.root = root if root is not None else default_cache_root()
        self.shard_size = shard_size
        self.participate = participate
        self.poll_s = poll_s
        self.timeout_s = timeout_s
        self.lease_ttl = lease_ttl
        self.executor_workers = executor_workers

    def __cache_fingerprint__(self) -> str:
        # Execution machinery: must not leak into content keys.
        return type(self).__name__

    def execute(self, plan: ExperimentPlan,
                quantities: Mapping[str, Callable]):
        """Distribute one plan; ``None`` when the payload cannot travel."""
        try:
            job = submit(plan, quantities, root=self.root,
                         shard_size=self.shard_size)
        except UnpicklablePayload:
            return None
        return wait_for_job(job, participate=self.participate,
                            poll_s=self.poll_s, timeout_s=self.timeout_s,
                            lease_ttl=self.lease_ttl,
                            executor_workers=self.executor_workers)


# ---------------------------------------------------------------------------
# The demo job and the CLI (python -m repro distrib)


def _selftest_delay(vdd: float) -> float:
    # Deliberately slowed so concurrent fleet workers interleave on the
    # shard queue instead of one worker draining it before the second boots.
    time.sleep(0.05)
    from repro.models.gate import GateModel
    from repro.models.technology import get_technology

    return GateModel(technology=get_technology("cmos90")).delay(vdd)


def selftest_plan() -> Tuple[ExperimentPlan, Dict[str, Callable]]:
    """The demo job: a 12-point Vdd sweep of two gate quantities.

    Usable as a CLI plan factory::

        python -m repro distrib run --root /shared/root \\
            --plan repro.analysis.distrib:selftest_plan
    """
    vdds = [0.25 + 0.05 * i for i in range(12)]
    return (ExperimentPlan.sweep("vdd", vdds),
            {"delay": _selftest_delay, "energy": _selftest_energy})


def _load_plan_factory(spec: str):
    """Resolve ``MODULE:CALLABLE`` into a ``(plan, quantities)`` pair."""
    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise ConfigurationError(
            f"--plan needs MODULE:CALLABLE, got {spec!r}")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ConfigurationError(
            f"--plan {spec!r}: cannot import module {module_name!r} "
            f"({exc})") from exc
    try:
        factory = getattr(module, attr)
    except AttributeError as exc:
        raise ConfigurationError(
            f"--plan {spec!r}: module {module_name!r} has no attribute "
            f"{attr!r}") from exc
    try:
        built = factory() if callable(factory) else factory
    except ConfigurationError:
        raise
    except Exception as exc:
        raise ConfigurationError(
            f"--plan {spec!r}: factory raised "
            f"{type(exc).__name__}: {exc}") from exc
    try:
        plan, quantities = built
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"plan factory {spec!r} must return (plan, quantities)") from exc
    return plan, quantities


def register_cli(parser) -> None:
    """``python -m repro distrib``: ``worker`` / ``submit`` / ``status`` /
    ``run`` over a shared root."""
    parser.description = ("Sharded multi-machine experiment execution over "
                          "a shared cache root.")
    commands = parser.add_subparsers(metavar="SUBCOMMAND")

    def add_command(name: str, help_text: str, func):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--root", required=True,
                         help="the shared cache root: a directory or an "
                              "object-store bucket URL "
                              "(http://host:port/bucket)")
        sub.set_defaults(func=func)
        return sub

    worker_cmd = add_command(
        "worker", "join the fleet: claim, execute and publish shards",
        _worker_cmd)
    worker_cmd.add_argument("--lease-ttl", type=float,
                            default=DEFAULT_LEASE_TTL,
                            help="seconds without a heartbeat before this "
                                 "worker's shard may be stolen")
    worker_cmd.add_argument("--poll", type=float, default=DEFAULT_POLL_S,
                            help="idle scan interval in seconds")
    worker_cmd.add_argument("--executor-workers", type=int, default=0,
                            help="per-shard pool size (0 = serial)")
    worker_cmd.add_argument("--max-idle", type=float, default=None,
                            help="exit after this many idle seconds "
                                 "(default: run forever)")
    worker_cmd.add_argument("--once", action="store_true",
                            help="one scan pass, then exit")
    worker_cmd.add_argument("--stall", action="store_true",
                            help="test hook: claim one shard, heartbeat, "
                                 "never execute")

    submit_cmd = add_command(
        "submit", "partition a plan into shards and publish the job",
        _submit_cmd)
    submit_cmd.add_argument("--plan", required=True,
                            help="MODULE:CALLABLE returning "
                                 "(plan, quantities)")
    submit_cmd.add_argument("--shard-size", type=int,
                            default=DEFAULT_SHARD_SIZE,
                            help="points per shard")

    status_cmd = add_command(
        "status", "per-job shard states and fleet presence", _status_cmd)
    status_cmd.add_argument("--json", action="store_true",
                            help="machine-readable output")

    run_cmd = add_command(
        "run", "submit, participate, block until merged", _run_cmd)
    run_cmd.add_argument("--plan", required=True,
                         help="MODULE:CALLABLE returning (plan, quantities)")
    run_cmd.add_argument("--shard-size", type=int,
                         default=DEFAULT_SHARD_SIZE,
                         help="points per shard")
    run_cmd.add_argument("--no-participate", action="store_true",
                         help="coordinate only; leave execution to the fleet")
    run_cmd.add_argument("--timeout", type=float, default=None,
                         help="give up after this many seconds")


def _worker_cmd(args) -> int:
    worker = Worker(root=args.root, lease_ttl=args.lease_ttl,
                    poll_s=args.poll, executor_workers=args.executor_workers,
                    stall_after_claim=args.stall)
    print(f"worker {worker.id} joining fleet at {args.root}", flush=True)
    if args.once:
        worker.announce()
        executed = worker.run_once()
        worker.retire()
        print(f"worker {worker.id} executed {executed} shard(s)")
        return 0
    executed = worker.run_forever(max_idle_s=args.max_idle)
    print(f"worker {worker.id} idle; executed {executed} shard(s)")
    return 0


def _submit_cmd(args) -> int:
    plan, quantities = _load_plan_factory(args.plan)
    job = submit(plan, quantities, root=args.root,
                 shard_size=args.shard_size)
    print(f"submitted job {job.key}: {job.points} point(s) in "
          f"{len(job.shards)} shard(s) under {args.root}")
    return 0


def _status_cmd(args) -> int:
    jobs = [job_status(job) for job in list_jobs(args.root)]
    workers = list_workers(args.root)
    queue = queue_summary(jobs)
    if args.json:
        print(json.dumps({"jobs": jobs, "workers": list(workers),
                          "workers_skipped": workers.skipped,
                          "queue_depth": queue["queue_depth"],
                          "leased": queue["leased"],
                          "oldest_unclaimed_age_s":
                              queue["oldest_unclaimed_age_s"]},
                         indent=2, sort_keys=True))
        return 0
    if not jobs:
        print("no jobs submitted")
    for status in jobs:
        merged = " merged" if status["merged"] else ""
        print(f"job {status['key'][:16]}… [{status['kind']}] "
              f"{status['done']}/{status['total']} shard(s) done"
              f"{merged}")
        for shard in status["shards"]:
            owner = f" by {shard['owner']}" if shard["owner"] else ""
            print(f"  shard {shard['index']:3d} "
                  f"[{shard['start']}, {shard['stop']}): "
                  f"{shard['state']}{owner}")
    if queue["queue_depth"]:
        print(f"queue: {queue['queue_depth']} unclaimed shard(s) "
              f"({queue['leased']} leased), oldest waiting "
              f"{queue['oldest_unclaimed_age_s']:.1f}s")
    if workers:
        print("workers:")
        for info in workers:
            print(f"  {info['worker']}: {info['executed']} shard(s), "
                  f"heartbeat {info['age_s']:.1f}s ago")
    if workers.skipped:
        print(f"  ({workers.skipped} unreadable worker presence "
              "object(s) skipped)")
    return 0


def _run_cmd(args) -> int:
    plan, quantities = _load_plan_factory(args.plan)
    job = submit(plan, quantities, root=args.root,
                 shard_size=args.shard_size)
    print(f"coordinating job {job.key} "
          f"({len(job.shards)} shard(s))...", flush=True)
    values, metas = wait_for_job(job, participate=not args.no_participate,
                                 timeout_s=args.timeout)
    workers = sorted({str(m["worker"]) for m in metas})
    print(f"merged {job.points} point(s) of "
          f"{', '.join(job.names)} from {len(metas)} shard(s) "
          f"executed by {len(workers)} worker(s): {', '.join(workers)}")
    return 0
