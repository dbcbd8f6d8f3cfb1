"""The multi-tenant experiment service: scheduler + gate + one Session.

:class:`ExperimentService` is the tier above
:class:`~repro.analysis.session.Session`: where a session serves one
process, the service serves many concurrent *tenants* submitting plans
over HTTP (:mod:`repro.analysis.serve.http`).  It owns exactly one
session, so every admitted plan inherits the whole execution stack —
process pool, batched kernels, shared
:class:`~repro.analysis.runner.TechnologyCache`, persistent
:class:`~repro.analysis.cache.ResultCache`, distrib fleet sharding —
unchanged, and every served result is bit-identical to a direct
``Session.run`` of the same plan (the engine's ordering/seeding
contract; nothing between the wire and the executor touches values).

The flow of one submission::

    POST body ──parse──▶ tickets ──AdmissionGate──▶ scheduler queue
                                        │429              │
                                        ▼                 ▼ (fair order)
                                   refused          dispatcher threads
                                                          │
                                                    session.run(plan)
                                                          │
                                                  PlanRecord: done

* Parsing accepts the ``run MODULE:FACTORY`` wire format (the exact
  spec string ``python -m repro run --plan`` and ``distrib submit``
  take) or a *campaign reference* (``{"campaign": NAME|FILE}``,
  optionally smoke-trimmed / filtered to labelled runs) that expands to
  one ticket per planned run.
* The :class:`~repro.analysis.serve.admission.AdmissionGate` refuses the
  whole submission (HTTP 429 + retry hint) past the queue-depth /
  queued-cost watermark; admitted plans are never throttled mid-flight.
* The :class:`~repro.analysis.serve.scheduler.PlanScheduler` (FIFO
  baseline or the fair-share :class:`VTCScheduler
  <repro.analysis.serve.scheduler.VTCScheduler>`) orders the queue
  across tenants; a fixed pool of dispatcher threads drains it through
  ``session.run``.
* Every plan's lifecycle lives in a :class:`PlanRecord`
  (``queued → running → done | failed``) whose terminal state carries
  the full :class:`~repro.analysis.runner.RunRecord` provenance;
  :meth:`ExperimentService.wait_for` long-polls state transitions for
  the streaming-status endpoint.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.serve.admission import AdmissionGate, OverloadedError
from repro.analysis.serve.scheduler import (
    PlanScheduler,
    PlanTicket,
    estimate_cost,
    make_scheduler,
)
from repro.analysis.session import RunConfig, Session
from repro.errors import ConfigurationError

__all__ = ["DEFAULT_DISPATCHERS", "ExperimentService", "PlanRecord"]

#: Dispatcher threads draining the queue (the *inter*-plan concurrency;
#: intra-plan parallelism belongs to the session's executor/fleet).
DEFAULT_DISPATCHERS = 2

#: Default tenant when a submission names none.
ANONYMOUS_TENANT = "anonymous"

_TERMINAL_STATES = ("done", "failed")


@dataclass
class PlanRecord:
    """Lifecycle of one admitted plan, from POST to terminal state."""

    plan_id: str
    tenant: str
    #: The wire spec that produced this plan (``MODULE:FACTORY`` or a
    #: campaign reference); informational.
    spec: str
    #: Campaign run label (empty for direct plan submissions).
    label: str
    kind: str
    axes: Dict[str, int]
    points: int
    quantities: Tuple[str, ...]
    cost: float
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Global completion sequence number (0-based, terminal states only)
    #: — the observable the fairness checks order by.
    completed_seq: Optional[int] = None
    error: Optional[str] = None
    #: ``RunRecord.as_dict()`` of the finished run.
    provenance: Optional[Dict[str, object]] = None
    #: Per-point values of the finished run (served by ``…/result``).
    values: Optional[Dict[str, List[float]]] = None

    def as_dict(self, with_values: bool = False) -> Dict[str, object]:
        """The JSON the status/result endpoints serve."""
        payload: Dict[str, object] = {
            "id": self.plan_id,
            "tenant": self.tenant,
            "spec": self.spec,
            "label": self.label,
            "kind": self.kind,
            "axes": dict(self.axes),
            "points": self.points,
            "quantities": list(self.quantities),
            "cost": self.cost,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "completed_seq": self.completed_seq,
            "error": self.error,
            "provenance": self.provenance,
        }
        if with_values:
            payload["values"] = self.values
        return payload


class ExperimentService:
    """Admission, fair-share scheduling and execution over one Session.

    Parameters
    ----------
    config:
        The :class:`~repro.analysis.session.RunConfig` the owned session
        is wired from (``None`` = the usual resolution chain); ignored
        when *session* is given.
    session:
        An existing session to execute on (the service then does *not*
        close it).
    scheduler:
        Scheduler name (``"vtc"`` — the default — or ``"fifo"``) or a
        ready :class:`~repro.analysis.serve.scheduler.PlanScheduler`.
    dispatchers:
        Dispatcher threads draining the queue.
    max_queue_depth / max_queued_cost:
        The admission gate's watermarks (``max_queued_cost=None``
        disables the cost watermark).
    start:
        ``False`` leaves the dispatchers unspawned until :meth:`start`
        — submissions queue but nothing executes, which is how the
        tests stage deterministic multi-tenant backlogs.
    """

    def __init__(self, config: Optional[RunConfig] = None, *,
                 session: Optional[Session] = None,
                 scheduler: "str | PlanScheduler" = "vtc",
                 dispatchers: int = DEFAULT_DISPATCHERS,
                 max_queue_depth: int = 64,
                 max_queued_cost: Optional[float] = 100_000.0,
                 start: bool = True) -> None:
        if dispatchers < 1:
            raise ConfigurationError("dispatchers must be >= 1")
        if session is not None:
            self.session, self._owns_session = session, False
        else:
            self.session = Session(config)
            self._owns_session = True
        if isinstance(scheduler, PlanScheduler):
            self.scheduler = scheduler
        else:
            self.scheduler = make_scheduler(scheduler)
        self.gate = AdmissionGate(max_depth=max_queue_depth,
                                  max_cost=max_queued_cost)
        self.dispatchers = dispatchers
        # Uptime is a duration: monotonic, so a wall-clock step cannot
        # make it jump or go negative (record stamps stay wall time).
        self._started = time.monotonic()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._records: Dict[str, PlanRecord] = {}
        self._tickets: Dict[str, PlanTicket] = {}
        self._next_id = 0
        self._completed = 0
        self._running = 0
        self._stop = False
        self._threads: List[threading.Thread] = []
        if start:
            self.start()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ExperimentService":
        """Spawn the dispatcher threads (idempotent)."""
        with self._lock:
            if self._stop:
                raise ConfigurationError("service is closed")
            missing = self.dispatchers - len(self._threads)
            for index in range(max(0, missing)):
                thread = threading.Thread(
                    target=self._dispatch_loop,
                    name=f"repro-serve-dispatch-{len(self._threads)}",
                    daemon=True)
                self._threads.append(thread)
                thread.start()
        return self

    def close(self) -> None:
        """Finish in-flight plans, stop dispatching, release the session.

        Plans still queued stay ``queued`` (an operator restarting the
        service resubmits them); plans already running complete — the
        no-mid-flight-throttling invariant holds even at shutdown.
        """
        with self._cond:
            self._stop = True
            self._cond.notify_all()
            # Detach the thread list under the lock (start() appends under
            # it), then join outside it — joining while holding the lock
            # would deadlock dispatchers draining their last plan.
            threads, self._threads = self._threads, []
        for thread in threads:
            thread.join(timeout=60)
        if self._owns_session:
            self.session.close()

    def __enter__(self) -> "ExperimentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission --------------------------------------------------------

    def submit(self, body: Dict[str, object]) -> List[Dict[str, object]]:
        """Admit one wire submission; returns the created plan records.

        *body* is the parsed JSON of ``POST /v1/plans``: a ``tenant``
        plus either ``plan`` (``MODULE:FACTORY``) or ``campaign``
        (bundled name or TOML path, with optional ``smoke`` and ``runs``
        label filter).  Raises
        :class:`~repro.analysis.serve.admission.OverloadedError` when
        the gate refuses (the whole submission — campaign expansion is
        atomic) and :class:`~repro.errors.ConfigurationError` on a
        malformed body.
        """
        tenant, entries = self._parse(body)
        new_cost = sum(cost for _, _, _, _, cost in entries)
        with self._cond:
            if self._stop:
                raise ConfigurationError("service is closed")
            decision = self.gate.decide(
                new_plans=len(entries), new_cost=new_cost,
                depth=self.scheduler.depth(),
                queued_cost=self.scheduler.queued_cost())
            if not decision.admitted:
                raise OverloadedError(decision)
            records = []
            for spec, label, plan, quantities, cost in entries:
                plan_id = f"p{self._next_id:06d}"
                self._next_id += 1
                record = PlanRecord(
                    plan_id=plan_id, tenant=tenant, spec=spec, label=label,
                    kind=plan.kind, axes=plan.describe_axes(),
                    points=plan.point_count, quantities=tuple(quantities),
                    cost=cost)
                self._records[plan_id] = record
                ticket = PlanTicket(plan_id=plan_id, tenant=tenant,
                                    plan=plan, quantities=dict(quantities),
                                    cost=cost)
                self._tickets[plan_id] = ticket
                self.scheduler.enqueue(ticket)
                records.append(record.as_dict())
            self._cond.notify_all()
        return records

    @staticmethod
    def _parse(body) -> Tuple[str, List[Tuple]]:
        """Validate a wire submission into ``(tenant, entries)``.

        Each entry is ``(spec, label, plan, quantities, cost)``.
        """
        if not isinstance(body, dict):
            raise ConfigurationError(
                f"submission must be a JSON object, got {type(body).__name__}")
        tenant = body.get("tenant", ANONYMOUS_TENANT)
        if not isinstance(tenant, str) or not tenant.strip():
            raise ConfigurationError(
                f"tenant must be a non-empty string, got {tenant!r}")
        tenant = tenant.strip()
        plan_spec = body.get("plan")
        campaign_spec = body.get("campaign")
        if (plan_spec is None) == (campaign_spec is None):
            raise ConfigurationError(
                "submission needs exactly one of 'plan' (MODULE:FACTORY) "
                "or 'campaign' (bundled name or TOML path)")
        unknown = sorted(set(body) - {"tenant", "plan", "campaign",
                                      "smoke", "runs"})
        if unknown:
            raise ConfigurationError(
                f"unknown submission key(s): {', '.join(unknown)}")
        entries: List[Tuple] = []
        if plan_spec is not None:
            if not isinstance(plan_spec, str):
                raise ConfigurationError(
                    f"'plan' must be a MODULE:FACTORY string, "
                    f"got {plan_spec!r}")
            from repro.analysis.distrib import _load_plan_factory

            plan, quantities = _load_plan_factory(plan_spec)
            entries.append((plan_spec, "", plan, dict(quantities),
                            estimate_cost(plan, quantities)))
            return tenant, entries
        if not isinstance(campaign_spec, str):
            raise ConfigurationError(
                f"'campaign' must be a bundled name or TOML path, "
                f"got {campaign_spec!r}")
        from repro.analysis.campaign.spec import (
            builtin_campaign_path,
            compile_campaign,
            load_campaign,
        )

        path = campaign_spec
        if not campaign_spec.endswith(".toml"):
            path = builtin_campaign_path(campaign_spec)
        spec = load_campaign(path)
        if body.get("smoke"):
            spec = spec.trimmed()
        compiled = compile_campaign(spec)
        runs = compiled.runs
        labels = body.get("runs")
        if labels is not None:
            if (not isinstance(labels, list)
                    or not all(isinstance(item, str) for item in labels)):
                raise ConfigurationError(
                    f"'runs' must be a list of run labels, got {labels!r}")
            by_label = {run.label: run for run in compiled.runs}
            missing = sorted(set(labels) - set(by_label))
            if missing:
                raise ConfigurationError(
                    f"campaign {campaign_spec!r} has no run(s) "
                    f"{', '.join(missing)}")
            runs = tuple(by_label[label] for label in labels)
        for run in runs:
            entries.append((campaign_spec, run.label, run.plan,
                            dict(run.quantities),
                            estimate_cost(run.plan, run.quantities)))
        return tenant, entries

    # -- dispatch ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                ticket = None
                while not self._stop:
                    ticket = self.scheduler.pop()
                    if ticket is not None:
                        break
                    self._cond.wait()
                if ticket is None:  # stopping, nothing claimed
                    return
                record = self._records[ticket.plan_id]
                record.state = "running"
                record.started_at = time.time()
                self._running += 1
                self._cond.notify_all()
            try:
                result = self.session.run(ticket.plan, ticket.quantities)
            except Exception as exc:  # a quantity raised: the plan failed
                with self._cond:
                    self._running -= 1
                    record.state = "failed"
                    record.error = f"{type(exc).__name__}: {exc}"
                    record.finished_at = time.time()
                    record.completed_seq = self._completed
                    self._completed += 1
                    self._tickets.pop(ticket.plan_id, None)
                    self._cond.notify_all()
                continue
            provenance = result.provenance
            self.gate.record_completion(ticket.cost,
                                        provenance.wall_time_s)
            with self._cond:
                self._running -= 1
                record.state = "done"
                record.values = result.values
                record.provenance = provenance.as_dict()
                record.finished_at = time.time()
                record.completed_seq = self._completed
                self._completed += 1
                self._tickets.pop(ticket.plan_id, None)
                self._cond.notify_all()

    # -- queries -----------------------------------------------------------

    def record(self, plan_id: str,
               with_values: bool = False) -> Optional[Dict[str, object]]:
        """The record of *plan_id* as served JSON, or ``None``."""
        with self._lock:
            record = self._records.get(plan_id)
            return None if record is None else record.as_dict(with_values)

    def wait_for(self, plan_id: str, known_state: Optional[str] = None,
                 timeout_s: float = 30.0) -> Optional[Dict[str, object]]:
        """Long-poll: block until the plan leaves *known_state*.

        Returns as soon as the record's state differs from
        *known_state* (or is terminal), or after *timeout_s* — always
        with the current record, so a poll loop converges even on
        timeout.  ``known_state=None`` waits for any terminal state.
        """
        deadline = time.monotonic() + max(0.0, timeout_s)
        with self._cond:
            while True:
                record = self._records.get(plan_id)
                if record is None:
                    return None
                if known_state is None:
                    if record.state in _TERMINAL_STATES:
                        return record.as_dict()
                elif record.state != known_state:
                    return record.as_dict()
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._stop:
                    return record.as_dict()
                self._cond.wait(timeout=remaining)

    def status(self) -> Dict[str, object]:
        """The ``GET /v1/status`` payload: queue, tenants, caches, fleet."""
        with self._lock:
            states = {"queued": 0, "running": 0, "done": 0, "failed": 0}
            tenants: Dict[str, Dict[str, int]] = {}
            for record in self._records.values():
                states[record.state] = states.get(record.state, 0) + 1
                entry = tenants.setdefault(record.tenant,
                                           {"submitted": 0, "completed": 0,
                                            "failed": 0})
                entry["submitted"] += 1
                if record.state == "done":
                    entry["completed"] += 1
                elif record.state == "failed":
                    entry["failed"] += 1
            scheduler = self.scheduler.describe()
        cache = self.session.cache
        payload: Dict[str, object] = {
            "uptime_s": time.monotonic() - self._started,
            "dispatchers": self.dispatchers,
            "scheduler": scheduler,
            "admission": self.gate.describe(),
            "plans": states,
            "tenants": tenants,
            "config": self.session.config.describe(),
            "technology_cache": {"entries": len(cache),
                                 "hits": cache.hits,
                                 "misses": cache.misses},
        }
        persistent = self.session.persistent
        if persistent is not None:
            try:
                payload["cache"] = persistent.stats()
            except OSError as exc:  # status must not die with the store
                payload["cache"] = {"error": str(exc)}
        distrib = self.session.distrib
        if distrib is not None:
            from repro.analysis.distrib import fleet_queue_stats

            try:
                payload["distrib"] = fleet_queue_stats(distrib.root)
            except OSError as exc:
                payload["distrib"] = {"error": str(exc)}
        return payload
