"""Fair-share plan scheduling for the multi-tenant experiment service.

The service admits plans from many tenants into one queue and hands them
to a shared :class:`~repro.analysis.session.Session`.  *Which* queued
plan runs next is this module's only concern, behind one dispatch
interface (:class:`PlanScheduler`) with two implementations:

* :class:`FIFOScheduler` — the baseline: global arrival order,
  tenant-blind.  A tenant that bursts 50 plans makes every other tenant
  wait behind all 50.
* :class:`VTCScheduler` — fair share via per-tenant *virtual-time
  counters*, modeled on the fairserve ``VTCScheduler`` exemplar.  Each
  tenant carries a counter of virtual time consumed, weighted by the
  estimated point-cost of its dispatched plans
  (:func:`estimate_cost`); dispatch always picks the backlogged tenant
  with the *smallest* counter.  A burst tenant's counter races ahead
  after a few dispatches, so a steady tenant's plans interleave instead
  of queuing behind the burst — the no-starvation invariant the service
  tests pin.

  A tenant arriving with an empty queue has its counter *lifted* to the
  smallest counter among currently backlogged tenants (never lowered):
  idle time earns no banked credit with which to starve everyone later,
  but a newcomer also never starts behind the pack.

Schedulers order work; they never reject it (that is the admission
gate's job, :mod:`repro.analysis.serve.admission`) and never touch plans
already dispatched.  They are deliberately unsynchronized — the owning
:class:`~repro.analysis.serve.service.ExperimentService` serializes
every call under its queue lock — and deterministic: ties break on
``(arrival sequence)`` for FIFO and ``(counter, tenant name, arrival)``
for VTC, so a replay of the same submission order dispatches in the
same order.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Mapping, Optional, Tuple

from repro.analysis.runner import ExperimentPlan
from repro.errors import ConfigurationError

__all__ = [
    "FIFOScheduler",
    "PlanScheduler",
    "PlanTicket",
    "SCHEDULERS",
    "VTCScheduler",
    "estimate_cost",
    "make_scheduler",
]


def estimate_cost(plan: ExperimentPlan,
                  quantities: Mapping[str, Callable]) -> float:
    """Estimated cost of one plan: points × quantities evaluated.

    The unit is "quantity evaluations" — the same proxy the distrib
    layer shards by.  It weights both the virtual-time counters (a
    100-point plan consumes 100× the fair share of a 1-point plan) and
    the admission gate's queued-cost watermark.  Deliberately a static
    estimate: admission must answer before anything executes.
    """
    return float(plan.point_count * max(1, len(quantities)))


@dataclass
class PlanTicket:
    """One admitted plan waiting for (or holding) a dispatch slot."""

    #: Service-assigned id (``p000001`` …), unique per service lifetime.
    plan_id: str
    #: The tenant the fair-share accounting charges this plan to.
    tenant: str
    plan: ExperimentPlan
    quantities: Dict[str, Callable]
    #: :func:`estimate_cost` of the plan, fixed at admission.
    cost: float
    #: Monotonic arrival sequence number (assigned by the scheduler).
    seq: int = field(default=-1, compare=False)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self.quantities)


class PlanScheduler:
    """The dispatch interface the service drives.

    ``enqueue`` accepts an admitted ticket; ``pop`` returns the next
    ticket to execute (``None`` when idle); ``depth``/``queued_cost``
    feed the admission gate's watermarks; ``describe`` feeds
    ``GET /v1/status``.  Implementations must be deterministic given the
    same call sequence and must never drop or reorder a tenant's *own*
    tickets (per-tenant FIFO: a tenant's plans run in its submission
    order — fairness decides *between* tenants, not within one).
    """

    #: Registry name (``scheduler=`` spelling); set by subclasses.
    name = "base"

    def __init__(self) -> None:
        self._seq = itertools.count()

    def enqueue(self, ticket: PlanTicket) -> None:
        raise NotImplementedError

    def pop(self) -> Optional[PlanTicket]:
        raise NotImplementedError

    def depth(self) -> int:
        raise NotImplementedError

    def queued_cost(self) -> float:
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        raise NotImplementedError

    def _stamp(self, ticket: PlanTicket) -> PlanTicket:
        ticket.seq = next(self._seq)
        return ticket


class FIFOScheduler(PlanScheduler):
    """Global arrival order — the tenant-blind baseline."""

    name = "fifo"

    def __init__(self) -> None:
        super().__init__()
        self._queue: Deque[PlanTicket] = deque()

    def enqueue(self, ticket: PlanTicket) -> None:
        self._queue.append(self._stamp(ticket))

    def pop(self) -> Optional[PlanTicket]:
        return self._queue.popleft() if self._queue else None

    def depth(self) -> int:
        return len(self._queue)

    def queued_cost(self) -> float:
        return sum(ticket.cost for ticket in self._queue)

    def describe(self) -> Dict[str, object]:
        tenants: Dict[str, int] = {}
        for ticket in self._queue:
            tenants[ticket.tenant] = tenants.get(ticket.tenant, 0) + 1
        return {
            "scheduler": self.name,
            "depth": self.depth(),
            "queued_cost": self.queued_cost(),
            "queued_by_tenant": tenants,
        }


class VTCScheduler(PlanScheduler):
    """Fair share through per-tenant virtual-time counters.

    ``counters[tenant]`` is the point-cost the scheduler has dispatched
    on that tenant's behalf, ever (monotone, never reset while the
    service lives).  ``pop`` picks the backlogged tenant with the
    smallest counter — ties broken by tenant name, then arrival — pops
    its oldest ticket and charges the ticket's cost to the counter.
    """

    name = "vtc"

    def __init__(self) -> None:
        super().__init__()
        #: tenant -> per-tenant FIFO of waiting tickets.
        self._queues: "OrderedDict[str, Deque[PlanTicket]]" = OrderedDict()
        #: tenant -> virtual time consumed (cost units).
        self.counters: Dict[str, float] = {}
        #: tenant -> plans dispatched (for the status surface).
        self.dispatched: Dict[str, int] = {}

    def enqueue(self, ticket: PlanTicket) -> None:
        tenant = ticket.tenant
        backlog = self._queues.get(tenant)
        if not backlog:
            # The fairserve "counter lift": a tenant returning from idle
            # starts at the floor of the currently backlogged pack —
            # no banked credit from idle time, no head start either.
            floor = min((self.counters[t] for t, q in self._queues.items()
                         if q), default=None)
            current = self.counters.get(tenant, 0.0)
            if floor is not None:
                current = max(current, floor)
            self.counters[tenant] = current
            if backlog is None:
                backlog = self._queues.setdefault(tenant, deque())
        self.counters.setdefault(tenant, 0.0)
        backlog.append(self._stamp(ticket))

    def pop(self) -> Optional[PlanTicket]:
        candidates = [(self.counters[tenant], tenant, queue[0].seq)
                      for tenant, queue in self._queues.items() if queue]
        if not candidates:
            return None
        _, tenant, _ = min(candidates)
        ticket = self._queues[tenant].popleft()
        self.counters[tenant] += ticket.cost
        self.dispatched[tenant] = self.dispatched.get(tenant, 0) + 1
        return ticket

    def depth(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def queued_cost(self) -> float:
        return sum(ticket.cost for queue in self._queues.values()
                   for ticket in queue)

    def describe(self) -> Dict[str, object]:
        return {
            "scheduler": self.name,
            "depth": self.depth(),
            "queued_cost": self.queued_cost(),
            "queued_by_tenant": {tenant: len(queue) for tenant, queue
                                 in self._queues.items() if queue},
            "virtual_time": dict(sorted(self.counters.items())),
            "dispatched": dict(sorted(self.dispatched.items())),
        }


#: scheduler name -> class, the CLI's ``--scheduler`` choices.
SCHEDULERS: Dict[str, type] = {FIFOScheduler.name: FIFOScheduler,
                               VTCScheduler.name: VTCScheduler}


def make_scheduler(name: str) -> PlanScheduler:
    """Instantiate a registered scheduler by name (default spelling)."""
    try:
        return SCHEDULERS[name]()
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown scheduler {name!r}; "
            f"choose from {', '.join(sorted(SCHEDULERS))}") from exc
