"""Event objects scheduled by the simulation kernel."""

from __future__ import annotations

import enum
import itertools
from typing import Callable

#: Monotonic tiebreaker so simultaneous events pop in scheduling order.
_SEQUENCE = itertools.count()


class EventKind(enum.Enum):
    """Categories of events, used by probes and trace filtering."""

    #: A signal changes value (the bread-and-butter logic event).
    SIGNAL = "signal"
    #: A generic callback with no associated signal (controllers, sources).
    CALLBACK = "callback"
    #: A supply-voltage update (AC supplies, harvester steps).
    SUPPLY = "supply"
    #: A probe sampling instant.
    SAMPLE = "sample"


class Event:
    """One scheduled occurrence.

    The queue orders events by ``(time, priority, sequence)`` so it is
    stable: two events at the same instant fire in the order they were
    scheduled unless their priorities differ (lower priority value fires
    first).  The event itself is a plain record; the
    :class:`~repro.sim.simulator.Simulator` validates *time* once, when the
    event is scheduled.
    """

    __slots__ = ("time", "action", "kind", "priority", "label", "cancelled",
                 "sequence")

    def __init__(self, time: float, action: Callable[[], None],
                 kind: EventKind = EventKind.CALLBACK, priority: int = 0,
                 label: str = "") -> None:
        self.time = time
        self.action = action
        self.kind = kind
        self.priority = priority
        self.label = label
        self.cancelled = False
        self.sequence = next(_SEQUENCE)

    def cancel(self) -> None:
        """Mark the event as cancelled; the kernel skips cancelled events.

        Cancellation is how inertial-delay style behaviour is implemented:
        a gate that re-evaluates before its pending output event fires can
        cancel the stale event and schedule a fresh one.
        """
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        label = f" {self.label!r}" if self.label else ""
        return f"<Event t={self.time:.3e}s {self.kind.value}{label}{state}>"

