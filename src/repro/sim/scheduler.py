"""Priority event queue used by the simulation kernel."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterator, List, Optional, Tuple

from repro.sim.events import Event

#: One heap entry: ``(time, priority, sequence, event)``.  The sequence is
#: unique, so tuple comparison never reaches the event itself.
_Entry = Tuple[float, int, int, Event]


class EventQueue:
    """A binary-heap event queue with lazy deletion of cancelled events.

    The kernel only ever needs two operations — push and pop-earliest (up
    to a time bound) — so a plain :mod:`heapq` is both the simplest and the
    fastest structure available in pure Python.  Entries are
    ``(time, priority, sequence, event)`` tuples, compared in C rather than
    through Python-level comparison methods; the entry format is private to
    this class.  Cancelled events stay in the heap and are discarded when
    they surface, which keeps cancellation O(1).

    The queue trusts its times: the :class:`~repro.sim.simulator.Simulator`
    rejects negative, NaN and infinite times before pushing, since a NaN
    key would silently corrupt the heap order.
    """

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._pushed = 0
        self._popped = 0

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[Event]:
        """Iterate over pending (non-cancelled) events in arbitrary order."""
        return (entry[3] for entry in self._heap if not entry[3].cancelled)

    @property
    def pushed_count(self) -> int:
        """Total number of events ever pushed (kernel statistics)."""
        return self._pushed

    @property
    def popped_count(self) -> int:
        """Total number of events ever popped (kernel statistics)."""
        return self._popped

    # ------------------------------------------------------------------

    def push(self, event: Event) -> Event:
        """Insert *event* and return it (for convenient chaining)."""
        heappush(self._heap,
                 (event.time, event.priority, event.sequence, event))
        self._pushed += 1
        return event

    def pop(self, until: Optional[float] = None) -> Optional[Event]:
        """Remove and return the earliest pending event.

        Returns ``None`` when no event is pending, or when the earliest one
        is later than *until*; that event then stays queued.  Cancelled
        events are silently discarded on the way.
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            event = entry[3]
            if event.cancelled:
                continue
            if until is not None and entry[0] > until:
                # Keys are unique, so pushing the entry back restores the
                # exact pop order.
                heappush(heap, entry)
                return None
            self._popped += 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest pending event, or ``None`` if the queue is empty."""
        while self._heap and self._heap[0][3].cancelled:
            heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0][0]

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()

