"""The discrete-event simulation kernel.

The :class:`Simulator` advances time by popping the earliest pending
:class:`~repro.sim.events.Event` and firing it.  It knows nothing about
voltages, gates or memories — those live in the circuit packages — but it
provides the scheduling primitives they need:

* ``schedule`` / ``schedule_at`` for callbacks,
* ``schedule_signal`` for driving :class:`~repro.sim.signals.Signal` objects,
* ``run`` / ``run_until_idle`` / ``step`` to advance time,
* ``horizon`` / ``take_step`` for elements that run their own scalar loop
  inside one kernel event (the self-timed counter's oscillator),
* watchdogs (maximum events, maximum time) so livelocks in experimental
  circuits terminate with a useful error instead of hanging.

Determinism: for equal timestamps, events fire in (priority, scheduling
order), so a simulation is a pure function of its inputs and seeds.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from repro.errors import DeadlockError, SchedulingError, SimulationError
from repro.sim.events import Event, EventKind
from repro.sim.scheduler import EventQueue
from repro.sim.signals import Signal


class Simulator:
    """Event-driven simulation kernel.

    Parameters
    ----------
    max_events:
        Hard cap on the number of fired events; exceeded means the circuit is
        livelocked (e.g. an oscillator that nobody stops) and raises
        :class:`~repro.errors.SimulationError`.
    trace:
        Optional callable invoked as ``trace(event)`` after every fired
        event — handy for debugging protocol issues.
    """

    def __init__(self, max_events: int = 5_000_000,
                 trace: Optional[Callable[[Event], None]] = None) -> None:
        if max_events < 1:
            raise SchedulingError("max_events must be >= 1")
        self._queue = EventQueue()
        self._now = 0.0
        self._fired = 0
        self.max_events = max_events
        self.trace = trace
        self._stopped = False
        self._bound = math.inf  # the current run's until, or step()'s time
        self._idle_hooks: List[Callable[[float], None]] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def fired_events(self) -> int:
        """Number of events fired so far."""
        return self._fired

    @property
    def pending_events(self) -> int:
        """Number of events still waiting in the queue."""
        return len(self._queue)

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has been called."""
        return self._stopped

    @property
    def horizon(self) -> float:
        """Exclusive time bound for an element's private steps.

        An element that runs its own event loop holds one kernel event at
        its earliest private time.  While that event fires, the element may
        take further private steps at times strictly before ``horizon``:
        the earliest other pending event, the *until* of the current
        :meth:`run` (a step at exactly *until* is taken by re-posting the
        event there), or, during :meth:`step`, the fired event's own time.
        After :meth:`stop` it is :attr:`now`, so nothing more is taken.  An
        element re-reads it after any callback out of its loop, since the
        callback may schedule events or stop the run.
        """
        if self._stopped:
            return self._now
        pending = self._queue.peek_time()
        if pending is None or pending > self._bound:
            return self._bound
        return pending

    def take_step(self, time: float) -> None:
        """Account one private step at *time*, before :attr:`horizon`.

        The clock moves to *time* and the step counts toward
        :attr:`fired_events` and ``max_events`` exactly like a fired event.
        """
        if not time >= self._now:
            raise SchedulingError(
                f"private step at {time} is before now ({self._now})")
        self._now = time
        self._fired += 1
        if self._fired > self.max_events:
            raise self._livelock()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None], *,
                 kind: EventKind = EventKind.CALLBACK, priority: int = 0,
                 label: str = "") -> Event:
        """Schedule *action* to run *delay* seconds from now."""
        if not 0.0 <= delay < math.inf:  # also rejects NaN
            raise SchedulingError(
                f"delay must be finite and non-negative, got {delay}")
        return self._push(self._now + delay, action, kind, priority, label)

    def schedule_at(self, time: float, action: Callable[[], None], *,
                    kind: EventKind = EventKind.CALLBACK, priority: int = 0,
                    label: str = "") -> Event:
        """Schedule *action* at absolute simulation *time*."""
        if not self._now <= time < math.inf:  # also rejects NaN
            raise SchedulingError(
                f"cannot schedule at {time} (now is {self._now})")
        return self._push(time, action, kind, priority, label)

    def _push(self, time: float, action: Callable[[], None], kind: EventKind,
              priority: int, label: str) -> Event:
        """Queue an event at an already validated *time*."""
        if not callable(action):
            raise SchedulingError("event action must be callable")
        return self._queue.push(Event(time, action, kind, priority, label))

    def schedule_signal(self, signal: Signal, value: bool, delay: float, *,
                        label: str = "") -> Event:
        """Schedule *signal* to take *value* after *delay* seconds."""
        target_time = self._now + delay

        def _drive() -> None:
            signal.set(value, target_time)

        return self.schedule(delay, _drive, kind=EventKind.SIGNAL,
                             label=label or signal.name)

    def call_when_idle(self, hook: Callable[[float], None]) -> None:
        """Register *hook(time)* to run when the event queue drains."""
        self._idle_hooks.append(hook)

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> Event:
        """Fire exactly one pending event and return it."""
        event = self._queue.pop()
        if event is None:
            raise DeadlockError("no pending events to step")
        if event.time < self._now:
            raise SimulationError(
                f"event queue returned a stale event ({event.time} < {self._now})"
            )
        self._now = self._bound = event.time
        self._fired += 1
        if self._fired > self.max_events:
            raise self._livelock()
        event.action()
        if self.trace is not None:
            self.trace(event)
        return event

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains, *until* seconds, or :meth:`stop`.

        Returns the simulation time at which the run stopped.  Events
        scheduled exactly at *until* are executed; later ones are left
        pending so the simulation can be resumed.

        This loop is the cost of every simulated event, so it does only
        what :meth:`step` does, minus the staleness check: scheduling never
        accepts a time before :attr:`now`.  ``trace`` sees kernel events
        only: an element's private steps (see :attr:`horizon`) run inside
        the one event that fires them.
        """
        if until is not None and not until >= self._now:
            raise SchedulingError(f"until={until} is in the past (now={self._now})")
        self._stopped = False
        self._bound = math.inf if until is None else until
        pop = self._queue.pop
        trace = self.trace
        while not self._stopped:
            event = pop(until)
            if event is None:
                break
            self._now = event.time
            self._fired += 1
            if self._fired > self.max_events:
                raise self._livelock()
            event.action()
            if trace is not None:
                trace(event)
        if not self._queue:
            for hook in tuple(self._idle_hooks):
                hook(self._now)
        if until is not None and not self._stopped:
            self._now = max(self._now, until)
        return self._now

    def _livelock(self) -> SimulationError:
        return SimulationError(f"exceeded max_events={self.max_events}; "
                               "the circuit is probably livelocked")

    def run_until_idle(self, max_time: Optional[float] = None) -> float:
        """Run until no events remain; optionally bounded by *max_time*.

        Raises :class:`~repro.errors.DeadlockError` if *max_time* elapses
        while events are still pending — that usually means a handshake never
        completed.
        """
        end = self.run(until=max_time)
        if max_time is not None and self.pending_events and end >= max_time:
            raise DeadlockError(
                f"simulation still has {self.pending_events} pending events "
                f"at max_time={max_time}"
            )
        return end

    # ------------------------------------------------------------------

    def advance_to(self, time: float) -> None:
        """Move the clock forward with no events (used by test fixtures)."""
        if time < self._now:
            raise SchedulingError("cannot move time backwards")
        self._now = time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulator t={self._now:.3e}s fired={self._fired} "
                f"pending={self.pending_events}>")
