"""Tests for events and the event queue."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.events import Event
from repro.sim.scheduler import EventQueue
from repro.sim.simulator import Simulator


class TestEvent:
    def test_cancelled_event_does_not_run(self):
        hits = []
        sim = Simulator()
        event = sim.schedule(1.0, lambda: hits.append(1))
        event.cancel()
        sim.run()
        assert hits == []
        assert sim.fired_events == 0

    def test_sequence_numbers_increase(self):
        first = Event(time=0.0, action=lambda: None)
        second = Event(time=0.0, action=lambda: None)
        assert second.sequence > first.sequence


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        times = [3.0, 1.0, 2.0, 0.5]
        for t in times:
            queue.push(Event(time=t, action=lambda: None))
        popped = [queue.pop().time for _ in range(len(times))]
        assert popped == sorted(times)

    def test_equal_times_fifo_by_sequence(self):
        queue = EventQueue()
        labels = []
        for name in "abc":
            queue.push(Event(time=1.0, action=lambda: None, label=name))
        popped = [queue.pop().label for _ in range(3)]
        assert popped == ["a", "b", "c"]
        assert labels == []

    def test_priority_breaks_ties(self):
        queue = EventQueue()
        queue.push(Event(time=1.0, action=lambda: None, priority=5, label="low"))
        queue.push(Event(time=1.0, action=lambda: None, priority=-5, label="high"))
        assert queue.pop().label == "high"

    def test_len_and_counts(self):
        queue = EventQueue()
        assert len(queue) == 0
        queue.push(Event(time=0.0, action=lambda: None))
        queue.push(Event(time=1.0, action=lambda: None))
        assert len(queue) == 2
        assert queue.pushed_count == 2
        queue.pop()
        assert queue.popped_count == 1
        assert len(queue) == 1

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(Event(time=2.5, action=lambda: None))
        queue.push(Event(time=1.5, action=lambda: None))
        assert queue.peek_time() == 1.5

    def test_pop_returns_none_when_empty_or_beyond_until(self):
        queue = EventQueue()
        assert queue.pop() is None
        queue.push(Event(time=1.0, action=lambda: None, label="a"))
        queue.push(Event(time=2.0, action=lambda: None, label="b"))
        assert queue.pop(until=1.0).label == "a"
        assert queue.pop(until=1.5) is None
        assert len(queue) == 1 and queue.popped_count == 1
        assert queue.pop(until=2.0).label == "b"

    def test_clear_empties_queue(self):
        queue = EventQueue()
        queue.push(Event(time=0.0, action=lambda: None))
        queue.clear()
        assert len(queue) == 0

    @given(st.lists(st.floats(min_value=0, max_value=1e3), min_size=1, max_size=40))
    def test_queue_is_a_total_order_property(self, times):
        queue = EventQueue()
        for t in times:
            queue.push(Event(time=t, action=lambda: None))
        out = [queue.pop().time for _ in range(len(times))]
        assert out == sorted(times)
