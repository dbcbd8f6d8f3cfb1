"""Tests for the discrete-event simulator kernel."""

import pytest

from repro.errors import DeadlockError, SchedulingError, SimulationError
from repro.sim.signals import Signal
from repro.sim.simulator import Simulator


class TestScheduling:
    def test_schedule_and_run_in_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]
        assert sim.now == 2.0
        assert sim.fired_events == 2

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.advance_to(5.0)
        with pytest.raises(SchedulingError):
            sim.schedule_at(1.0, lambda: None)

    def test_schedule_signal_drives_value(self):
        sim = Simulator()
        s = Signal("s")
        sim.schedule_signal(s, True, 3.0)
        sim.run()
        assert s.value is True
        assert s.history[-1] == (3.0, True)

    def test_events_scheduled_during_run_are_executed(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append("first")
            sim.schedule(1.0, lambda: seen.append("chained"))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == ["first", "chained"]
        assert sim.now == pytest.approx(2.0)


class TestRunControl:
    def test_run_until_leaves_later_events_pending(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(10.0, lambda: seen.append(2))
        sim.run(until=5.0)
        assert seen == [1]
        assert sim.pending_events == 1
        assert sim.now == 5.0
        sim.run()
        assert seen == [1, 2]

    def test_run_until_in_past_rejected(self):
        sim = Simulator()
        sim.advance_to(4.0)
        with pytest.raises(SchedulingError):
            sim.run(until=1.0)

    def test_stop_halts_the_loop(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: (seen.append(1), sim.stop()))
        sim.schedule(2.0, lambda: seen.append(2))
        sim.run()
        assert seen == [1]
        assert sim.stopped
        assert sim.pending_events == 1

    def test_step_requires_pending_events(self):
        sim = Simulator()
        with pytest.raises(DeadlockError):
            sim.step()

    def test_step_fires_exactly_one(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append("a"))
        sim.schedule(2.0, lambda: seen.append("b"))
        event = sim.step()
        assert seen == ["a"]
        assert event.time == 1.0

    def test_run_until_idle_raises_on_leftover_events(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        with pytest.raises(DeadlockError):
            sim.run_until_idle(max_time=1.0)

    def test_max_events_watchdog(self):
        sim = Simulator(max_events=10)

        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run()


class TestHooks:
    def test_idle_hook_runs_when_queue_drains(self):
        sim = Simulator()
        idle_times = []
        sim.call_when_idle(idle_times.append)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert idle_times == [2.0]

    def test_trace_callback_sees_every_event(self):
        traced = []
        sim = Simulator(trace=lambda event: traced.append(event.label))
        sim.schedule(1.0, lambda: None, label="x")
        sim.schedule(2.0, lambda: None, label="y")
        sim.run()
        assert traced == ["x", "y"]


class TestTimeValidation:
    """NaN or infinite times would corrupt the heap order; reject them."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_schedule_rejects_non_finite_delays(self, bad):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(bad, lambda: None)
        assert sim.pending_events == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_schedule_at_rejects_non_finite_times(self, bad):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule_at(bad, lambda: None)
        assert sim.pending_events == 0

    def test_run_rejects_nan_until(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SchedulingError):
            sim.run(until=float("nan"))

    def test_non_callable_action_rejected(self):
        with pytest.raises(SchedulingError):
            Simulator().schedule(1.0, "not callable")


class TestKernelContract:
    """Ordering, cancellation, watchdog, stop and trace semantics of run()."""

    def test_equal_times_fire_by_priority_then_scheduling_order(self):
        fired, traced = [], []
        sim = Simulator(trace=lambda event: traced.append(event.label))
        for label, priority in (("a", 0), ("b", 1), ("c", -1), ("d", 0),
                                ("e", -1)):
            sim.schedule(1.0, lambda label=label: fired.append(label),
                         priority=priority, label=label)
        sim.schedule(0.5, lambda: fired.append("early"), label="early")
        sim.run()
        assert fired == traced == ["early", "c", "e", "a", "d", "b"]

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(1.0, lambda: fired.append("keep"))
        drop = sim.schedule(2.0, lambda: fired.append("drop"))
        late = sim.schedule(3.0, lambda: fired.append("late"))
        drop.cancel()
        sim.schedule(1.5, late.cancel)
        sim.run()
        assert fired == ["keep"]
        assert keep.cancelled is False
        assert sim.fired_events == 2
        assert sim.now == 1.5

    def test_cancelled_events_beyond_until_leave_nothing_pending(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(5.0, lambda: None).cancel()
        assert sim.run_until_idle(max_time=2.0) == 2.0

    def test_max_events_raises_from_run(self):
        sim = Simulator(max_events=25)

        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        with pytest.raises(SimulationError, match="max_events=25"):
            sim.run()
        assert sim.fired_events == 26
        assert sim.now == 26.0

    def test_stop_leaves_the_rest_pending(self):
        sim = Simulator()
        idle = []
        sim.call_when_idle(idle.append)
        sim.schedule(1.0, sim.stop)
        sim.schedule(1.0, lambda: None)
        assert sim.run() == 1.0
        assert sim.stopped and sim.pending_events == 1 and idle == []
        sim.run()
        assert idle == [1.0]

    def test_trace_sees_every_event_and_until_resumes(self):
        def build():
            sim = Simulator()
            seen = []

            def chain(i):
                seen.append(i)
                if i < 9:
                    sim.schedule(0.25, lambda: chain(i + 1), label=f"c{i + 1}")

            sim.schedule(0.25, lambda: chain(0), label="c0")
            return sim, seen

        reference, reference_seen = build()
        reference.run()
        sim, seen = build()
        labels = []
        sim.trace = lambda event: labels.append(event.label)
        assert sim.run(until=1.0) == 1.0
        assert labels == ["c0", "c1", "c2", "c3"]
        assert sim.pending_events == 1
        assert sim.run(until=1.6) == 1.6
        sim.trace = None
        sim.run()
        assert labels == [f"c{i}" for i in range(6)]
        assert seen == reference_seen == list(range(10))
        assert sim.now == reference.now == 2.5
        assert sim.fired_events == reference.fired_events == 10

    def test_step_skips_cancelled_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None, label="drop").cancel()
        sim.schedule(2.0, lambda: None, label="keep")
        assert sim.step().label == "keep"
        sim.schedule(1.0, lambda: None).cancel()
        with pytest.raises(DeadlockError):
            sim.step()


class TestPrivateSteps:
    """``horizon`` / ``take_step``: an element's own loop inside one event."""

    def test_horizon_is_the_next_event_or_the_run_bound(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.horizon))
        sim.schedule(3.0, lambda: seen.append(sim.horizon))
        sim.schedule(1.0, lambda: None).cancel()  # a cancelled event is no bound
        sim.run(until=5.0)
        sim.schedule(1.0, lambda: seen.append(sim.horizon))
        sim.run()
        sim.schedule(1.0, lambda: seen.append(sim.horizon))
        sim.step()
        assert seen == [3.0, 5.0, float("inf"), 7.0]

    def test_horizon_is_now_after_stop(self):
        sim = Simulator()
        seen = []

        def stop_then_look():
            sim.stop()
            seen.append(sim.horizon)

        sim.schedule(1.0, stop_then_look)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert seen == [1.0]

    def test_take_step_moves_now_and_counts_toward_max_events(self):
        sim = Simulator(max_events=3)
        sim.schedule(1.0, lambda: sim.take_step(1.5))
        sim.run()
        assert (sim.now, sim.fired_events) == (1.5, 2)
        with pytest.raises(SchedulingError):
            sim.take_step(1.0)
        sim.take_step(2.0)
        with pytest.raises(SimulationError, match="max_events=3"):
            sim.take_step(2.5)
