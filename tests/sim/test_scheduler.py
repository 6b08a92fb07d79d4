"""Tests for the event scheduler and virtual clock."""

import pytest

from repro.sim import Future, Scheduler, SimulationLimitExceeded


def test_clock_starts_at_zero():
    assert Scheduler().now == 0.0


def test_events_fire_in_time_order():
    s = Scheduler()
    fired = []
    s.schedule(2.0, fired.append, "b")
    s.schedule(1.0, fired.append, "a")
    s.schedule(3.0, fired.append, "c")
    s.run()
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_times():
    s = Scheduler()
    times = []
    s.schedule(1.5, lambda: times.append(s.now))
    s.schedule(4.0, lambda: times.append(s.now))
    s.run()
    assert times == [1.5, 4.0]
    assert s.now == 4.0


def test_same_time_events_fire_in_scheduling_order():
    s = Scheduler()
    fired = []
    for tag in range(5):
        s.schedule(1.0, fired.append, tag)
    s.run()
    assert fired == [0, 1, 2, 3, 4]


def test_cancelled_event_does_not_fire():
    s = Scheduler()
    fired = []
    event = s.schedule(1.0, fired.append, "x")
    event.cancel()
    s.run()
    assert fired == []


def test_run_until_stops_before_later_events():
    s = Scheduler()
    fired = []
    s.schedule(1.0, fired.append, "early")
    s.schedule(10.0, fired.append, "late")
    s.run(until=5.0)
    assert fired == ["early"]
    assert s.now == 5.0
    s.run()
    assert fired == ["early", "late"]


def test_cannot_schedule_in_the_past():
    s = Scheduler()
    s.schedule(1.0, lambda: None)
    s.run()
    with pytest.raises(ValueError):
        s.schedule_at(0.5, lambda: None)


def test_max_events_budget_raises():
    s = Scheduler()

    def reschedule():
        s.schedule(0.1, reschedule)

    s.schedule(0.1, reschedule)
    with pytest.raises(SimulationLimitExceeded):
        s.run(max_events=100)


def test_nested_scheduling_from_event():
    s = Scheduler()
    fired = []
    s.schedule(1.0, lambda: s.schedule(1.0, fired.append, "inner"))
    s.run()
    assert fired == ["inner"]
    assert s.now == 2.0


def test_call_soon_runs_at_current_time():
    s = Scheduler()
    times = []
    s.schedule(3.0, lambda: s.call_soon(lambda: times.append(s.now)))
    s.run()
    assert times == [3.0]


def test_events_fired_counter():
    s = Scheduler()
    for _ in range(4):
        s.schedule(1.0, lambda: None)
    s.run()
    assert s.events_fired == 4


def test_run_until_settled_returns_result():
    s = Scheduler()

    def body():
        yield 1.0
        return 42

    process = s.spawn(body())
    assert s.run_until_settled(process) == 42


def test_run_until_settled_raises_on_drained_queue():
    from repro.sim import Future
    s = Scheduler()
    never = Future("never")
    with pytest.raises(RuntimeError, match="drained"):
        s.run_until_settled(never)


def _cancel_most_then_schedule(s, fired):
    """At t=1, cancel enough timers to compact the heap, then schedule
    one more event; the loop must see the rebuilt heap."""
    timers = [s.schedule(10.0 + i, fired.append, ("timer", i))
              for i in range(100)]

    def cancel_most():
        fired.append("cancel")
        for timer in timers[:90]:
            timer.cancel()
        s.schedule(1.0, fired.append, "late")

    s.schedule(1.0, cancel_most)
    return timers


def test_run_fires_from_the_heap_a_compaction_rebuilt():
    s = Scheduler()
    fired = []
    _cancel_most_then_schedule(s, fired)
    assert s.run() == 109.0
    assert s._queue.compactions >= 1
    assert fired == ["cancel", "late"] + [("timer", i) for i in range(90, 100)]
    assert s.events_fired == 12
    assert len(s._queue) == 0


def test_run_until_settled_fires_from_the_heap_a_compaction_rebuilt():
    s = Scheduler()
    fired = []
    timers = _cancel_most_then_schedule(s, fired)
    waited = Future("wait")
    timers[90].fn = lambda _arg: waited.resolve("done")
    assert s.run_until_settled(waited) == "done"
    assert s._queue.compactions >= 1
    assert fired == ["cancel", "late"]
    assert s.now == 100.0
    assert len(s._queue) == 9
