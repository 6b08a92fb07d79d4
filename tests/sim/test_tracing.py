"""Tests for structured tracing."""

from repro.sim import Scheduler, Tracer


def test_records_carry_time_and_data():
    s = Scheduler()
    tracer = Tracer()
    tracer.bind_clock(lambda: s.now)
    s.schedule(2.5, lambda: tracer.record("cat", "hello", key="value"))
    s.run()
    assert len(tracer.events) == 1
    event = tracer.events[0]
    assert event.time == 2.5
    assert event.category == "cat"
    assert event.data == {"key": "value"}


def test_category_filtering_drops_others():
    tracer = Tracer(categories={"keep"})
    tracer.record("keep", "a")
    tracer.record("drop", "b")
    assert tracer.messages() == ["a"]


def test_none_categories_records_everything():
    tracer = Tracer(categories=None)
    tracer.record("x", "a")
    tracer.record("y", "b")
    assert tracer.count("x") == 1
    assert tracer.count("y") == 1


def test_filter_and_messages():
    tracer = Tracer()
    tracer.record("a", "m1")
    tracer.record("b", "m2")
    tracer.record("a", "m3")
    assert [e.message for e in tracer.filter("a")] == ["m1", "m3"]
    assert tracer.messages("b") == ["m2"]


def test_clear():
    tracer = Tracer()
    tracer.record("a", "m")
    tracer.clear()
    assert tracer.events == []


def test_str_rendering():
    tracer = Tracer()
    tracer.record("cat", "message", k=1)
    text = str(tracer.events[0])
    assert "cat" in text and "message" in text and "k" in text


def test_wants_follows_the_category_filter():
    from repro.sim.tracing import NULL_TRACER

    assert Tracer().wants("anything")
    assert Tracer(categories={"keep"}).wants("keep")
    assert not Tracer(categories={"keep"}).wants("drop")
    assert not NULL_TRACER.wants("action")
