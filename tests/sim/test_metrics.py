"""Tests for measurement instruments."""

import math

import pytest

from repro.sim import MetricsRegistry


def test_counter_increments():
    m = MetricsRegistry()
    m.counter("x").increment()
    m.counter("x").increment(4)
    assert m.counter_value("x") == 5


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        MetricsRegistry().counter("x").increment(-1)


def test_counter_value_of_untouched_is_zero():
    assert MetricsRegistry().counter_value("nope") == 0


def test_gauge_moves_both_ways():
    g = MetricsRegistry().gauge("g")
    g.set(10)
    g.add(-3)
    assert g.value == 7


def test_histogram_statistics():
    h = MetricsRegistry().histogram("h")
    for v in [1.0, 2.0, 3.0, 4.0, 5.0]:
        h.observe(v)
    assert h.count == 5
    assert h.mean == 3.0
    assert h.minimum == 1.0
    assert h.maximum == 5.0
    assert h.percentile(50) == 3.0
    assert h.percentile(100) == 5.0


def test_histogram_empty_stats_are_nan():
    h = MetricsRegistry().histogram("h")
    assert math.isnan(h.mean)
    assert math.isnan(h.percentile(50))


def test_histogram_percentile_bounds():
    h = MetricsRegistry().histogram("h")
    h.observe(1.0)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_timeseries_time_weighted_mean():
    ts = MetricsRegistry().timeseries("availability")
    ts.record(0.0, 1.0)   # up
    ts.record(10.0, 0.0)  # down
    ts.record(15.0, 1.0)  # up again
    # 10 up + 5 down + 5 up over [0, 20] -> 15/20
    assert ts.time_weighted_mean(20.0) == pytest.approx(0.75)


def test_timeseries_values_between():
    ts = MetricsRegistry().timeseries("x")
    for t in range(10):
        ts.record(float(t), float(t * t))
    assert ts.values_between(2.0, 4.0) == [4.0, 9.0, 16.0]


def test_snapshot_contains_all_instruments():
    m = MetricsRegistry()
    m.counter("c").increment()
    m.gauge("g").set(2.5)
    m.histogram("h").observe(1.0)
    m.timeseries("t").record(0.0, 1.0)
    snap = m.snapshot()
    assert snap["c"] == 1
    assert snap["g"] == 2.5
    assert snap["h"]["count"] == 1
    assert snap["t"] == [(0.0, 1.0)]


def test_registry_returns_same_instrument():
    m = MetricsRegistry()
    assert m.counter("a") is m.counter("a")
    assert m.histogram("b") is m.histogram("b")


def test_wire_size_is_deterministic():
    from repro.sim.metrics import wire_size
    payload = {"method": "get_server", "args": ("sys:1",)}
    assert wire_size(payload) == wire_size(dict(payload))
    assert wire_size(payload) == len(repr(payload))


def test_plane_traffic_counters_land_in_the_snapshot():
    from repro.sim.metrics import MetricsRegistry
    m = MetricsRegistry()
    from repro.sim.metrics import estimate_size
    client = m.plane_traffic("alpha", "client")
    sync = m.plane_traffic("alpha", "sync")
    client.record_sent(estimate_size("req"))
    client.record_received(estimate_size("rep"))
    sync.record_sent(estimate_size("probe"))
    snap = m.snapshot()
    assert snap["traffic.alpha.client.rpcs_out"] == 1
    assert snap["traffic.alpha.client.rpcs_in"] == 1
    assert snap["traffic.alpha.sync.rpcs_out"] == 1
    assert snap["traffic.alpha.client.bytes_out"] == estimate_size("req")
    # Counters are allocated eagerly (the hot path records by direct
    # attribute access), so an idle direction shows up as zero.
    assert snap["traffic.alpha.sync.rpcs_in"] == 0


def test_plane_traffic_read_properties_track_counters():
    from repro.sim.metrics import MetricsRegistry
    m = MetricsRegistry()
    t = m.plane_traffic("beta", "sync")
    assert (t.rpcs_out, t.rpcs_in) == (0, 0)
    t.record_sent(3)
    t.record_sent(3)
    t.record_received(5)
    assert (t.rpcs_out, t.rpcs_in) == (2, 1)
    assert t.bytes_out == 6
    assert t.bytes_in == 5
