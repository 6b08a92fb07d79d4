"""Tests for message demultiplexing."""

import pytest

from repro.net import FixedLatency, MessageDemux, Network
from repro.sim import Scheduler


def test_longest_prefix_wins():
    s = Scheduler()
    net = Network(s, FixedLatency(0.0))
    a, b = net.attach("a"), net.attach("b")
    demux = MessageDemux(b)
    got = []
    demux.route("rpc.", lambda m: got.append(("general", m.kind)))
    demux.route("rpc.special", lambda m: got.append(("special", m.kind)))
    a.send("b", "rpc.request", None)
    a.send("b", "rpc.special.thing", None)
    s.run()
    assert got == [("general", "rpc.request"), ("special", "rpc.special.thing")]


def test_unrouted_kind_dropped():
    s = Scheduler()
    net = Network(s, FixedLatency(0.0))
    a, b = net.attach("a"), net.attach("b")
    demux = MessageDemux(b)
    got = []
    demux.route("known.", got.append)
    a.send("b", "unknown.kind", None)
    s.run()
    assert got == []


def test_duplicate_route_rejected():
    s = Scheduler()
    net = Network(s, FixedLatency(0.0))
    demux = MessageDemux(net.attach("n"))
    demux.route("x.", lambda m: None)
    with pytest.raises(ValueError):
        demux.route("x.", lambda m: None)


def test_a_route_added_later_takes_over_kinds_already_seen():
    s = Scheduler()
    net = Network(s, FixedLatency(0.0))
    a, b = net.attach("a"), net.attach("b")
    demux = MessageDemux(b)
    got = []
    demux.route("ginv.", lambda m: got.append(("group", m.kind)))
    a.send("b", "ginv.reply", None)
    s.run()
    demux.route("ginv.reply", lambda m: got.append(("reply", m.kind)))
    a.send("b", "ginv.reply", None)
    s.run()
    assert got == [("group", "ginv.reply"), ("reply", "ginv.reply")]
