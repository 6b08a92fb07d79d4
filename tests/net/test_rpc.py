"""Tests for the RPC layer."""

import pytest

from repro.net import (
    FixedLatency,
    MessageDemux,
    Network,
    RpcAgent,
    RpcRemoteError,
    RpcTimeout,
    StaleRingEpoch,
)
from repro.sim import Scheduler, Timeout


class Calc:
    def __init__(self):
        self.calls = 0

    def add(self, a, b):
        self.calls += 1
        return a + b

    def boom(self):
        raise ValueError("kaput")

    def _secret(self):
        return "hidden"


def make_pair(latency=0.01, **kwargs):
    s = Scheduler()
    net = Network(s, FixedLatency(latency))
    agents = {}
    for name in ("a", "b"):
        nic = net.attach(name)
        agents[name] = RpcAgent(s, nic, demux=MessageDemux(nic), **kwargs)
    return s, net, agents["a"], agents["b"]


def test_roundtrip():
    s, _, a, b = make_pair()
    b.register("calc", Calc())
    f = a.call("b", "calc", "add", 2, 3)
    assert s.run_until_settled(f) == 5


def test_remote_exception_becomes_rpc_remote_error():
    s, _, a, b = make_pair()
    b.register("calc", Calc())
    f = a.call("b", "calc", "boom")
    with pytest.raises(RpcRemoteError) as info:
        s.run_until_settled(f)
    assert info.value.remote_type == "ValueError"
    assert "kaput" in info.value.remote_message


def test_unknown_service_and_method():
    s, _, a, b = make_pair()
    b.register("calc", Calc())
    f1 = a.call("b", "nope", "add", 1, 2)
    with pytest.raises(RpcRemoteError) as e1:
        s.run_until_settled(f1)
    assert e1.value.remote_type == "UnknownService"
    f2 = a.call("b", "calc", "subtract", 1, 2)
    with pytest.raises(RpcRemoteError) as e2:
        s.run_until_settled(f2)
    assert e2.value.remote_type == "UnknownMethod"


def test_private_methods_not_callable():
    s, _, a, b = make_pair()
    b.register("calc", Calc())
    f = a.call("b", "calc", "_secret")
    with pytest.raises(RpcRemoteError) as info:
        s.run_until_settled(f)
    assert info.value.remote_type == "UnknownMethod"


def test_call_to_dead_node_times_out():
    s, net, a, b = make_pair()
    b.register("calc", Calc())
    net.interface("b").up = False
    f = a.call("b", "calc", "add", 1, 2, timeout=0.5)
    with pytest.raises(RpcTimeout):
        s.run_until_settled(f)
    assert s.now >= 0.5


def test_callee_crash_mid_service_times_out():
    s, net, a, b = make_pair(latency=0.1)
    b.register("calc", Calc())
    f = a.call("b", "calc", "add", 1, 2, timeout=1.0)
    # Crash the callee after the request arrives but before it replies.
    # With zero service time the handler runs at delivery, so crash the
    # reply path instead: take b down right when the request is mid-flight.
    s.schedule(0.05, lambda: setattr(net.interface("b"), "up", False))
    with pytest.raises(RpcTimeout):
        s.run_until_settled(f)


def test_call_from_down_node_fails_immediately():
    s, net, a, b = make_pair()
    net.interface("a").up = False
    f = a.call("b", "calc", "add", 1, 2)
    assert f.failed
    with pytest.raises(RpcTimeout):
        f.result()


def test_generator_handler_runs_as_process():
    s, _, a, b = make_pair()

    class Slow:
        def work(self):
            yield Timeout(2.0)
            return "slept"

    b.register("slow", Slow())
    f = a.call("b", "slow", "work", timeout=10.0)
    assert s.run_until_settled(f) == "slept"
    assert s.now >= 2.0


def test_generator_handler_exception_propagates():
    s, _, a, b = make_pair()

    class Slow:
        def work(self):
            yield Timeout(0.5)
            raise KeyError("gen-fail")

    b.register("slow", Slow())
    f = a.call("b", "slow", "work", timeout=10.0)
    with pytest.raises(RpcRemoteError) as info:
        s.run_until_settled(f)
    assert info.value.remote_type == "KeyError"


def test_nested_rpc_from_generator_handler():
    s, _, a, b = make_pair()
    b.register("calc", Calc())

    class Proxy:
        def __init__(self, agent):
            self._agent = agent

        def forward(self, x, y):
            value = yield self._agent.call("b", "calc", "add", x, y)
            return value * 10

    a.register("proxy", Proxy(a))
    f = b.call("a", "proxy", "forward", 3, 4, timeout=5.0)
    assert s.run_until_settled(f) == 70


def test_service_time_delays_reply():
    s, _, a, b = make_pair(latency=0.0)
    b.service_time = 1.0
    b.register("calc", Calc())
    f = a.call("b", "calc", "add", 1, 1, timeout=10.0)
    s.run_until_settled(f)
    assert s.now >= 1.0


def test_service_time_queues_concurrent_requests():
    """A node with a service time is a single-server queue: two
    concurrent requests are processed one after the other."""
    s, _, a, b = make_pair(latency=0.0)
    b.service_time = 1.0
    b.register("calc", Calc())
    first = a.call("b", "calc", "add", 1, 1, timeout=10.0)
    second = a.call("b", "calc", "add", 2, 2, timeout=10.0)
    s.run_until_settled(first)
    assert 1.0 <= s.now < 2.0
    s.run_until_settled(second)
    assert s.now >= 2.0  # waited for the first to clear the CPU


def test_queued_requests_die_with_the_node():
    """Requests sitting in the service queue at crash time must not
    execute after the node recovers (fail-silence: the queue was
    volatile state)."""
    s, _, a, b = make_pair(latency=0.0)
    b.service_time = 1.0
    calc = Calc()
    b.register("calc", calc)
    f = a.call("b", "calc", "add", 1, 1, timeout=0.4)
    s.run(until=0.5)  # request queued at b, not yet executed
    b.reset()                   # the node crashes...
    b.register("calc", calc)    # ...and recovers before the event fires
    s.run(until=5.0)
    assert calc.calls == 0, "a queued request must not survive the crash"
    assert f.failed  # the caller saw a timeout, as fail-silence demands


def test_reset_fails_pending_and_clears_services():
    s, _, a, b = make_pair()
    b.register("calc", Calc())
    f = a.call("b", "calc", "add", 1, 2)
    a.reset()
    assert f.failed
    assert not b.has_service("calc") or True  # a's reset doesn't touch b
    b.reset()
    assert not b.has_service("calc")


def test_duplicate_service_registration_rejected():
    _, _, _, b = make_pair()
    b.register("calc", Calc())
    with pytest.raises(ValueError):
        b.register("calc", Calc())


def test_late_reply_after_timeout_is_ignored():
    s, net, a, b = make_pair(latency=0.1)
    b.service_time = 0.5
    b.register("calc", Calc())
    f = a.call("b", "calc", "add", 1, 2, timeout=0.2)
    with pytest.raises(RpcTimeout):
        s.run_until_settled(f)
    s.run()  # the late reply arrives; must not blow up or re-settle
    assert f.failed


def test_call_counters():
    s, _, a, b = make_pair()
    b.register("calc", Calc())
    f = a.call("b", "calc", "add", 1, 2)
    s.run_until_settled(f)
    assert a.calls_issued == 1
    assert b.calls_served == 1


# -- epoch fencing -----------------------------------------------------------


def make_fenced_pair(**kwargs):
    s, net, a, b = make_pair(**kwargs)
    calc = Calc()
    epoch = {"value": 3}
    b.register("calc", calc, fence=lambda: epoch["value"])
    return s, a, b, calc, epoch


def test_fenced_service_serves_a_matching_tag():
    s, a, b, calc, epoch = make_fenced_pair()
    f = a.call("b", "calc", "add", 2, 3, ring_epoch=3)
    assert s.run_until_settled(f) == 5
    assert calc.calls == 1
    assert b.calls_fenced == 0


def test_fenced_service_rejects_a_stale_tag_with_its_epoch():
    s, a, b, calc, epoch = make_fenced_pair()
    f = a.call("b", "calc", "add", 2, 3, ring_epoch=2)
    with pytest.raises(StaleRingEpoch) as info:
        s.run_until_settled(f)
    assert info.value.server_epoch == 3
    assert calc.calls == 0, "a fenced request must be rejected pre-dispatch"
    assert b.calls_fenced == 1


def test_untagged_requests_pass_a_fenced_service():
    s, a, b, calc, epoch = make_fenced_pair()
    f = a.call("b", "calc", "add", 1, 1)
    assert s.run_until_settled(f) == 2
    assert calc.calls == 1


def test_tagged_requests_pass_an_unfenced_service():
    s, _, a, b = make_pair()
    b.register("calc", Calc())
    f = a.call("b", "calc", "add", 1, 1, ring_epoch=99)
    assert s.run_until_settled(f) == 2


def test_fence_is_checked_at_dispatch_not_at_send():
    """The whole point of fencing over a settle window: a request that
    queued across an epoch change is rejected when it *executes*, even
    though its tag matched when it was sent."""
    s, a, b, calc, epoch = make_fenced_pair(service_time=0.2)
    ok = a.call("b", "calc", "add", 1, 1, ring_epoch=3, timeout=10.0)
    late = a.call("b", "calc", "add", 2, 2, ring_epoch=3, timeout=10.0)
    # The epoch moves while the second request sits in the service
    # queue behind the first.
    s.schedule(0.25, lambda: epoch.update(value=4))
    assert s.run_until_settled(ok) == 2
    with pytest.raises(StaleRingEpoch) as info:
        s.run_until_settled(late)
    assert info.value.server_epoch == 4
    assert calc.calls == 1


def test_reset_drops_the_fence_until_reregistration():
    s, a, b, calc, epoch = make_fenced_pair()
    b.reset()
    fresh = Calc()
    b.register("calc", fresh)  # recovered without re-arming the fence
    f = a.call("b", "calc", "add", 2, 3, ring_epoch=0)
    assert s.run_until_settled(f) == 5, \
        "an unfenced re-registration must serve (the fence died with it)"
    b.unregister("calc")
    b.register("calc", fresh, fence=lambda: epoch["value"])
    f = a.call("b", "calc", "add", 2, 3, ring_epoch=0)
    with pytest.raises(StaleRingEpoch):
        s.run_until_settled(f)


def test_unregister_clears_the_fence():
    s, a, b, calc, epoch = make_fenced_pair()
    b.unregister("calc")
    b.register("calc", calc)
    f = a.call("b", "calc", "add", 2, 3, ring_epoch=0)
    assert s.run_until_settled(f) == 5


def test_each_message_is_sized_once_and_metered_alike_at_both_ends():
    from repro.sim.metrics import MetricsRegistry, estimate_size

    registry = MetricsRegistry()
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    # Capture every message as it goes on the wire, with the size it
    # already carried at that moment (-1 would mean "not sized yet"):
    # the sender fixed it, so the receiver reads the same number
    # instead of walking the payload again.
    wire = []
    net.add_drop_rule(lambda m: wire.append((m, m._size)) and False)
    agents = {}
    for name in ("a", "b"):
        nic = net.attach(name)
        agents[name] = RpcAgent(s, nic, demux=MessageDemux(nic),
                                traffic=registry.plane_traffic(name, "client"))
    agents["b"].register("calc", Calc())
    future = agents["a"].call("b", "calc", "add", 2, 3)
    s.run()
    assert future.result() == 5
    a = registry.plane_traffic("a", "client")
    b = registry.plane_traffic("b", "client")
    assert (a.rpcs_out, b.rpcs_in, b.rpcs_out, a.rpcs_in) == (1, 1, 1, 1)
    assert len(wire) == 2  # the request and the reply, one size each
    (request, request_size), (reply, reply_size) = wire
    assert request.size == request_size == estimate_size(request.payload)
    assert reply.size == reply_size == estimate_size(reply.payload)
    assert a.bytes_out == b.bytes_in == estimate_size(request.payload)
    assert b.bytes_out == a.bytes_in == estimate_size(reply.payload)


# -- timeout timers ------------------------------------------------------------


@pytest.mark.parametrize("pipeline", [False, True])
def test_a_settled_call_leaves_no_live_timeout_event(pipeline):
    s, _, a, b = make_pair(pipeline=pipeline)
    b.register("calc", Calc())
    f = a.call("b", "calc", "add", 1, 2, timeout=5.0)
    assert s.run_until_settled(f) == 3
    fired, settled_at = s.events_fired, s.now
    # Nothing is left to fire: the timer was cancelled, not left to
    # expire at t=5.
    assert s.run() == settled_at
    assert s.events_fired == fired


def test_reset_cancels_the_timers_of_pending_calls():
    s, _, a, b = make_pair()
    b.register("calc", Calc())
    calls = [a.call("b", "calc", "add", i, i, timeout=5.0) for i in range(3)]
    a.reset()
    assert all(isinstance(f.exception(), RpcTimeout) for f in calls)
    # Only the requests and b's replies are delivered; no timer is left
    # to fire at t=5.
    assert s.run() < 5.0


def test_a_reply_after_its_timeout_is_ignored_and_still_metered():
    from repro.sim.metrics import MetricsRegistry

    registry = MetricsRegistry()
    s = Scheduler()
    net = Network(s, FixedLatency(0.1))
    agents = {}
    for name in ("a", "b"):
        nic = net.attach(name)
        agents[name] = RpcAgent(s, nic, demux=MessageDemux(nic),
                                traffic=registry.plane_traffic(name, "client"))
    calc = Calc()
    agents["b"].service_time = 0.5
    agents["b"].register("calc", calc)
    f = agents["a"].call("b", "calc", "add", 1, 2, timeout=0.2)
    with pytest.raises(RpcTimeout):
        s.run_until_settled(f)
    s.run()  # the reply lands at t=0.7, after the timeout at t=0.2
    assert calc.calls == 1
    assert isinstance(f.exception(), RpcTimeout)
    # The late reply was received (and metered) but settled nothing.
    assert registry.plane_traffic("a", "client").rpcs_in == 1
