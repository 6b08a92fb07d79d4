"""Tests for node crash/recovery semantics."""

from repro.net import FixedLatency, Network
from repro.cluster import Node
from repro.sim import Scheduler, Timeout


def make_node(name="n", has_store=False):
    s = Scheduler()
    net = Network(s, FixedLatency(0.01))
    return s, net, Node(s, net, name, has_store=has_store)


def test_crash_takes_interface_down():
    s, net, node = make_node()
    node.crash()
    assert node.crashed
    assert not node.nic.up


def test_crash_wipes_volatile_keeps_stable():
    s, net, node = make_node(has_store=True)
    from repro.storage import Uid
    node.volatile.put("scratch", 123)
    node.object_store.install(Uid("n", 1), b"data", 1)
    node.crash()
    node.recover()
    assert node.volatile.get("scratch") is None
    assert node.object_store.read_committed(Uid("n", 1)).buffer == b"data"


def test_crash_kills_node_processes():
    s, net, node = make_node()
    progress = []

    def body():
        while True:
            yield Timeout(1.0)
            progress.append(s.now)

    node.spawn(body(), name="worker")
    s.schedule(2.5, node.crash)
    s.run(until=10.0)
    assert all(t < 2.5 for t in progress)


def test_finished_processes_are_not_retained():
    s, net, node = make_node()

    def short(delay):
        yield Timeout(delay)

    for delay in (1.0, 2.0, 3.0):
        node.spawn(short(delay))
    s.run(until=1.5)
    assert len(node._processes) == 2
    s.run(until=5.0)
    assert node._processes == {}


def test_crash_kills_live_processes_in_spawn_order():
    s, net, node = make_node()
    killed = []

    def body(label, delay):
        try:
            yield Timeout(delay)
        except BaseException:
            killed.append(label)
            raise

    for label, delay in (("a", 5.0), ("b", 1.0), ("c", 5.0), ("d", 5.0)):
        node.spawn(body(label, delay))
    s.schedule(2.0, node.crash)
    s.run(until=10.0)
    assert killed == ["a", "c", "d"]
    assert node._processes == {}


def test_crash_clears_rpc_services_recover_reruns_boot_hooks():
    s, net, node = make_node()
    installs = []

    def hook(n):
        installs.append(s.now)
        n.rpc.register("svc", object())

    node.add_boot_hook(hook)
    assert node.rpc.has_service("svc")
    node.crash()
    assert not node.rpc.has_service("svc")
    node.recover()
    assert node.rpc.has_service("svc")
    assert len(installs) == 2


def test_double_crash_and_double_recover_are_noops():
    s, net, node = make_node()
    node.crash()
    node.crash()
    assert node.crash_count == 1
    node.recover()
    node.recover()
    assert node.recover_count == 1


def test_availability_timeseries_recorded():
    s, net, node = make_node()
    s.schedule(1.0, node.crash)
    s.schedule(3.0, node.recover)
    s.run()
    series = node.metrics.timeseries(f"node.{node.name}.up").samples
    assert series == [(1.0, 0.0), (3.0, 1.0)]


def test_store_down_while_crashed():
    s, net, node = make_node(has_store=True)
    node.crash()
    assert not node.object_store.available
    node.recover()
    assert node.object_store.available
