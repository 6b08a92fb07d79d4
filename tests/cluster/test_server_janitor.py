"""Tests for the server-side orphaned-action janitor."""

from tests.conftest import add_work, build_system, get_work


def test_dead_clients_action_aborted_and_locks_freed():
    system, client, uid = build_system(sv=("s1",), st=("t1",))
    client2 = system.add_client("c2")

    def crashy(txn):
        yield from txn.invoke(uid, "add", 7)
        system.nodes["c1"].crash()
        yield from txn.invoke(uid, "add", 7)

    client.transaction(crashy)
    system.run(until=1.0)
    # The object is locked by the dead client's action right now.
    blocked = system.run_transaction(client2, add_work(uid, 1))
    assert not blocked.committed
    # The janitor detects the crash, aborts, restores the before-image.
    system.run(until=10.0)
    host = system.nodes["s1"].rpc.service("servers")
    assert host.janitor_aborts >= 1
    after = system.run_transaction(client2, get_work(uid))
    assert after.committed
    assert after.value == 100  # dirty +7 rolled back


def test_live_client_long_action_not_disturbed():
    from repro.sim.process import Timeout
    system, client, uid = build_system(sv=("s1",), st=("t1",))

    def slow(txn):
        yield from txn.invoke(uid, "add", 1)
        yield Timeout(8.0)  # far beyond several janitor rounds
        v = yield from txn.invoke(uid, "add", 1)
        return v

    result = system.run_transaction(client, slow)
    assert result.committed
    assert result.value == 102
    host = system.nodes["s1"].rpc.service("servers")
    assert host.janitor_aborts == 0


def test_tracking_cleared_on_commit():
    system, client, uid = build_system(sv=("s1",), st=("t1",))
    system.run_transaction(client, add_work(uid, 1))
    host = system.nodes["s1"].rpc.service("servers")
    assert host._actions == {}


def test_client_recovering_does_not_resurrect_action():
    """The client node recovers, but the old action's locks were (or will
    be) janitored: the recovered client starts fresh transactions."""
    system, client, uid = build_system(sv=("s1",), st=("t1",))

    def crashy(txn):
        yield from txn.invoke(uid, "add", 7)
        system.nodes["c1"].crash()

    client.transaction(crashy)
    system.run(until=0.5)
    system.nodes["c1"].recover()
    system.run(until=10.0)
    result = system.run_transaction(client, add_work(uid, 1))
    assert result.committed
    final = system.run_transaction(client, get_work(uid))
    # Only the committed +1 is visible; the orphaned +7 was rolled back.
    assert final.value == 101


def test_read_only_action_is_not_probed_after_it_finished():
    """A read-only vote ends the action at this host: the coordinator
    sends no phase 2, so the janitor must not keep probing its client."""
    system, client, uid = build_system(sv=("s1",), st=("t1",))
    result = system.run_transaction(client, get_work(uid))
    assert result.committed and result.value == 100
    probes_before = system.nodes["c1"].rpc.calls_served
    system.run(until=system.scheduler.now + 10.0)
    assert system.nodes["c1"].rpc.calls_served == probes_before
