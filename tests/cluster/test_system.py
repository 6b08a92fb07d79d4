"""Tests for the DistributedSystem harness."""

import pytest

from repro import DistributedSystem, FaultPlan, SingleCopyPassive, SystemConfig

from tests.conftest import Counter, add_work, build_system, get_work


def test_determinism_same_seed_same_outcome():
    def run(seed):
        system, client, uid = build_system(seed=seed)
        results = [system.run_transaction(client, add_work(uid, 1)).committed
                   for _ in range(5)]
        return results, system.scheduler.now, system.store_versions(uid)

    assert run(3) == run(3)


def test_different_seeds_allowed():
    # Not asserting inequality of outcomes (both may commit everything),
    # just that distinct seeds build distinct RNG streams without error.
    build_system(seed=1)
    build_system(seed=2)


def test_create_object_requires_store_host():
    system = DistributedSystem(SystemConfig(seed=1))
    system.registry.register(Counter)
    system.add_node("s1", server=True)
    with pytest.raises(ValueError):
        system.create_object(Counter(system.new_uid()), ["s1"], ["s1"])


def test_duplicate_node_name_rejected():
    system = DistributedSystem(SystemConfig(seed=1))
    system.add_node("n")
    with pytest.raises(ValueError):
        system.add_node("n")


def test_fault_plan_installation():
    system, client, uid = build_system()
    plan = FaultPlan().outage(1.0, 5.0, "s1")
    system.install_fault_plan(plan)
    system.run(until=2.0)
    assert system.nodes["s1"].crashed
    system.run(until=6.0)
    assert not system.nodes["s1"].crashed


def test_db_probe_helpers_leave_no_locks():
    system, client, uid = build_system()
    for _ in range(3):
        system.db_sv(uid)
        system.db_st(uid)
    name_db = system.db.shards[system.name_node.name]
    assert not name_db.server_db.locks.owners()
    assert not name_db.state_db.locks.owners()


def test_store_versions_skips_crashed_nodes():
    system, client, uid = build_system(st=("t1", "t2"))
    system.nodes["t2"].crash()
    assert list(system.store_versions(uid)) == ["t1"]


def test_snapshot_metrics_contains_txn_counters():
    system, client, uid = build_system()
    system.run_transaction(client, add_work(uid))
    snapshot = system.snapshot_metrics()
    assert snapshot["txn.committed"] == 1


def test_uniform_latency_config():
    system, client, uid = build_system(fixed_latency=None)
    result = system.run_transaction(client, add_work(uid))
    assert result.committed


def test_scheme_selection_per_client():
    system, client, uid = build_system(scheme="standard")
    other = system.add_client("c9", policy=SingleCopyPassive(),
                              scheme="independent")
    assert other.scheme.name == "independent"
    assert client.scheme.name == "standard"
    result = system.run_transaction(other, add_work(uid))
    assert result.committed


def test_unknown_scheme_rejected():
    system, _, _ = build_system()
    with pytest.raises(KeyError):
        system.add_client("cX", scheme="nonsense")


def test_run_transaction_timeout_guard():
    from repro.sim.process import Timeout
    system, client, uid = build_system()

    def forever(txn):
        yield Timeout(10_000.0)

    with pytest.raises(RuntimeError):
        system.run_transaction(client, forever, timeout=1.0)


def test_new_uid_monotonic():
    system = DistributedSystem(SystemConfig(seed=1))
    uids = [system.new_uid() for _ in range(5)]
    assert uids == sorted(uids)
    assert len(set(uids)) == 5


def test_the_paper_deployment_is_a_one_host_ring():
    system, client, uid = build_system()
    assert system.shard_hosts == ["namenode0"]
    assert system.name_node is system.nodes["namenode0"]
    assert system.db.shard_db(str(uid)) is system.db.shards["namenode0"]
    assert system.run_transaction(client, add_work(uid, 1)).committed


@pytest.mark.parametrize("nonatomic", [False, True],
                         ids=["atomic", "nonatomic"])
def test_recovering_the_name_node_drops_its_volatile_state(nonatomic):
    """Locks and undo logs are volatile: a crash of the name node must
    not bring back the lock owners or the provisional writes of an
    action that was in flight when it went down (fail-silent crash,
    stable committed entries).  The section-5 variant resets its
    atomic St half the same way."""
    system, client, uid = build_system(nonatomic_name_server=nonatomic)
    name_db = system.db.shards[system.name_node.name]
    in_flight = (1,)
    name_db.exclude(in_flight, [(str(uid), ["t2"])])
    if not nonatomic:
        name_db.server_db.get_server_with_uses(in_flight, uid,
                                               for_update=True)
        assert name_db.server_db.locks.owners()
    assert name_db.state_db.locks.owners()

    system.name_node.crash()
    system.name_node.recover()

    assert not name_db.state_db.locks.owners()
    if not nonatomic:
        assert not name_db.server_db.locks.owners()
    assert system.db_st(uid) == ["t1", "t2"], \
        "the in-flight exclude must be undone, not resurrected"
    assert system.run_transaction(client, add_work(uid, 1)).committed
