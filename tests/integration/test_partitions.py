"""Partition behaviour: the paper assumes partitions prevent active
replication from keeping the object available ('in the absence of
network partitions...'); these tests pin what our substrate does."""

from repro import ActiveReplication, SingleCopyPassive

from tests.conftest import add_work, build_system, get_work


def test_client_partitioned_from_everything_aborts():
    system, client, uid = build_system()
    system.network.partition({"c1"})
    result = system.run_transaction(client, add_work(uid, 1))
    assert not result.committed
    system.network.heal()
    assert system.run_transaction(client, add_work(uid, 1)).committed


def test_partition_isolating_stores_blocks_commit():
    system, client, uid = build_system(st=("t1", "t2"))
    # Client+servers+name node on one side; both stores on the other.
    system.network.partition(
        {"c1", "s1", "s2", "s3", system.name_node.name}, {"t1", "t2"})
    result = system.run_transaction(client, add_work(uid, 1))
    assert not result.committed
    # Nothing was durably changed.
    system.network.heal()
    check = system.run_transaction(client, get_work(uid))
    assert check.value == 100


def test_partition_hiding_one_store_excludes_it():
    system, client, uid = build_system(st=("t1", "t2"),
                                       enable_recovery_managers=False)
    system.network.partition(
        {"c1", "s1", "s2", "s3", system.name_node.name, "t1"}, {"t2"})
    result = system.run_transaction(client, add_work(uid, 1))
    assert result.committed
    assert system.db_st(uid) == ["t1"]


def test_active_replication_minority_replica_masked():
    system, client, uid = build_system(ActiveReplication(), st=("t1",))

    def work(txn):
        yield from txn.invoke(uid, "add", 1)
        system.network.partition(
            {"c1", "s1", "s2", system.name_node.name, "t1"}, {"s3"})
        v = yield from txn.invoke(uid, "add", 1)
        return v

    result = system.run_transaction(client, work)
    assert result.committed
    assert result.value == 102


def test_heal_restores_full_function():
    system, client, uid = build_system()
    system.network.partition({"c1"})
    assert not system.run_transaction(client, add_work(uid, 1)).committed
    system.network.heal()
    result = system.run_transaction(client, add_work(uid, 1))
    assert result.committed
    assert set(system.store_versions(uid).values()) == {2}
