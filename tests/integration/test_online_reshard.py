"""Integration tests for online resharding.

The ReshardManager must grow and shrink the live ring with no restart
and no correctness cost: dual-ownership routing keeps every binding
committing while the moving arcs are copied, the epoch flip is atomic,
and the old owners' garbage is collected -- all while crashes,
concurrent membership changes, and live traffic do their worst.
"""

import pytest

from repro import DistributedSystem, SystemConfig
from repro.naming import ReshardInProgress
from repro.naming.group_view_db import SERVICE_NAME

from tests.conftest import (
    add_work,
    assert_shard_replicas_agree,
    get_work,
)
from tests.integration.test_sharded_nameserver import build


def assert_placement_matches_ring(system, uids, replication=2):
    """Entries live exactly on their (current-ring) preference lists."""
    for uid in uids:
        owners = set(system.shard_router.preference_list(uid, replication))
        for shard, db in system.db.shards.items():
            assert db.knows(str(uid)) == (shard in owners), \
                f"{uid} misplaced at {shard}: owners {sorted(owners)}"


def test_scale_out_moves_arcs_flips_and_garbage_collects():
    system, (client,), uids = build(shards=2, objects=12,
                                    nameserver_replication=2)
    for uid in uids:
        assert system.run_transaction(client, add_work(uid, 1)).committed

    process = system.add_shard_host()
    outcome = system.run_until(process, timeout=120.0)

    assert system.shard_router.nodes == ["namenode0", "namenode1",
                                         "namenode2"]
    assert system.shard_router.epoch == 1
    assert system.shard_router.transition is None
    assert outcome["flipped_at"] is not None
    assert outcome["done_at"] >= outcome["flipped_at"]
    assert outcome["entries_forgotten"] > 0, \
        "a grown ring must have moved (and GC'd) at least one arc"
    assert_placement_matches_ring(system, uids)
    for uid in uids:
        assert_shard_replicas_agree(system, uid)
        result = system.run_transaction(client, get_work(uid))
        assert result.committed and result.value == 1
        assert system.run_transaction(client, add_work(uid, 1)).committed


def test_scale_out_commits_bindings_throughout_the_migration():
    """Dual-ownership routing is the point: no write barrier, no abort
    window, while arcs move."""
    system, (client,), uids = build(shards=2, objects=8,
                                    nameserver_replication=2)
    process = system.add_shard_host()
    rounds = 0
    while not process.done:
        for uid in uids:
            assert system.run_transaction(client, add_work(uid, 1)).committed
        rounds += 1
        assert rounds < 200, "migration must finish under live traffic"
    system.run_until(process, timeout=60.0)
    for uid in uids:
        result = system.run_transaction(client, get_work(uid))
        assert result.committed and result.value == rounds
    assert_placement_matches_ring(system, uids)


def test_drain_retires_the_host_and_keeps_its_arcs_served():
    system, (client,), uids = build(shards=3, objects=9,
                                    nameserver_replication=2)
    for uid in uids:
        assert system.run_transaction(client, add_work(uid, 1)).committed
    victim = system.shard_router.nodes[-1]
    victim_db = system.db.shards[victim]

    process = system.drain_shard_host(victim)
    outcome = system.run_until(process, timeout=120.0)

    assert victim not in system.shard_router.nodes
    assert victim in system.drained_shard_hosts
    assert outcome["removed"] == [victim]
    assert victim_db.list_uids() == [], \
        "a drained host must end fully garbage-collected"
    assert not system.nodes[victim].rpc.has_service(SERVICE_NAME), \
        "a drained host must stop serving the naming RPC surface"
    assert victim not in system.db.shards
    assert_placement_matches_ring(system, uids)
    for uid in uids:
        assert system.run_transaction(client, add_work(uid, 1)).committed
        result = system.run_transaction(client, get_work(uid))
        assert result.committed and result.value == 2


def test_drained_host_recovery_does_not_resurrect_the_service():
    system, (client,), uids = build(shards=3, objects=6,
                                    nameserver_replication=2)
    victim = system.shard_router.nodes[-1]
    system.run_until(system.drain_shard_host(victim), timeout=120.0)

    system.nodes[victim].crash()
    system.run(until=system.scheduler.now + 1.0)
    system.nodes[victim].recover()
    system.run(until=system.scheduler.now + 30.0)
    assert not system.nodes[victim].rpc.has_service(SERVICE_NAME), \
        "retirement must survive a crash/recovery cycle"
    for uid in uids:
        assert system.run_transaction(client, add_work(uid, 1)).committed


def test_drain_refuses_to_go_below_replication():
    system, _, _ = build(shards=2, nameserver_replication=2)
    with pytest.raises(ValueError):
        system.run_until(system.drain_shard_host("namenode1"), timeout=30.0)


def test_concurrent_membership_changes_are_refused():
    system, (client,), uids = build(shards=2, objects=6,
                                    nameserver_replication=2)
    first = system.add_shard_host()
    with pytest.raises(ValueError):
        system.add_shard_host()  # eager refusal while the first migrates
    system.run_until(first, timeout=120.0)
    # After the epoch completes the ring is elastic again.
    second = system.add_shard_host()
    system.run_until(second, timeout=120.0)
    assert len(system.shard_router.nodes) == 4
    assert_placement_matches_ring(system, uids)


def test_reshard_manager_itself_rejects_overlapping_epochs():
    system, _, _ = build(shards=2, objects=3, nameserver_replication=2)
    process = system.add_shard_host()
    with pytest.raises(ReshardInProgress):
        system.run_until(
            system.scheduler.spawn(system.reshard.grow("late-host"),
                                   name="late"), timeout=30.0)
    system.run_until(process, timeout=120.0)


def test_migration_defers_while_a_source_host_is_down():
    """A moving arc with an unreachable old owner must hold the epoch
    open -- the dark host may hold a committed write nobody else took
    -- and complete once it recovers."""
    system, (client,), uids = build(shards=2, objects=8,
                                    nameserver_replication=2)
    for uid in uids:
        assert system.run_transaction(client, add_work(uid, 1)).committed
    victim = system.shard_router.nodes[0]
    system.nodes[victim].crash()

    process = system.add_shard_host()
    system.run(until=system.scheduler.now + 10.0)
    assert not process.done, \
        "the migration must wait for the dark source, not flip past it"
    assert system.shard_router.transition is not None

    system.nodes[victim].recover()
    outcome = system.run_until(process, timeout=240.0)
    assert outcome["flipped_at"] is not None
    assert_placement_matches_ring(system, uids)
    for uid in uids:
        assert_shard_replicas_agree(system, uid)
        assert system.run_transaction(client, add_work(uid, 1)).committed


def test_new_host_crash_during_migration_heals():
    """Crashing the incoming owner mid-copy defers the epoch; its
    recovery (gated by its own resync manager) lets the migration
    finish, and the flip still lands."""
    from repro import FaultPlan

    system, (client,), uids = build(shards=3, objects=9,
                                    nameserver_replication=2)
    process = system.add_shard_host("namenode3")
    # Crash the incoming host shortly into the migration, recover later.
    system.install_fault_plan(
        FaultPlan().outage(system.scheduler.now + 0.2,
                           system.scheduler.now + 5.0, "namenode3"))
    outcome = system.run_until(process, timeout=240.0)
    assert outcome["flipped_at"] is not None
    assert "namenode3" in system.shard_router.nodes
    assert_placement_matches_ring(system, uids)
    for uid in uids:
        assert_shard_replicas_agree(system, uid)
        assert system.run_transaction(client, add_work(uid, 1)).committed


def test_sweep_garbage_collects_an_install_that_raced_the_flip():
    """An install computed against the pre-flip ring can land on an
    ex-owner after the migration's GC round; the anti-entropy sweep is
    the standing collector that forgets it -- but never while a
    transition is staged (the host may hold freshly-copied arcs it
    does not own under the live ring yet)."""
    from repro.naming.shard_router import RingTransition

    system, (client,), uids = build(shards=3, objects=6,
                                    nameserver_replication=2,
                                    shard_antientropy_interval=2.0)
    uid = uids[0]
    owners = system.shard_router.preference_list(uid, 2)
    outsider = [n for n in system.shard_hosts if n not in owners][0]
    foreign = system.db.shards[outsider]

    # Plant the raced install: a committed copy on a non-owner.
    assert foreign.guarded_install_entry(
        str(uid), ["a1", "a2"], {"a1": {}, "a2": {}}, ["a1", "a2"], (1, 1))
    assert foreign.knows(str(uid))

    # While a transition is staged the sweep must leave it alone...
    target = system.shard_router.clone()
    system.shard_router.transition = RingTransition(target, epoch=99)
    system.run(until=system.scheduler.now + 6.0)
    assert foreign.knows(str(uid)), \
        "mid-transition the sweep must not touch unowned local arcs"

    # ...and once the ring is stable again, sweep it out.
    system.shard_router.transition = None
    system.run(until=system.scheduler.now + 6.0)
    assert not foreign.knows(str(uid)), \
        "the sweep must collect the leftover arc"
    assert system.run_transaction(client, add_work(uid, 1)).committed


def test_resharding_refuses_the_nonatomic_variant():
    """The section-5 name server has no atomic entries to migrate, so
    every ring change refuses it up front (the default one-host ring
    reshards; see tests/workload/test_sweep.py)."""
    system = DistributedSystem(SystemConfig(seed=7,
                                            nonatomic_name_server=True))
    with pytest.raises(ValueError):
        system.add_shard_host()
    with pytest.raises(ValueError):
        system.drain_shard_host(system.name_node.name)
    with pytest.raises(ValueError):
        system.enable_autoscaler()
    assert system.shard_hosts == [system.name_node.name]
    assert list(system.nodes) == [system.name_node.name], \
        "a refused ring change must boot no host"


def test_autoscaler_grows_the_ring_under_load():
    """The end-to-end elasticity loop: per-shard op rates over the
    threshold trigger a real migration epoch."""
    system, (client,), uids = build(shards=2, objects=8,
                                    nameserver_replication=2,
                                    scheme="independent")
    system.enable_autoscaler(ops_per_shard=5.0, interval=1.0, max_shards=3)
    deadline = 60.0
    while (len(system.shard_router.nodes) < 3
           and system.scheduler.now < deadline):
        for uid in uids:
            system.run_transaction(client, add_work(uid, 1))
    system.run(until=system.scheduler.now + 30.0)
    assert len(system.shard_router.nodes) == 3, \
        "sustained over-threshold load must grow the ring"
    assert system.autoscaler.scale_ups_triggered >= 1
    assert not system.reshard.active
    assert_placement_matches_ring(system, uids)


def test_plan_rebalance_moves_two_hosts_in_one_epoch():
    """The multi-host plan: 2->4 in a single staged transition, one
    copy pipeline, one atomic flip -- not one epoch per host."""
    system, (client,), uids = build(shards=2, objects=12,
                                    nameserver_replication=2)
    for uid in uids:
        assert system.run_transaction(client, add_work(uid, 1)).committed

    process = system.plan_rebalance(add=2)
    outcome = system.run_until(process, timeout=240.0)

    assert len(system.shard_router.nodes) == 4
    assert outcome["added"] == ["namenode2", "namenode3"]
    assert outcome["flipped_at"] is not None
    assert system.reshard.epochs_completed == 1, \
        "a plan is one migration epoch, however many hosts it moves"
    assert system.shard_router.transition is None
    assert_placement_matches_ring(system, uids)
    for uid in uids:
        assert_shard_replicas_agree(system, uid)
        result = system.run_transaction(client, get_work(uid))
        assert result.committed and result.value == 1
        assert system.run_transaction(client, add_work(uid, 1)).committed


def test_plan_rebalance_commits_bindings_throughout():
    system, (client,), uids = build(shards=2, objects=8,
                                    nameserver_replication=2)
    process = system.plan_rebalance(add=2)
    rounds = 0
    while not process.done:
        for uid in uids:
            assert system.run_transaction(client, add_work(uid, 1)).committed
        rounds += 1
        assert rounds < 200, "the plan must finish under live traffic"
    system.run_until(process, timeout=60.0)
    for uid in uids:
        result = system.run_transaction(client, get_work(uid))
        assert result.committed and result.value == rounds
    assert_placement_matches_ring(system, uids)


def test_plan_rebalance_swaps_hosts_in_one_epoch():
    """A plan may add and remove in the same transition: the retiring
    host's arcs land directly on the replacements."""
    system, (client,), uids = build(shards=3, objects=9,
                                    nameserver_replication=2)
    for uid in uids:
        assert system.run_transaction(client, add_work(uid, 1)).committed
    victim = system.shard_router.nodes[-1]
    process = system.plan_rebalance(add=["fresh-shard"], remove=[victim])
    outcome = system.run_until(process, timeout=240.0)

    assert victim not in system.shard_router.nodes
    assert "fresh-shard" in system.shard_router.nodes
    assert outcome["removed"] == [victim]
    assert victim in system.drained_shard_hosts
    assert system.db.shards.get(victim) is None
    assert not system.nodes[victim].rpc.has_service(SERVICE_NAME)
    assert_placement_matches_ring(system, uids)
    for uid in uids:
        assert_shard_replicas_agree(system, uid)
        result = system.run_transaction(client, get_work(uid))
        assert result.committed and result.value == 1


def test_plan_rebalance_validates_its_inputs():
    system, _, _ = build(shards=2, nameserver_replication=2)
    with pytest.raises(ValueError):
        system.plan_rebalance()  # an empty plan moves nothing
    with pytest.raises(ValueError):
        system.plan_rebalance(remove=["not-a-shard"])
    with pytest.raises(ValueError):
        system.plan_rebalance(remove=["namenode1"])  # below replication
    with pytest.raises(ValueError):
        system.reshard.plan_rebalance(add=["x"], remove=["x"])


def test_rejected_plan_boots_no_orphan_hosts():
    """Validation must run before anything is spent on the plan: a
    rejected plan must not leave freshly-booted shard hosts serving
    but never on the ring."""
    system, _, _ = build(shards=2, nameserver_replication=2)
    before_nodes = set(system.nodes)
    before_shards = set(system.db.shards)
    with pytest.raises(ValueError):
        # Adds one, removes both: survivors < replication -> rejected.
        system.plan_rebalance(add=1, remove=["namenode0", "namenode1"])
    assert set(system.nodes) == before_nodes, \
        "a rejected plan must not boot new nodes"
    assert set(system.db.shards) == before_shards
    assert not system.reshard.active
    # The ring is still elastic afterwards (nothing half-claimed).
    process = system.add_shard_host()
    system.run_until(process, timeout=120.0)
    assert len(system.shard_router.nodes) == 3


def test_migration_under_traffic_requires_no_settle_interval():
    """The fence replaces the settle window: a scale-out under load
    with in-flight pre-stage writes still loses nothing -- and the
    manager simply has no settle knob any more."""
    assert not hasattr(system_reshard_attrs(), "settle")
    system, (client,), uids = build(shards=2, objects=6,
                                    nameserver_replication=2,
                                    service_time=0.004)
    process = system.add_shard_host()
    while not process.done:
        for uid in uids:
            assert system.run_transaction(client, add_work(uid, 1)).committed
    system.run_until(process, timeout=60.0)
    assert_placement_matches_ring(system, uids)


def system_reshard_attrs():
    system, _, _ = build(shards=2, nameserver_replication=2)
    return system.reshard


def test_autoscaler_drains_an_idle_ring():
    """The scale-down policy end-to-end: per-shard op rates sitting
    under the low watermark for a full cooldown drain the least-loaded
    host, and never below min_shards."""
    system, (client,), uids = build(shards=3, objects=6,
                                    nameserver_replication=2,
                                    scheme="independent")
    system.enable_autoscaler(ops_per_shard=1000.0, low_ops_per_shard=5.0,
                             interval=1.0, min_shards=2, down_after=3)
    # No traffic at all: every sample is quiet.
    system.run(until=system.scheduler.now + 60.0)
    assert system.autoscaler.scale_downs_triggered >= 1
    assert len(system.shard_router.nodes) == 2, \
        "an idle ring must drain to the floor and stop there"
    assert not system.reshard.active
    system.run(until=system.scheduler.now + 30.0)
    assert len(system.shard_router.nodes) == 2, \
        "min_shards is a floor, not a suggestion"
    assert_placement_matches_ring(system, uids)
    for uid in uids:
        assert system.run_transaction(client, add_work(uid, 1)).committed
