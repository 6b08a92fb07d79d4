"""Tests for the orphan-shadow termination protocol."""

from repro import DistributedSystem, SystemConfig
from repro.cluster.recovery import ShadowResolver
from repro.storage import Uid

from tests.conftest import Counter


def make_world(seed=3):
    system = DistributedSystem(SystemConfig(seed=seed,
                                            enable_shadow_resolvers=True))
    system.registry.register(Counter)
    system.add_node("s1", server=True)
    system.add_node("t1", store=True)
    system.add_node("t2", store=True)
    client = system.add_client("c1")
    uid = system.create_object(Counter(system.new_uid(), value=0),
                               sv_hosts=["s1"], st_hosts=["t1", "t2"])
    return system, client, uid


def test_orphan_shadow_committed_when_peer_has_newer_version():
    """Coordinator crashed between commit_shadow(t1) and commit_shadow(t2):
    t2's resolver learns v2 committed at t1 and installs its shadow."""
    system, client, uid = make_world()
    t1, t2 = system.nodes["t1"], system.nodes["t2"]
    # Simulate the torn phase-2 directly on the stores.
    state = t1.object_store.read_committed(uid)
    t1.object_store.write_shadow(uid, b"newer" + state.buffer, 2)
    t2.object_store.write_shadow(uid, b"newer" + state.buffer, 2)
    t1.object_store.commit_shadow(uid)   # phase 2 reached t1 ...
    # ... but never t2 (coordinator died).  Let the resolver work.
    system.run(until=10.0)
    assert t2.object_store.version_of(uid) == 2
    assert not t2.object_store.has_shadow(uid)
    resolver = system.shadow_resolvers["t2"]
    assert resolver.committed == 1


def test_orphan_shadow_discarded_when_no_peer_committed():
    """Coordinator crashed before any commit_shadow: presumed abort."""
    system, client, uid = make_world()
    t1, t2 = system.nodes["t1"], system.nodes["t2"]
    state = t1.object_store.read_committed(uid)
    t1.object_store.write_shadow(uid, b"x" + state.buffer, 2)
    t2.object_store.write_shadow(uid, b"x" + state.buffer, 2)
    system.run(until=10.0)
    assert t1.object_store.version_of(uid) == 1
    assert t2.object_store.version_of(uid) == 1
    assert not t1.object_store.has_shadow(uid)
    assert not t2.object_store.has_shadow(uid)


def test_resolution_waits_while_peer_unreachable():
    """With the deciding peer down, the shadow is kept (undecidable)."""
    system, client, uid = make_world()
    t1, t2 = system.nodes["t1"], system.nodes["t2"]
    state = t1.object_store.read_committed(uid)
    t1.object_store.write_shadow(uid, b"y" + state.buffer, 2)
    t1.object_store.commit_shadow(uid)
    t2.object_store.write_shadow(uid, b"y" + state.buffer, 2)
    t1.crash()  # the only peer that knows the verdict is down
    system.run(until=10.0)
    assert t2.object_store.has_shadow(uid)  # still undecided
    t1.recover()
    system.run(until=system.scheduler.now + 10.0)
    assert not t2.object_store.has_shadow(uid)
    assert t2.object_store.version_of(uid) == 2


def test_resolver_requires_store():
    system = DistributedSystem(SystemConfig(seed=1))
    node = system.add_node("plain")
    import pytest
    with pytest.raises(ValueError):
        ShadowResolver(node, system._make_db_client(node))
