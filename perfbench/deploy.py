"""Every call the benchmark makes into the program's construction API.

``SystemConfig`` keyword arguments, host roles, object layout and fault
plans live here and nowhere else, so a refactor of the configuration
surface (typed sub-configs, booting the single name node as a
one-shard ring) has one place to follow.  Two knobs are deliberately
left at their defaults: ``rpc_pipelining`` (slated to become an
internal simulator optimisation) and the group-commit join path (the
store hosts force their log on a fixed interval, and nothing here
relies on commits joining an in-progress force).

Each ``boot_*`` function returns a :class:`Deployment`; the load, the
audit and the metrics only use the public handles it carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro import (
    ActiveReplication,
    DistributedSystem,
    FaultPlan,
    LockMode,
    PersistentObject,
    SystemConfig,
    operation,
)
from repro.cluster.system import NAME_NODE
from repro.sim.process import Timeout

Work = Callable[[Any], Generator[Any, Any, Any]]

#: One-way message latency, drawn uniformly per message from the
#: system's seeded stream (virtual seconds).
LATENCY = (0.0015, 0.0025)


class Counter(PersistentObject):
    """The one object type every workload drives."""

    TYPE_NAME = "perfbench.Counter"

    def __init__(self, uid, value=0):
        super().__init__(uid)
        self.value = value

    def save_state(self, out):
        out.pack_int(self.value)

    def restore_state(self, state):
        self.value = state.unpack_int()

    @operation(LockMode.READ)
    def get(self):
        return self.value

    @operation(LockMode.WRITE)
    def add(self, amount):
        self.value += amount
        return self.value


@dataclass
class Deployment:
    """A booted system plus the handles the load and the audit need."""

    system: DistributedSystem
    clients: list[Any]
    uids: list[Any]
    sv_hosts: list[str]
    st_hosts: list[str]
    # per object: the hosts its initial Sv and St name
    homes: list[set[str]] = field(default_factory=list)
    writer: Any = None
    # uid text -> the Sv member the read_crowd writer drops and re-adds
    churn_host: dict[str, str] = field(default_factory=dict)


def get(uid) -> Work:
    def work(txn):
        return (yield from txn.invoke(uid, "get"))
    return work


def add(uid, amount: int) -> Work:
    def work(txn):
        return (yield from txn.invoke(uid, "add", amount))
    return work


def churn(deployment: Deployment, uid) -> Work:
    """A naming write: Exclude one Sv member of ``uid``, then Include it.

    Bumps the entry's versions, which is what the write-hot detector
    and the owner-pushed invalidations key off.
    """
    host = deployment.churn_host[str(uid)]

    def work(txn):
        yield from txn._ctx.db.exclude(txn.action, [(uid, [host])])
        yield from txn._ctx.db.include(txn.action, uid, host)
        return True
    return work


def _new_counter(deployment: Deployment, sv: list[str], st: list[str]):
    system = deployment.system
    uid = system.create_object(Counter(system.new_uid(), value=0),
                               sv_hosts=sv, st_hosts=st)
    deployment.uids.append(uid)
    deployment.homes.append(set(sv) | set(st))
    return uid


def boot_commit_storm(seed: int, clients: int, objects: int) -> Deployment:
    """The 2PC commit plane under write-only load.

    Eight leased name shards absorb binding reads; Sv and St sit on
    separate hosts and only the store hosts charge service time (the
    simulated disk), so the store queues see the commit path itself.
    Commit batching and a fixed-interval log force are on.
    """
    system = DistributedSystem(SystemConfig(
        seed=seed, enable_recovery_managers=False,
        nameserver_shards=8, binding_scheme="standard",
        nameserver_lease=5.0, nameserver_cache_ledger=True,
        commit_batching=True, commit_batch_window=0.008,
        log_force_interval=0.003,
        rpc_timeout=5.0, fixed_latency=None, latency_range=LATENCY))
    system.registry.register(Counter)
    sv_hosts = [f"sv{i}" for i in range(4)]
    st_hosts = [f"st{i}" for i in range(8)]
    for host in sv_hosts:
        system.add_node(host, server=True)
    for host in st_hosts:
        system.add_node(host, store=True)
    runtimes = [system.add_client(f"c{i}") for i in range(clients)]
    deployment = Deployment(system, runtimes, [], sv_hosts, st_hosts)
    for i in range(objects):
        _new_counter(deployment, [sv_hosts[i % len(sv_hosts)]],
                     [st_hosts[i % len(st_hosts)]])
    for host in st_hosts:
        system.nodes[host].rpc.service_time = 0.004
    return deployment


def boot_read_crowd(seed: int, clients: int, objects: int) -> Deployment:
    """The leased, push-invalidated read path over a few hot entries.

    Two name shards with replication 2, a 50 ms lease, owner-pushed
    invalidation with renewal, and a dedicated sync NIC per shard
    host.  The shard hosts charge service time, so refetches queue.
    """
    system = DistributedSystem(SystemConfig(
        seed=seed, nameserver_shards=2, nameserver_replication=2,
        binding_scheme="standard", nameserver_lease=0.05,
        nameserver_cache_ledger=True,
        nameserver_push_invalidation=True, nameserver_renewal=True,
        nameserver_hot_write_rate=0.2, nameserver_registration_ttl=30.0,
        dedicated_sync_nic=True, enable_recovery_managers=False,
        rpc_timeout=5.0, fixed_latency=None, latency_range=LATENCY))
    system.registry.register(Counter)
    hosts = [f"s{i}" for i in range(3)]
    for host in hosts:
        system.add_node(host, server=True, store=True)
    runtimes = [system.add_client(f"c{i}") for i in range(clients)]
    writer = system.add_client("writer")
    deployment = Deployment(system, runtimes, [], hosts, hosts, writer=writer)
    for i in range(objects):
        home, alt = hosts[i % len(hosts)], hosts[(i + 1) % len(hosts)]
        uid = _new_counter(deployment, [home, alt], [home])
        deployment.churn_host[str(uid)] = alt
    for host in system.shard_hosts:
        system.nodes[host].rpc.service_time = 0.012
    return deployment


def boot_replica_failover(seed: int, clients: int,
                          objects: int) -> Deployment:
    """The paper's own deployment under crashes.

    One name node, the independent top-level binding scheme (use
    lists), active replication with |Sv| = |St| = 3 over four server
    and four store hosts, and recovery managers on every host.
    """
    system = DistributedSystem(SystemConfig(
        seed=seed, binding_scheme="independent",
        enable_recovery_managers=True, fixed_latency=None, latency_range=LATENCY))
    system.registry.register(Counter)
    sv_hosts = [f"sv{i}" for i in range(4)]
    st_hosts = [f"st{i}" for i in range(4)]
    for host in sv_hosts:
        system.add_node(host, server=True)
    for host in st_hosts:
        system.add_node(host, store=True)
    runtimes = [system.add_client(f"c{i}", policy=ActiveReplication())
                for i in range(clients)]
    deployment = Deployment(system, runtimes, [], sv_hosts, st_hosts)
    for i in range(objects):
        _new_counter(deployment, [sv_hosts[(i + r) % 4] for r in range(3)],
                     [st_hosts[(i + r) % 4] for r in range(3)])
    return deployment


def name_hosts(deployment: Deployment) -> list[str]:
    """The nodes serving the naming database."""
    return deployment.system.shard_hosts or [NAME_NODE]


def install_outages(deployment: Deployment,
                    outages: list[tuple[float, float, str]]) -> None:
    """Crash each host at ``start`` and recover it at ``end`` (virtual s)."""
    plan = FaultPlan()
    for start, end, host in outages:
        plan.outage(start, end, host)
    deployment.system.install_fault_plan(plan)


def watch_recovery(deployment: Deployment, host: str,
                   durations: list[float]) -> None:
    """Append to ``durations`` how long each recovery of ``host`` takes.

    From the instant the node comes back up to the instant its
    recovery manager reports the recovery complete, polled every 5 ms
    of simulated time for at most 20 s.
    """
    system = deployment.system
    manager = system.recovery_managers[host]
    node = system.nodes[host]

    def watch():
        recovered_at = system.scheduler.now
        before = manager.recoveries_completed
        for _ in range(4_000):
            yield Timeout(0.005)
            if manager.recoveries_completed > before:
                durations.append(system.scheduler.now - recovered_at)
                return

    node.add_boot_hook(lambda n: n.spawn(watch(), name="recovery-watch"),
                       run_now=False)
