"""Parameter sweeps, canned scenarios, and plain-text result tables.

Every benchmark regenerates its figure as a :class:`Table` printed to
stdout, so the experiment reports in EXPERIMENTS.md can be reproduced
with ``pytest benchmarks/ --benchmark-only -s``.

:func:`sharded_nameserver_scenario` is the canned workload behind the
sharded-name-service experiments: a closed-loop population of clients,
each binding/unbinding against its own object, with per-node RPC
service time making the name service the queueing bottleneck.  Swept
over the shard count it shows binding throughput scaling horizontally.

:func:`sharded_failover_scenario` is the availability companion: the
same closed loop, but with one shard host crashed mid-run (a
:class:`~repro.sim.failures.FaultPlan` outage) and every entry
replicated over its ring arc (``nameserver_replication``).  The row
separates commits on UIDs whose *primary* home is the crashed host --
the arc a bare ring would black-hole -- and reports when the recovered
host finished resyncing from its replica peers.

:func:`sync_plane_scenario` measures plane *interference*: the same
closed loop under an aggressive anti-entropy sweep and a full-arc
resync, run once with all traffic sharing each shard host's single
NIC and once with the maintenance traffic on a dedicated replication
NIC (``dedicated_sync_nic``).  The client tail latency difference is
what the second plane buys; the lost/stale ledger shows it costs
nothing in correctness.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Sequence


def sweep(values: Iterable[Any], run: Callable[[Any], dict[str, Any]],
          label: str = "param") -> list[dict[str, Any]]:
    """Run ``run(value)`` for each value; collect rows tagged by param."""
    rows = []
    for value in values:
        row = {label: value}
        row.update(run(value))
        rows.append(row)
    return rows


def _closed_loop(clients: int, txns_per_client: int, server_hosts: int,
                 mean_think_time: float, max_attempts: int,
                 seed: int, objects: int | None = None,
                 read_only: bool = False, streams_per_client: int = 1,
                 replication: int = 1, **config_kwargs: Any):
    """Boot the canned closed-loop deployment shared by the scenarios.

    By default every client owns one counter object (so there is no
    per-entry lock contention); passing ``objects`` smaller than
    ``clients`` makes clients share hot objects round-robin, and
    ``read_only=True`` turns the streams into pure ``get`` loops (the
    spread-read experiments).  Server and store roles spread over
    ``server_hosts`` nodes; remaining config lands in ``SystemConfig``.
    ``streams_per_client`` raises per-node concurrency: each client
    runtime runs that many *simultaneous* transaction streams, which is
    what gives the commit batcher same-instant actions to coalesce.
    ``replication`` spreads each object's Sv/St over that many server
    hosts.  Returns ``(system, streams, uids)`` -- run with
    :func:`~repro.workload.generator.run_streams`.
    """
    # Imported here: repro.workload is a substrate the cluster layer's
    # callers pull in; the scenarios are the one piece that goes the
    # other way and builds a whole system.
    from repro.actions.locks import LockMode
    from repro.cluster.system import DistributedSystem, SystemConfig
    from repro.core.objects import PersistentObject, operation
    from repro.sim.rng import SeededRng
    from repro.workload.generator import TransactionStream

    class SweepCounter(PersistentObject):
        TYPE_NAME = "sweep.Counter"

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

    system = DistributedSystem(SystemConfig(
        seed=seed, enable_recovery_managers=False, **config_kwargs))
    system.registry.register(SweepCounter)
    hosts = [f"s{i}" for i in range(server_hosts)]
    for host in hosts:
        system.add_node(host, server=True, store=True)
    runtimes = [system.add_client(f"c{i}") for i in range(clients)]
    total_streams = clients * streams_per_client
    uids = []
    for i in range(objects if objects is not None else total_streams):
        homes = [hosts[(i + r) % server_hosts] for r in range(replication)]
        uids.append(system.create_object(
            SweepCounter(system.new_uid(), value=0),
            sv_hosts=homes, st_hosts=homes))

    def factory_for(uid):
        def factory(_index):
            def work(txn):
                if read_only:
                    return (yield from txn.invoke(uid, "get"))
                return (yield from txn.invoke(uid, "add", 1))
            return work
        return factory

    streams = [
        TransactionStream(runtimes[i // streams_per_client],
                          factory_for(uids[i % len(uids)]),
                          count=txns_per_client,
                          rng=SeededRng(seed, f"stream{i}"),
                          mean_think_time=mean_think_time,
                          max_attempts=max_attempts,
                          read_only=read_only)
        for i in range(total_streams)
    ]
    return system, streams, uids


def _stream_commits(streams: Sequence[Any],
                    uids: Sequence[Any]) -> list[tuple[Any, int]]:
    """Each stream's counter and how many of its transactions committed.

    Stream ``i`` drives ``uids[i % len(uids)]`` (the round-robin of
    :func:`_closed_loop`); pairs come back in stream order.
    """
    return [(uids[i % len(uids)],
             sum(1 for o in stream.report.outcomes if o.committed))
            for i, stream in enumerate(streams)]


def _read_back(system: Any, expected: Iterable[tuple[Any, int]],
               timeout: float = 120.0) -> tuple[int, int]:
    """The lost/stale ledger: re-read each counter against its commits.

    Every ``(uid, committed)`` pair is read, in order, by its own
    read-only transaction on the first client, which must commit.
    Returns ``(lost, stale)``: committed increments missing from the
    final values, and value beyond the committed count (an aborted
    attempt's effect served from a stale copy).
    """
    reader = next(iter(system.clients.values()))
    lost = stale = 0
    for uid, committed in expected:

        def read_value(txn, uid=uid):
            return (yield from txn.invoke(uid, "get"))

        result = system.run_transaction(reader, read_value, read_only=True,
                                        timeout=timeout)
        assert result.committed, f"final audit read failed: {result.reason}"
        lost += max(0, committed - result.value)
        stale += max(0, result.value - committed)
    return lost, stale


def sharded_nameserver_scenario(
    shards: int,
    clients: int = 24,
    txns_per_client: int = 6,
    server_hosts: int = 8,
    scheme: str = "independent",
    service_time: float = 0.006,
    mean_think_time: float = 0.01,
    max_attempts: int = 10,
    rpc_timeout: float = 5.0,
    seed: int = 7,
) -> dict[str, Any]:
    """One run of the sharded-name-service workload; returns a row.

    The closed loop isolates *capacity*, not locking: under the
    use-list schemes a transaction makes ~7 database calls
    (read-for-update, increment, 2PC, decrement action) against ~1
    call per server host, so with one shard the name node is the
    hottest single-server queue in the system and committed throughput
    is capped by it.  The generous rpc timeout matters: an overloaded
    name node shows up as queueing delay, not as spurious timeout
    aborts, so the sweep measures capacity rather than timeout tuning.
    """
    from repro.workload.generator import run_streams

    system, streams, uids = _closed_loop(
        clients, txns_per_client, server_hosts, mean_think_time,
        max_attempts, seed, nameserver_shards=shards,
        binding_scheme=scheme, service_time=service_time,
        rpc_timeout=rpc_timeout)
    report = run_streams(system, streams)
    elapsed = system.scheduler.now
    latencies = [o.latency for o in report.outcomes]
    row: dict[str, Any] = {
        "shards": shards,
        "offered": report.offered,
        "committed": report.committed,
        "commit_rate": report.commit_rate,
        "elapsed": elapsed,
        "throughput": report.committed / elapsed if elapsed > 0 else 0.0,
        "p50_latency": percentile(latencies, 0.50),
        "p95_latency": percentile(latencies, 0.95),
        "p99_latency": percentile(latencies, 0.99),
    }
    row["entry_spread"] = system.shard_router.spread(uids)
    row["per_shard_reads"] = {
        name: system.metrics.counter_value(
            f"shard.{name}.server_db.get_server")
        for name in system.shard_router.nodes}
    return row


def sharded_failover_scenario(
    shards: int = 3,
    replication: int = 2,
    clients: int = 12,
    txns_per_client: int = 10,
    server_hosts: int = 4,
    scheme: str = "independent",
    mean_think_time: float = 0.05,
    max_attempts: int = 10,
    rpc_timeout: float = 0.3,
    outage: tuple[float, float] = (2.0, 9.0),
    victim_index: int = 0,
    seed: int = 7,
) -> dict[str, Any]:
    """One run of the shard-failover workload; returns a row.

    The closed loop of :func:`sharded_nameserver_scenario` (one object
    per client, no entry contention) runs across a scripted outage of
    one shard host.  With ``replication == 1`` the victim's arc is
    black-holed for the outage -- bindings against its UIDs can only
    abort; with ``replication >= 2`` writes flow through the surviving
    replicas and reads fail over, so the row's
    ``victim_commits_during_outage`` stays positive.  The tight
    ``rpc_timeout`` matters here for the opposite reason than in the
    capacity sweep: a call to the crashed host must fail fast so the
    client's failover (not the timeout tuning) dominates the measured
    availability.
    """
    from repro.sim.failures import FaultPlan
    from repro.workload.generator import run_streams

    system, streams, uids = _closed_loop(
        clients, txns_per_client, server_hosts, mean_think_time,
        max_attempts, seed, nameserver_shards=shards,
        nameserver_replication=replication, binding_scheme=scheme,
        rpc_timeout=rpc_timeout)
    victim = system.shard_hosts[victim_index]
    start, end = outage
    system.install_fault_plan(FaultPlan().outage(start, end, victim))
    report = run_streams(system, streams)
    # Let the victim's recovery and resync play out before inspecting.
    system.run(until=max(system.scheduler.now, end) + 30.0)

    victim_uids = {str(uid) for uid in uids
                   if system.shard_router.shard_for(uid) == victim}

    def in_outage(outcome):
        return start <= outcome.finished_at <= end

    victim_outcomes = [o for i, stream in enumerate(streams)
                       if str(uids[i]) in victim_uids
                       for o in stream.report.outcomes]
    victim_during = [o for o in victim_outcomes if in_outage(o)]
    resyncer = system.shard_resyncers.get(victim)
    latencies = [o.latency for o in report.outcomes]
    row: dict[str, Any] = {
        "shards": shards,
        "replication": replication,
        "victim": victim,
        "victim_arcs": len(victim_uids),
        "offered": report.offered,
        "committed": report.committed,
        "commit_rate": report.commit_rate,
        "p50_latency": percentile(latencies, 0.50),
        "p95_latency": percentile(latencies, 0.95),
        "p99_latency": percentile(latencies, 0.99),
        "victim_offered_during_outage": len(victim_during),
        "victim_commits_during_outage": sum(
            1 for o in victim_during if o.committed),
        "victim_commits_total": sum(
            1 for o in victim_outcomes if o.committed),
        "resyncs_completed": (resyncer.resyncs_completed
                              if resyncer is not None else 0),
        "entries_refreshed": (resyncer.entries_refreshed
                              if resyncer is not None else 0),
        "resync_done_at": (resyncer.last_resync_at
                           if resyncer is not None else None),
        "recovered_at": end,
        "serving_again": (resyncer.serving if resyncer is not None
                          else not system.nodes[victim].crashed),
    }
    return row


def sync_plane_scenario(
    dedicated_sync_nic: bool = False,
    shards: int = 3,
    replication: int = 2,
    clients: int = 6,
    txns_per_client: int = 50,
    server_hosts: int = 4,
    scheme: str = "independent",
    shard_service_time: float = 0.012,
    sweep_interval: float | None = 0.1,
    mean_think_time: float = 0.15,
    max_attempts: int = 10,
    rpc_timeout: float = 5.0,
    fixed_latency: float = 0.002,
    outage: tuple[float, float] = (2.0, 6.0),
    victim_index: int = 0,
    seed: int = 7,
) -> dict[str, Any]:
    """One run of the two-plane interference workload; returns a row.

    The capacity sweep's closed loop (only the shard hosts charge
    per-request service time, so the name service is the queueing
    bottleneck) runs while the replica-maintenance machinery does its
    worst: an aggressive anti-entropy sweep on every shard host, plus a
    scripted outage of one shard host whose recovery triggers a
    full-arc resync -- every entry on every arc the victim replicates
    gets probed, and stale ones copied, while the clients keep binding.

    With ``dedicated_sync_nic=False`` (the single-plane baseline) all
    of that maintenance traffic lands in the *same* single-server
    queues as the client requests, so resync and sweep storms show up
    directly in the client tail latency.  With the dedicated sync NIC
    the same maintenance work (same per-request service time, charged
    on the sync agents) rides its own plane, and the client
    percentiles should barely notice the storm.  The row carries both
    planes' traffic meters, the client latency percentiles (overall
    and during the post-recovery resync window), and the lost/stale
    correctness ledger -- isolation must cost nothing in correctness.
    """
    from repro.sim.failures import FaultPlan
    from repro.workload.generator import run_streams

    system, streams, uids = _closed_loop(
        clients, txns_per_client, server_hosts, mean_think_time,
        max_attempts, seed, nameserver_shards=shards,
        nameserver_replication=replication, binding_scheme=scheme,
        rpc_timeout=rpc_timeout, fixed_latency=fixed_latency,
        shard_antientropy_interval=sweep_interval,
        dedicated_sync_nic=dedicated_sync_nic,
        # Same per-request cost for maintenance work either way: on the
        # shared plane it charges the client queue; on the dedicated
        # plane it charges the sync agent's own queue.
        sync_service_time=(shard_service_time if dedicated_sync_nic
                           else None))
    for host in system.shard_hosts:
        system.nodes[host].rpc.service_time = shard_service_time
    victim = system.shard_hosts[victim_index]
    start, end = outage
    system.install_fault_plan(FaultPlan().outage(start, end, victim))
    report = run_streams(system, streams)
    system.run(until=max(system.scheduler.now, end) + 30.0)

    resyncer = system.shard_resyncers.get(victim)
    resync_done = (resyncer.last_resync_at
                   if resyncer is not None and resyncer.last_resync_at
                   else end + 4.0)

    latencies = [o.latency for o in report.outcomes]
    storm = [o.latency for o in report.outcomes
             if end <= o.finished_at < max(resync_done, end + 1.0)]

    # -- the correctness ledger ---------------------------------------------
    lost, stale = _read_back(system, _stream_commits(streams, uids))

    def plane_total(plane: str, what: str) -> int:
        return sum(
            int(system.metrics.counter_value(f"traffic.{h}.{plane}.{what}"))
            for h in system.shard_hosts)

    finishes = [o.finished_at for o in report.outcomes]
    elapsed = max(finishes) if finishes else system.scheduler.now
    return {
        "dedicated_sync_nic": dedicated_sync_nic,
        "shards": shards,
        "replication": replication,
        "offered": report.offered,
        "committed": report.committed,
        "commit_rate": report.commit_rate,
        "throughput": report.committed / elapsed if elapsed > 0 else 0.0,
        "mean_latency": report.mean_latency(),
        "p50_latency": percentile(latencies, 0.50),
        "p95_latency": percentile(latencies, 0.95),
        "p99_latency": percentile(latencies, 0.99),
        "p95_during_resync": percentile(storm, 0.95) if storm else 0.0,
        "resync_done_at": (resyncer.last_resync_at
                           if resyncer is not None else None),
        "entries_refreshed": (resyncer.entries_refreshed
                              if resyncer is not None else 0),
        "client_plane_rpcs": plane_total("client", "rpcs_in"),
        "client_plane_bytes": plane_total("client", "bytes_in"),
        "sync_plane_rpcs": plane_total("sync", "rpcs_in"),
        "sync_plane_bytes": plane_total("sync", "bytes_in"),
        "lost_bindings": lost,
        "stale_bindings": stale,
    }


def commit_batching_scenario(
    batching: bool,
    shards: int = 8,
    clients: int = 4,
    streams_per_client: int = 64,
    txns_per_stream: int = 12,
    server_hosts: int = 4,
    store_hosts: int = 8,
    scheme: str = "standard",
    lease: float | None = 5.0,
    store_service_time: float = 0.004,
    commit_batch_window: float = 0.008,
    log_force_interval: float = 0.003,
    mean_think_time: float = 0.0,
    fixed_latency: float = 0.002,
    max_attempts: int = 10,
    rpc_timeout: float = 5.0,
    replication: int = 1,
    churn: bool = False,
    outage: tuple[float, float] = (0.4, 1.2),
    victim_index: int = 0,
    seed: int = 7,
) -> dict[str, Any]:
    """One run of the raw-speed commit-plane workload; returns a row.

    A write-only closed loop built for *commit-path* pressure: each
    client node runs ``streams_per_client`` simultaneous transaction
    streams (one private counter each, so there is no entry or lock
    contention).  Server (``Sv``) and store (``St``) roles live on
    *separate* hosts and only the store hosts charge per-request
    service time -- the simulated disk.  Binding reads are absorbed by
    the leased cache (the prior planes' machinery, identical in both
    rows), so what lands in a store host's single-server queue is the
    commit path itself: per-action ``write_shadow``/``commit_shadow``
    unbatched, coalesced ``write_shadow_many``/``commit_shadow_many``
    with ``batching=True``.  Both rows arm ``log_force_interval`` (the
    same durability model at equal offered load); the batched row
    additionally shares one log force per batch, so it pays one
    service-time/log charge where the baseline pays one per action --
    that amortization, not any reduction in offered load, is the
    measured speedup.

    With ``churn=True`` a scripted outage crashes one store host in the
    middle of the batched run (``replication`` must be >= 2): in-flight
    batches against the victim die mid-window, the coordinator demuxes
    the failure per action, the victim is ``Exclude``d from the
    affected entries' ``St`` (a real naming write, batched 2PC on the
    shards), and the commits survive on the remaining replica.  The row
    then re-reads every counter and reports the lost/stale ledger --
    batching must never trade correctness for speed.
    """
    from repro.actions.locks import LockMode
    from repro.cluster.system import DistributedSystem, SystemConfig
    from repro.core.objects import PersistentObject, operation
    from repro.sim.failures import FaultPlan
    from repro.sim.rng import SeededRng
    from repro.workload.generator import TransactionStream, run_streams

    class BatchCounter(PersistentObject):
        TYPE_NAME = "commit_batch.Counter"

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

    config_kwargs: dict[str, Any] = {}
    if batching:
        config_kwargs.update(
            commit_batching=True,
            commit_batch_window=commit_batch_window,
            rpc_pipelining=True)
    system = DistributedSystem(SystemConfig(
        seed=seed, enable_recovery_managers=False,
        nameserver_shards=shards,
        nameserver_replication=max(1, replication),
        binding_scheme=scheme, nameserver_lease=lease,
        nameserver_cache_ledger=lease is not None,
        log_force_interval=log_force_interval,
        rpc_timeout=rpc_timeout, fixed_latency=fixed_latency,
        **config_kwargs))
    system.registry.register(BatchCounter)
    sv_hosts = [f"sv{i}" for i in range(server_hosts)]
    st_hosts = [f"st{i}" for i in range(store_hosts)]
    for host in sv_hosts:
        system.add_node(host, server=True, store=False)
    for host in st_hosts:
        system.add_node(host, server=False, store=True)
    runtimes = [system.add_client(f"c{i}") for i in range(clients)]
    total_streams = clients * streams_per_client
    uids = []
    for i in range(total_streams):
        uids.append(system.create_object(
            BatchCounter(system.new_uid(), value=0),
            sv_hosts=[sv_hosts[(i + r) % server_hosts]
                      for r in range(max(1, min(replication, server_hosts)))],
            st_hosts=[st_hosts[(i + r) % store_hosts]
                      for r in range(max(1, min(replication, store_hosts)))]))
    for host in st_hosts:
        system.nodes[host].rpc.service_time = store_service_time

    def factory_for(uid):
        def factory(_index):
            def work(txn):
                return (yield from txn.invoke(uid, "add", 1))
            return work
        return factory

    streams = [
        TransactionStream(runtimes[i // streams_per_client],
                          factory_for(uids[i]),
                          count=txns_per_stream,
                          rng=SeededRng(seed, f"stream{i}"),
                          mean_think_time=mean_think_time,
                          max_attempts=max_attempts)
        for i in range(total_streams)
    ]

    if churn:
        victim = st_hosts[victim_index]
        start, end = outage
        system.install_fault_plan(FaultPlan().outage(start, end, victim))

    report = run_streams(system, streams, timeout=100_000.0)
    if churn:
        system.run(until=max(system.scheduler.now, outage[1]) + 30.0)

    finishes = [o.finished_at for o in report.outcomes]
    elapsed = max(finishes) if finishes else system.scheduler.now
    latencies = [o.latency for o in report.outcomes]
    snapshot = system.metrics.snapshot()
    total_rpcs = sum(value for name, value in snapshot.items()
                     if name.endswith(".rpcs_out") and isinstance(value, int))
    batch_sizes = snapshot.get("commit_batch.batch_size")
    log_forces = sum(value for name, value in snapshot.items()
                     if name.endswith(".log_forces") and isinstance(value, int))
    log_joins = sum(value for name, value in snapshot.items()
                    if name.endswith(".log_force_joins")
                    and isinstance(value, int))
    row: dict[str, Any] = {
        "batching": batching,
        "shards": shards,
        "streams": len(streams),
        "offered": report.offered,
        "committed": report.committed,
        "commit_rate": report.commit_rate,
        "elapsed": elapsed,
        "throughput": report.committed / elapsed if elapsed > 0 else 0.0,
        "mean_latency": report.mean_latency(),
        "p50_latency": percentile(latencies, 0.50),
        "p95_latency": percentile(latencies, 0.95),
        "p99_latency": percentile(latencies, 0.99),
        "rpcs_sent": total_rpcs,
        "batched_rpcs": snapshot.get("commit_batch.batched_rpcs", 0),
        "batched_items": snapshot.get("commit_batch.items", 0),
        "mean_batch_size": (batch_sizes["mean"]
                            if isinstance(batch_sizes, dict) else 0.0),
        "log_forces": log_forces,
        "log_force_joins": log_joins,
    }
    if churn:
        # -- the correctness ledger: re-read every counter ------------------
        lost, stale = _read_back(system, _stream_commits(streams, uids),
                                 timeout=30.0)
        row["crashed_host"] = st_hosts[victim_index]
        row["lost_bindings"] = lost
        row["stale_bindings"] = stale
    return row


def online_reshard_scenario(
    initial_shards: int = 2,
    target_shards: int = 4,
    replication: int = 2,
    clients: int = 24,
    txns_per_client: int = 36,
    server_hosts: int = 4,
    scheme: str = "independent",
    service_time: float = 0.006,
    mean_think_time: float = 0.01,
    max_attempts: int = 10,
    rpc_timeout: float = 5.0,
    reshard_at: float = 2.0,
    plan: bool = False,
    seed: int = 7,
) -> dict[str, Any]:
    """One run of the online-resharding workload; returns a row.

    The capacity sweep's closed loop (one object per client, per-node
    service time making the name service the bottleneck) runs while a
    driver grows -- or, with ``target_shards < initial_shards``, drains
    -- the shard ring live: one host at a time by default, or, with
    ``plan=True``, the whole delta as a single ``plan_rebalance``
    epoch (a 2->4 scale-out in one staged transition and one flip).
    There is no settle interval anywhere in the pipeline -- the epoch
    fence is what keeps pre-transition in-flight writes off the wrong
    owners.  The row separates committed throughput into
    before/during/after-migration windows and carries the correctness
    ledger the acceptance criteria are about:

    - ``lost_bindings`` -- committed counter increments missing from
      the final value (a moved arc dropped a write);
    - ``stale_bindings`` -- final value *beyond* the committed count
      (an aborted attempt's effect served from a stale copy);
    - ``aborted_for_routing`` -- transactions whose final abort reason
      was ``UnknownObject``/RPC routing, i.e. the ring sent a client
      somewhere that could not serve it;
    - ``misplaced_entries`` / ``replica_disagreements`` -- post-flip
      placement and convergence audits over every shard database.
    """
    from repro.sim.process import Timeout
    from repro.workload.generator import run_streams

    system, streams, uids = _closed_loop(
        clients, txns_per_client, server_hosts, mean_think_time,
        max_attempts, seed, nameserver_shards=initial_shards,
        nameserver_replication=replication, binding_scheme=scheme,
        service_time=service_time, rpc_timeout=rpc_timeout)
    flips: list[dict[str, Any]] = []

    def driver():
        yield Timeout(reshard_at)
        if plan:
            delta = target_shards - len(system.shard_router.nodes)
            if delta > 0:
                flips.append((yield system.plan_rebalance(add=delta)))
            elif delta < 0:
                victims = system.shard_router.nodes[delta:]
                flips.append((yield system.plan_rebalance(remove=victims)))
            return
        while len(system.shard_router.nodes) < target_shards:
            flips.append((yield system.add_shard_host()))
        while len(system.shard_router.nodes) > target_shards:
            victim = system.shard_router.nodes[-1]
            flips.append((yield system.drain_shard_host(victim)))

    driver_process = system.scheduler.spawn(driver(), name="reshard-driver")
    report = run_streams(system, streams)
    system.run_until(driver_process, timeout=300.0)
    system.run(until=system.scheduler.now + 2.0)  # let repairs settle

    # -- the correctness ledger ---------------------------------------------
    lost, stale = _read_back(system, _stream_commits(streams, uids))

    reasons = report.abort_reasons()
    aborted_for_routing = sum(
        count for bucket, count in reasons.items()
        if "UnknownObject" in bucket or bucket.startswith("Rpc"))

    misplaced = 0
    disagreements = 0
    for uid in uids:
        owners = system.shard_router.preference_list(uid, replication)
        for shard, db in system.db.shards.items():
            if db.knows(str(uid)) != (shard in owners):
                misplaced += 1
        states = []
        for shard in owners:
            db = system.db.shards[shard]
            snapshot = db.get_server_with_uses((0,), str(uid))
            view = db.get_view((0,), str(uid))
            states.append((tuple(snapshot.hosts),
                           {h: dict(c) for h, c in snapshot.uses.items()},
                           tuple(view)))
        system._release_probe_locks()
        if any(state != states[0] for state in states):
            disagreements += 1

    # -- throughput windows --------------------------------------------------
    start = flips[0]["started_at"] if flips else None
    done = flips[-1]["done_at"] if flips else None
    finishes = [o.finished_at for o in report.outcomes]
    last_finish = max(finishes) if finishes else 0.0

    def window_rate(lo, hi):
        if lo is None or hi is None or hi <= lo:
            return 0.0
        commits = sum(1 for o in report.outcomes
                      if o.committed and lo <= o.finished_at < hi)
        return commits / (hi - lo)

    latencies = [o.latency for o in report.outcomes]
    return {
        "shards_before": initial_shards,
        "shards_after": len(system.shard_router.nodes),
        "offered": report.offered,
        "committed": report.committed,
        "commit_rate": report.commit_rate,
        "p50_latency": percentile(latencies, 0.50),
        "p95_latency": percentile(latencies, 0.95),
        "p99_latency": percentile(latencies, 0.99),
        "throughput_before": window_rate(0.0, start),
        "throughput_during": window_rate(start, done),
        "throughput_after": window_rate(done, last_finish),
        "migration_started_at": start,
        "migration_done_at": done,
        "epochs": len(flips),
        "entries_copied": sum(f["entries_copied"] for f in flips),
        "entries_forgotten": sum(f["entries_forgotten"] for f in flips),
        "requests_fenced": sum(node.rpc.calls_fenced
                               for node in system.nodes.values()),
        "stale_ring_retries": system.metrics.counter_value(
            "replica_io.stale_ring_retries"),
        "lost_bindings": lost,
        "stale_bindings": stale,
        "aborted_for_routing": aborted_for_routing,
        "misplaced_entries": misplaced,
        "replica_disagreements": disagreements,
    }


def spread_read_scenario(
    read_policy: str = "primary",
    shards: int = 3,
    replication: int = 3,
    clients: int = 18,
    txns_per_client: int = 12,
    server_hosts: int = 3,
    hot_objects: int = 1,
    shard_service_time: float = 0.005,
    mean_think_time: float = 0.01,
    max_attempts: int = 5,
    rpc_timeout: float = 5.0,
    seed: int = 7,
) -> dict[str, Any]:
    """One run of the hot-arc read workload; returns a row.

    Every client loops read-only transactions against the same few hot
    objects, and *only the shard hosts* charge service time, so the
    name service is the sole queueing bottleneck.  Under the
    ``primary`` policy every read of a hot entry lands on its
    preference-list head -- one single-server queue -- while ``spread``
    rotates reads across the arc's whole replica set; the row's tail
    latency is the difference.
    """
    from repro.workload.generator import run_streams

    system, streams, _uids = _closed_loop(
        clients, txns_per_client, server_hosts, mean_think_time,
        max_attempts, seed, objects=hot_objects, read_only=True,
        nameserver_shards=shards, nameserver_replication=replication,
        nameserver_read_policy=read_policy, binding_scheme="standard",
        rpc_timeout=rpc_timeout)
    for host in system.shard_hosts:
        system.nodes[host].rpc.service_time = shard_service_time
    report = run_streams(system, streams)
    latencies = [o.latency for o in report.outcomes]
    elapsed = system.scheduler.now
    return {
        "read_policy": read_policy,
        "offered": report.offered,
        "committed": report.committed,
        "commit_rate": report.commit_rate,
        "mean_latency": report.mean_latency(),
        "p50_latency": percentile(latencies, 0.50),
        "p95_latency": percentile(latencies, 0.95),
        "p99_latency": percentile(latencies, 0.99),
        "throughput": report.committed / elapsed if elapsed > 0 else 0.0,
        "per_shard_reads": {
            name: system.metrics.counter_value(
                f"shard.{name}.server_db.get_server")
            for name in system.shard_hosts},
    }


def leased_read_scenario(
    shards: int,
    lease: float | None = None,
    replication: int | None = None,
    clients: int = 18,
    txns_per_client: int = 12,
    server_hosts: int = 3,
    hot_objects: int = 6,
    shard_service_time: float = 0.005,
    mean_think_time: float = 0.01,
    max_attempts: int = 5,
    rpc_timeout: float = 5.0,
    seed: int = 7,
    **config_kwargs: Any,
) -> dict[str, Any]:
    """One run of the read-heavy leased-cache workload; returns a row.

    The spread-read experiment's shape -- every client loops read-only
    transactions over a few hot objects under the standard scheme, and
    only the name-serving nodes charge service time, so binding lookups
    are the sole queueing bottleneck -- with the leased read plane
    toggled by ``lease``.  Uncached, every transaction pays a
    ``GetServer`` RPC into a shard's single-server queue; cached, hot
    bindings are served from client memory while their lease and fence
    epoch hold, so the row's throughput and latency percentiles carry
    the before/after of the whole plane.
    """
    from repro.workload.generator import run_streams

    if replication is None:
        replication = min(2, shards)
    system, streams, _uids = _closed_loop(
        clients, txns_per_client, server_hosts, mean_think_time,
        max_attempts, seed, objects=hot_objects, read_only=True,
        nameserver_shards=shards, nameserver_replication=replication,
        binding_scheme="standard", nameserver_lease=lease,
        nameserver_cache_ledger=lease is not None,
        rpc_timeout=rpc_timeout, **config_kwargs)
    for host in system.shard_hosts:
        system.nodes[host].rpc.service_time = shard_service_time
    report = run_streams(system, streams)
    latencies = [o.latency for o in report.outcomes]
    elapsed = system.scheduler.now
    hits = sum(cache.hits for cache in system.entry_caches.values())
    misses = sum(cache.misses for cache in system.entry_caches.values())
    violations = sum(len(cache.ledger_violations())
                     for cache in system.entry_caches.values())
    get_server_rpcs = sum(
        system.metrics.counter_value(f"shard.{name}.server_db.get_server")
        for name in system.shard_hosts)
    return {
        "shards": shards,
        "lease": lease,
        "offered": report.offered,
        "committed": report.committed,
        "commit_rate": report.commit_rate,
        "throughput": report.committed / elapsed if elapsed > 0 else 0.0,
        "mean_latency": report.mean_latency(),
        "p50_latency": percentile(latencies, 0.50),
        "p95_latency": percentile(latencies, 0.95),
        "p99_latency": percentile(latencies, 0.99),
        "cache_hits": hits,
        "cache_misses": misses,
        "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "ledger_violations": violations,
        "get_server_rpcs": get_server_rpcs,
    }


def leased_read_churn_scenario(
    shards: int = 3,
    lease: float = 2.0,
    replication: int = 2,
    clients: int = 8,
    rounds_deadline: float = 14.0,
    server_hosts: int = 3,
    hot_objects: int = 6,
    outage: tuple[float, float] = (3.0, 6.0),
    reshard_at: float = 5.0,
    rpc_timeout: float = 0.3,
    seed: int = 7,
) -> dict[str, Any]:
    """The leased plane's correctness ledger under churn; returns a row.

    A closed loop of writes (so entry versions actually move) runs with
    caching on while a scripted shard-host outage and a live reshard
    both land mid-run.  Afterwards every client cache's ledger is
    audited: a row with ``ledger_violations > 0`` means a cache-served
    read escaped its lease TTL or survived a fence-epoch advance --
    the bound the whole design promises can never break.  The row also
    carries the lost/invented-binding ledger so staleness can never
    hide behind availability.
    """
    from repro.cluster.system import DistributedSystem, SystemConfig
    from repro.sim.failures import FaultPlan
    from repro.sim.process import Timeout

    system = DistributedSystem(SystemConfig(
        seed=seed, nameserver_shards=shards,
        nameserver_replication=replication, binding_scheme="standard",
        nameserver_lease=lease, nameserver_cache_ledger=True,
        enable_recovery_managers=False, rpc_timeout=rpc_timeout))
    from repro.actions.locks import LockMode
    from repro.core.objects import PersistentObject, operation

    class ChurnCounter(PersistentObject):
        TYPE_NAME = "leased_churn.Counter"

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

    system.registry.register(ChurnCounter)
    hosts = [f"s{i}" for i in range(server_hosts)]
    for host in hosts:
        system.add_node(host, server=True, store=True)
    runtimes = [system.add_client(f"c{i}") for i in range(clients)]
    uids = [system.create_object(
        ChurnCounter(system.new_uid(), value=0),
        sv_hosts=[hosts[i % server_hosts]],
        st_hosts=[hosts[i % server_hosts]]) for i in range(hot_objects)]

    victim = system.shard_hosts[0]
    start, end = outage
    system.install_fault_plan(FaultPlan().outage(start, end, victim))

    migrations: list[dict[str, Any]] = []

    def reshard_driver():
        yield Timeout(reshard_at)
        migrations.append((yield system.add_shard_host()))

    system.scheduler.spawn(reshard_driver(), name="leased-churn-reshard")

    def add_txn(uid):
        def work(txn):
            return (yield from txn.invoke(uid, "add", 1))
        return work

    def get_txn(uid):
        def work(txn):
            return (yield from txn.invoke(uid, "get"))
        return work

    committed = {str(uid): 0 for uid in uids}
    offered = 0
    while system.scheduler.now < rounds_deadline:
        for i, uid in enumerate(uids):
            runtime = runtimes[i % clients]
            offered += 1
            result = system.run_transaction(runtime, add_txn(uid),
                                            timeout=30.0)
            if result.committed:
                committed[str(uid)] += 1
    system.run(until=max(system.scheduler.now, end) + 30.0)

    lost = invented = 0
    reader = runtimes[0]
    for uid in uids:
        result = system.run_transaction(reader, get_txn(uid), timeout=30.0)
        if not result.committed:
            lost += committed[str(uid)]
            continue
        lost += max(0, committed[str(uid)] - result.value)
        invented += max(0, result.value - committed[str(uid)])

    hits = sum(cache.hits for cache in system.entry_caches.values())
    misses = sum(cache.misses for cache in system.entry_caches.values())
    fenced = sum(cache.fenced for cache in system.entry_caches.values())
    expired = sum(cache.expired for cache in system.entry_caches.values())
    violations = sum(len(cache.ledger_violations())
                     for cache in system.entry_caches.values())
    return {
        "shards": shards,
        "lease": lease,
        "offered": offered,
        "committed": sum(committed.values()),
        "crashed_host": victim,
        "reshards": len(migrations),
        "flipped": bool(migrations and migrations[0]["flipped_at"]),
        "cache_hits": hits,
        "cache_misses": misses,
        "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "fenced_invalidations": fenced,
        "expired_invalidations": expired,
        "ledger_violations": violations,
        "lost_bindings": lost,
        "invented_bindings": invented,
    }


def hot_key_scenario(
    push: bool,
    shards: int = 2,
    staleness_budget: float = 0.05,
    registration_ttl: float = 30.0,
    replication: int = 2,
    clients: int = 24,
    txns_per_client: int = 40,
    server_hosts: int = 3,
    hot_objects: int = 4,
    zipf_s: float = 1.1,
    shard_service_time: float = 0.012,
    mean_think_time: float = 0.002,
    fixed_latency: float = 0.002,
    write_period: float = 0.25,
    writer_txns: int = 80,
    warmup_rounds: int = 4,
    hot_write_rate: float = 0.2,
    max_attempts: int = 5,
    rpc_timeout: float = 5.0,
    seed: int = 7,
    churn: bool = False,
    **config_kwargs: Any,
) -> dict[str, Any]:
    """A zipfian flash crowd on write-hot entries; returns a row.

    The scenario the coherence plane was built for: a crowd of readers
    hammers a few entries whose group views a concurrent writer keeps
    mutating.  Under the pull plane (``push=False``, the PR-5 baseline)
    the only way to hold staleness under ``staleness_budget`` is a
    lease TTL that short -- so every client re-reads every hot entry at
    ``1/staleness_budget`` per second whether or not anything changed,
    and the owner's single-server queue saturates exactly like the
    pre-cache hot arcs.  Under the push plane the same entries flip to
    push mode: clients hold them for ``registration_ttl`` and refetch
    only when an owner-pushed invalidation actually lands, so the
    refetch rate tracks the *write* rate, not the staleness budget --
    and staleness itself drops to one push delivery.

    The row carries committed read throughput over the reader window,
    latency percentiles (p50/p95/p99), cache and coherence counters,
    and the correctness ledger (cache-bound violations plus
    lost/invented counter writes).  With ``churn=True`` a live reshard
    (``add_shard_host``) and a scripted shard-host outage land in the
    middle of the measured window -- the row any violation would
    surface in.
    """
    from repro.actions.locks import LockMode
    from repro.cluster.system import DistributedSystem, SystemConfig
    from repro.core.objects import PersistentObject, operation
    from repro.sim.failures import FaultPlan
    from repro.sim.process import Timeout
    from repro.sim.rng import SeededRng
    from repro.workload.generator import TransactionStream, run_streams

    class HotCounter(PersistentObject):
        TYPE_NAME = "hot_key.Counter"

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

    system = DistributedSystem(SystemConfig(
        seed=seed, nameserver_shards=shards,
        nameserver_replication=replication, binding_scheme="standard",
        nameserver_lease=staleness_budget,
        nameserver_cache_ledger=True,
        nameserver_push_invalidation=push,
        nameserver_renewal=push,
        nameserver_hot_write_rate=hot_write_rate,
        nameserver_registration_ttl=registration_ttl if push else None,
        dedicated_sync_nic=True, enable_recovery_managers=False,
        rpc_timeout=rpc_timeout, fixed_latency=fixed_latency,
        **config_kwargs))
    system.registry.register(HotCounter)
    hosts = [f"s{i}" for i in range(server_hosts)]
    for host in hosts:
        system.add_node(host, server=True, store=True)
    runtimes = [system.add_client(f"c{i}") for i in range(clients)]
    writer_runtime = system.add_client("writer")
    uids = []
    spare = {}  # the Sv member the writer churns, per uid
    for i in range(hot_objects):
        home = hosts[i % server_hosts]
        alt = hosts[(i + 1) % server_hosts]
        uid = system.create_object(HotCounter(system.new_uid(), value=0),
                                   sv_hosts=[home, alt], st_hosts=[home])
        uids.append(uid)
        spare[str(uid)] = alt
    for host in system.shard_hosts:
        system.nodes[host].rpc.service_time = shard_service_time

    def churn_txn(uid):
        # A real naming write: drop and re-add one Sv member, bumping
        # the entry's versions -- what the detector and pushes key off.
        def work(txn):
            yield from txn._ctx.db.exclude(txn.action, [(uid, [spare[str(uid)]])])
            yield from txn._ctx.db.include(txn.action, uid, spare[str(uid)])
            return True
        return work

    def add_txn(uid):
        def work(txn):
            return (yield from txn.invoke(uid, "add", 1))
        return work

    def get_txn(uid):
        def work(txn):
            return (yield from txn.invoke(uid, "get"))
        return work

    # Warm-up: enough committed naming writes per entry that the
    # detector's EWMA reflects the sustained write stream before the
    # crowd arrives (identical work in both modes for fairness).
    for _ in range(warmup_rounds):
        for uid in uids:
            system.run_transaction(writer_runtime, churn_txn(uid),
                                   timeout=30.0)

    # The flash crowd: every reader loops zipfian-weighted gets over
    # the hot entries; the writer interleaves naming churn and counter
    # increments at one mutation per ``write_period`` on average.
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(hot_objects)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)

    def reader_factory_for(stream_index):
        rng = SeededRng(seed, f"zipf{stream_index}")
        picks = []
        for _ in range(txns_per_client):
            toss = rng.random()
            picks.append(next(uids[rank]
                              for rank, edge in enumerate(cumulative)
                              if toss <= edge))

        def factory(index):
            return get_txn(picks[index])
        return factory

    def writer_factory(index):
        uid = uids[(index // 2) % hot_objects]
        return churn_txn(uid) if index % 2 == 0 else add_txn(uid)

    readers = [
        TransactionStream(runtime, reader_factory_for(i),
                          count=txns_per_client,
                          rng=SeededRng(seed, f"hotread{i}"),
                          mean_think_time=mean_think_time,
                          max_attempts=max_attempts, read_only=True)
        for i, runtime in enumerate(runtimes)
    ]
    writer = TransactionStream(writer_runtime, writer_factory,
                               count=writer_txns,
                               rng=SeededRng(seed, "hotwrite"),
                               mean_think_time=write_period,
                               max_attempts=max_attempts)

    migrations: list[dict[str, Any]] = []
    if churn:
        victim = system.shard_hosts[0]
        start = system.scheduler.now
        system.install_fault_plan(
            FaultPlan().outage(start + 2.0, start + 4.0, victim))

        def reshard_driver():
            yield Timeout(1.0)
            migrations.append((yield system.add_shard_host()))

        system.scheduler.spawn(reshard_driver(), name="hot-key-reshard")

    started = system.scheduler.now
    run_streams(system, readers + [writer], timeout=10_000.0)

    read_outcomes = [o for stream in readers for o in stream.report.outcomes]
    finished = max((o.finished_at for o in read_outcomes), default=started)
    window = finished - started
    committed_reads = sum(1 for o in read_outcomes if o.committed)
    latencies = [o.latency for o in read_outcomes]

    # The correctness ledger: re-read every counter and compare against
    # the writer's committed increments (odd indices were ``add``s).
    committed_adds = {str(uid): 0 for uid in uids}
    for index, outcome in enumerate(writer.report.outcomes):
        if index % 2 == 1 and outcome.committed:
            committed_adds[str(uids[(index // 2) % hot_objects])] += 1
    lost = invented = 0
    for uid in uids:
        result = system.run_transaction(runtimes[0], get_txn(uid),
                                        timeout=30.0)
        if not result.committed:
            lost += committed_adds[str(uid)]
            continue
        lost += max(0, committed_adds[str(uid)] - result.value)
        invented += max(0, result.value - committed_adds[str(uid)])

    hits = sum(cache.hits for cache in system.entry_caches.values())
    misses = sum(cache.misses for cache in system.entry_caches.values())
    violations = sum(len(cache.ledger_violations())
                     for cache in system.entry_caches.values())
    fenced = sum(cache.fenced for cache in system.entry_caches.values())
    pushed_entries = 0
    if push:
        for uid in uids:
            owner = system.shard_router.shard_for(uid)
            host = system.coherence_hosts.get(owner)
            if host is not None and host.mode_of(str(uid)) == "push":
                pushed_entries += 1
    snapshot = system.metrics.snapshot()

    def counter_sum(suffix):
        return sum(value for name, value in snapshot.items()
                   if name.endswith(suffix) and isinstance(value, int))

    return {
        "mode": "push" if push else "pull",
        "staleness_budget": staleness_budget,
        "offered": len(read_outcomes),
        "committed": committed_reads,
        "commit_rate": (committed_reads / len(read_outcomes)
                        if read_outcomes else 0.0),
        "throughput": committed_reads / window if window > 0 else 0.0,
        "p50_latency": percentile(latencies, 0.50),
        "p95_latency": percentile(latencies, 0.95),
        "p99_latency": percentile(latencies, 0.99),
        "cache_hits": hits,
        "cache_misses": misses,
        "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "writes_committed": writer.report.committed,
        "pushed_entries": pushed_entries,
        "pushes_sent": counter_sum("coherence.pushes_sent"),
        "pushes_applied": counter_sum("coherence.pushes_applied"),
        "registrations": counter_sum("coherence.registrations"),
        "reshards": len(migrations),
        "flipped": bool(migrations and migrations[0]["flipped_at"]),
        "coherence_handovers": (migrations[0].get("coherence_handovers", 0)
                                if migrations else 0),
        "fenced_invalidations": fenced,
        "ledger_violations": violations,
        "lost_bindings": lost,
        "invented_bindings": invented,
    }


def gray_failure_scenario(
    mode: str = "gray",
    shards: int = 3,
    replication: int = 2,
    clients: int = 10,
    txns_per_client: int = 60,
    streams_per_client: int = 4,
    server_hosts: int = 4,
    mean_think_time: float = 0.03,
    max_attempts: int = 10,
    rpc_timeout: float = 0.25,
    fixed_latency: float = 0.002,
    gray_window: tuple[float, float] = (2.0, 5.0),
    gray_hosts: int = 2,
    degrade_factor: float = 40.0,
    degrade_drop: float = 0.1,
    p95_up: float = 0.05,
    autoscaler_interval: float = 0.5,
    partition_window: tuple[float, float] = (1.0, 3.0),
    sweep_interval: float = 4.0,
    audit_adds: int = 5,
    seed: int = 7,
) -> dict[str, Any]:
    """One run of the gray-failure workload; returns a row.

    Two modes, one per failure the crash-only fault plane cannot
    script:

    ``mode="gray"`` degrades ``gray_hosts`` shard hosts at once --
    alive, accepting every request, but with message delays multiplied
    by ``degrade_factor`` and a ``degrade_drop`` chance of losing each
    one -- under the capacity sweep's closed loop.  Correlated
    grayness (a bad rack) is what exercises *both* detectors: arcs
    with one gray replica are healed per-client by the
    ``PeerHealthTracker`` (one gross sample demotes the peer to the
    back of the read order -- the row's ``demotions``), while arcs
    whose *whole* replica set is gray must still serve through it, so
    their reads stay slow for the entire window and only the
    autoscaler's p95 latency trigger can help, by growing the ring
    onto healthy hardware (``p95_scale_ups``).  The op-rate trigger's
    threshold is set unreachably high on purpose: a gray host's op
    counters look normal, so any scale-up here is the latency
    trigger's alone.  The correctness ledger (lost/stale counter
    increments) must stay zero: gray is slow, never wrong.

    ``mode="partition"`` engineers the divergence the vector-clock
    repair exists for: two writer clients each lose one *direction* to
    a different shard replica of the same entry, so each commits a
    conflicting naming write on its reachable replica only -- equal
    scalar versions, divergent content, concurrent clocks.  After the
    heal, the anti-entropy sweep's clock-reconciliation phase must
    converge the replicas by owner order (``divergence_repairs`` >= 1,
    ``replica_disagreements`` == 0) without inventing a binding that
    neither writer installed.
    """
    if mode == "gray":
        return _gray_host_row(
            shards=shards, replication=replication, clients=clients,
            txns_per_client=txns_per_client,
            streams_per_client=streams_per_client,
            server_hosts=server_hosts,
            mean_think_time=mean_think_time, max_attempts=max_attempts,
            rpc_timeout=rpc_timeout, fixed_latency=fixed_latency,
            gray_window=gray_window, gray_hosts=gray_hosts,
            degrade_factor=degrade_factor,
            degrade_drop=degrade_drop, p95_up=p95_up,
            autoscaler_interval=autoscaler_interval, seed=seed)
    if mode == "partition":
        return _partial_partition_row(
            server_hosts=max(3, min(server_hosts, 3)),
            rpc_timeout=max(rpc_timeout, 0.3), fixed_latency=fixed_latency,
            partition_window=partition_window,
            sweep_interval=sweep_interval, audit_adds=audit_adds,
            seed=seed)
    raise ValueError(f"unknown gray-failure mode: {mode!r}")


def _gray_host_row(shards, replication, clients, txns_per_client,
                   streams_per_client, server_hosts, mean_think_time,
                   max_attempts, rpc_timeout, fixed_latency, gray_window,
                   gray_hosts, degrade_factor, degrade_drop, p95_up,
                   autoscaler_interval, seed) -> dict[str, Any]:
    from repro.sim.failures import FaultPlan
    from repro.workload.generator import run_streams

    total_streams = clients * streams_per_client
    system, streams, uids = _closed_loop(
        clients, txns_per_client, server_hosts, mean_think_time,
        max_attempts, seed, objects=total_streams,
        streams_per_client=streams_per_client, nameserver_shards=shards,
        nameserver_replication=replication, binding_scheme="standard",
        nameserver_peer_health=True, participant_retries=2,
        rpc_timeout=rpc_timeout, fixed_latency=fixed_latency,
        shard_antientropy_interval=2.0)
    victims = system.shard_hosts[:gray_hosts]
    fully_gray_arcs = sum(
        1 for uid in uids
        if set(system.shard_router.preference_list(uid, replication))
        <= set(victims))
    start, end = gray_window
    plan = FaultPlan()
    for victim in victims:
        plan.gray(start, end, victim,
                  factor=degrade_factor, drop=degrade_drop)
    system.install_fault_plan(plan)
    # The op-rate threshold is set unreachably high on purpose: a gray
    # host serves every request, so the rate trigger *cannot* fire and
    # any scale-up in this row is the p95 trigger's alone.
    autoscaler = system.enable_autoscaler(
        ops_per_shard=1e9, interval=autoscaler_interval,
        max_shards=shards + 1, p95_up=p95_up)

    report = run_streams(system, streams)
    # Let the restore, probation expiry, and any in-flight migration
    # play out before auditing.
    system.run(until=max(system.scheduler.now, end) + 12.0)

    # -- the correctness ledger: gray must be slow, never wrong ----------
    committed_per_uid = {str(uid): 0 for uid in uids}
    for uid, committed in _stream_commits(streams, uids):
        committed_per_uid[str(uid)] += committed
    lost, stale = _read_back(
        system, [(uid, committed_per_uid[str(uid)]) for uid in uids])

    demotions = sum(t.demotions for t in system.peer_health.values())
    gray_now = sorted({peer for t in system.peer_health.values()
                       for peer in t.gray_peers()})
    latencies = [o.latency for o in report.outcomes]
    return {
        "mode": "gray",
        "victims": list(victims),
        "fully_gray_arcs": fully_gray_arcs,
        "gray_window": gray_window,
        "degrade_factor": degrade_factor,
        "degrade_drop": degrade_drop,
        "offered": report.offered,
        "committed": report.committed,
        "commit_rate": report.commit_rate,
        "p50_latency": percentile(latencies, 0.50),
        "p95_latency": percentile(latencies, 0.95),
        "p99_latency": percentile(latencies, 0.99),
        "demotions": demotions,
        "gray_peers_at_end": gray_now,
        "p95_scale_ups": autoscaler.p95_scale_ups,
        "scale_ups_triggered": autoscaler.scale_ups_triggered,
        "shards_before": shards,
        "shards_after": len(system.shard_router.nodes),
        "degraded_drops": system.network.messages_degraded_dropped,
        "divergence_repairs": _divergence_repairs(system),
        "lost_bindings": lost,
        "stale_bindings": stale,
    }


def _divergence_repairs(system) -> int:
    """Total clock-phase repairs across the (scoped) shard registries."""
    return sum(value for name, value in system.metrics.snapshot().items()
               if name.endswith("replica_io.divergence_repairs")
               and isinstance(value, int))


def _partial_partition_row(server_hosts, rpc_timeout, fixed_latency,
                           partition_window, sweep_interval, audit_adds,
                           seed) -> dict[str, Any]:
    from repro.actions.locks import LockMode
    from repro.cluster.system import DistributedSystem, SystemConfig
    from repro.core.objects import PersistentObject, operation
    from repro.sim.failures import FaultPlan

    class GrayCounter(PersistentObject):
        TYPE_NAME = "gray.Counter"

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

    system = DistributedSystem(SystemConfig(
        seed=seed, nameserver_shards=2, nameserver_replication=2,
        binding_scheme="standard", enable_recovery_managers=False,
        rpc_timeout=rpc_timeout, fixed_latency=fixed_latency,
        shard_antientropy_interval=sweep_interval))
    system.registry.register(GrayCounter)
    hosts = [f"s{i}" for i in range(server_hosts)]
    for host in hosts:
        system.add_node(host, server=True, store=True)
    writer_a = system.add_client("wa")
    writer_b = system.add_client("wb")
    auditor = system.add_client("aud")
    # The full host list in *both* groups: ``exclude`` is a group-view
    # (state-db) write, so the conflicting writers need a wide St to
    # carve different members out of.
    uid = system.create_object(GrayCounter(system.new_uid(), value=0),
                               sv_hosts=list(hosts), st_hosts=list(hosts))
    replicas = system.shard_router.preference_list(uid, 2)
    start, end = partition_window
    # Each writer loses one *direction* to a different replica: wa can
    # only reach the primary, wb only the secondary.  ReplicaIO's write
    # fan-out skips an unreachable replica rather than failing the
    # write, so each commit lands on one copy -- equal scalar bumps,
    # divergent content, concurrent clocks.
    system.install_fault_plan(
        FaultPlan()
        .partial_partition(start, end, "wa", replicas[1])
        .partial_partition(start, end, "wb", replicas[0]))

    def exclude_txn(victim_host):
        def work(txn):
            yield from txn._ctx.db.exclude(txn.action, [(uid, [victim_host])])
            return True
        return work

    def add_txn():
        def work(txn):
            return (yield from txn.invoke(uid, "add", 1))
        return work

    def get_txn():
        def work(txn):
            return (yield from txn.invoke(uid, "get"))
        return work

    system.run(until=start + 0.05)
    result_a = system.run_transaction(writer_a, exclude_txn(hosts[1]),
                                      timeout=30.0)
    result_b = system.run_transaction(writer_b, exclude_txn(hosts[2]),
                                      timeout=30.0)
    assert system.scheduler.now < end, (
        "writers outran the partition window; widen it")

    # Capture the divergence before the sweeps repair it: both copies
    # at the same scalar version with different host sets proves the
    # scenario engineered a real split, not just a lagging replica.
    versions = {}
    views = {}
    for shard in replicas:
        db = system.db.shards[shard]
        views[shard] = tuple(db.get_view((0,), str(uid)))
        versions[shard] = db.entry_versions(str(uid))
    system._release_probe_locks()
    diverged = (len(set(views.values())) > 1
                and len(set(versions.values())) == 1)

    # Heal, then let two sweep rounds run: the losing replica pulls the
    # owner-order winner in the first, the second proves convergence.
    system.run(until=end + 2 * sweep_interval + 1.0)

    committed_adds = 0
    for _ in range(audit_adds):
        result = system.run_transaction(auditor, add_txn(), timeout=30.0)
        if result.committed:
            committed_adds += 1
    audit = system.run_transaction(auditor, get_txn(), read_only=True,
                                   timeout=30.0)
    assert audit.committed, f"final audit read failed: {audit.reason}"
    lost = max(0, committed_adds - audit.value)
    invented_writes = max(0, audit.value - committed_adds)

    disagreements = 0
    final_states = []
    for shard in replicas:
        db = system.db.shards[shard]
        snapshot = db.get_server_with_uses((0,), str(uid))
        view = db.get_view((0,), str(uid))
        final_states.append((tuple(snapshot.hosts), tuple(view)))
    system._release_probe_locks()
    if any(state != final_states[0] for state in final_states):
        disagreements += 1
    final_view = set(final_states[0][1])
    invented_bindings = len(final_view - set(hosts))

    return {
        "mode": "partition",
        "partition_window": partition_window,
        "replicas": list(replicas),
        "writer_commits": sum(1 for r in (result_a, result_b)
                              if r.committed),
        "diverged_during_partition": diverged,
        "diverged_views": sorted(views.values()),
        "divergence_repairs": _divergence_repairs(system),
        "replica_disagreements": disagreements,
        "final_view": sorted(final_view),
        "invented_bindings": invented_bindings,
        "audit_adds_committed": committed_adds,
        "lost_bindings": lost,
        "stale_bindings": invented_writes,
    }


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction`` quantile of ``values`` (nearest-rank)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def mean_and_spread(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (0 for fewer than 2 points)."""
    if not values:
        return math.nan, math.nan
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(variance)


class Table:
    """A fixed-column plain-text table."""

    def __init__(self, title: str, columns: list[str]) -> None:
        self.title = title
        self.columns = columns
        self.rows: list[list[str]] = []

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}")
        self.rows.append([_format(cell) for cell in cells])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [f"\n== {self.title} =="]
        header = "  ".join(c.ljust(widths[i])
                           for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
        return "\n".join(lines)

    def show(self) -> None:
        print(self.render())


def _format(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
