"""The three workloads: generated inputs and the closed-loop load.

Every operation, think time and retry back-off is drawn here from the
benchmark's own seed before the system boots; the program only ever
sees the resulting transactions.  The load is the paper's closed loop:
each client stream waits for its transaction's final outcome before it
thinks and issues the next one.

One *repetition* boots a fresh system, warms it up, runs the measured
phase, lets it quiesce and audits it.  Repetition ``r`` of seed ``s``
draws its inputs from ``(workload, s, r)`` alone, so it is bit-for-bit
reproducible in any process.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import deploy
from repro.sim.process import Timeout

#: A transaction is retried (after a seeded back-off) until it commits
#: or has been attempted this many times.
MAX_ATTEMPTS = 25


@dataclass(frozen=True)
class Op:
    """One client transaction: ``get``/``add`` on a counter, or ``churn``."""

    kind: str
    obj: int
    amount: int
    think: float      # virtual seconds slept before issuing it
    backoff: float    # base of the linear retry back-off


@dataclass
class Plan:
    """All inputs of one repetition, generated before the system boots."""

    clients: int
    objects: int
    window: float                         # virtual seconds measured
    streams: list[tuple[int, list[Op]]]   # (client index, ops)
    warmup: list[tuple[int, Op]]          # run one by one before the load
    writer: list[Op] = field(default_factory=list)  # background stream
    outages: list[tuple[float, float, str]] = field(default_factory=list)


@dataclass(frozen=True)
class Outcome:
    """A transaction's final fate after its retries."""

    stream: int
    op: Op
    committed: bool
    attempts: int
    reason: str | None
    started: float
    finished: float


def _rng(workload: str, seed: int, rep: int, part: str) -> random.Random:
    # String seeds hash through SHA-512: stable across processes and
    # independent of PYTHONHASHSEED.
    return random.Random(f"perfbench/{workload}/{seed}/{rep}/{part}")


def _think(rng: random.Random, mean: float) -> float:
    return rng.expovariate(1.0 / mean)


def plan_commit_storm(seed: int, rep: int) -> Plan:
    """4 client nodes x 64 concurrent streams, one private counter each."""
    clients, per_client, ops = 4, 64, 40
    streams = []
    for index in range(clients * per_client):
        rng = _rng("commit_storm", seed, rep, f"s{index}")
        streams.append((index // per_client, [
            Op("add", index, rng.randint(1, 9), _think(rng, 0.002),
               _think(rng, 0.02))
            for _ in range(ops)]))
    warmup = [(client, Op("add", ops_[0].obj, 1, 0.0, 0.02))
              for client, ops_ in streams]
    return Plan(clients, clients * per_client, 0.5, streams, warmup)


#: Zipf exponent of the read_crowd popularity over its hot entries.
ZIPF_S = 1.1


def plan_read_crowd(seed: int, rep: int) -> Plan:
    """24 zipfian readers over 4 hot entries, one writer churning them."""
    clients, objects, ops = 24, 4, 600
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(objects)]
    streams = []
    for index in range(clients):
        rng = _rng("read_crowd", seed, rep, f"r{index}")
        streams.append((index, [
            Op("get", rng.choices(range(objects), weights)[0], 0,
               _think(rng, 0.002), _think(rng, 0.02))
            for _ in range(ops)]))
    rng = _rng("read_crowd", seed, rep, "writer")
    # Mostly naming churn, cycling over the entries; every fifth write
    # is a counter increment instead, which the audit then looks for.
    writer = [Op("add" if i % 5 == 4 else "churn", i % objects,
                 rng.randint(1, 9), _think(rng, 0.25), _think(rng, 0.05))
              for i in range(200)]
    # Committed naming writes on every entry, so the write-hot detector
    # sees a sustained stream before the crowd arrives, and one read
    # per reader to fill its entry cache.
    warmup = [(-1, Op("churn", obj, 0, 0.0, 0.05))
              for _ in range(4) for obj in range(objects)]
    warmup += [(client, Op("get", ops_[0].obj, 0, 0.0, 0.02))
               for client, ops_ in streams]
    return Plan(clients, objects, 4.0, streams, warmup, writer=writer)


def plan_replica_failover(seed: int, rep: int) -> Plan:
    """16 active-replication clients, 70/30 get/add over 32 shared objects."""
    clients, objects, ops = 16, 32, 80
    streams = []
    for index in range(clients):
        rng = _rng("replica_failover", seed, rep, f"c{index}")
        stream = []
        for _ in range(ops):
            obj = rng.randrange(objects)
            kind = "get" if rng.random() < 0.7 else "add"
            stream.append(Op(kind, obj, rng.randint(1, 9) if kind == "add"
                             else 0, _think(rng, 0.01), _think(rng, 0.03)))
        streams.append((index, stream))
    warmup = [(client, Op("get", ops_[0].obj, 0, 0.0, 0.03))
              for client, ops_ in streams]
    # Overlapping outages of one server host and one store host,
    # relative to the start of the measured phase.
    outages = [(0.4, 1.6, "sv1"), (1.0, 2.2, "st2")]
    return Plan(clients, objects, 5.0, streams, warmup, outages=outages)


@dataclass(frozen=True)
class Workload:
    name: str
    plan: Callable[[int, int], Plan]
    boot: Callable[[int, int, int], deploy.Deployment]
    # Repetitions pooled into the simulated-clock metrics: enough that
    # their spread across seeds stays well inside the benchmark's bounds
    # (read_crowd's tail hangs on a handful of writes per repetition;
    # replica_failover's short repetitions give its host figures more
    # samples per run).
    sim_reps: int
    # Listed in BENCHMARK.json.  A workload on which the program fails
    # the audit stays runnable by name but is held out of the list
    # until the program is fixed (perfbench/README.md says why).
    listed: bool = True


WORKLOADS: dict[str, Workload] = {
    "commit_storm": Workload("commit_storm", plan_commit_storm,
                             deploy.boot_commit_storm, sim_reps=6),
    "read_crowd": Workload("read_crowd", plan_read_crowd,
                           deploy.boot_read_crowd, sim_reps=9),
    "replica_failover": Workload("replica_failover", plan_replica_failover,
                                 deploy.boot_replica_failover, sim_reps=8,
                                 listed=False),
}


def system_seed(seed: int, rep: int) -> int:
    return int.from_bytes(
        random.Random(f"perfbench/system/{seed}/{rep}").randbytes(4), "big")


def _work(deployment: deploy.Deployment, op: Op):
    uid = deployment.uids[op.obj]
    if op.kind == "get":
        return deploy.get(uid)
    if op.kind == "add":
        return deploy.add(uid, op.amount)
    return deploy.churn(deployment, uid)


def _stream(deployment: deploy.Deployment, runtime: Any, index: int,
            ops: list[Op], log: list[Outcome], stop: list[bool]):
    """One closed-loop client stream, as a simulation process body."""
    scheduler = deployment.system.scheduler
    for op in ops:
        if stop[0]:
            return
        if op.think > 0:
            yield Timeout(op.think)
        started = scheduler.now
        attempts = 0
        while True:
            attempts += 1
            result = yield runtime.transaction(
                _work(deployment, op), read_only=op.kind == "get")
            if result.committed or attempts >= MAX_ATTEMPTS:
                break
            yield Timeout(op.backoff * attempts)
        log.append(Outcome(index, op, result.committed, attempts,
                           result.reason, started, scheduler.now))


@dataclass
class Rep:
    """Everything one repetition measured."""

    deployment: deploy.Deployment
    plan: Plan
    warmup: list[Outcome]
    outcomes: list[Outcome]      # the measured phase, load and writer
    t0: float                    # virtual start of the measured phase
    t_end: float                 # virtual end of the measured window
    t_stop: float                # virtual end of the drain after it
    setup_s: float               # wall: boot + objects + warm-up
    wall_s: float                # wall of the measured phase
    cpu_s: float                 # process CPU of the measured phase
    events: int                  # scheduler events in the measured phase
    before: dict[str, Any]       # metrics snapshot at t0
    after: dict[str, Any]        # metrics snapshot at t_stop
    served: dict[str, int]       # RPCs served per node in the phase
    frames: int                  # pipelined frames sent in the phase
    recoveries: list[float]      # virtual seconds each recovery took


#: Virtual seconds granted to the drain before it is declared stuck,
#: and to quiescence after it.
PHASE_LIMIT = 3_600.0
QUIESCE = 10.0


def _rpc_counters(deployment: deploy.Deployment) -> tuple[dict[str, int], int]:
    nodes = deployment.system.nodes
    return ({name: node.rpc.calls_served for name, node in nodes.items()},
            sum(node.rpc.frames_sent for node in nodes.values()))


def run_rep(workload: Workload, seed: int, rep: int,
            profiler: Any = None) -> Rep:
    """Boot, warm up, measure, quiesce.

    The measured window is a fixed stretch of virtual time; when it
    closes, every stream finishes the transaction it is in (the drain)
    and stops.  ``profiler`` (a ``cProfile`` profile) is enabled from
    the start of the window to the end of the drain.
    """
    plan = workload.plan(seed, rep)
    # The previous repetition's system is garbage now; collect it here
    # rather than inside a timed phase.
    gc.collect()
    started = time.perf_counter()
    deployment = workload.boot(system_seed(seed, rep), plan.clients,
                               plan.objects)
    system = deployment.system
    warmup: list[Outcome] = []
    for client, op in plan.warmup:
        runtime = deployment.writer if client < 0 else deployment.clients[client]
        process = system.scheduler.spawn(
            _stream(deployment, runtime, -1, [op], warmup, [False]),
            name="warmup")
        system.run_until(process, timeout=PHASE_LIMIT)
    setup_s = time.perf_counter() - started

    t0 = system.scheduler.now
    deploy.install_outages(deployment, [
        (t0 + start, t0 + end, host) for start, end, host in plan.outages])
    recoveries: list[float] = []
    for _, _, host in plan.outages:
        deploy.watch_recovery(deployment, host, recoveries)
    before = system.snapshot_metrics()
    served0, frames0 = _rpc_counters(deployment)
    events0 = system.scheduler.events_fired
    log: list[Outcome] = []
    stop = [False]
    if profiler is not None:
        profiler.enable()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    load = [system.scheduler.spawn(
        _stream(deployment, deployment.clients[client], index, ops, log,
                stop), name=f"load{index}")
        for index, (client, ops) in enumerate(plan.streams)]
    writer = None
    if plan.writer:
        writer = system.scheduler.spawn(
            _stream(deployment, deployment.writer, len(load), plan.writer,
                    log, stop), name="writer")
    t_end = t0 + plan.window
    system.run(until=t_end)
    stop[0] = True
    for process in load + ([writer] if writer is not None else []):
        system.scheduler.run_until_settled(process, until=t_end + PHASE_LIMIT)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    if profiler is not None:
        profiler.disable()
    events = system.scheduler.events_fired - events0
    t_stop = system.scheduler.now
    after = system.snapshot_metrics()
    served1, frames1 = _rpc_counters(deployment)
    served = {name: count - served0.get(name, 0)
              for name, count in served1.items()}
    issued = [0] * len(plan.streams)
    for outcome in log:
        if outcome.stream < len(issued):
            issued[outcome.stream] += 1
    if any(n == len(ops) for n, (_, ops) in zip(issued, plan.streams)):
        raise RuntimeError(f"a stream ran out of operations before the "
                           f"{plan.window} s window closed")
    last_recovery = max((end for _, end, _ in plan.outages), default=0.0)
    system.run(until=max(system.scheduler.now, t0 + last_recovery) + QUIESCE)
    return Rep(deployment, plan, warmup, log, t0, t_end, t_stop, setup_s,
               wall_s, cpu_s, events, before, after, served,
               frames1 - frames0, recoveries)
