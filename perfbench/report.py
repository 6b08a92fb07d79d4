"""From measured repetitions to named metrics.

Simulated-clock metrics (``sim_*`` and every count) are deterministic
for a seed: they pool the workload's first ``sim_reps`` repetitions,
whose inputs depend on the seed alone.  Host-clock metrics are the median
over every repetition of the run.  Per-layer counts are read from the
program's public state (the metrics registry, the scheduler's event
count, the RPC agents' counters) and, for the traced repetition, from
the profiler's call counts.
"""

from __future__ import annotations

import math
import pstats
import statistics
from dataclasses import dataclass, field
import deploy
import layers
from repro.actions.locks import LockManager
from repro.cluster.server_host import ObjectServer, ServerHost
from repro.sim.metrics import PlaneTraffic, estimate_size
from workloads import Rep

#: (name, unit, better) of every end-to-end metric, reported by every
#: untraced run.
END_TO_END = [
    ("sim_commit_tps", "1/s", "higher"),
    ("sim_latency_p50_s", "s", "lower"),
    ("sim_latency_p99_s", "s", "lower"),
    ("sim_attempts_per_commit", "attempts", "lower"),
    ("host_commits_per_s", "1/s", "higher"),
    ("host_cpu_ms_per_commit", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: (name, unit, better) of every per-layer metric, reported by every
#: traced run.
PER_LAYER = [
    ("sim.events_per_commit", "count", "lower"),
    ("sim.cpu_us_per_event", "us", "lower"),
    ("sim.metrics.size_walks_per_msg", "count", "lower"),
    ("net.rpcs_per_commit", "count", "lower"),
    ("net.frames_per_commit", "count", "lower"),
    ("net.bytes_per_commit", "bytes", "lower"),
    ("net.mcasts_per_commit", "count", "lower"),
    ("net.batch_items_per_rpc", "count", "higher"),
    ("actions.lock_acquires_per_commit", "count", "lower"),
    ("actions.lock_refusals_per_kcommit", "count", "lower"),
    ("cluster.server_commits_per_host_commit", "count", "lower"),
    ("cluster.log_forces_per_commit", "count", "lower"),
    ("cluster.log_force_joins", "count", "higher"),
    ("cluster.store_busy_share", "share", "lower"),
    ("cluster.recovery_s", "s", "lower"),
    ("cluster.stale_read_backs", "count", "lower"),
    ("naming.cache_hit_rate", "share", "higher"),
    ("naming.name_rpcs_per_commit", "count", "lower"),
    ("naming.pushes_per_write", "count", "lower"),
    ("naming.shard_busy_share", "share", "lower"),
    ("naming.use_list_ops_per_commit", "count", "lower"),
    ("naming.excludes", "count", "lower"),
    ("replication.replicas_masked", "count", "lower"),
    ("replication.invocations_per_commit", "count", "lower"),
    ("sim_recovery_gap_s", "s", "lower"),
    ("workload.latency_samples", "count", "higher"),
    ("workload.fail_ratio", "share", "lower"),
] + [(f"{layer}.self_share", "share", "lower") for layer in layers.LAYERS] + [
    ("trace.overhead_ratio", "ratio", "lower"),
]


@dataclass
class Summary:
    """What one repetition contributes to the metrics."""

    committed: int                 # committed in the measured phase
    committed_in_window: int       # ... and finished by ``t_end``
    window: float                  # virtual length of the measured phase
    failed: int
    attempts: int
    latencies: list[float]         # of every committed transaction
    naming_writes: int             # committed ``churn`` transactions
    setup_s: float
    wall_s: float
    cpu_s: float
    events: int
    counts: dict[str, float]
    recovery_gap: float
    recoveries: list[float]
    violations: list[str] = field(default_factory=list)
    stale_reads: int = 0           # probed on the first repetition only


def _delta(rep: Rep, test) -> int:
    return sum(value - rep.before.get(name, 0)
               for name, value in rep.after.items()
               if isinstance(value, int) and test(name))


def _busy_share(rep: Rep, hosts: list[str]) -> float:
    nodes = rep.deployment.system.nodes
    span = rep.t_stop - rep.t0
    busy = sum(rep.served.get(host, 0) * nodes[host].rpc.service_time
               for host in hosts)
    return busy / (span * len(hosts)) if span > 0 and hosts else 0.0


def _recovery_gap(rep: Rep) -> float:
    """The longest time, over injected crashes, until an object with a
    replica on the crashed host commits a transaction begun after it."""
    worst = 0.0
    for start, _, host in rep.plan.outages:
        crashed_at = rep.t0 + start
        finishes = [o.finished for o in rep.outcomes
                    if o.committed and o.started >= crashed_at
                    and host in rep.deployment.homes[o.op.obj]]
        worst = max(worst, (min(finishes) if finishes else rep.t_stop)
                    - crashed_at)
    return worst


def summarize(rep: Rep, violations: list[str]) -> Summary:
    """Reduce a finished, audited repetition to plain numbers."""
    outcomes = rep.outcomes
    committed = [o for o in outcomes if o.committed]
    names = deploy.name_hosts(rep.deployment)
    counts = {
        "rpcs": _delta(rep, lambda n: n.endswith(".rpcs_out")),
        "bytes": _delta(rep, lambda n: n.endswith(".bytes_out")),
        "mcasts": _delta(rep, lambda n: n.endswith(".mcasts_out")),
        "frames": rep.frames,
        "batch_items": _delta(rep, lambda n: n == "commit_batch.items"),
        "batch_rpcs": _delta(rep, lambda n: n == "commit_batch.flushes"),
        "lock_refusals": _delta(rep, lambda n: n == "txn.abort.lock_refused"),
        "log_forces": _delta(rep, lambda n: n.endswith(".log_forces")),
        "log_force_joins": _delta(
            rep, lambda n: n.endswith(".log_force_joins")),
        "cache_hits": _delta(rep, lambda n: n == "entry_cache.hits"),
        "cache_misses": _delta(rep, lambda n: n == "entry_cache.misses"),
        "name_rpcs": _delta(rep, lambda n: n.endswith(".rpcs_in") and any(
            n.startswith(f"traffic.{host}.") for host in names)),
        "pushes": _delta(rep, lambda n: n.endswith("coherence.pushes_sent")),
        "use_list_ops": _delta(rep, lambda n: n.endswith(
            ("server_db.increment", "server_db.decrement"))),
        "excludes": _delta(rep, lambda n: n.endswith("state_db.exclude")),
        "replicas_masked": _delta(
            rep, lambda n: n == "policy.active.replicas_masked"),
        "store_busy": _busy_share(rep, rep.deployment.st_hosts),
        "shard_busy": _busy_share(rep, names),
    }
    return Summary(
        committed=len(committed),
        committed_in_window=sum(1 for o in committed
                                if o.finished <= rep.t_end),
        window=rep.t_end - rep.t0,
        failed=len(outcomes) - len(committed),
        attempts=sum(o.attempts for o in outcomes),
        latencies=[o.finished - o.started for o in committed],
        naming_writes=sum(1 for o in committed if o.op.kind == "churn"),
        setup_s=rep.setup_s, wall_s=rep.wall_s, cpu_s=rep.cpu_s,
        events=rep.events, counts=counts,
        recovery_gap=_recovery_gap(rep), recoveries=list(rep.recoveries),
        violations=violations)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(summaries: list[Summary], sim_reps: int, peak_rss_mb: float
               ) -> tuple[dict[str, float], dict[str, int]]:
    """The end-to-end metrics, and the sample count behind each timing."""
    pooled = summaries[:sim_reps]
    latencies = [x for s in pooled for x in s.latencies]
    committed = sum(s.committed for s in pooled)
    values = {
        "sim_commit_tps": _ratio(sum(s.committed_in_window for s in pooled),
                                 sum(s.window for s in pooled)),
        "sim_latency_p50_s": percentile(latencies, 0.50),
        "sim_latency_p99_s": percentile(latencies, 0.99),
        "sim_attempts_per_commit": _ratio(sum(s.attempts for s in pooled),
                                          committed),
        "host_commits_per_s": statistics.median(
            _ratio(s.committed, s.wall_s) for s in summaries),
        "host_cpu_ms_per_commit": statistics.median(
            1e3 * _ratio(s.cpu_s, s.committed) for s in summaries),
        "setup_s": statistics.median(s.setup_s for s in summaries),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {
        "sim_latency_p50_s": len(latencies),
        "sim_latency_p99_s": len(latencies),
        "host_commits_per_s": len(summaries),
        "host_cpu_ms_per_commit": len(summaries),
        "setup_s": len(summaries),
    }
    return values, samples


@dataclass
class Traced:
    """The profiled repetition: its stats and its untraced twin's wall."""

    stats: pstats.Stats
    wall_s: float
    untraced_wall_s: float
    committed: int


def per_layer(summaries: list[Summary], sim_reps: int,
              traced: Traced) -> dict[str, float]:
    pooled = summaries[:sim_reps]
    committed = sum(s.committed for s in pooled)

    def count(key: str) -> float:
        return sum(s.counts[key] for s in pooled)

    def per_commit(key: str) -> float:
        return _ratio(count(key), committed)

    stats = traced.stats
    messages = sum(layers.ncalls(stats, method) for method in (
        PlaneTraffic.record_sent, PlaneTraffic.record_received,
        PlaneTraffic.record_multicast_sent,
        PlaneTraffic.record_multicast_received))
    recoveries = [x for s in pooled for x in s.recoveries]
    values = {
        "sim.events_per_commit": _ratio(sum(s.events for s in pooled),
                                        committed),
        "sim.cpu_us_per_event": statistics.median(
            1e6 * _ratio(s.cpu_s, s.events) for s in summaries),
        "sim.metrics.size_walks_per_msg": _ratio(
            layers.ncalls(stats, estimate_size), messages),
        "net.rpcs_per_commit": per_commit("rpcs"),
        "net.frames_per_commit": per_commit("frames"),
        "net.bytes_per_commit": per_commit("bytes"),
        "net.mcasts_per_commit": per_commit("mcasts"),
        "net.batch_items_per_rpc": _ratio(count("batch_items"),
                                          count("batch_rpcs")),
        "actions.lock_acquires_per_commit": _ratio(
            layers.ncalls(stats, LockManager.try_lock), traced.committed),
        "actions.lock_refusals_per_kcommit": 1e3 * per_commit(
            "lock_refusals"),
        "cluster.server_commits_per_host_commit": _ratio(
            layers.ncalls(stats, ObjectServer.commit),
            layers.ncalls(stats, ServerHost.commit)),
        "cluster.log_forces_per_commit": per_commit("log_forces"),
        "cluster.log_force_joins": count("log_force_joins"),
        "cluster.store_busy_share": statistics.mean(
            s.counts["store_busy"] for s in pooled),
        "cluster.recovery_s": max(recoveries, default=0.0),
        "cluster.stale_read_backs": summaries[0].stale_reads,
        "naming.cache_hit_rate": _ratio(
            count("cache_hits"), count("cache_hits") + count("cache_misses")),
        "naming.name_rpcs_per_commit": per_commit("name_rpcs"),
        "naming.pushes_per_write": _ratio(
            count("pushes"), sum(s.naming_writes for s in pooled)),
        "naming.shard_busy_share": statistics.mean(
            s.counts["shard_busy"] for s in pooled),
        "naming.use_list_ops_per_commit": per_commit("use_list_ops"),
        "naming.excludes": count("excludes"),
        "replication.replicas_masked": count("replicas_masked"),
        # replica executions: one per activated server per invocation
        "replication.invocations_per_commit": _ratio(
            layers.ncalls(stats, ObjectServer.invoke), traced.committed),
        "sim_recovery_gap_s": max(s.recovery_gap for s in pooled),
        "workload.latency_samples": sum(len(s.latencies) for s in pooled),
        "workload.fail_ratio": _ratio(sum(s.failed for s in pooled),
                                      committed + sum(s.failed for s in pooled)),
        "trace.overhead_ratio": _ratio(traced.wall_s, traced.untraced_wall_s),
    }
    for layer, share in layers.self_shares(stats).items():
        values[f"{layer}.self_share"] = share
    return values
