"""The repository benchmark: one workload, one seed, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload commit_storm --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``commit_storm``: write-only load on the batched 2PC commit plane;
- ``read_crowd``: zipfian reads of a few hot, write-churned entries
  through the leased, push-invalidated read path;
- ``replica_failover``: the paper's deployment -- one name node, use
  lists, active replication -- through a server and a store outage.
  The program loses committed writes on it, so it is not listed in
  ``BENCHMARK.json`` and most seeds report ``"correct": false``.

A run executes the workload's ``sim_reps`` distinct repetitions (a
fresh system each), then replays them in turn until ``--seconds`` of
wall time have passed.  The simulated-clock metrics, the correctness
verdict and the attempted/failed counts come from the distinct
repetitions, so they depend on the seed alone; the host-clock metrics
are medians over every repetition, replays included.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` also prints
them, but reports the per-layer metrics, for which repetition 0 runs
once more under ``cProfile``.  Each metric is printed by name with its unit; the last
line of standard output is the JSON result.  The run exits non-zero,
printing no result, when the program's sources are missing from the
checkout.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"


def _load_program() -> None:
    if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SOURCE_DIR}/repro")
    sys.path[:0] = [str(SOURCE_DIR), str(BENCH_DIR)]


def _measure(workload, seed: int, seconds: float):
    import audit
    import report
    import workloads

    summaries = []
    started = time.perf_counter()
    while (len(summaries) < workload.sim_reps
           or time.perf_counter() - started < seconds):
        rep = workloads.run_rep(workload, seed,
                                len(summaries) % workload.sim_reps)
        violations = audit.audit(rep)
        summary = report.summarize(rep, violations)
        if not summaries:
            summary.stale_reads = audit.stale_reads(rep)
        summaries.append(summary)
    return summaries


def _print_metrics(specs, values, samples) -> None:
    for name, unit, _ in specs:
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:42s} {values[name]:>14.6g} {unit}{count}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    import report
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choices: {', '.join(workloads.WORKLOADS)})")

    summaries = _measure(workload, args.seed, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values, samples = report.end_to_end(summaries, workload.sim_reps, peak_mb)
    specs = report.END_TO_END
    if args.trace:
        # The end-to-end figures are printed for reading; the result
        # line carries the per-layer ones.
        _print_metrics(specs, values, samples)
        profiler = cProfile.Profile()
        traced = workloads.run_rep(workload, args.seed, 0, profiler=profiler)
        values = report.per_layer(summaries, workload.sim_reps, report.Traced(
            stats=pstats.Stats(profiler), wall_s=traced.wall_s,
            untraced_wall_s=summaries[0].wall_s,
            committed=sum(o.committed for o in traced.outcomes)))
        specs, samples = report.PER_LAYER, {}

    distinct = summaries[:workload.sim_reps]
    violations = [v for s in distinct for v in s.violations]
    for violation in violations:
        print(f"audit: {violation}")
    if summaries[0].stale_reads:
        print(f"note: {summaries[0].stale_reads} read-only read-backs "
              f"returned a stale value (cluster.stale_read_backs)")
    print(f"{args.workload} seed={args.seed} repetitions={len(summaries)} "
          f"audit={'ok' if not violations else 'FAILED'}")
    _print_metrics(specs, values, samples)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in specs}
    print(json.dumps({
        "correct": not violations,
        "attempted": sum(s.committed + s.failed for s in distinct),
        "failed": sum(s.failed for s in distinct),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
