"""``python -m repro.profile <scenario>`` -- cProfile one sweep scenario.

The simulator's hot loop (event dispatch, future resolution, RPC
marshalling) is where every benchmark second goes, and the flattening
work that bought the 10^5-op scale row was steered entirely by profiles
of these scenarios.  This harness makes that loop reproducible: it runs
one named scenario from :mod:`repro.workload.sweep` under
:mod:`cProfile` and prints the top of the ``cumulative`` and
``tottime`` tables, so "what got slower" is one command instead of a
bespoke script.

The profiled run is the same seeded simulation the benchmarks execute
-- the profiler observes wall time from outside the simulated world, so
the run's *events* stay deterministic even though the timings printed
are host-dependent.

Usage::

    python -m repro.profile commit_batching        # the batched plane
    python -m repro.profile commit_batching:off    # its baseline row
    python -m repro.profile sync_plane --lines 40
    python -m repro.profile commit_batching --layers   # self time by package
    python -m repro.profile --list

``--layers`` sums the profile's self time by ``repro.<package>`` (with
``repro.sim.metrics``, the byte metering, listed apart from the rest of
``repro.sim``), so a change to the hot path shows up as one layer's
share moving.  Self time outside ``src/repro`` -- C builtins, the
standard library -- is listed as ``(outside repro)``.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import os
import pstats
import sys
from typing import Any, Callable

# ``repro.workload`` re-exports the ``sweep`` *function* under the same
# name as the module, so the module must be resolved explicitly.
_sweep_mod = importlib.import_module("repro.workload.sweep")


def _commit_batching(batching: bool) -> Callable[[], Any]:
    def run() -> Any:
        return _sweep_mod.commit_batching_scenario(batching)
    return run


#: Named profile targets.  Each entry is a zero-argument callable
#: running one representative parameterisation of a sweep scenario;
#: ``name:variant`` selects a non-default row.
SCENARIOS: dict[str, Callable[[], Any]] = {
    "commit_batching": _commit_batching(True),
    "commit_batching:off": _commit_batching(False),
    "sharded_nameserver": lambda: _sweep_mod.sharded_nameserver_scenario(
        shards=8, clients=8, txns_per_client=40),
    "sync_plane": lambda: _sweep_mod.sync_plane_scenario(
        dedicated_sync_nic=True),
    "leased_read": lambda: _sweep_mod.leased_read_scenario(
        shards=8, lease=5.0),
    "hot_key": lambda: _sweep_mod.hot_key_scenario(push=True),
}


OUTSIDE = "(outside repro)"


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    path = filename.replace(os.sep, "/")
    if "repro/sim/metrics.py" in path:
        return "repro.sim.metrics"
    _, found, rest = path.rpartition("/repro/")
    if not found:
        return OUTSIDE
    package, slash, _ = rest.partition("/")
    return f"repro.{package}" if slash else "repro"


def layer_times(stats: pstats.Stats) -> dict[str, float]:
    """Self seconds per layer (see :func:`layer_of`), largest first."""
    times: dict[str, float] = {}
    raw = stats.stats  # type: ignore[attr-defined]
    for (filename, _line, _name), (_, _, tottime, _, _) in raw.items():
        layer = layer_of(filename)
        times[layer] = times.get(layer, 0.0) + tottime
    return dict(sorted(times.items(), key=lambda item: (-item[1], item[0])))


def print_layers(stats: pstats.Stats) -> None:
    times = layer_times(stats)
    total = sum(times.values())
    print(f"\n== self time by layer ({total:.3f} s) ==")
    for layer, seconds in times.items():
        share = seconds / total if total > 0 else 0.0
        print(f"  {layer:22s} {seconds:9.3f} s  {share:6.1%}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.profile",
        description="cProfile one workload scenario's simulated run")
    parser.add_argument("scenario", nargs="?",
                        help="scenario name (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="print the available scenario names and exit")
    parser.add_argument("--lines", type=int, default=25,
                        help="rows to print per stats table (default 25)")
    parser.add_argument("--sort", default=None,
                        choices=["cumulative", "tottime", "ncalls"],
                        help="print a single table sorted this way instead "
                             "of the default cumulative+tottime pair")
    parser.add_argument("--layers", action="store_true",
                        help="print self time summed by repro package "
                             "instead of the per-function tables")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also dump raw pstats data to FILE "
                             "(for snakeviz/pstats tooling)")
    args = parser.parse_args(argv)

    if args.list or args.scenario is None:
        for name in sorted(SCENARIOS):
            print(name)
        return 0 if args.list else 2

    run = SCENARIOS.get(args.scenario)
    if run is None:
        parser.error(f"unknown scenario {args.scenario!r} "
                     f"(choices: {', '.join(sorted(SCENARIOS))})")

    profiler = cProfile.Profile()
    result = profiler.runcall(run)
    if args.out:
        profiler.dump_stats(args.out)

    stats = pstats.Stats(profiler, stream=sys.stdout)
    if args.layers:
        print_layers(stats)
    else:
        stats.strip_dirs()
        for sort in ([args.sort] if args.sort else ["cumulative", "tottime"]):
            print(f"\n== top {args.lines} by {sort} ==")
            stats.sort_stats(sort).print_stats(args.lines)

    if isinstance(result, dict):
        summary = {key: result[key] for key in
                   ("offered", "committed", "throughput", "mean_batch_size")
                   if key in result}
        if summary:
            print(f"scenario result: {summary}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
