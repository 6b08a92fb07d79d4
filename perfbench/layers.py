"""Self time by layer from a ``cProfile`` run, and call counts.

The profiler observes the program from outside, so nothing inside
``src/repro`` changes for a traced run.  Each profiled function's self
time is charged to the layer its source file belongs to.  A function
that belongs to no layer -- a C builtin such as ``isinstance`` or a
standard-library helper -- is charged to its callers, in proportion to
the self time it spent under each; so ``isinstance`` inside
``estimate_size`` counts as metering.  The shares of all layers sum to
one by construction.
"""

from __future__ import annotations

import os
import pstats
from typing import Any, Callable

#: (layer, path fragment) in match order; the first fragment found in a
#: function's source path names its layer.
_LAYER_PATHS: list[tuple[str, str]] = [
    ("sim.metrics", "repro/sim/metrics.py"),
    ("sim.core", "repro/sim/scheduler.py"),
    ("sim.core", "repro/sim/events.py"),
    ("sim.core", "repro/sim/futures.py"),
    ("sim.core", "repro/sim/process.py"),
    ("sim.other", "repro/sim/"),
    ("net", "repro/net/"),
    ("actions", "repro/actions/"),
    ("cluster", "repro/cluster/"),
    ("naming", "repro/naming/"),
    ("replication", "repro/replication/"),
    ("storage", "repro/storage/"),
    ("core", "repro/core/"),
    ("workload", "repro/workload/"),
    # The benchmark's own load generator is the workload layer too.
    ("workload", "perfbench/workloads.py"),
    ("workload", "perfbench/deploy.py"),
    ("other", "repro/"),
    ("other", "perfbench/"),
]

#: Every layer a share is reported for.
LAYERS = sorted({layer for layer, _ in _LAYER_PATHS})

Func = tuple[str, int, str]


def _layer_of(filename: str) -> str | None:
    path = filename.replace(os.sep, "/")
    for layer, fragment in _LAYER_PATHS:
        if fragment in path:
            return layer
    return None


def self_shares(stats: pstats.Stats) -> dict[str, float]:
    """Each layer's share of the profiled self time."""
    raw: dict[Func, Any] = stats.stats  # type: ignore[attr-defined]
    memo: dict[Func, dict[str, float]] = {}

    def resolve(func: Func, active: set[Func]) -> dict[str, float]:
        if func in memo:
            return memo[func]
        layer = _layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        callers = raw[func][4]
        weights = {caller: edge[2] for caller, edge in callers.items()
                   if caller not in active and caller in raw}
        total = sum(weights.values())
        if total <= 0:
            weights = {caller: float(edge[1])
                       for caller, edge in callers.items()
                       if caller not in active and caller in raw}
            total = sum(weights.values())
        if total <= 0:
            share = {"other": 1.0}
        else:
            share = {}
            active.add(func)
            for caller, weight in weights.items():
                for name, part in resolve(caller, active).items():
                    share[name] = share.get(name, 0.0) + part * weight / total
            active.discard(func)
        if not active:
            memo[func] = share
        return share

    times = {layer: 0.0 for layer in LAYERS}
    for func, (_, _, tottime, _, _) in raw.items():
        for layer, part in resolve(func, set()).items():
            times[layer] += tottime * part
    total = sum(times.values())
    return {layer: (time / total if total > 0 else 0.0)
            for layer, time in times.items()}


def ncalls(stats: pstats.Stats, function: Callable[..., Any]) -> int:
    """How many times ``function`` ran (recursive calls included)."""
    code = function.__code__
    entry = stats.stats.get(  # type: ignore[attr-defined]
        (code.co_filename, code.co_firstlineno, code.co_name))
    return entry[1] if entry else 0
