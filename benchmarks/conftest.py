"""Benchmark-session hooks: machine-readable result artifacts.

Every experiment driven through :func:`benchmarks.common.once` records
its returned rows; this hook drains that registry at session end and
writes one ``benchmarks/results/BENCH_<name>.json`` per bench module
that ran.  CI uploads the directory as an artifact, so the perf
trajectory (throughput, tail latencies, correctness ledgers) is
recorded per commit instead of living only in stdout tables.
"""

from __future__ import annotations

import json
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _string_keys(value):
    """``value`` with every dict key, at any depth, made a string.

    ``json.dumps`` rejects non-string keys that are not scalars (a row
    keyed by a ``(scheme, hosts)`` tuple killed the whole session), and
    its ``default`` hook only sees values, never keys.
    """
    if isinstance(value, dict):
        return {key if isinstance(key, str) else str(key): _string_keys(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_string_keys(item) for item in value]
    return value


def pytest_sessionfinish(session, exitstatus):
    from benchmarks.common import BENCH_RESULTS, BENCH_WALL_CLOCK

    if not BENCH_RESULTS:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    for module, results in sorted(BENCH_RESULTS.items()):
        name = module[len("bench_"):] if module.startswith("bench_") else module
        payload = {
            "bench": module,
            "results": _string_keys(results),
            # Real seconds per experiment: the regression gate holds
            # these to an absolute budget (see check_regression.py).
            "wall_clock_seconds": BENCH_WALL_CLOCK.get(module, {}),
        }
        path = RESULTS_DIR / f"BENCH_{name}.json"
        # default=str: rows may carry Uids or other repr-able values.
        path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                                   default=str) + "\n")
        print(f"wrote {path}")
