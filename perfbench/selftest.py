"""Self-tests of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that:

- one seed gives bit-identical simulated results and layer counts in
  two processes with different string-hash seeds, and when a
  repetition is replayed in the same process;
- another seed changes every workload's generated operations;
- the audit rejects a planted lost write and a planted invented one;
- ``BENCHMARK.json`` lists exactly the metrics the benchmark reports
  and the workloads marked ``listed``.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import audit  # noqa: E402
import report  # noqa: E402
import workloads  # noqa: E402


def fingerprint(workload: str, seed: int, rep_index: int = 0) -> str:
    """Everything simulated about one repetition of ``workload``."""
    rep = workloads.run_rep(workloads.WORKLOADS[workload], seed, rep_index)
    summary = report.summarize(rep, [])
    return json.dumps({
        "outcomes": [dataclasses.astuple(o) for o in rep.outcomes],
        "window": [rep.t0, rep.t_end, rep.t_stop],
        "events": rep.events,
        "counts": summary.counts,
        "recoveries": rep.recoveries,
    }, sort_keys=True)


def check_determinism(workload: str, seed: int) -> None:
    prints = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, __file__, "--fingerprint", workload, str(seed)],
            env=env, capture_output=True, text=True, check=True, timeout=170)
        prints.append(out.stdout)
    assert prints[0] == prints[1], f"{workload}: seed {seed} not reproducible"


def check_replay(workload: str, seed: int) -> None:
    first = fingerprint(workload, seed, 1)
    fingerprint(workload, seed, 0)
    assert fingerprint(workload, seed, 1) == first, \
        f"{workload}: a replayed repetition differs"


def check_seed_changes_inputs() -> None:
    for name, workload in workloads.WORKLOADS.items():
        assert workload.plan(1, 0) == workload.plan(1, 0), name
        assert workload.plan(1, 0).streams != workload.plan(2, 0).streams, name
        assert workload.plan(1, 0).streams != workload.plan(1, 1).streams, name


def check_audit_rejects_planted_writes() -> None:
    rep = workloads.run_rep(workloads.WORKLOADS["read_crowd"], 1, 0)
    outcomes = rep.warmup + rep.outcomes
    assert audit.audit(rep, outcomes) == []
    phantom = workloads.Outcome(-1, workloads.Op("add", 0, 3, 0.0, 0.0),
                                True, 1, None, 0.0, 0.0)
    lost = audit.audit(rep, outcomes + [phantom])
    assert len(lost) == 1 and "lost 3" in lost[0], lost
    real = next(o for o in outcomes if o.committed and o.op.kind == "add")
    invented = audit.audit(rep, [o for o in outcomes if o is not real])
    assert len(invented) == 1 and "invented" in invented[0], invented


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert listed == set(report.END_TO_END), listed ^ set(report.END_TO_END)
    listed = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    assert listed == set(report.PER_LAYER), listed ^ set(report.PER_LAYER)
    listed = [name for name, workload in workloads.WORKLOADS.items()
              if workload.listed]
    assert [w["name"] for w in spec["workloads"]] == listed, listed


def main() -> int:
    if sys.argv[1:2] == ["--fingerprint"]:
        print(fingerprint(sys.argv[2], int(sys.argv[3])))
        return 0
    check_benchmark_json()
    check_seed_changes_inputs()
    check_audit_rejects_planted_writes()
    for workload in workloads.WORKLOADS:
        check_determinism(workload, seed=3)
        check_replay(workload, seed=3)
    print("perfbench self-tests passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
