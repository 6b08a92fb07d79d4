"""F6 -- Figure 6: the standard nested-action binding scheme.

``GetServer`` runs as a nested action under a read lock; ``Sv`` is a
static set that clients never update.  After a server crash, *every*
subsequent client re-discovers the dead server "the hard way" (a wasted
bind attempt costing an RPC timeout), which the paper calls out as the
scheme's shortcoming.

Measured over a sequence of client transactions after one server crash:
wasted bind attempts (grows linearly with the number of transactions),
binding latency inflation, and the scheme's virtue -- zero write locks
on the naming database during binding.
"""

import pytest

from repro.workload import Table

from benchmarks.common import build_system, once


def run_sequential(scheme: str, clients: int, txns_each: int = 4,
                   crash_s1: bool = True, seed: int = 7):
    system, runtimes, uid = build_system(
        sv=["s1", "s2", "s3"], st=["t1"], clients=clients, seed=seed,
        binding_scheme=scheme, enable_recovery_managers=False)
    if crash_s1:
        system.nodes["s1"].crash()

    def work(txn):
        return (yield from txn.invoke(uid, "add", 1))

    committed = 0
    latencies = []
    for round_index in range(txns_each):
        for runtime in runtimes:
            result = system.run_transaction(runtime, work)
            committed += int(result.committed)
            latencies.append(result.duration)

    scheme_name = runtimes[0].scheme.name
    name_db = system.db.shards[system.name_node.name]
    return {
        "committed": committed,
        "offered": clients * txns_each,
        "wasted_binds": system.metrics.counter_value(
            f"binding.{scheme_name}.failed_attempts"),
        "db_write_locks": (
            name_db.metrics.counter_value("server_db.locks.write")
            + name_db.metrics.counter_value("server_db.locks.exclude_write")),
        "mean_latency": sum(latencies) / len(latencies),
    }


@pytest.mark.benchmark(group="fig6")
def test_fig6_standard_scheme_pays_per_transaction(benchmark):
    def experiment():
        healthy = run_sequential("standard", clients=4, crash_s1=False)
        rows = {"healthy (no crash)": healthy}
        for clients in (2, 4, 8):
            rows[f"{clients} clients, s1 dead"] = run_sequential(
                "standard", clients=clients)
        return rows

    results = once(benchmark, experiment)

    table = Table("F6 / figure 6: standard scheme, Sv static",
                  ["configuration", "committed/offered",
                   "wasted bind attempts", "db write locks",
                   "mean txn latency"])
    for label, row in results.items():
        table.add_row(label, f"{row['committed']}/{row['offered']}",
                      row["wasted_binds"], row["db_write_locks"],
                      row["mean_latency"])
    table.show()

    # Shape: every transaction re-pays the dead-server probe...
    dead8 = results["8 clients, s1 dead"]
    dead2 = results["2 clients, s1 dead"]
    assert dead8["wasted_binds"] == dead8["offered"]
    assert dead2["wasted_binds"] == dead2["offered"]
    # ...inflating latency versus the healthy run...
    assert dead2["mean_latency"] > results["healthy (no crash)"]["mean_latency"]
    # ...but binding itself never takes a db write lock (the single write
    # lock in every row is object creation at bootstrap), and nothing aborts.
    baseline_locks = results["healthy (no crash)"]["db_write_locks"]
    assert all(row["db_write_locks"] == baseline_locks
               for row in results.values())
    assert all(row["committed"] == row["offered"] for row in results.values())
