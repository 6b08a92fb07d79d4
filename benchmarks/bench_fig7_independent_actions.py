"""F7 -- Figure 7: binding via independent top-level actions.

The client reads ``Sv`` *plus use lists* in a separate top-level
action, Removes the servers it finds dead and Increments the use lists
of those it binds, then Decrements in a final top-level action after
the client action ends.  ``Sv`` stays fresh -- later clients never
probe the dead server -- at the price of write locks on the database
for every binding and a cleanup protocol for crashed clients.

Measured against figure 6 on the identical sequential workload: wasted
bind attempts collapse to one, Sv is repaired, db write-lock traffic
grows; plus orphan repair after a client crash.
"""

import pytest

from repro.workload import Table

from benchmarks.common import build_system, once
from benchmarks.bench_fig6_standard_actions import run_sequential


@pytest.mark.benchmark(group="fig7")
def test_fig7_use_lists_keep_sv_fresh(benchmark):
    def experiment():
        out = {}
        for scheme in ("standard", "independent"):
            row = run_sequential(scheme, clients=8)
            system_sv = row.pop("mean_latency")  # latency unused here
            out[scheme] = row
        return out

    results = once(benchmark, experiment)

    table = Table("F7 / figure 7: independent top-level actions vs standard "
                  "(8 clients x 4 txns, one dead server)",
                  ["scheme", "committed/offered", "wasted binds",
                   "db write locks"])
    for scheme, row in results.items():
        table.add_row(scheme, f"{row['committed']}/{row['offered']}",
                      row["wasted_binds"], row["db_write_locks"])
    table.show()

    standard, independent = results["standard"], results["independent"]
    # The paper's claimed trade-off, both directions:
    assert independent["wasted_binds"] == 1, \
        "only the FIRST client probes the dead server; Remove fixes Sv"
    assert standard["wasted_binds"] == standard["offered"], \
        "the static set makes every transaction re-probe"
    assert independent["db_write_locks"] > standard["db_write_locks"], \
        "...paid for with database write locks"
    assert independent["committed"] == independent["offered"]


@pytest.mark.benchmark(group="fig7")
def test_fig7_sv_actually_repaired(benchmark):
    def experiment():
        system, runtimes, uid = build_system(
            sv=["s1", "s2", "s3"], st=["t1"], clients=1, seed=9,
            binding_scheme="independent", enable_recovery_managers=False)
        system.nodes["s1"].crash()

        def work(txn):
            return (yield from txn.invoke(uid, "add", 1))

        system.run_transaction(runtimes[0], work)
        return tuple(system.db_sv(uid))

    sv_after = once(benchmark, experiment)
    table = Table("F7: Sv after the first post-crash binding",
                  ["Sv contents"])
    table.add_row(",".join(sv_after))
    table.show()
    assert "s1" not in sv_after


@pytest.mark.benchmark(group="fig7")
def test_fig7_client_crash_leaves_orphans_cleaner_repairs(benchmark):
    def experiment():
        system, runtimes, uid = build_system(
            sv=["s1", "s2"], st=["t1"], clients=1, seed=11,
            binding_scheme="independent", enable_cleaner=True,
            cleaner_interval=2.0)
        client = runtimes[0]

        def work(txn):
            yield from txn.invoke(uid, "add", 1)
            system.nodes[client.node.name].crash()  # die mid-action
            yield from txn.invoke(uid, "add", 1)

        client.transaction(work)
        system.run(until=1.5)
        snapshot = system.db.get_server_with_uses((0,), str(uid))
        system._release_probe_locks()
        orphans_before = sum(sum(c.values()) for c in snapshot.uses.values())
        system.run(until=20.0)
        snapshot = system.db.get_server_with_uses((0,), str(uid))
        system._release_probe_locks()
        orphans_after = sum(sum(c.values()) for c in snapshot.uses.values())
        return orphans_before, orphans_after

    before, after = once(benchmark, experiment)

    table = Table("F7: orphaned use-list counters after a client crash",
                  ["moment", "orphaned counters"])
    table.add_row("right after crash", before)
    table.add_row("after cleanup daemon round", after)
    table.show()

    assert before > 0, "a crashed client must leave orphaned counters"
    assert after == 0, "the cleanup protocol must repair them"


@pytest.mark.benchmark(group="fig7")
def test_fig7_binding_contention_resolved_by_retry(benchmark):
    """Concurrent binders conflict on the entry's write lock (the cost
    the paper accepts); bounded retries resolve it."""
    from benchmarks.common import increment_factory, run_workload

    def experiment():
        system, runtimes, uid = build_system(
            sv=["s1", "s2"], st=["t1"], clients=6, seed=13,
            binding_scheme="independent", enable_recovery_managers=False)
        report = run_workload(system, runtimes, uid, txns_per_client=3,
                              mean_think_time=0.3, max_attempts=10)
        locks = system.db.shards[system.name_node.name].server_db.locks
        refusals = locks.refusals + locks.promotion_refusals
        return report.commit_rate, report.retries, refusals

    commit_rate, retries, refusals = once(benchmark, experiment)

    table = Table("F7: concurrent binding contention (6 clients, retries)",
                  ["commit rate", "retries spent", "db lock refusals"])
    table.add_row(commit_rate, retries, refusals)
    table.show()

    assert commit_rate == 1.0, "retries must absorb binding contention"
    assert refusals > 0, "contention must actually occur to be meaningful"
