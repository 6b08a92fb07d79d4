"""E1 -- Section 4.2.1: the exclude-write lock ablation.

The scenario the paper uses to motivate type-specific concurrency
control: an object shared by several read-only clients (each holding a
read lock on the object's ``St`` entry) while a writer commits after a
store crash.  The commit must ``Exclude`` the crashed store, which
requires promoting its lock on the entry:

- with plain WRITE mode, the promotion conflicts with the readers'
  locks and is refused -> the writer's action must abort;
- with the EXCLUDE_WRITE mode (shareable with read locks) the
  promotion succeeds and the commit proceeds.

Measured: the writer's abort rate with and without the optimisation,
under a varying number of concurrent readers.
"""

import pytest

from repro import SingleCopyPassive
from repro.sim.process import Timeout
from repro.workload import Table

from benchmarks.common import build_system, once


import zlib


def reader_names(count: int, sv_size: int = 2, away_from: int = 0):
    """Client names whose read-optimisation rotation avoids ``away_from``.

    Readers must land on a different replica than the writer so that
    the only contention left is on the naming-database entry -- the
    paper's exact 4.2.1 scenario (readers at their own convenient
    servers, the writer elsewhere).
    """
    names = []
    candidate = 0
    while len(names) < count:
        name = f"r{candidate}"
        if zlib.crc32(name.encode()) % sv_size != away_from:
            names.append(name)
        candidate += 1
    return names


def run_trial(use_exclude_write: bool, n_readers: int, seed: int = 7):
    from benchmarks.common import BenchCounter
    from repro import DistributedSystem, SystemConfig

    system = DistributedSystem(SystemConfig(
        seed=seed, use_exclude_write_lock=use_exclude_write,
        enable_recovery_managers=False))
    system.registry.register(BenchCounter)
    for host in ("s1", "s2"):
        system.add_node(host, server=True)
    for host in ("t1", "t2"):
        system.add_node(host, store=True)
    writer = system.add_client("w0", policy=SingleCopyPassive())
    # The writer binds the first Sv host (s1, index 0); readers' rotation
    # must avoid it.
    readers = [system.add_client(name, policy=SingleCopyPassive())
               for name in reader_names(n_readers, sv_size=2, away_from=0)]
    uid = system.create_object(BenchCounter(system.new_uid(), value=0),
                               sv_hosts=["s1", "s2"], st_hosts=["t1", "t2"])
    runtimes = [writer] + readers

    # Readers: long read-only transactions overlapping the writer's
    # commit; each holds a read lock on the St entry via GetView.
    def reading(txn):
        value = yield from txn.invoke(uid, "get")
        yield Timeout(3.0)  # keep the action (and its read locks) open
        return value

    reader_processes = [r.transaction(reading, read_only=True)
                        for r in readers]
    system.run(until=0.5)  # let every reader bind and lock

    # Writer: modifies the object; t2 crashes before commit, so commit
    # must Exclude it -- the contended promotion.
    def writing(txn):
        yield from txn.invoke(uid, "add", 1)
        system.nodes["t2"].crash()

    result = system.run_transaction(writer, writing)
    for process in reader_processes:
        system.run_until(process)
    name_db = system.db.shards[system.name_node.name]
    refusals = name_db.state_db.locks.promotion_refusals
    return result, refusals


@pytest.mark.benchmark(group="exclude-write")
def test_e1_exclude_write_lock_prevents_promotion_aborts(benchmark):
    def experiment():
        rows = []
        for n_readers in (0, 1, 3):
            for use_xw in (False, True):
                result, refusals = run_trial(use_xw, n_readers)
                rows.append((n_readers, use_xw, result.committed,
                             result.reason or "-", refusals))
        return rows

    rows = once(benchmark, experiment)

    table = Table("E1 / section 4.2.1: committing an Exclude under "
                  "concurrent readers",
                  ["readers", "exclude-write lock", "writer committed",
                   "abort reason", "promotion refusals"])
    for row in rows:
        table.add_row(*row)
    table.show()

    by_key = {(r, xw): (committed, refusals)
              for r, xw, committed, _, refusals in rows}
    # No readers: both modes work.
    assert by_key[(0, False)][0] and by_key[(0, True)][0]
    # Shared readers: plain WRITE promotion is refused -> abort...
    assert not by_key[(3, False)][0]
    assert by_key[(3, False)][1] > 0
    # ...the exclude-write lock fixes exactly that.
    assert by_key[(3, True)][0]
    assert by_key[(1, True)][0]
