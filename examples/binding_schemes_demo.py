#!/usr/bin/env python
"""The three binding schemes side by side (figures 6-8).

A server node is crashed once; then a series of clients bind to the
object.  Under the **standard** scheme (figure 6) the Sv set is static,
so *every* client wastes a bind attempt on the dead server -- the paper
calls this discovering the failure "the hard way".  Under the
**independent** and **nested top-level** schemes (figures 7-8) the
first client to hit the dead server Removes it, and later clients never
try it -- at the cost of write locks on the naming database during
binding.

Run:  python examples/binding_schemes_demo.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro import DistributedSystem, SingleCopyPassive, SystemConfig
from repro.workload import Table

from examples.quickstart import Counter


def run_scheme(scheme_name, clients=6, seed=5):
    system = DistributedSystem(SystemConfig(seed=seed,
                                            binding_scheme=scheme_name))
    system.registry.register(Counter)
    for host in ("s1", "s2", "s3"):
        system.add_node(host, server=True)
    system.add_node("t1", store=True)
    runtimes = [system.add_client(f"c{i}") for i in range(clients)]
    uid = system.create_object(Counter(system.new_uid(), value=0),
                               sv_hosts=["s1", "s2", "s3"], st_hosts=["t1"])

    system.nodes["s1"].crash()  # the first Sv entry is dead

    committed = 0
    for runtime in runtimes:
        def work(txn):
            return (yield from txn.invoke(uid, "add", 1))
        result = system.run_transaction(runtime, work)
        committed += int(result.committed)

    failed_attempts = system.metrics.counter_value(
        f"binding.{system.clients['c0'].scheme.name}.failed_attempts")
    name_db = system.db.shards[system.name_node.name]
    write_locks = (
        name_db.metrics.counter_value("server_db.locks.write")
        + name_db.metrics.counter_value("server_db.locks.exclude_write"))
    sv_now = system.db_sv(uid)
    return {
        "committed": committed,
        "failed_bind_attempts": failed_attempts,
        "db_write_locks": write_locks,
        "sv_after": ",".join(sv_now),
    }


def main():
    table = Table("Binding schemes after one server crash (6 clients)",
                  ["scheme", "figure", "committed", "wasted binds",
                   "db write locks", "Sv afterwards"])
    for scheme, figure in (("standard", "fig 6"),
                           ("independent", "fig 7"),
                           ("nested_top_level", "fig 8")):
        row = run_scheme(scheme)
        table.add_row(scheme, figure, row["committed"],
                      row["failed_bind_attempts"], row["db_write_locks"],
                      row["sv_after"])
    table.show()
    print("\nstandard: every client re-pays the dead-server probe; "
          "use-list schemes pay once, then Remove it from Sv.")


if __name__ == "__main__":
    main()
