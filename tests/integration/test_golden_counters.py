"""Golden counters for a small seeded commit-plane run.

The simulator's host-speed work (how messages are sized, how timers
are cancelled, how the event loop pops) must never move a simulated
number.  This pins every count such a change could disturb -- events
fired, messages sent and delivered, each host's per-plane byte
counters, commits -- for one seeded run with batching, pipelining,
group commit and a store-host outage (so RPC timeouts fire and a crash
resets pending calls).  The expected values were recorded before that
work began; a change that moves any of them changed the model, not
just its speed.
"""

from repro import DistributedSystem, SystemConfig
from repro.sim.failures import FaultPlan
from repro.sim.rng import SeededRng
from repro.workload.generator import TransactionStream, run_streams

from tests.conftest import Counter, add_work


def run_small_commit_plane():
    system = DistributedSystem(SystemConfig(
        seed=23, enable_recovery_managers=False,
        nameserver_shards=2, nameserver_replication=2,
        binding_scheme="standard", nameserver_lease=5.0,
        nameserver_cache_ledger=True, log_force_interval=0.003,
        rpc_timeout=0.5, fixed_latency=0.002,
        commit_batching=True, commit_batch_window=0.008,
        rpc_pipelining=True))
    system.registry.register(Counter)
    sv_hosts = ["sv0", "sv1"]
    st_hosts = ["st0", "st1", "st2"]
    for host in sv_hosts:
        system.add_node(host, server=True, store=False)
    for host in st_hosts:
        system.add_node(host, server=False, store=True)
        system.nodes[host].rpc.service_time = 0.004
    clients = [system.add_client(f"c{i}") for i in range(2)]
    streams = []
    for i in range(16):
        uid = system.create_object(
            Counter(system.new_uid(), value=0),
            sv_hosts=[sv_hosts[i % 2]],
            st_hosts=[st_hosts[i % 3], st_hosts[(i + 1) % 3]])
        streams.append(TransactionStream(
            clients[i % 2], lambda _index, uid=uid: add_work(uid, 1),
            count=8, rng=SeededRng(23, f"stream{i}"),
            mean_think_time=0.05, max_attempts=4))
    system.install_fault_plan(FaultPlan().outage(0.3, 0.9, "st0"))
    report = run_streams(system, streams, timeout=60.0)
    system.run(until=system.scheduler.now + 3.0)
    return system, report


# Recorded from the run above before the host-speed work.
EVENTS_FIRED = 4557
MESSAGES_SENT = 2090
MESSAGES_DELIVERED = 2082
OFFERED = 128
COMMITTED = 128
FRAMES_SENT = 32
TRAFFIC = {
    'traffic.c0.client.bytes_in': 27020,
    'traffic.c0.client.bytes_out': 42353,
    'traffic.c0.client.rpcs_in': 534,
    'traffic.c0.client.rpcs_out': 525,
    'traffic.c1.client.bytes_in': 26728,
    'traffic.c1.client.bytes_out': 41426,
    'traffic.c1.client.rpcs_in': 508,
    'traffic.c1.client.rpcs_out': 491,
    'traffic.namenode0.client.bytes_in': 2888,
    'traffic.namenode0.client.bytes_out': 1654,
    'traffic.namenode0.client.rpcs_in': 30,
    'traffic.namenode0.client.rpcs_out': 32,
    'traffic.namenode1.client.bytes_in': 4344,
    'traffic.namenode1.client.bytes_out': 4382,
    'traffic.namenode1.client.rpcs_in': 49,
    'traffic.namenode1.client.rpcs_out': 51,
    'traffic.st0.client.bytes_in': 4541,
    'traffic.st0.client.bytes_out': 2349,
    'traffic.st0.client.rpcs_in': 46,
    'traffic.st0.client.rpcs_out': 45,
    'traffic.st1.client.bytes_in': 13309,
    'traffic.st1.client.bytes_out': 6013,
    'traffic.st1.client.rpcs_in': 150,
    'traffic.st1.client.rpcs_out': 150,
    'traffic.st2.client.bytes_in': 12242,
    'traffic.st2.client.bytes_out': 5557,
    'traffic.st2.client.rpcs_in': 140,
    'traffic.st2.client.rpcs_out': 140,
    'traffic.sv0.client.bytes_in': 23782,
    'traffic.sv0.client.bytes_out': 17915,
    'traffic.sv0.client.rpcs_in': 316,
    'traffic.sv0.client.rpcs_out': 328,
    'traffic.sv1.client.bytes_in': 23844,
    'traffic.sv1.client.bytes_out': 17924,
    'traffic.sv1.client.rpcs_in': 309,
    'traffic.sv1.client.rpcs_out': 328,
}


def test_small_commit_plane_counters_match_the_recorded_run():
    system, report = run_small_commit_plane()
    snapshot = system.metrics.snapshot()
    traffic = {name: value for name, value in snapshot.items()
               if name.startswith("traffic.") and value}
    assert system.scheduler.events_fired == EVENTS_FIRED
    assert system.network.messages_sent == MESSAGES_SENT
    assert system.network.messages_delivered == MESSAGES_DELIVERED
    assert (report.offered, report.committed) == (OFFERED, COMMITTED)
    assert sum(node.rpc.frames_sent
               for node in system.nodes.values()) == FRAMES_SENT
    assert traffic == TRAFFIC
