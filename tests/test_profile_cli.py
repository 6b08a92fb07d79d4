"""The profiling harness CLI: listing, validation, wiring."""

import pytest

from repro import profile as profile_cli


def test_list_prints_every_scenario(capsys):
    assert profile_cli.main(["--list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == sorted(profile_cli.SCENARIOS)
    assert "commit_batching" in out


def test_no_scenario_lists_and_signals_usage(capsys):
    assert profile_cli.main([]) == 2
    assert "commit_batching" in capsys.readouterr().out


def test_unknown_scenario_is_an_argument_error(capsys):
    with pytest.raises(SystemExit):
        profile_cli.main(["no_such_scenario"])
    assert "unknown scenario" in capsys.readouterr().err


def test_every_scenario_entry_is_callable():
    for name, run in profile_cli.SCENARIOS.items():
        assert callable(run), name


def test_layer_of_maps_files_to_repro_packages():
    assert profile_cli.layer_of("/x/src/repro/sim/metrics.py") == "repro.sim.metrics"
    assert profile_cli.layer_of("/x/src/repro/sim/scheduler.py") == "repro.sim"
    assert profile_cli.layer_of("/x/src/repro/net/rpc.py") == "repro.net"
    assert profile_cli.layer_of("/x/src/repro/profile.py") == "repro"
    assert profile_cli.layer_of("~") == profile_cli.OUTSIDE
    assert profile_cli.layer_of("/usr/lib/python3/heapq.py") == profile_cli.OUTSIDE


def test_layers_view_sums_self_time_by_package(monkeypatch, capsys):
    from repro.net import FixedLatency, MessageDemux, Network, RpcAgent
    from repro.sim import Scheduler
    from repro.sim.metrics import MetricsRegistry

    class Echo:
        def echo(self, value):
            return value

    def tiny():
        s = Scheduler()
        net = Network(s, FixedLatency(0.01))
        registry = MetricsRegistry()
        agents = {}
        for name in ("a", "b"):
            nic = net.attach(name)
            agents[name] = RpcAgent(
                s, nic, demux=MessageDemux(nic),
                traffic=registry.plane_traffic(name, "client"))
        agents["b"].register("echo", Echo())
        calls = [agents["a"].call("b", "echo", "echo", (i, "x" * i))
                 for i in range(50)]
        s.run()
        return [f.result() for f in calls]

    monkeypatch.setitem(profile_cli.SCENARIOS, "tiny", tiny)
    assert profile_cli.main(["tiny", "--layers"]) == 0
    out = capsys.readouterr().out
    assert "self time by layer" in out
    rows = [line.split() for line in out.splitlines()
            if line.startswith("  ")]
    layers = {row[0] for row in rows}
    assert {"repro.sim", "repro.sim.metrics", "repro.net"} <= layers
    shares = [float(row[-1].rstrip("%")) for row in rows]
    assert abs(sum(shares) - 100.0) < 0.5
    assert "top 25 by" not in out  # the per-function tables are replaced
