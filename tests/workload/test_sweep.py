"""Tests for sweep helpers and tables."""

import math

import pytest

from repro.workload import Table, mean_and_spread, sweep
from repro.workload.sweep import (
    online_reshard_scenario,
    percentile,
    sharded_failover_scenario,
    spread_read_scenario,
)


def test_online_reshard_scenario_row_shape():
    """A tiny scale-out run produces a complete, all-clean row."""
    row = online_reshard_scenario(initial_shards=2, target_shards=3,
                                  clients=6, txns_per_client=12,
                                  server_hosts=2, reshard_at=1.0)
    assert row["shards_before"] == 2
    assert row["shards_after"] == 3
    assert row["epochs"] == 1
    assert row["commit_rate"] == 1.0
    assert row["lost_bindings"] == 0
    assert row["stale_bindings"] == 0
    assert row["aborted_for_routing"] == 0
    assert row["misplaced_entries"] == 0
    assert row["replica_disagreements"] == 0
    assert row["migration_done_at"] > row["migration_started_at"]


def test_a_one_host_ring_reshards_live():
    """The paper's single name node is the one-host ring, so it grows
    to two hosts under traffic like any other ring."""
    row = online_reshard_scenario(initial_shards=1, target_shards=2,
                                  replication=1, clients=6,
                                  txns_per_client=12, server_hosts=2,
                                  reshard_at=1.0)
    assert row["shards_before"] == 1
    assert row["shards_after"] == 2
    assert row["epochs"] == 1
    assert row["commit_rate"] == 1.0
    assert row["lost_bindings"] == 0
    assert row["stale_bindings"] == 0
    assert row["misplaced_entries"] == 0
    assert row["aborted_for_routing"] == 0


def test_spread_read_scenario_row_shape():
    row = spread_read_scenario(read_policy="spread", clients=6,
                               txns_per_client=4)
    assert row["read_policy"] == "spread"
    assert row["commit_rate"] == 1.0
    assert row["p95_latency"] >= row["p50_latency"] >= 0.0
    assert sum(row["per_shard_reads"].values()) > 0


def test_percentile_nearest_rank():
    values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    assert percentile(values, 0.50) == 0.5
    assert percentile(values, 0.95) == 1.0
    assert percentile(values, 0.0) == 0.1
    assert math.isnan(percentile([], 0.5))


def test_sharded_failover_scenario_row_shape():
    """A tiny run of the failover scenario produces a complete row."""
    row = sharded_failover_scenario(shards=3, replication=2, clients=4,
                                    txns_per_client=3, server_hosts=2,
                                    outage=(1.0, 4.0))
    assert row["replication"] == 2
    assert row["victim"] == "namenode0"
    assert row["offered"] == 12
    assert 0.0 <= row["commit_rate"] <= 1.0
    assert row["resyncs_completed"] == 1
    assert row["resync_done_at"] > row["recovered_at"]
    assert row["serving_again"]


def test_sweep_collects_tagged_rows():
    rows = sweep([1, 2, 3], lambda v: {"square": v * v}, label="n")
    assert rows == [{"n": 1, "square": 1}, {"n": 2, "square": 4},
                    {"n": 3, "square": 9}]


def test_mean_and_spread():
    mean, spread = mean_and_spread([2.0, 4.0, 6.0])
    assert mean == 4.0
    assert spread == pytest.approx(2.0)


def test_mean_and_spread_degenerate():
    mean, spread = mean_and_spread([5.0])
    assert (mean, spread) == (5.0, 0.0)
    mean, _ = mean_and_spread([])
    assert math.isnan(mean)


def test_table_renders_aligned():
    table = Table("Demo", ["name", "value"])
    table.add_row("short", 1.5)
    table.add_row("much-longer-name", 22)
    text = table.render()
    assert "Demo" in text
    assert "1.500" in text
    assert "much-longer-name" in text
    lines = text.splitlines()
    header_line = next(l for l in lines if l.startswith("name"))
    assert "value" in header_line


def test_table_rejects_wrong_arity():
    table = Table("T", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)
