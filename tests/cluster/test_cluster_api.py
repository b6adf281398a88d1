"""Tests for the high-level Cluster API and network statistics."""

import pytest

from repro.cluster import Cluster, sweep_nodes
from repro.kernel import child_ref
from repro.mem import PAGE_SIZE

ADDR = 0x10_0000


def spread_work(nnodes, work=200_000, data_pages=0):
    """Program: one worker per node, optional data shipping."""
    def worker(g):
        g.work(work)
        return g.space.cur_node

    def main(g):
        if data_pages:
            g.write(ADDR, b"d" * (data_pages * PAGE_SIZE))
        for node in range(nnodes):
            kwargs = {"regs": {"entry": worker}, "start": True}
            if data_pages:
                kwargs["copy"] = (ADDR, data_pages * PAGE_SIZE)
            g.put(child_ref(1, node=node), **kwargs)
        return sorted(
            g.get(child_ref(1, node=node), regs=True)["r0"]
            for node in range(nnodes)
        )

    return main


def test_cluster_runs_and_places_workers():
    cluster = Cluster(nnodes=4)
    result = cluster.run(spread_work(4))
    assert result.value == [0, 1, 2, 3]
    assert result.makespan() > 0


def test_cluster_faults_raise():
    def bad(g):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="faulted"):
        Cluster(nnodes=2).run(bad)


def test_network_stats_counts_fetches_and_migrations():
    cluster = Cluster(nnodes=4)
    result = cluster.run(spread_work(4, data_pages=8))
    stats = result.network
    assert stats.pages_fetched >= 8 * 3   # shipped to 3 remote nodes
    assert stats.bytes_moved == stats.pages_fetched * PAGE_SIZE
    assert stats.migrations >= 3
    assert "pages fetched" in stats.summary()


def test_no_traffic_on_single_node():
    result = Cluster(nnodes=1).run(spread_work(1, data_pages=8))
    assert result.network.pages_fetched == 0


def test_sweep_nodes_speedup_and_transparency():
    total = 20_000_000

    def builder(n):
        spread = spread_work(n, work=total // n)   # fixed total work
        return lambda g: len(spread(g)) == n       # every node reported

    series = sweep_nodes(builder, node_counts=(1, 2, 4))
    assert series[1][0] == pytest.approx(1.0)
    assert series[4][0] > series[2][0] > 1.5


def test_sweep_nodes_detects_value_drift():
    def builder(nnodes):
        def main(g):
            return nnodes        # deliberately node-count dependent
        return main

    with pytest.raises(AssertionError, match="drift"):
        sweep_nodes(builder, node_counts=(1, 2))
