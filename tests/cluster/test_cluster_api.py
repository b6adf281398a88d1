"""Tests for the cluster runners (``run_cluster``, ``sweep_nodes``) and
network statistics."""

import pytest

from repro.bench.cluster_workloads import run_cluster, sweep_nodes
from repro.cluster import NetworkStats
from repro.cluster.cluster import fork_child, join_child
from repro.kernel import Trap, child_ref
from repro.mem import PAGE_SIZE
from repro.runtime.threads import ThreadFault

ADDR = 0x10_0000


def spread_work(total=200_000, data_pages=0):
    """Program ``main(g, nnodes)``: one worker per node, ``total`` work
    split evenly between them, optional data shipping."""
    def worker(g, work):
        g.work(work)
        return g.space.cur_node

    def main(g, nnodes):
        if data_pages:
            g.write(ADDR, b"d" * (data_pages * PAGE_SIZE))
        for node in range(nnodes):
            kwargs = {"regs": {"entry": worker, "args": (total // nnodes,)},
                      "start": True}
            if data_pages:
                kwargs["copy"] = (ADDR, data_pages * PAGE_SIZE)
            g.put(child_ref(1, node=node), **kwargs)
        return sorted(
            g.get(child_ref(1, node=node), regs=True)["r0"]
            for node in range(nnodes)
        )

    return main


def every_node_reports(total=200_000):
    """A :func:`spread_work` program whose value is the same at every
    size: did each node's worker report from its own node?"""
    spread = spread_work(total)

    def main(g, nnodes):
        return spread(g, nnodes) == list(range(nnodes))

    return main


def test_cluster_runs_and_places_workers():
    makespan, _, value = run_cluster(spread_work(), 4)
    assert value == [0, 1, 2, 3]
    assert makespan > 0


def test_cluster_faults_raise():
    def bad(g, nnodes):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="faulted"):
        run_cluster(bad, 2)


def test_network_stats_counts_fetches_and_migrations():
    _, machine, _ = run_cluster(spread_work(data_pages=8), 4)
    stats = NetworkStats(machine)
    assert stats.pages_fetched >= 8 * 3   # shipped to 3 remote nodes
    assert stats.bytes_moved == stats.pages_fetched * PAGE_SIZE
    assert stats.migrations >= 3
    assert "pages fetched" in stats.summary()


def test_no_traffic_on_single_node():
    _, machine, _ = run_cluster(spread_work(data_pages=8), 1)
    assert NetworkStats(machine).pages_fetched == 0


def test_sweep_nodes_speedup_and_transparency():
    series = sweep_nodes(every_node_reports(total=20_000_000),
                         node_counts=(1, 2, 4))
    assert series[1][0] == pytest.approx(1.0)
    assert series[4][0] > series[2][0] > 1.5
    assert {value for _, _, value in series.values()} == {True}
    assert [machine.nnodes for _, machine, _ in series.values()] == [1, 2, 4]


def test_sweep_nodes_is_run_cluster_per_size():
    main = every_node_reports()
    series = sweep_nodes(main, node_counts=(2, 4))
    base, _, _ = run_cluster(main, 2)
    makespan, _, value = run_cluster(main, 4)
    assert series[4][0] == base / makespan
    assert series[4][2] == value


def test_sweep_nodes_detects_value_drift():
    def main(g, nnodes):
        return nnodes        # deliberately node-count dependent

    with pytest.raises(AssertionError, match="drift"):
        sweep_nodes(main, node_counts=(1, 2))


def test_join_child_refuses_a_faulted_child():
    """The one cross-node join (the cluster workloads' and the serving
    dispatcher's) reads the child's trap as ``thread_join`` does."""
    def boom(g):
        raise ValueError("boom")

    def main(g, nnodes):
        ref = fork_child(g, child_ref(1, node=nnodes - 1),
                         (ADDR, PAGE_SIZE), boom, ())
        try:
            join_child(g, ref)
        except ThreadFault as fault:
            return fault.childno == ref, fault.trap, str(fault)
        return None

    _, _, (same_ref, trap, message) = run_cluster(main, 2)
    assert same_ref and trap is Trap.EXC
    assert "ValueError: boom" in message
