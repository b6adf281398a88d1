"""Figure 11: deterministic shared-memory benchmarks on 1-32 node clusters.

Paper shape (log-log): md5-tree scales well with recursive distribution;
md5-circuit (serial migration circuit) trails at high node counts;
matmult-tree is bounded by the volume of matrix data the protocol moves.
Under the paper's simplistic full-ship/per-page protocol
(``matmult-naive``) it levels off at two nodes exactly as §6.3 reports;
the delta+batched transport lifts the plateau but matmult remains
data-movement-bound — far from md5's near-linear scaling (DESIGN.md
records this deliberate divergence).
"""

import pytest

from repro.bench import figures


@pytest.mark.slow_cluster
def test_fig11_cluster_speedup():
    series = figures.figure11()
    print()
    print(figures.format_series(
        "Figure 11: speedup vs single-node local execution", series))
    assert series["md5-tree"][32] > 15.0
    assert series["md5-tree"][32] > series["md5-circuit"][32]
    # The paper's protocol: matmult-tree peaks at ~2 nodes and never
    # scales past it.
    naive_peak = max(series["matmult-naive"].values())
    assert series["matmult-naive"][2] >= 0.9 * naive_peak
    assert series["matmult-naive"][32] < 2.0
    # The rebuilt transport: better everywhere, still data-bound — the
    # plateau is low, early (<= 4 nodes), and decays at scale.
    peak = max(series["matmult-tree"].values())
    assert peak < 3.0
    assert max(series["matmult-tree"], key=series["matmult-tree"].get) <= 4
    assert series["matmult-tree"][32] < peak
    # Delta+batched shipping dominates the naive protocol at every size.
    for nodes, naive in series["matmult-naive"].items():
        assert series["matmult-tree"][nodes] >= naive


@pytest.mark.slow_cluster
def test_fig11_prefetch_series():
    """The data-bound series under summary-only demand paging: the
    async fetch queues lift the stop-and-wait envelope, compression
    lifts it further, and the eager delta default bounds it above —
    with the same computed value in every cell."""
    series = figures.figure11_prefetch()
    print()
    print(figures.format_series(
        "Figure 11 (demand paging): matmult-tree speedup", series))
    for nodes in (4, 8):
        assert series["pipelined"][nodes] > series["stopwait"][nodes]
        assert series["pipelined+comp"][nodes] > series["pipelined"][nodes]
        assert series["eager-delta"][nodes] >= series["stopwait"][nodes]


@pytest.mark.slow_cluster
def test_fig11_topology_series():
    """The data-bound series re-run per routed fabric: the flat mesh is
    the upper envelope, oversubscribed two-tier bends the knee
    earliest, full-bisection fat-tree sits between."""
    series = figures.figure11_topology()
    print()
    print(figures.format_series(
        "Figure 11 (per topology): matmult-tree speedup", series))
    for nodes in (4, 8):
        assert series["flat"][nodes] >= series["fat-tree"][nodes]
        assert series["fat-tree"][nodes] > series["two-tier"][nodes]
