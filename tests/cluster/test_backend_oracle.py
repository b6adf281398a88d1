"""Cross-backend differential oracle: the simulated run is bit-exact
ground truth for the real-process backend.

Both backends run the *same* workload builder (shared closures keep
register contents identical), and everything except timing must come
out equal: the computed value, the makespan and the frozen machine
image — the space tree down to page bytes, tags and refcounts, plus the
hand-back of the whole run (``repro.kernel.ledgers.whole_run``): the
trace, every link / node / pair row, the transport scalars, counters,
page cache, console and merge log — with conservation holding on both
the simulated transport and the real wire.  Real wall-clock is the one
column deliberately *not* compared — it is the real backend's own
measurement.

A larger matrix (more nodes, compression, fat-tree) runs nightly in
``benchmarks/bench_backend_oracle.py``.
"""

import os
import sys

import pytest

from repro.bench import cluster_workloads as cw
from repro.cluster.backend import run_backend, run_real
from repro.cluster.realnet import localhost_available
from repro.cluster.serving import serve_trace
from repro.cluster.spec import ClusterSpec

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "kernel"))
from test_shard import assert_identical  # noqa: E402

pytestmark = [
    pytest.mark.skipif(not hasattr(os, "fork"),
                       reason="real backend needs os.fork"),
    pytest.mark.skipif(not localhost_available(),
                       reason="localhost TCP sockets unavailable"),
]

# One builder instance per workload, shared by both backends: the entry
# closure lands in root registers, and image equality compares it by
# identity.
MD5_CIRCUIT = cw.md5_circuit_main(3)
MD5_TREE = cw.md5_tree_main(3)
MATMULT_TREE = cw.matmult_tree_main(n=48, seed=7)

MATRIX = [(topology, ship_mode)
          for topology in ("flat", "two_tier:2")
          for ship_mode in ("delta", "full")]


def run_pair(builder, nnodes, **kw):
    sim = run_backend(builder, nnodes, spec=ClusterSpec(backend="sim", **kw))
    real = run_backend(builder, nnodes,
                       spec=ClusterSpec(backend="real", **kw))
    return sim, real


def assert_same_run(run, oracle):
    # One comparison: the image holds the whole space tree and every
    # ledger the run moved, the adopted trace included (so simulated
    # cycles agree); every page and byte total is a sum over its rows.
    assert_identical(run, oracle)
    assert sum(row["pages"] for row in oracle.image.links.values()) > 0
    assert oracle.machine.transport.conservation_ok()
    assert run.machine.transport.conservation_ok()


def assert_equivalent(sim, real):
    assert_same_run(real, sim)
    # The real run additionally measured wall-clock (not compared).
    assert real.wall_seconds > 0 and sim.wall_seconds > 0
    # The real run really ran on the real path, conserving wire bytes.
    assert real.backend == "real" and sim.backend == "sim"
    assert real.shard_stats["adopted"] >= 1
    assert real.shard_stats["fallbacks"] == 0
    assert real.wire and real.wire_ok


@pytest.mark.parametrize("topology,ship_mode", MATRIX)
def test_md5_circuit_matches_oracle(topology, ship_mode):
    sim, real = run_pair(MD5_CIRCUIT, 4, topology=topology,
                         ship_mode=ship_mode)
    assert_equivalent(sim, real)


@pytest.mark.parametrize("topology,ship_mode", MATRIX)
def test_matmult_tree_matches_oracle(topology, ship_mode):
    sim, real = run_pair(MATMULT_TREE, 4, topology=topology,
                         ship_mode=ship_mode)
    assert_equivalent(sim, real)


WORKLOADS = {"md5_circuit": MD5_CIRCUIT, "md5_tree": MD5_TREE,
             "matmult_tree": MATMULT_TREE}


@pytest.mark.parametrize("topology", ["flat", "two_tier:2"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_backend_is_the_same_run(workload, topology):
    # serial == shard_workers=2 == backend="real", under the one
    # comparator: whoever runs the subtrees, the machine they leave
    # behind freezes to the same image and the same digest.
    serial = run_backend(WORKLOADS[workload], 4,
                         spec=ClusterSpec(topology=topology))
    assert serial.shard_stats is None
    for knobs in ({"shard_workers": 2}, {"backend": "real"}):
        run = run_backend(WORKLOADS[workload], 4,
                          spec=ClusterSpec(topology=topology, **knobs))
        assert_same_run(run, serial)
        stats = run.shard_stats
        assert stats["adopted"] == stats["forked"] > 0
        assert stats["fallbacks"] == 0 and stats["refused"] is None


def test_md5_tree_single_child_waves():
    # The tree workload forks one top child per rendezvous — the real
    # coordinator runs single-sibling waves (MIN_SIBLINGS == 1).
    sim, real = run_pair(MD5_TREE, 4)
    assert_equivalent(sim, real)


@pytest.mark.parametrize("builder", [MD5_TREE, cw.matmult_tree_main(64)],
                         ids=["md5_tree", "matmult_tree"])
def test_telemetry_window_is_the_same_on_every_backend(builder):
    # One observable, any backend: the node and pair ledgers ride a
    # worker's hand-back like the link ones, so the window an operator
    # takes after the run (and every page total, a sum over the node
    # rows) does not depend on who ran the subtrees.  (Before, the
    # window was a second set of books the hand-back left behind: 19,248
    # pair-bytes serial, 6,416 under shard_workers=2, 0 on real.)
    windows = {}
    for name, knobs in (("serial", {}), ("sharded", {"shard_workers": 2}),
                        ("real", {"backend": "real"})):
        _, machine, _ = cw.run_cluster(builder, 4, ClusterSpec(**knobs))
        transport = machine.transport
        window = transport.take_window()
        assert not window.route_samples
        for total, field in (("pages_pulled", "pulled"),
                             ("pages_prefetched", "prefetch_issued"),
                             ("prefetch_used", "prefetch_used"),
                             ("prefetch_stale", "prefetch_stale")):
            assert getattr(transport, total) == sum(
                row[field] for row in window.nodes.values()), (name, total)
        windows[name] = (window.nodes, window.pair_bytes)
    assert machine.shard.adopted and not machine.shard.fallbacks
    assert sum(windows["serial"][1].values()) > 0
    assert windows["sharded"] == windows["real"] == windows["serial"]


def test_run_real_forces_backend():
    result = run_real(MD5_CIRCUIT, 2)
    assert result.backend == "real"
    assert result.shard_stats["adopted"] >= 1


def test_serving_trace_matches_oracle():
    sim = serve_trace(4, spec=ClusterSpec(), requests=24)
    real = serve_trace(4, spec=ClusterSpec(backend="real"), requests=24)
    assert real.checksum == sim.checksum
    assert real.values == sim.values
    assert real.latencies == sim.latencies
    assert real.span == sim.span
