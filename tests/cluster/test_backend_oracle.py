"""Cross-backend differential oracle: the simulated run is bit-exact
ground truth for the real-process backend.

Both backends run the *same* workload builder (shared closures keep
register contents identical), and everything except timing must come
out equal: the computed value, the frozen machine image (space tree,
registers, page bytes, per-link simulated ledgers), the NetworkStats
page/byte tables, and conservation on both the simulated transport and
the real wire.  Real wall-clock is the one column deliberately *not*
compared — it is the real backend's own measurement.

A larger matrix (more nodes, compression, fat-tree) runs nightly in
``benchmarks/bench_backend_oracle.py``.
"""

import os

import pytest

from repro.bench import cluster_workloads as cw
from repro.cluster.backend import image_digest, run_backend, run_real
from repro.cluster.realnet import localhost_available
from repro.cluster.serving import serve_trace
from repro.cluster.spec import ClusterSpec

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

#: NetworkStats fields the backends must agree on (timing-free).
NETWORK_FIELDS = (
    "pages_fetched", "pages_shipped", "pages_pulled", "pages_prefetched",
    "bytes_moved", "wire_bytes",
)

MATRIX = [(topology, ship_mode)
          for topology in ("flat", "two_tier:2")
          for ship_mode in ("delta", "full")]


def run_pair(builder, nnodes, **kw):
    sim = run_backend(builder, nnodes, spec=ClusterSpec(backend="sim", **kw))
    real = run_backend(builder, nnodes,
                       spec=ClusterSpec(backend="real", **kw))
    return sim, real


def assert_equivalent(sim, real):
    assert real.value == sim.value
    # The frozen image covers the whole space tree (registers, traps,
    # page bytes), console/debug output, placement, and every per-link
    # simulated ledger — memory-image identity and per-link page/byte
    # conservation in one comparison.
    assert real.image == sim.image
    assert image_digest(real.image) == image_digest(sim.image)
    for field in NETWORK_FIELDS:
        assert getattr(real.network, field) == getattr(sim.network, field), \
            field
    assert real.network.per_link == sim.network.per_link
    assert sim.machine.transport.conservation_ok()
    assert real.machine.transport.conservation_ok()
    # The adopted trace is the same trace: simulated cycles agree; the
    # real run additionally measured wall-clock (not compared).
    assert real.makespan == sim.makespan
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
