"""Nightly cross-backend oracle matrix: sim vs real host processes.

The PR-time differential suite (``tests/cluster/test_backend_oracle.py``)
covers small configurations; this nightly bench widens the matrix —
more nodes, fat-tree topology, wire compression, deeper workloads —
and asserts the same invariant at scale: the simulated run is bit-exact
ground truth for the real-process run (identical value, frozen memory
image, simulated makespan, page/byte tables), with real wall-clock
recorded alongside as the real backend's own timing column.

Results land in ``benchmarks/out/SWEEP_backend_oracle.json`` — outside
the ``BENCH_*.json`` regression-gate prefix, like the other
slow_cluster sweeps.
"""

import os

import pytest
from conftest import dump_json

from repro.bench import cluster_workloads as cw
from repro.cluster.backend import image_digest, run_backend
from repro.cluster.realnet import localhost_available
from repro.cluster.spec import ClusterSpec

pytestmark = [
    pytest.mark.skipif(not hasattr(os, "fork"),
                       reason="real backend needs os.fork"),
    pytest.mark.skipif(not localhost_available(),
                       reason="localhost TCP sockets unavailable"),
]

#: (name, builder, nnodes, spec knobs) — one shared builder per row so
#: both backends see the identical entry closure.
CASES = [
    ("md5_circuit_8_fat_tree",
     cw.md5_circuit_main(3), 8,
     {"topology": "fat_tree:4"}),
    ("md5_circuit_8_compressed",
     cw.md5_circuit_main(3), 8,
     {"topology": "two_tier:4", "compression": True}),
    ("md5_tree_deep",
     cw.md5_tree_main(4), 8,
     {"topology": "fat_tree:4", "ship_mode": "full"}),
    ("matmult_tree_8",
     cw.matmult_tree_main(n=96, seed=11), 8,
     {"topology": "two_tier:4", "compression": True}),
]


def _row(name, builder, nnodes, knobs):
    sim = run_backend(builder, nnodes,
                      spec=ClusterSpec(backend="sim", **knobs))
    real = run_backend(builder, nnodes,
                       spec=ClusterSpec(backend="real", **knobs))
    assert real.value == sim.value, name
    assert real.image == sim.image, name
    assert real.makespan == sim.makespan, name
    assert real.network.per_link == sim.network.per_link, name
    assert real.shard_stats["fallbacks"] == 0, name
    assert real.wire and real.wire_ok, name
    return {
        "nnodes": nnodes,
        "knobs": {key: str(value) for key, value in knobs.items()},
        "value": str(sim.value)[:64],
        "image_digest": image_digest(sim.image)[:16],
        "makespan": sim.makespan,
        "sim_wall_s": round(sim.wall_seconds, 4),
        "real_wall_s": round(real.wall_seconds, 4),
        "real_forked": real.shard_stats["forked"],
        "real_adopted": real.shard_stats["adopted"],
        "wire_links": len(real.wire),
    }


@pytest.mark.slow_cluster
def test_backend_oracle_matrix():
    def run_all():
        return {name: _row(name, builder, nnodes, knobs)
                for name, builder, nnodes, knobs in CASES}

    results = run_all()
    assert len(results) == len(CASES)
    dump_json("SWEEP_backend_oracle.json", results)
    for name, row in results.items():
        print(f"{name:28s} digest={row['image_digest']} "
              f"makespan={row['makespan']:,} "
              f"real_wall={row['real_wall_s']}s "
              f"adopted={row['real_adopted']}/{row['real_forked']}")
