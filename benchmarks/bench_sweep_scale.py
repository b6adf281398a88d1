"""Nightly scale sweep: 64-1024 fat-tree nodes through the event core.

The event-driven scheduler core exists so that high-node-count sweeps
are affordable; this nightly-only bench proves the claim where it
matters.  A wide md5-circuit (one sibling per node — the maximally
shardable shape) runs serially at 64, 256 and 1024 fat-tree nodes and
each recorded trace is replayed through the event core (its identity
with the list oracle at these sizes is tier-1's,
``tests/timing/test_event_core.py``).  At 64 nodes the whole guest run
also repeats under ``shard_workers`` and must reproduce the serial
machine's makespan and value with every forked sibling adopted.

Host-speedup numbers are recorded but not asserted: sharded wall clock
scales with *available cores* (on a single-core runner forked workers
time-slice and the run is wall-neutral by design), while bit-identity
and full adoption must hold on any host.

Results land in ``benchmarks/out/SWEEP_scale.json`` — uploaded as a CI
artifact for trend inspection, deliberately outside the ``BENCH_*.json``
prefix so the PR-time regression gate (which runs no slow_cluster
benches) does not demand it.
"""

import time

import pytest
from conftest import dump_json

from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.timing.schedule import schedule

NODE_COUNTS = (64, 256, 1024)
TOPOLOGY = "fat_tree:4"
SHARD_NODES = 64
SHARD_WORKERS = 8


def _replay_seconds(trace, reps=5):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        schedule(trace, ncpus=1)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.slow_cluster
def test_scale_sweep_event_core():
    def run_all():
        results = {}
        for nodes in NODE_COUNTS:
            makespan, machine, value = cw.run_cluster(
                cw.md5_circuit_main(3), nodes,
                spec=ClusterSpec(topology=TOPOLOGY))
            trace = machine.trace
            results[str(nodes)] = {
                "makespan": makespan,
                "value": value,
                "segments": len(trace.segments),
                "replay_us": round(_replay_seconds(trace) * 1e6, 1),
            }
        serial_mk, _, serial_v = cw.run_cluster(
            cw.md5_circuit_main(3), SHARD_NODES,
            spec=ClusterSpec(topology=TOPOLOGY))
        shard_mk, shard_m, shard_v = cw.run_cluster(
            cw.md5_circuit_main(3), SHARD_NODES,
            spec=ClusterSpec(topology=TOPOLOGY, shard_workers=SHARD_WORKERS))
        results["shard"] = {
            "nodes": SHARD_NODES,
            "forked": shard_m.shard.forked,
            "adopted": shard_m.shard.adopted,
            "fallbacks": shard_m.shard.fallbacks,
            "identical": shard_mk == serial_mk and shard_v == serial_v,
        }
        return results

    results = run_all()
    print()
    print(f"Scale sweep (md5-circuit, {TOPOLOGY}):")
    for nodes in NODE_COUNTS:
        row = results[str(nodes)]
        print(f"  {nodes:>5} nodes  {row['segments']:>6} segments"
              f"  replay {row['replay_us']:>9.1f} us")
    shard = results["shard"]
    print(f"  shard@{shard['nodes']}: {shard['adopted']}/{shard['forked']} "
          f"adopted, {shard['fallbacks']} fallbacks")

    values = {results[str(nodes)]["value"] for nodes in NODE_COUNTS}
    assert len(values) == 1  # distribution is semantically transparent
    assert shard["identical"]
    assert shard["adopted"] == shard["forked"] == shard["nodes"]
    assert shard["fallbacks"] == 0

    dump_json("SWEEP_scale.json", results)
