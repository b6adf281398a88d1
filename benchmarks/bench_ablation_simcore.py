"""Ablation: sharded host execution, plus the replay trace's fingerprint.

The simulator's inner loop is trace *replay*: every sweep point
re-schedules a recorded segment DAG under a different CPU/topology
configuration, through the one scheduler the repo has (the event core
in ``repro.timing.event_core``).  Forked host workers
(``ClusterSpec(shard_workers=N)``) run sibling subtrees in parallel
between snap/merge barriers.

This ablation records

* ``replay`` — the virtual fingerprint (segment count and makespan) of
  the matmult-tree trace on 8 fat-tree nodes, the shape the
  64-1024-node sweeps scale up.  Event-core-vs-oracle identity is
  tier-1's job (``tests/timing/test_event_core.py``) and the
  scheduler's host cost is perfbench's
  (``timing.schedule_us_per_segment``), so neither is measured here.
* ``shard`` — the sharded guest run must reproduce the serial makespan
  and value with every forked worker adopted (no fallbacks).

Results land in ``benchmarks/out/BENCH_simcore.json``; the committed
``benchmarks/BENCH_simcore.json`` is the baseline.
"""

from conftest import dump_json

from repro import ClusterSpec
from repro.bench import cluster_workloads as cw

N = 128
NODES = 8
TOPOLOGY = "fat_tree:2"


def test_ablation_simcore():
    def run_all():
        spec = ClusterSpec(topology=TOPOLOGY)
        replay_mk, machine, _ = cw.run_cluster(
            cw.matmult_tree_main(N), NODES, spec=spec)

        serial_mk, _, serial_v = cw.run_cluster(
            cw.md5_circuit_main(3), NODES, spec=spec)
        shard_mk, shard_m, shard_v = cw.run_cluster(
            cw.md5_circuit_main(3), NODES, spec=spec.with_(shard_workers=4))
        return {
            "replay": {
                "segments": len(machine.trace.segments),
                "makespan": replay_mk,
            },
            "shard": {
                "makespan": shard_mk,
                "forked": shard_m.shard.forked,
                "adopted": shard_m.shard.adopted,
                "fallbacks": shard_m.shard.fallbacks,
                "identical": (shard_mk == serial_mk
                              and shard_v == serial_v),
            },
        }

    results = run_all()
    replay, shard = results["replay"], results["shard"]
    print()
    print(f"Simcore ablation ({NODES}-node {TOPOLOGY}):")
    print(f"  replay: matmult-tree n={N}, {replay['segments']} segments, "
          f"makespan {replay['makespan']:,}")
    print(f"  shard : {shard['adopted']}/{shard['forked']} siblings "
          f"adopted, {shard['fallbacks']} fallbacks, "
          f"makespan {shard['makespan']:,}")

    # Bit-identity is the contract that lets sharded sweeps gate
    # against serial ones.
    assert shard["identical"]
    assert shard["forked"] == NODES
    assert shard["adopted"] == shard["forked"]
    assert shard["fallbacks"] == 0

    dump_json("BENCH_simcore.json", results)
