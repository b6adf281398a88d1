"""Ablation: routed fabrics and placement policies (topology-aware links).

matmult-tree — the workload whose scaling the network sets — replays on
three fabrics at 4 and 8 nodes:

* **flat** — the legacy full mesh: every node pair one direct
  full-bandwidth link (single-hop routes; the pre-topology cost model);
* **two-tier** — racks of 2 behind one core switch with 4:1
  oversubscription: cross-rack bytes cross two slow, *shared* core
  links;
* **fat-tree** — the same racks behind full-bisection spines: the same
  routes and bytes as two-tier, at edge bandwidth.

crossed with two placement policies:

* **round-robin** — virtual nodes striped across racks (the classic
  load-spreading default);
* **locality** — contiguous virtual node blocks packed per rack, spill
  racks chosen from live per-link transport stats.

Topology and placement are cost-only: computed values must be identical
in every cell.  What moves is *where* the bytes land — locality packing
strictly shrinks cross-rack (core-class) volume on the two-tier fabric,
and oversubscription (two-tier vs fat-tree: same bytes, slower core
links) stretches the makespan.

Results are dumped to ``benchmarks/out/BENCH_topology.json``; CI uploads
the file as an artifact and ``cmp``s it against the committed
``benchmarks/BENCH_topology.json`` baseline.
"""

from conftest import dump_json

from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.bench.figures import FIG11_TOPOLOGIES as TOPOLOGIES
from repro.cluster import NetworkStats

N = 128
NODE_COUNTS = (4, 8)

POLICIES = ["round_robin", "locality"]


def _run_cell(spec, policy, nodes):
    makespan, machine, value = cw.run_cluster(
        cw.matmult_tree_main(N), nodes,
        spec=ClusterSpec(topology=spec, placement=policy))
    stats = NetworkStats(machine)
    return {
        "value": value,
        "makespan": makespan,
        "wire_bytes": stats.wire_bytes,
        "wire_cycles": stats.wire_cycles,
        "pages": stats.pages_fetched,
        "core_bytes": stats.class_bytes("core"),
        "rack_bytes": stats.class_bytes("rack"),
        "hops": stats.hops,
        "conserved": machine.transport.conservation_ok(),
    }


def test_ablation_topology():
    def run_all():
        return {
            f"{label}/{policy}/{nodes}": _run_cell(spec, policy, nodes)
            for label, spec in TOPOLOGIES
            for policy in POLICIES
            for nodes in NODE_COUNTS
        }

    results = run_all()
    print()
    print(f"Topology/placement ablation (matmult-tree, n={N}):")
    for nodes in NODE_COUNTS:
        print(f"  {nodes} nodes:")
        for label, _ in TOPOLOGIES:
            for policy in POLICIES:
                r = results[f"{label}/{policy}/{nodes}"]
                print(f"    {label:9s} {policy:12s}"
                      f" makespan {r['makespan']:>12,}"
                      f"  wire KiB {r['wire_bytes'] / 1024:>8.0f}"
                      f"  cross-rack KiB {r['core_bytes'] / 1024:>7.0f}")

    values = {r["value"] for r in results.values()}
    # Fabric and placement are invisible to the computation...
    assert len(values) == 1
    # ...and never lose a byte on any traversed link.
    assert all(r["conserved"] for r in results.values())
    for nodes in NODE_COUNTS:
        flat = results[f"flat/round_robin/{nodes}"]
        tt_rr = results[f"two-tier/round_robin/{nodes}"]
        tt_loc = results[f"two-tier/locality/{nodes}"]
        ft_rr = results[f"fat-tree/round_robin/{nodes}"]
        # The flat mesh never routes through switches, so it is the
        # lower envelope on both hops and makespan.
        assert flat["hops"] < tt_rr["hops"]
        assert flat["makespan"] <= tt_rr["makespan"]
        # Locality packing strictly shrinks cross-rack volume vs
        # round-robin striping (the acceptance claim, at 4 and 8 nodes).
        assert tt_loc["core_bytes"] < tt_rr["core_bytes"]
        # Oversubscription is the only difference between two-tier and
        # the fat tree: identical routed bytes, slower completion.
        assert ft_rr["wire_bytes"] == tt_rr["wire_bytes"]
        assert ft_rr["makespan"] < tt_rr["makespan"]

    dump_json("BENCH_topology.json", results)
