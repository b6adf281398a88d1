"""Ablation: ledger-driven delta migration + batched page shipping.

Three transport configurations replay the §6.3 cluster benchmarks:

* **full-ship** — every mapped page crosses on every migration hop, one
  message per page (the naive protocol; ``ship_mode="full"``,
  ``msg_batch=1``);
* **delta-ship** — only pages the dirty ledger + per-node tag cache
  cannot prove present at the target cross, still one message per page;
* **delta+batch** — the default: the same delta coalesced into
  ``msg_batch``-page scatter/gather messages.

Shipping policy is cost-only: computed values must be identical, while
pages on the wire, wire cycles, messages, and makespan all drop.  The
same run re-checks ``sweep_nodes``' semantic-transparency invariant
under every configuration.
"""

from conftest import dump_json

from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.timing.model import CostModel

NODES = 4

MODES = [
    ("full-ship", ClusterSpec(ship_mode="full", cost=CostModel(msg_batch=1))),
    ("delta-ship", ClusterSpec(ship_mode="delta",
                               cost=CostModel(msg_batch=1))),
    ("delta+batch", ClusterSpec(ship_mode="delta")),
]

CASES = [
    ("matmult-tree", lambda: cw.matmult_tree_main(128)),
    ("md5-tree", lambda: cw.md5_tree_main(3)),
    ("md5-circuit", lambda: cw.md5_circuit_main(3)),
]


def _run_case(build, spec):
    makespan, machine, value = cw.run_cluster(build(), NODES, spec=spec)
    t = machine.transport
    return {
        "value": value,
        "pages": machine.pages_fetched,
        "messages": t.messages,
        "wire_cycles": t.busy_total,
        "makespan": makespan,
        "conserved": t.conservation_ok(),
    }


def test_ablation_delta_ship():
    def run_all():
        return {
            name: {mode: _run_case(build, spec)
                   for mode, spec in MODES}
            for name, build in CASES
        }

    results = run_all()
    print()
    print(f"Delta-migration ablation ({NODES} nodes):")
    for name, by_mode in results.items():
        full = by_mode["full-ship"]
        delta = by_mode["delta-ship"]
        batch = by_mode["delta+batch"]
        print(f"  {name:13s} pages {full['pages']:6d} -> {delta['pages']:5d}"
              f"   msgs {full['messages']:5d} -> {batch['messages']:4d}"
              f"   wire-cycles {full['wire_cycles']:>13,} ->"
              f" {batch['wire_cycles']:>12,}"
              f"   makespan {full['makespan']:>13,} -> {batch['makespan']:>13,}")
        # Shipping policy is invisible to the computation.
        assert delta["value"] == full["value"] == batch["value"]
        # Every configuration satisfies conservation.
        assert all(r["conserved"] for r in by_mode.values())
        # Delta strictly reduces pages on the wire...
        assert delta["pages"] < full["pages"]
        assert batch["pages"] == delta["pages"]
        # ...batching never adds messages, and strictly removes them
        # once transfers are big enough to coalesce (md5 ships a page
        # at a time, so only data-heavy matmult has batches to merge)...
        assert batch["messages"] <= delta["messages"]
        if delta["pages"] > 2 * NODES:
            assert batch["messages"] < delta["messages"]
        # ...and the combination strictly wins on wire time and makespan.
        assert batch["wire_cycles"] < full["wire_cycles"]
        assert batch["makespan"] < full["makespan"]

    dump_json("BENCH_delta_ship.json", {
        f"{name}/{mode}": {k: v for k, v in r.items() if k != "conserved"}
        for name, by_mode in results.items()
        for mode, r in by_mode.items()
    })


def test_sweep_invariant_under_all_modes():
    """sweep_nodes' same-value-at-every-size check holds per mode."""
    from repro.cluster import sweep_nodes

    def sweep_all():
        out = {}
        for mode, spec in MODES:
            series = sweep_nodes(
                lambda n: (lambda g: cw.md5_tree(
                    g, n, *cw._md5_params(3))),
                node_counts=(1, 2, 4),
                spec=spec,
            )
            out[mode] = {n: result.value for n, (_, result) in series.items()}
        return out

    values = sweep_all()
    reference = None
    for mode, by_nodes in values.items():
        assert len(set(by_nodes.values())) == 1, mode
        reference = reference or set(by_nodes.values())
        assert set(by_nodes.values()) == reference, mode
