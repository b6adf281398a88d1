"""Ablation: pipelined async demand paging + PAGE_BATCH wire compression.

matmult-tree — the workload whose scaling the network sets — replays at
4 nodes on the oversubscribed two-tier fabric under the summary-only
migration protocol (``ship_mode="demand"``: pages fault over on touch,
nothing ships eagerly), crossed with the two new transport features:

* **prefetch** — each node's async fetch queue issues PAGE_REQs for
  predicted-next frames (sequential + migration-ledger-informed) while
  compute proceeds; a demand on an in-flight frame redeems the
  exchange, charging only the part of the transfer the compute did not
  hide (``prefetch_depth=0`` is the stop-and-wait baseline);
* **compression** — PAGE_BATCH payloads ship zero-suppressed/zero-run
  RLE encoded, with per-link raw-vs-compressed accounting.

Both features are cost-only: computed values must be identical in every
cell.  What moves: *demand-stall cycles* (the per-kind transfer waits
``schedule()`` now reports) drop strictly with ``prefetch_depth > 0``
vs stop-and-wait, and *wire bytes* drop strictly with compression on —
while the per-link conservation invariants (bytes delivered == bytes
sent, compressed <= raw) hold everywhere.  The eager delta-shipping
default rides along as context.

Results are dumped to ``benchmarks/out/BENCH_prefetch.json``; CI
uploads the file as an artifact and ``cmp``s it against the committed
``benchmarks/BENCH_prefetch.json`` baseline.
"""

from conftest import dump_json

from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.cluster import NetworkStats
from repro.timing.schedule import schedule

N = 128
NODES = 4
TOPOLOGY = "two_tier:2"
DEPTH = 32

BASE = ClusterSpec(topology=TOPOLOGY)
CELLS = [
    ("eager-delta", BASE),
    ("stopwait", BASE.with_(ship_mode="demand")),
    ("stopwait+comp", BASE.with_(ship_mode="demand", compression=True)),
    ("pipelined", BASE.with_(ship_mode="demand", prefetch_depth=DEPTH)),
    ("pipelined+comp", BASE.with_(ship_mode="demand", prefetch_depth=DEPTH,
                                  compression=True)),
]


def _run_cell(spec):
    makespan, machine, value = cw.run_cluster(
        cw.matmult_tree_main(N), NODES, spec=spec)
    sched = schedule(machine.trace, ncpus=1)
    stalls = sched.stall_cycles
    stats = NetworkStats(machine)
    return {
        "value": value,
        "makespan": makespan,
        # Cycles spaces spent stalled on page fetches: stop-and-wait
        # demand round trips plus late-arriving prefetched pages (the
        # explicit stall edges redeeming an in-flight exchange charges).
        "demand_stall": stalls.get("fetch", 0) + stalls.get("prefetch", 0),
        "migrate_stall": stalls.get("migrate", 0),
        "wire_bytes": stats.wire_bytes,
        "raw_payload": stats.raw_bytes,
        "comp_payload": stats.comp_bytes,
        "pages": stats.pages_fetched,
        "pulled": stats.pages_pulled,
        "prefetched": stats.pages_prefetched,
        "prefetch_used": stats.prefetch_used,
        "conserved": machine.transport.conservation_ok(),
    }


def test_ablation_prefetch():
    def run_all():
        return {name: _run_cell(spec) for name, spec in CELLS}

    results = run_all()
    print()
    print(f"Prefetch/compression ablation (matmult-tree, n={N}, "
          f"{NODES} nodes, {TOPOLOGY}, depth={DEPTH}):")
    for name, r in results.items():
        print(f"  {name:14s} makespan {r['makespan']:>12,}"
              f"  demand-stall {r['demand_stall']:>12,}"
              f"  wire KiB {r['wire_bytes'] / 1024:>7.0f}"
              f"  payload {r['raw_payload'] / 1024:>5.0f}"
              f"->{r['comp_payload'] / 1024:>5.0f} KiB"
              f"  pulled/prefetched {r['pulled']:>3}/{r['prefetched']:>3}")

    # (c) Prefetching and compression are invisible to the computation:
    # identical computed results in every ablation cell...
    assert len({r["value"] for r in results.values()}) == 1
    # ...and no cell loses a byte on any link, or compresses one up.
    assert all(r["conserved"] for r in results.values())
    assert all(r["comp_payload"] <= r["raw_payload"]
               for r in results.values())

    stopwait = results["stopwait"]
    pipelined = results["pipelined"]
    stopwait_c = results["stopwait+comp"]
    pipelined_c = results["pipelined+comp"]
    # (a) The async fetch queues strictly cut demand-stall cycles vs
    # the stop-and-wait protocol (with and without compression), and
    # the saved stall shows up in the makespan.
    assert pipelined["demand_stall"] < stopwait["demand_stall"]
    assert pipelined_c["demand_stall"] < stopwait_c["demand_stall"]
    assert pipelined["makespan"] < stopwait["makespan"]
    assert pipelined_c["makespan"] < stopwait_c["makespan"]
    # At this depth the queue absorbs every demand pull.
    assert pipelined["pulled"] < stopwait["pulled"]
    assert pipelined["prefetch_used"] > 0
    # (b) Compression strictly cuts wire bytes vs raw frames (with and
    # without prefetching); uncompressed cells ship payloads verbatim.
    assert stopwait_c["wire_bytes"] < stopwait["wire_bytes"]
    assert pipelined_c["wire_bytes"] < pipelined["wire_bytes"]
    assert stopwait_c["comp_payload"] < stopwait_c["raw_payload"]
    assert stopwait["comp_payload"] == stopwait["raw_payload"]

    dump_json("BENCH_prefetch.json", results)
