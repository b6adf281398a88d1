"""Ablation: deterministic fault injection with retransmission accounting.

matmult-tree — the workload whose scaling the network sets — replays at
4 nodes on the oversubscribed two-tier fabric under increasing
deterministic loss rates (0 / 1% / 5% drop, one seed; the fig12 series
sweeps the gentler 0 / 0.1% / 1% band), crossed with two transport
configurations:

* **eager-delta** — the default protocol (delta migration shipping);
* **demand+pf+comp** — summary-only demand paging with pipelined
  prefetch and wire compression, the configuration with the most
  protocol machinery exposed to a lossy fabric.

The loss schedule is a pure function of ``(seed, link, sending space,
message number, attempt)``, with cumulative rate bands, so the three rates are *nested*: every
message dropped at 0.1% is dropped at 1% — retransmit bytes and
makespan move monotonically with the rate instead of resampling a
fresh fault pattern.  Faults are cost-only: computed values must be
identical in every cell, per-link conservation must hold as
``delivered + dropped == sent``, and the zero-rate cells must match a
run with no schedule at all.

Results are dumped to ``benchmarks/out/BENCH_faults.json``; CI uploads
the file as an artifact and ``cmp``s it against the committed
``benchmarks/BENCH_faults.json`` baseline.
"""

from conftest import dump_json

from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.cluster import NetworkStats
from repro.timing.schedule import schedule

N = 128
NODES = 4
TOPOLOGY = "two_tier:2"
#: One under which both configurations drop a copy at 1 % (eager delta
#: sends too few for every seed to).
SEED = 2012

RATES = [("loss-0", None), ("loss-1%", 0.01), ("loss-5%", 0.05)]
BASE = ClusterSpec(topology=TOPOLOGY)
CONFIGS = [
    ("eager-delta", BASE),
    ("demand+pf+comp", BASE.with_(ship_mode="demand", prefetch_depth=32,
                                  compression=True)),
]


def _run_cell(spec, rate):
    loss = None if rate is None else {"drop": rate, "seed": SEED}
    makespan, machine, value = cw.run_cluster(
        cw.matmult_tree_main(N), NODES, spec=spec.with_(loss=loss))
    stalls = schedule(machine.trace, ncpus=1).stall_cycles
    stats = NetworkStats(machine)
    return {
        "value": value,
        "makespan": makespan,
        "wire_bytes": stats.wire_bytes,
        "pages": stats.pages_fetched,
        "demand_stall": stalls.get("fetch", 0) + stalls.get("prefetch", 0),
        # What the lossy fabric cost: dropped copies, the link layer's
        # retransmissions, and the cycles spaces waited on them.
        "dropped_msgs": stats.dropped_msgs,
        "retx_msgs": stats.retx_msgs,
        "retx_bytes": stats.retx_bytes,
        "retx_stall": stalls.get("retx", 0),
        "conserved": machine.transport.conservation_ok(),
    }


def test_ablation_faults():
    def run_all():
        return {f"{config_name}/{rate_name}": _run_cell(spec, rate)
                for config_name, spec in CONFIGS
                for rate_name, rate in RATES}

    results = run_all()
    print()
    print(f"Fault-injection ablation (matmult-tree, n={N}, {NODES} nodes, "
          f"{TOPOLOGY}, seed={SEED}):")
    for name, r in results.items():
        print(f"  {name:24s} makespan {r['makespan']:>12,}"
              f"  retx {r['retx_msgs']:>3} msgs"
              f" / {r['retx_bytes'] / 1024:>6.1f} KiB"
              f"  retx-stall {r['retx_stall']:>10,}"
              f"  wire KiB {r['wire_bytes'] / 1024:>7.0f}")

    # Faults are invisible to the computation: identical values in
    # every rate x config cell, and no cell loses a byte unaccounted.
    assert len({r["value"] for r in results.values()}) == 1
    assert all(r["conserved"] for r in results.values())

    for config_name, _ in CONFIGS:
        clean, low, high = (results[f"{config_name}/{name}"]
                            for name, _ in RATES)
        # Zero rate means zero fault machinery on the wire...
        assert clean["retx_msgs"] == clean["retx_bytes"] == 0
        assert clean["dropped_msgs"] == clean["retx_stall"] == 0
        # ...and nested schedules make retransmission monotone in the
        # rate: strictly more retransmitted bytes at 5% than at 1%,
        # never a faster makespan than the clean run.
        assert 0 < low["retx_bytes"] < high["retx_bytes"]
        assert low["dropped_msgs"] < high["dropped_msgs"]
        assert clean["makespan"] <= low["makespan"] <= high["makespan"]

    dump_json("BENCH_faults.json", results)
