"""Ablation: ``prefetch_depth="adaptive"`` vs static prefetch depths.

Three workloads at 4 nodes on the oversubscribed two-tier fabric under
summary-only demand paging, each swept across static prefetch depths
{0, 1, 4, 16, 32} and the adaptive depth the control plane tunes:

* **matmult-tree** — a one-shot streaming pipeline: the deepest static
  queue wins, and the controller's job is merely to get there (slow
  start to the cap) without ever losing to it;
* **md5-tree** — an embarrassingly-parallel search shipping almost no
  data: depth barely matters, and the controller must not invent
  speculation where none pays;
* **matmult-skewed** — the adversarial phase change: phase A rewrites a
  hot ring every round (speculation is *inherently* doomed — every
  retained queue slot re-pays its wire tax at the next rewrite), then
  phase B streams full matrices (deep queues win).  No static depth is
  right twice, so the adaptive controller must strictly beat every
  static setting — and again at 5% loss.

The control plane is cost-only: computed values must be identical in
every cell of every sweep.  The gated metrics are the adaptive cells'
schedule() stall cycles (``adaptive_stall_cycles``) and the signed
makespan margin over the best static cell
(``adaptive_vs_best_static_pct`` — negative when adaptive wins, so
drifting toward zero is a regression).

Results are dumped to ``benchmarks/out/BENCH_adaptive.json``; CI
uploads the file as an artifact and ``cmp``s it against the committed
``benchmarks/BENCH_adaptive.json`` baseline.
"""

from conftest import dump_json

from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.timing.schedule import schedule

NODES = 4
TOPOLOGY = "two_tier:2"
DEPTHS = (0, 1, 4, 16, 32)
LOSS = 0.05  # default deterministic drop schedule

BASE = ClusterSpec(topology=TOPOLOGY, ship_mode="demand")

#: name -> (workload builder, loss schedule, strict-win required)
SWEEPS = {
    "matmult": (lambda: cw.matmult_tree_main(128), None, False),
    "md5": (lambda: cw.md5_tree_main(3), None, False),
    "skewed": (lambda: cw.matmult_skewed_main(), None, True),
    "skewed-lossy": (lambda: cw.matmult_skewed_main(), LOSS, True),
}


def _run(workload, loss, **config):
    spec = BASE.with_(loss=loss, **config)
    makespan, machine, value = cw.run_cluster(workload(), NODES, spec=spec)
    return makespan, machine, value


def _sweep(workload, loss):
    statics = {}
    values = set()
    for depth in DEPTHS:
        makespan, _, value = _run(workload, loss, prefetch_depth=depth)
        statics[f"d{depth}"] = makespan
        values.add(value)
    makespan, machine, value = _run(workload, loss,
                                    prefetch_depth="adaptive")
    values.add(value)
    sched = schedule(machine.trace, ncpus=1)
    stalls = sched.stall_cycles
    best = min(statics.values())
    return {
        "value": value,
        "statics": statics,
        "makespan": makespan,
        "best_static": best,
        # Signed margin of adaptive over the best static knob setting
        # (negative when adaptive wins) — the gated payoff metric.
        "adaptive_vs_best_static_pct":
            round((makespan - best) / best * 100, 2),
        "adaptive_stall_cycles": sum(stalls.values()),
        "decisions": len(machine.control.log),
        "conserved": machine.transport.conservation_ok(),
    }, values, machine


def test_ablation_adaptive():
    def run_all():
        results = {}
        for name, (workload, loss, strict) in SWEEPS.items():
            cell, values, machine = _sweep(workload, loss)
            # The control plane is invisible to the computation: every
            # static cell and the adaptive cell agree on the value.
            assert len(values) == 1, (name, values)
            assert cell["conserved"], name
            if strict:
                # The acceptance property of the phase-skewed workload:
                # adaptive strictly beats *every* static depth.
                assert all(cell["makespan"] < static
                           for static in cell["statics"].values()), \
                    (name, cell)
                assert cell["decisions"] > 0, name
            else:
                # Steady workloads: adaptive must never lose to the
                # best static setting (equality is fine — on matmult it
                # converges to the deep queue and matches it exactly).
                assert cell["makespan"] <= cell["best_static"], \
                    (name, cell)
            results[name] = cell
        return results

    results = run_all()
    print()
    print(f"Adaptive control-plane ablation ({NODES} nodes, {TOPOLOGY}, "
          f"static depths {list(DEPTHS)}):")
    for name, r in results.items():
        statics = " ".join(f"{d}={mk:,}" for d, mk in r["statics"].items())
        print(f"  {name:13s} adaptive {r['makespan']:>12,} "
              f"({r['adaptive_vs_best_static_pct']:+.2f}% vs best static, "
              f"{r['decisions']} decisions)")
        print(f"  {'':13s} statics: {statics}")

    dump_json("BENCH_adaptive.json", results)
