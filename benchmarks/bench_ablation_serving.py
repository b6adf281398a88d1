"""Ablation: serving-scale tail latency, loss, oversubscription, autoscale.

One deterministic open-loop request trace (160 Poisson arrivals with
diurnal burst segments, one seed) replays at 4 nodes through
:func:`repro.cluster.serving.serve_trace` across the production matrix:

* **loss** — lossless / 1% / 5% deterministic drop (nested schedules:
  every message dropped at 1% is dropped at 5%, so tail latency moves
  monotonically with the rate instead of resampling fresh faults);
* **fabric** — a flat switch vs the oversubscribed two-tier fabric
  (racks of 2 behind a thin core);
* **placement** — ``round_robin`` striping vs ``locality`` packing
  (on two-tier, locality keeps dispatch hops rack-local and recovers
  most of the oversubscription tail).

Plus one **autoscale** scenario: the active node set steps 2 -> 4 -> 2
mid-trace, so the latency table carries both the cold-start burst of
first dispatches onto freshly-activated nodes and the drain bubble of
scale-in (outstanding requests on leaving nodes are joined before
dispatch continues).

Every knob in the matrix is cost-only: the per-request *values* are pure
functions of the request id, so the checksum must be identical in all
13 cells, while the latency table moves.  For one seed the whole table
is bit-identical across reruns — the determinism oracle below replays
the base cell and compares latency tables exactly.

Results are dumped to ``benchmarks/out/BENCH_serving.json``; CI uploads
the file as an artifact and ``cmp``s it against the committed
``benchmarks/BENCH_serving.json`` baseline.
"""

from conftest import dump_json

from repro import ClusterSpec, serve_trace
from repro.bench.workloads import serving as workload

NODES = 4
REQUESTS = 160
MEAN_GAP = 240_000
SEED = 11
AUTOSCALE = ((0, 2), (10_000_000, 4), (25_000_000, 2))

RATES = [("loss-0", None), ("loss-1%", 0.01), ("loss-5%", 0.05)]
FABRICS = [("flat", None), ("two_tier", "two_tier:2")]
PLACEMENTS = ["round_robin", "locality"]

CELLS = [
    (f"{fabric_name}/{placement}/{rate_name}",
     ClusterSpec(topology=fabric, placement=placement, loss=rate))
    for fabric_name, fabric in FABRICS
    for placement in PLACEMENTS
    for rate_name, rate in RATES
]


def _serve(spec, autoscale=None):
    return serve_trace(NODES, spec=spec, requests=REQUESTS,
                       mean_gap=MEAN_GAP, seed=SEED, autoscale=autoscale)


def _cell(result):
    return {
        "requests": len(result.latencies),
        "value": result.checksum,
        "p50_cycles": result.p50,
        "p95_cycles": result.p95,
        "p99_cycles": result.p99,
        "goodput": result.goodput,
        # First arrival to last completion — the serving run's makespan
        # (named so the regression gate picks it up like every other
        # benchmark's).
        "makespan": result.span,
    }


def test_ablation_serving():
    def run_all():
        results = {name: _serve(spec) for name, spec in CELLS}
        results["flat/round_robin/autoscale"] = _serve(
            ClusterSpec(), autoscale=AUTOSCALE)

        # Determinism oracle: replaying the base cell reproduces the
        # entire latency table bit for bit, not just the percentiles.
        base = results["flat/round_robin/loss-0"]
        replay = _serve(ClusterSpec())
        assert replay.latencies == base.latencies
        assert replay.values == base.values
        return results

    results = run_all()
    print()
    print(f"Serving ablation ({REQUESTS} requests, mean gap "
          f"{MEAN_GAP:,} cycles, seed {SEED}, {NODES} nodes):")
    for name, r in results.items():
        print(f"  {name:30s} p50 {r.p50:>10,}  p95 {r.p95:>10,}"
              f"  p99 {r.p99:>10,}  goodput {r.goodput:>5}/Gcyc")

    # Every knob in the matrix is cost-only: request values are pure
    # functions of the rid, so all 13 cells agree on every value and
    # on the order-sensitive checksum...
    values = {r.checksum for r in results.values()}
    assert len(values) == 1, values
    reference = next(iter(results.values())).values
    assert all(r.values == reference for r in results.values())
    # ...and the values match the host-side oracle.
    assert reference == tuple(
        workload.request_value(rid) for rid in range(REQUESTS))
    assert all(len(r.latencies) == REQUESTS for r in results.values())

    for fabric_name, _ in FABRICS:
        for placement in PLACEMENTS:
            clean, low, high = (
                results[f"{fabric_name}/{placement}/{name}"]
                for name, _ in RATES)
            # Nested loss schedules make the tail monotone in the rate:
            # retransmission timeouts only ever add latency.
            assert clean.p99 <= low.p99 <= high.p99, \
                (fabric_name, placement)
            assert clean.p99 < high.p99, (fabric_name, placement)
            assert clean.goodput >= high.goodput, (fabric_name, placement)

    # Oversubscription is the tail's enemy; locality placement is the
    # remedy: rack-local dispatch hops recover most of the two-tier
    # latency inflation over the flat fabric.
    for rate_name, _ in RATES:
        flat = results[f"flat/round_robin/{rate_name}"]
        striped = results[f"two_tier/round_robin/{rate_name}"]
        packed = results[f"two_tier/locality/{rate_name}"]
        assert striped.p99 > flat.p99, rate_name
        assert packed.p99 < striped.p99, rate_name

    # The autoscale trace completes every request despite two scale
    # steps: the drain joins and cold-node dispatch bursts are latency,
    # never lost work.
    auto = results["flat/round_robin/autoscale"]
    assert len(auto.latencies) == REQUESTS
    assert auto.checksum == next(iter(values))

    dump_json("BENCH_serving.json", {name: _cell(r)
                                     for name, r in results.items()})
