"""Serving traces: deterministic arrivals, tail latency, autoscaling.

The serving oracle set: one seed reproduces the *entire* latency table
bit for bit; request values are pure functions of the request id (so
arrival seeds, loss schedules and autoscale plans must never change
them); loss only ever adds latency; and an autoscale plan completes
every request — drains and cold starts are latency, never lost work.
"""

import pytest

from repro import ClusterSpec, ServingResult, serve_trace
from repro.bench.workloads import serving as workload
from repro.cluster.serving import MAX_REQUESTS

NODES = 2
REQUESTS = 24
MEAN_GAP = 120_000
SEED = 11


def _serve(**kw):
    kw.setdefault("requests", REQUESTS)
    kw.setdefault("mean_gap", MEAN_GAP)
    kw.setdefault("seed", SEED)
    return serve_trace(NODES, **kw)


# -- arrival traces ---------------------------------------------------------

def test_arrivals_deterministic_and_increasing():
    a = workload.make_arrivals(50, 10_000, seed=7)
    b = workload.make_arrivals(50, 10_000, seed=7)
    assert a == b
    assert len(a) == 50
    assert all(x < y for x, y in zip(a, a[1:]))
    assert workload.make_arrivals(50, 10_000, seed=8) != a


def test_arrivals_follow_the_diurnal_shape():
    """A 3x burst segment packs arrivals ~3x denser than baseline."""
    segments = ((1, 1), (3, 1))
    n = 400
    arrivals = workload.make_arrivals(n, 10_000, seed=7,
                                      segments=segments,
                                      segment_cycles=1_000_000)
    def in_window(lo, hi):
        return sum(lo <= t < hi for t in arrivals)
    # Compare the first baseline window against the first burst window.
    base, burst = in_window(0, 1_000_000), in_window(1_000_000, 2_000_000)
    assert burst > 2 * base


# -- determinism ------------------------------------------------------------

def test_same_seed_reproduces_the_whole_latency_table():
    a = _serve()
    b = _serve()
    assert a.latencies == b.latencies
    assert a.values == b.values
    assert a.arrivals == b.arrivals
    assert (a.span, a.checksum) == (b.span, b.checksum)


def test_values_are_pure_functions_of_the_rid():
    """A different arrival seed moves every latency but no value."""
    a = _serve(seed=SEED)
    b = _serve(seed=99)
    assert a.values == b.values
    assert a.arrivals != b.arrivals
    oracle = tuple(workload.request_value(rid) for rid in range(REQUESTS))
    assert a.values == oracle
    assert a.checksum == workload.fold_checksum(oracle)


def test_loss_is_cost_only_and_monotone():
    clean = _serve()
    lossy = _serve(spec=ClusterSpec(loss=0.05))
    assert lossy.values == clean.values
    assert lossy.checksum == clean.checksum
    assert lossy.p99 >= clean.p99


# -- metrics ----------------------------------------------------------------

def test_percentiles_and_goodput():
    r = _serve()
    assert isinstance(r, ServingResult)
    assert min(r.latencies) <= r.p50 <= r.p95 <= r.p99 <= max(r.latencies)
    assert r.percentile(100) == max(r.latencies)
    assert r.goodput == REQUESTS * 10**9 // r.span
    assert r.goodput > 0


# -- autoscaling ------------------------------------------------------------

def test_autoscale_completes_every_request():
    plan = ((0, 1), (2_000_000, 2), (4_000_000, 1))
    r = serve_trace(2, requests=REQUESTS, mean_gap=MEAN_GAP, seed=SEED,
                    autoscale=plan)
    assert len(r.latencies) == REQUESTS
    static = _serve()
    assert r.values == static.values
    assert r.checksum == static.checksum


def test_autoscale_plan_validation():
    with pytest.raises(ValueError, match="begin at cycle 0"):
        serve_trace(2, requests=4, autoscale=((1_000, 2),))
    with pytest.raises(ValueError, match="outside"):
        serve_trace(2, requests=4, autoscale=((0, 3),))
    with pytest.raises(ValueError, match="outside"):
        serve_trace(2, requests=4, autoscale=((0, 0),))


def test_request_cap():
    with pytest.raises(ValueError, match="at most"):
        serve_trace(1, requests=MAX_REQUESTS + 1)
