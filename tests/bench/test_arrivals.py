"""The arrival trace: pinned digests, then the blocked sampler against the
scalar loop it replaced (``arrivals_oracle.py``).

The digests were taken from the scalar loop before it left ``src/`` — the
four perfbench cells and the library default — so the rewrite was landed
against numbers it could not move.  The property then holds the two
implementations equal where the threshold identity has edges: ticks that
accept with probability >= 1 (``mean_gap`` 1…63), a ``num == 0`` segment
between live ones, seeds outside ``[0, 2**64)`` and traces that cross
several block boundaries.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import arrivals_oracle
from arrivals_oracle import arrivals_scalar
from repro.bench.workloads import serving
from repro.bench.workloads.serving import ARRIVAL_BLOCK, make_arrivals

DIGESTS = {
    (3000, 960_000, 1): "a98488732e65dd259132e48c430173e6",
    (375, 960_000, 1): "95dc4d56291f13bd9bcd5359f0f49bf3",
    (100, 960_000, 1): "e006412b7e75d06f00dd25d64a2d1c89",
    (12, 960_000, 1): "84d6c28a193b2f4399203c7e7cf6c96e",
    (160, 240_000, 11): "253b1a2c8ae6ddd89d9436f3b02526a9",
}


@pytest.mark.parametrize("cell", DIGESTS, ids=lambda c: "-".join(map(str, c)))
def test_arrival_digests_are_pinned(cell):
    arrivals = make_arrivals(*cell)
    assert hashlib.md5(repr(arrivals).encode()).hexdigest() == DIGESTS[cell]


segment_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(1, 4)), min_size=1, max_size=5
).filter(lambda segs: any(num for num, _den in segs)).map(tuple)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    nrequests=st.integers(1, 400),
    mean_gap=st.one_of(st.integers(1, 63), st.integers(64, 5_000_000)),
    seed=st.one_of(st.integers(-2**70, 2**70),
                   st.integers(2**64, 2**64 + 1000)),
    segments=st.one_of(st.just(serving.DIURNAL), segment_lists),
    # In ticks, so a dead segment costs the scalar loop a bounded walk.
    cycle_ticks=st.one_of(st.none(), st.integers(1, 3000)),
    cycle_rem=st.integers(0, 63),
)
def test_blocked_sampler_equals_the_scalar_loop(
        nrequests, mean_gap, seed, segments, cycle_ticks, cycle_rem):
    tick = max(1, mean_gap // 64)
    segment_cycles = cycle_ticks and cycle_ticks * tick + cycle_rem % tick
    arrivals = make_arrivals(nrequests, mean_gap, seed, segments,
                             segment_cycles)
    assert arrivals == arrivals_scalar(nrequests, mean_gap, seed, segments,
                                       segment_cycles)
    assert all(type(t) is int for t in arrivals)


@pytest.mark.parametrize("mean_gap,segments", [
    (960_000, serving.DIURNAL),
    # A dead segment between live ones, short enough that every block
    # holds all three.
    (6_400, ((1, 1), (0, 1), (3, 1))),
])
def test_a_trace_spanning_several_blocks(mean_gap, segments):
    arrivals = make_arrivals(700, mean_gap, 5, segments, 40 * mean_gap)
    assert arrivals[-1] // max(1, mean_gap // 64) > 3 * ARRIVAL_BLOCK
    assert arrivals == arrivals_scalar(700, mean_gap, 5, segments,
                                       40 * mean_gap)


@pytest.mark.parametrize("mean_gap", [2, 64, 1000, 960_000])
def test_draws_on_the_threshold_itself(monkeypatch, mean_gap):
    """A random draw lands within one of a threshold with probability
    2**-63, so ``<`` for ``<=`` would pass every other test here: feed
    both samplers a stream that sits on the thresholds (exact quotients at
    64 and 960 000, rounded at 1 000, past 2**64 at 2)."""
    tick = max(1, mean_gap // 64)
    edges = [0, 2**64 - 1]
    for num, den in serving.DIURNAL:
        quotient = ((tick * num) << 64) // (mean_gap * den)
        edges += [q for q in (quotient - 1, quotient, quotient + 1)
                  if 0 <= q < 2**64]

    class EdgeDraws:
        def __init__(self, seed):
            self.drawn = seed

        def next_u64(self):
            self.drawn += 1
            return edges[self.drawn % len(edges)]

        def block(self, n):
            return np.array([self.next_u64() for _ in range(n)], np.uint64)

    monkeypatch.setattr(serving, "DeterministicRandom", EdgeDraws)
    monkeypatch.setattr(arrivals_oracle, "DeterministicRandom", EdgeDraws)
    args = (2 * ARRIVAL_BLOCK, mean_gap, 0, serving.DIURNAL, 50 * tick)
    assert make_arrivals(*args) == arrivals_scalar(*args)


def test_every_tick_accepts_when_the_rate_reaches_one():
    # tick == 1 and 3/1: probability >= 1, the clamped threshold.
    assert make_arrivals(100, 2, 9, ((3, 1),)) == tuple(range(100))


def test_times_that_would_wrap_int64_are_refused():
    with pytest.raises(OverflowError):
        make_arrivals(1, 1 << 62, 1)
    with pytest.raises(OverflowError):
        make_arrivals(1, 960_000, 1, segment_cycles=1 << 63)
    # The last block that fits is still served.
    gap = ((1 << 63) - 1) // (ARRIVAL_BLOCK - 1) * 64
    assert make_arrivals(3, gap, 1) == arrivals_scalar(3, gap, 1)


@pytest.mark.parametrize("kwargs", [
    {"segments": ((1, 0),)}, {"segments": ((-1, 1),)}, {"segment_cycles": 0}])
def test_malformed_rate_profiles_are_refused(kwargs):
    with pytest.raises(ValueError):
        make_arrivals(4, 1000, 1, **kwargs)
