"""The reference implementation of the open-loop arrival trace.

``src/`` holds exactly one arrival sampler,
:func:`repro.bench.workloads.serving.make_arrivals`, which draws its
SplitMix64 stream a block at a time and compares each draw against a
precomputed per-segment threshold.  This is the process written the
obvious way — one scalar draw and one exact 128-bit comparison per tick —
as ``make_arrivals`` read before the blocked rewrite, kept out of
``src/`` as the oracle ``test_arrivals.py`` compares it against.

Do not optimise this file; its value is that it is easy to check by eye.
"""

from repro.bench.workloads.serving import DIURNAL
from repro.common.detrandom import DeterministicRandom


def arrivals_scalar(nrequests, mean_gap, seed, segments=DIURNAL,
                    segment_cycles=None):
    """``nrequests`` arrival times, one Bernoulli trial per tick."""
    if segment_cycles is None:
        segment_cycles = max(1, nrequests * mean_gap
                             // (2 * len(segments)))
    rng = DeterministicRandom(seed)
    tick = max(1, mean_gap // 64)
    arrivals = []
    t = 0
    while len(arrivals) < nrequests:
        num, den = segments[(t // segment_cycles) % len(segments)]
        # Accept with probability (tick * num) / (mean_gap * den),
        # compared exactly against a 64-bit uniform draw.
        if rng.next_u64() * mean_gap * den < (tick * num) << 64:
            arrivals.append(t)
        t += tick
    return tuple(arrivals)
