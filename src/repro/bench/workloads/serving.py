"""serving: an open-loop request-serving workload (tail latency, not makespan).

Every other workload in the repo is one batch job measured by makespan.
This module supplies the pieces of a *service*: a deterministic open-loop
arrival trace (seeded Poisson process with diurnal burst segments) and a
per-request guest program small enough that hundreds of them fit in one
run — an md5 probe burst or a Black-Scholes pricing burst per request,
reading real shared input data that rides the cluster transport.

Everything here is exactly reproducible across platforms and Python
versions: arrival sampling is pure 64-bit integer arithmetic (a
Bernoulli-per-tick geometric process — no ``math.log``), request values
derive from :mod:`hashlib` digests, and the diurnal rate multipliers are
rationals.  The cluster-side dispatcher that turns these pieces into
latency percentiles lives in :mod:`repro.cluster.serving`.
"""

import hashlib

import numpy as np

from repro.bench.workloads.blackscholes import CYCLES_PER_OPTION, make_options
from repro.bench.workloads.md5 import ALPHABET, CYCLES_PER_CANDIDATE, candidate
from repro.common.detrandom import DeterministicRandom
from repro.mem.layout import SHARED_BASE
from repro.mem.page import PAGE_SIZE

# ---------------------------------------------------------------------------
# Shared-input layout: the request "application state" every node needs
# ---------------------------------------------------------------------------

#: Base of the serving share window (above the md5/matmult/skew regions).
SERVING_BASE = SHARED_BASE + 0x40_0000
#: Page holding the md5 search target digest (shared input data).
TARGET_ADDR = SERVING_BASE
#: Page holding the option parameter table (NOPTIONS x 5 float64 rows).
OPTIONS_ADDR = SERVING_BASE + PAGE_SIZE
#: First of NDATA_PAGES reference-data pages requests consult.
DATA_ADDR = SERVING_BASE + 2 * PAGE_SIZE
#: Reference-data pages (each request touches one, keyed on its id).
NDATA_PAGES = 6
#: Bytes of shared application state a node must hold to serve requests.
SHARE_SIZE = (2 + NDATA_PAGES) * PAGE_SIZE
#: The (addr, size) window forked to every request child.
SHARE = (SERVING_BASE, SHARE_SIZE)

#: md5 request: candidate-string length and probes scanned per request.
MD5_LENGTH = 3
MD5_PROBES = 40
#: blackscholes request: option-table shape and pricing passes.
NOPTIONS = 64
OPTIONS_SEED = 3
BS_RUNS = 120

#: Request-kind cycle: two md5 probes for every pricing request.
KINDS = ("md5", "md5", "bs")


def _md5_space():
    return len(ALPHABET) ** MD5_LENGTH


def _target_digest():
    """The planted md5 search target (same planting rule as the batch
    md5 workload: 70% of the way through the candidate space)."""
    return hashlib.md5(
        candidate(_md5_space() * 7 // 10, MD5_LENGTH).encode()).hexdigest()


def publish_inputs(g):
    """Write the shared application state into the serving window.

    Called once by the dispatcher before the first fork; every request
    child receives a copy-on-write snapshot of this window, so remote
    nodes pull it over the cluster transport like any other pages.
    """
    g.write(TARGET_ADDR, _target_digest().encode().ljust(PAGE_SIZE, b"\x00"))
    g.array_write(OPTIONS_ADDR, make_options(NOPTIONS, OPTIONS_SEED))
    for page in range(NDATA_PAGES):
        pattern = hashlib.md5(b"serving-data-%d" % page).digest()
        g.write(DATA_ADDR + page * PAGE_SIZE,
                pattern * (PAGE_SIZE // len(pattern)))


# ---------------------------------------------------------------------------
# Deterministic open-loop arrival trace
# ---------------------------------------------------------------------------

#: Default diurnal rate profile, as (numerator, denominator) multipliers
#: on the base arrival rate: night trough, shoulder, burst, shoulder.
DIURNAL = ((1, 2), (1, 1), (3, 1), (1, 1))


#: Ticks drawn per array pass of :func:`make_arrivals` (64 KiB of draws).
ARRIVAL_BLOCK = 8192


def make_arrivals(nrequests, mean_gap, seed, segments=DIURNAL,
                  segment_cycles=None):
    """Deterministic Poisson arrival times with diurnal rate segments.

    Returns a strictly increasing tuple of ``nrequests`` virtual-cycle
    arrival times (Python ``int``s).  The process is sampled as a
    Bernoulli trial per ``tick`` (a geometric — i.e. discretized
    exponential — interarrival law) using exact 64-bit integer
    comparisons, so the trace is bit-identical on every platform and
    Python version; ``math.log`` never enters.  ``segments`` scales the
    instantaneous rate by the rational ``num/den`` of the segment active
    at each tick, cycling every ``segment_cycles`` (default: the trace
    spans roughly two full diurnal cycles at the base rate).

    A tick accepts when ``u * mean_gap * den < (tick * num) << 64`` for
    its uniform 64-bit draw ``u`` — i.e. when ``u`` is below one integer
    threshold per segment — so ticks are judged :data:`ARRIVAL_BLOCK` at
    a time.  Raises :class:`OverflowError` rather than let a block's tick
    times wrap ``int64``.
    """
    if nrequests < 1:
        raise ValueError(f"nrequests must be >= 1, got {nrequests}")
    if mean_gap < 1:
        raise ValueError(f"mean_gap must be >= 1, got {mean_gap}")
    if segment_cycles is None:
        segment_cycles = max(1, nrequests * mean_gap
                             // (2 * len(segments)))
    live = np.array([num > 0 for num, _den in segments])
    if segment_cycles < 1 or not live.any() or any(den < 1 for _num, den in segments):
        raise ValueError("segment_cycles and every segment denominator must be >= 1, "
                         "and some segment's rate positive")
    rng = DeterministicRandom(seed)
    tick = max(1, mean_gap // 64)
    # u * M < N  <=>  u <= ceil(N / M) - 1, with N = (tick * num) << 64 and
    # M = mean_gap * den.  From 2**64 - 1 up every draw accepts; a segment
    # with num <= 0 (threshold -1) accepts none and is masked out instead.
    limit = np.array(
        [min(max(-(-((tick * num) << 64) // (mean_gap * den)) - 1, 0), 2**64 - 1)
         for num, den in segments], dtype=np.uint64)
    arrivals = []
    t = 0
    while len(arrivals) < nrequests:
        if max(t + tick * (ARRIVAL_BLOCK - 1), segment_cycles) >= 2**63:
            raise OverflowError(f"tick times from {t} on (tick {tick}, segment_cycles "
                                f"{segment_cycles}) do not fit int64")
        ticks = t + tick * np.arange(ARRIVAL_BLOCK, dtype=np.int64)
        segment = ticks // segment_cycles % len(segments)
        accepted = (rng.block(ARRIVAL_BLOCK) <= limit[segment]) & live[segment]
        # .tolist() yields Python ints: a numpy.int64 reaching Trace.sleep
        # would overflow event_core's packed shifts silently.
        arrivals.extend(ticks[accepted].tolist())
        t += tick * ARRIVAL_BLOCK
    return tuple(arrivals[:nrequests])


# ---------------------------------------------------------------------------
# The per-request guest program
# ---------------------------------------------------------------------------

def request_kind(rid):
    """Request ``rid``'s kind — a pure function of the request id (never
    of the arrival seed), so request *values* are trace-independent."""
    return KINDS[rid % len(KINDS)]


def serve_request(g, rid):
    """Guest entry of one request child: serve request ``rid``.

    Reads the shared inputs out of this space's copy of the serving
    window (they crossed the wire to reach a remote node) and performs a
    small burst of real compute.  The returned value is a pure function
    of ``rid`` and the shared inputs — :func:`request_value` is the
    host-side oracle.
    """
    # Touch this request's reference-data page (keeps a data dependency
    # on the share beyond the input tables).
    page = rid % NDATA_PAGES
    salt = g.read(DATA_ADDR + page * PAGE_SIZE, 16)
    if request_kind(rid) == "md5":
        digest = g.read(TARGET_ADDR, 32).decode()
        g.alloc_work(MD5_PROBES * CYCLES_PER_CANDIDATE)
        space = _md5_space()
        start = (rid * 131) % space
        for index in range(start, start + MD5_PROBES):
            text = candidate(index % space, MD5_LENGTH)
            if hashlib.md5(text.encode()).hexdigest() == digest:
                return index % space + 1
        return int.from_bytes(
            hashlib.md5(salt + b"%d" % rid).digest()[:4], "little")
    row = g.read(OPTIONS_ADDR + (rid % NOPTIONS) * 40, 40)
    g.work(BS_RUNS * CYCLES_PER_OPTION)
    return int.from_bytes(
        hashlib.md5(row + salt + b"%d" % rid).digest()[:4], "little")


def request_value(rid):
    """Host-side oracle for :func:`serve_request`'s return value."""
    salt = hashlib.md5(b"serving-data-%d" % (rid % NDATA_PAGES)).digest()
    if request_kind(rid) == "md5":
        digest = _target_digest()
        space = _md5_space()
        start = (rid * 131) % space
        for index in range(start, start + MD5_PROBES):
            text = candidate(index % space, MD5_LENGTH)
            if hashlib.md5(text.encode()).hexdigest() == digest:
                return index % space + 1
        return int.from_bytes(
            hashlib.md5(salt + b"%d" % rid).digest()[:4], "little")
    row = make_options(NOPTIONS, OPTIONS_SEED)[rid % NOPTIONS].tobytes()
    return int.from_bytes(
        hashlib.md5(row + salt + b"%d" % rid).digest()[:4], "little")


def fold_checksum(values):
    """Order-sensitive 32-bit fold of per-request values (the run's
    single scalar "answer", used by the determinism oracles)."""
    total = 0
    for value in values:
        total = (total * 0x10001 + value) & 0xFFFFFFFF
    return total
