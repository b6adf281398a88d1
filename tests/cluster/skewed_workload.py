"""The phase-skewed cluster program: the stale-purge input of the
prefetch tests.

**Phase A** marches a hot window through a ring of shared slices the
root rewrites every round: each round the root regenerates *all*
slices, then visits each node in turn with a worker that copies and
scans only that round's slice.  The demand miss on the hot slice makes
the kernel's sequential re-prime speculate up to ``4 * depth`` pages
past it, and the migration ledger primes each visited node's queue
with the freshly rewritten ring, but the root rewrites every slice
again before the march arrives.  So at a static depth the predictor
finds queued entries superseded and purges them before each refill
(``Transport.purge_superseded``, counted ``prefetch_stale``), and a
deep queue re-speculates on pages its node already fetched
(``prefetch_refresh``).  **Phase B** is the ordinary matmult tree,
whose one-shot bulk streams reward a deep queue.  The value is the same
at every depth.
"""

from repro.bench.cluster_workloads import matmult_tree
from repro.cluster.cluster import fork_child, join_child
from repro.kernel.kernel import child_ref
from repro.mem.layout import SHARED_BASE
from repro.mem.page import PAGE_SIZE

#: Phase-A ring slices live well above the matmult arrays and the md5
#: digest page, inside the fork share window (so copy/snap covers them).
SKEW_BASE = SHARED_BASE + 0x20_0000
#: Phase-A rounds, ring slices, and pages per slice.
SKEW_ROUNDS = 8
SKEW_SLICES = 3
SKEW_WIDTH = 8
#: Matrix size, per-page compute of a phase-A worker, and matrix seed.
N, WORK, SEED = 64, 5_000, 7
#: The program's value, at every depth and loss rate.
VALUE = 2144501800


def _slice(i):
    """Byte range of ring slice ``i`` (``SKEW_WIDTH`` pages)."""
    return SKEW_BASE + i * SKEW_WIDTH * PAGE_SIZE, SKEW_WIDTH * PAGE_SIZE


def _worker(g, sl, salt):
    """Round worker: scan the round's hot slice, compute per page."""
    addr, _ = _slice(sl)
    total = salt
    for p in range(SKEW_WIDTH):
        total = (total + g.read(addr + p * PAGE_SIZE, 4)[0] + p) & 0xFF
        g.work(WORK)
    return total


def skewed_main(g, nnodes):
    """Phase A's ring march, then phase B's three matmult trees."""
    checksum = 0
    for r in range(SKEW_ROUNDS):
        # Every page of every slice gets a fresh generation, so anything
        # queued beyond the current hot slice is doomed speculation.
        for sl in range(SKEW_SLICES):
            addr, _ = _slice(sl)
            for p in range(SKEW_WIDTH):
                g.write(addr + p * PAGE_SIZE, bytes([(sl + r + p) & 0xFF]) * 4)
        hot = r % SKEW_SLICES
        # Serial visits: each node's queue refills against a ring the
        # root just rewrote.
        for i in range(nnodes):
            ref = fork_child(g, child_ref(16 + i, node=i), _slice(hot),
                             _worker, (hot, r + i))
            checksum = (checksum + join_child(g, ref)) & 0xFFFFFFFF
    total = 0
    for rep in range(3):
        total = (total + matmult_tree(g, nnodes, N, SEED + rep)) & 0xFFFFFFFF
    return (checksum * 0x10001 + total) & 0xFFFFFFFF
