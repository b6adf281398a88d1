"""Distributed benchmarks via space migration (paper §6.3, Figures 11/12).

* **md5-circuit** — "the master space acts like a traveling salesman,
  migrating serially to each worker node to fork child processes, then
  retracing the same circuit to collect their results."
* **md5-tree** — "forks workers recursively in a binary tree: the master
  space forks children on two nodes, those children each fork two
  children on two nodes, etc."
* **matmult-tree** — matrix multiply with the same recursive work
  distribution; the matrix data rides the kernel's demand-paging
  protocol, which is why it levels off at two nodes.

All three run in the (logically) shared-memory model via Snap/Merge,
exactly as on a single machine — distribution is only node numbers in
child references.
"""

import hashlib

import numpy as np

from repro.bench.workloads import matmult as matmult_workload
from repro.bench.workloads.md5 import (
    CYCLES_PER_CANDIDATE,
    ALPHABET,
    candidate,
)
from repro.cluster.cluster import Cluster
from repro.kernel.kernel import child_ref
from repro.mem.layout import SHARED_BASE
from repro.mem.page import PAGE_SIZE

SHARE = (SHARED_BASE, 0x1000_0000)  # 256 MB window is plenty for these

#: Where the md5 target digest lives in the share: real shared input
#: data that rides the cluster transport to every worker (one page).
DIGEST_ADDR = SHARED_BASE + 0x1000


def _publish_digest(g, digest):
    """Write the search target into shared memory for the workers."""
    g.write(DIGEST_ADDR, digest.encode().ljust(PAGE_SIZE, b"\x00"))


def _read_digest(g):
    """Read the search target back out of the (copied) share."""
    return g.read(DIGEST_ADDR, 32).decode()


def _fork_on(g, local, node, entry, args):
    ref = child_ref(local, node=node)
    addr, size = SHARE
    g.kcharge(g.cost.fork_image_pages * g.cost.page_map)
    g.put(ref, regs={"entry": entry, "args": tuple(args)},
          copy=(addr, size), snap=(addr, size), start=True)
    return ref


def _join(g, ref):
    g.kcharge(g.cost.fork_image_pages * g.cost.page_scan)
    return g.get(ref, regs=True, merge=True)["r0"]


# ---------------------------------------------------------------------------
# md5
# ---------------------------------------------------------------------------

def _md5_params(length=4):
    target = candidate((len(ALPHABET) ** length) * 7 // 10, length)
    return length, hashlib.md5(target.encode()).hexdigest()


def _md5_node_worker(g, start, count, length):
    """Per-node worker: scan a contiguous candidate range (real MD5).

    The target digest is *shared input data*, read out of the worker's
    copy of the share — it reaches remote nodes over the cluster
    transport like any other page, not through a register side channel.
    """
    digest = _read_digest(g)
    g.alloc_work(count * CYCLES_PER_CANDIDATE)
    for index in range(start, start + count):
        if hashlib.md5(candidate(index, length).encode()).hexdigest() == digest:
            return index + 1
    return 0


def md5_circuit(g, nnodes, length, digest):
    """Master migrates serially around the node circuit (§6.3)."""
    _publish_digest(g, digest)
    space = len(ALPHABET) ** length
    per = (space + nnodes - 1) // nnodes
    refs = []
    for node in range(nnodes):
        start = node * per
        count = max(0, min(per, space - start))
        refs.append(
            _fork_on(g, 1, node, _md5_node_worker,
                     (start, count, length))
        )
    found = 0
    for ref in refs:          # retrace the same circuit to collect
        hit = _join(g, ref)
        if hit:
            found = hit - 1
    return candidate(found, length)


def _md5_tree_worker(g, node_lo, node_hi, start, count, length):
    """Tree worker on node ``node_lo``: split nodes, fork two subtrees,
    search the local share."""
    nodes = node_hi - node_lo
    if nodes > 1:
        mid = node_lo + nodes // 2
        left_count = (count * (mid - node_lo)) // nodes
        right_count = count - left_count
        left = _fork_on(
            g, 2, node_lo, _md5_tree_worker,
            (node_lo, mid, start, left_count, length))
        right = _fork_on(
            g, 3, mid, _md5_tree_worker,
            (mid, node_hi, start + left_count, right_count, length))
        # Children recurse; this space searches nothing itself.
        hit_l = _join(g, left)
        hit_r = _join(g, right)
        return hit_l or hit_r
    return _md5_node_worker(g, start, count, length)


def md5_tree(g, nnodes, length, digest):
    """Recursive binary-tree distribution of the same search."""
    _publish_digest(g, digest)
    space = len(ALPHABET) ** length
    ref = _fork_on(g, 1, 0, _md5_tree_worker,
                   (0, nnodes, 0, space, length))
    hit = _join(g, ref)
    return candidate((hit or 1) - 1, length)


# ---------------------------------------------------------------------------
# matmult
# ---------------------------------------------------------------------------

def _matmult_tree_worker(g, node_lo, node_hi, n, row0, rows):
    nodes = node_hi - node_lo
    if nodes > 1 and rows > 1:
        mid_node = node_lo + nodes // 2
        mid_rows = rows * (mid_node - node_lo) // nodes
        left = _fork_on(g, 2, node_lo, _matmult_tree_worker,
                        (node_lo, mid_node, n, row0, mid_rows))
        right = _fork_on(g, 3, mid_node, _matmult_tree_worker,
                         (mid_node, node_hi, n, row0 + mid_rows,
                          rows - mid_rows))
        _join(g, left)
        _join(g, right)
        return rows
    from repro.bench.api import DetApi
    return matmult_workload._multiply_block(DetApi(g), 0, n, row0, rows)


def matmult_tree(g, nnodes, n, seed):
    """Matrix multiply with recursive cross-node work distribution."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 100, size=(n, n), dtype=np.int32)
    b = rng.integers(0, 100, size=(n, n), dtype=np.int32)
    a_addr, b_addr, c_addr = matmult_workload._addrs(n)
    g.array_write(a_addr, a)
    g.array_write(b_addr, b)
    g.work(2 * n * n)
    ref = _fork_on(g, 1, 0, _matmult_tree_worker, (0, nnodes, n, 0, n))
    _join(g, ref)
    c = g.array_read(c_addr, np.int32, n * n)
    return int(c.sum() & 0xFFFFFFFF)


# ---------------------------------------------------------------------------
# matmult_skewed: no single static prefetch depth wins both phases
# ---------------------------------------------------------------------------

#: Phase-A ring slices live well above the matmult arrays and the md5
#: digest page, inside the SHARE window (so fork copy/snap covers them).
SKEW_BASE = SHARED_BASE + 0x20_0000


def _skew_slice(i, width):
    """Byte range of ring slice ``i`` (``width`` pages each)."""
    return SKEW_BASE + i * width * PAGE_SIZE, width * PAGE_SIZE


def _skew_worker(g, sl, width, work, salt):
    """Round worker: scan the round's hot slice, compute per page."""
    addr, _ = _skew_slice(sl, width)
    total = salt
    for p in range(width):
        total = (total + g.read(addr + p * PAGE_SIZE, 4)[0] + p) & 0xFF
        g.work(work)
    return total


def matmult_skewed(g, nnodes, n, rounds, width, work, seed):
    """Two-phase workload where no single prefetch depth wins (the
    adaptive ablation's any-static-loses case).

    **Phase A** marches a hot window through a ring of rewritten-every-
    round shared slices: each round the root regenerates *all* slices
    (hot shared pages), then forks one worker per node that copies and
    scans only the round's slice — the next round's workers scan the
    next slice, and so on around the ring.  The demand miss on the hot
    slice makes the kernel's sequential re-prime speculate up to
    ``4 * depth`` pages past it, and the migration ledger primes each
    visited node's queue with the freshly rewritten ring — but the root
    rewrites every slice again before the march arrives, so at static
    depth ``d`` roughly ``d`` queued transfers per node per round come
    back as ``prefetch_stale`` demand misses: wire waste depth 0 never
    pays, so shallow queues win phase A.  **Phase B** is the ordinary
    matmult tree, whose one-shot bulk streams reward exactly the deep
    queues phase A punishes.  A static knob must pick one phase to
    lose; the control plane sheds depth while phase A's stale telemetry
    accumulates, then restores it on phase B's demand bursts.
    """
    nslices = 3
    checksum = 0
    for r in range(rounds):
        # Regenerate the whole ring: every slice's every page gets a
        # fresh generation, so anything queued beyond the current hot
        # slice is doomed speculation.
        for sl in range(nslices):
            addr, _ = _skew_slice(sl, width)
            for p in range(width):
                g.write(addr + p * PAGE_SIZE, bytes([(sl + r + p) & 0xFF]) * 4)
        hot = r % nslices
        addr, size = _skew_slice(hot, width)
        # Circuit-style serial visits (fork_i, join_i): every visit is
        # a quantum boundary, so a depth lesson learned on one node's
        # churn reprices the very next node's fork — the fastest the
        # control loop can possibly react.
        for i in range(nnodes):
            ref = child_ref(16 + i, node=i)
            g.kcharge(g.cost.fork_image_pages * g.cost.page_map)
            g.put(ref, regs={"entry": _skew_worker,
                             "args": (hot, width, work, r + i)},
                  copy=(addr, size), snap=(addr, size), start=True)
            checksum = (checksum + _join(g, ref)) & 0xFFFFFFFF
    # Phase B: bulk-streaming matmult trees on the same cluster, whose
    # one-shot streams reward exactly the depth phase A punished.
    total = 0
    for rep in range(3):
        total = (total + matmult_tree(g, nnodes, n, seed + rep)) & 0xFFFFFFFF
    return (checksum * 0x10001 + total) & 0xFFFFFFFF


def matmult_skewed_main(n=192, rounds=8, width=8, work=30_000, seed=7):
    def main(g, nnodes):
        return matmult_skewed(g, nnodes, n, rounds, width, work, seed)

    return main


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def run_cluster(entry_builder, nnodes, spec=None):
    """Run a cluster benchmark on ``nnodes`` uniprocessor nodes.

    ``entry_builder(g, nnodes)`` is the guest main.  Returns
    ``(makespan, machine, value)``; the makespan uses one CPU per node,
    as in the paper's cluster (§6.3) unless the spec says otherwise.
    Configuration comes from a :class:`~repro.cluster.spec.ClusterSpec`:
    ``ship_mode="full"`` for the naive every-page-every-hop migration
    baseline, ``topology``/``placement`` for the routed fabric,
    ``prefetch_depth``/``compression`` for the async fetch queues and
    wire compression, ``loss`` for the deterministic fault schedule,
    ``control`` for the adaptive control plane, ``shard_workers`` for
    forked host execution.
    """
    result = Cluster(nnodes, spec).run(entry_builder, (nnodes,))
    return result.makespan(), result.machine, result.value


def md5_circuit_main(length=4):
    length, digest = _md5_params(length)

    def main(g, nnodes):
        return md5_circuit(g, nnodes, length, digest)

    return main


def md5_tree_main(length=4):
    length, digest = _md5_params(length)

    def main(g, nnodes):
        return md5_tree(g, nnodes, length, digest)

    return main


def matmult_tree_main(n=128, seed=7):
    def main(g, nnodes):
        return matmult_tree(g, nnodes, n, seed)

    return main
