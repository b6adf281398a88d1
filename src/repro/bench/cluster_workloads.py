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
from repro.cluster.cluster import fork_child, join_child
from repro.cluster.spec import NODE_CPUS
from repro.kernel.kernel import child_ref
from repro.kernel.machine import Machine
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
        refs.append(fork_child(g, child_ref(1, node=node), SHARE,
                               _md5_node_worker, (start, count, length)))
    found = 0
    for ref in refs:          # retrace the same circuit to collect
        hit = join_child(g, ref)
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
        left = fork_child(
            g, child_ref(2, node=node_lo), SHARE, _md5_tree_worker,
            (node_lo, mid, start, left_count, length))
        right = fork_child(
            g, child_ref(3, node=mid), SHARE, _md5_tree_worker,
            (mid, node_hi, start + left_count, right_count, length))
        # Children recurse; this space searches nothing itself.
        hit_l = join_child(g, left)
        hit_r = join_child(g, right)
        return hit_l or hit_r
    return _md5_node_worker(g, start, count, length)


def md5_tree(g, nnodes, length, digest):
    """Recursive binary-tree distribution of the same search."""
    _publish_digest(g, digest)
    space = len(ALPHABET) ** length
    ref = fork_child(g, child_ref(1, node=0), SHARE, _md5_tree_worker,
                     (0, nnodes, 0, space, length))
    hit = join_child(g, ref)
    return candidate((hit or 1) - 1, length)


# ---------------------------------------------------------------------------
# matmult
# ---------------------------------------------------------------------------

def _matmult_tree_worker(g, node_lo, node_hi, n, row0, rows):
    nodes = node_hi - node_lo
    if nodes > 1 and rows > 1:
        mid_node = node_lo + nodes // 2
        mid_rows = rows * (mid_node - node_lo) // nodes
        left = fork_child(g, child_ref(2, node=node_lo), SHARE,
                          _matmult_tree_worker,
                          (node_lo, mid_node, n, row0, mid_rows))
        right = fork_child(g, child_ref(3, node=mid_node), SHARE,
                           _matmult_tree_worker,
                           (mid_node, node_hi, n, row0 + mid_rows,
                            rows - mid_rows))
        join_child(g, left)
        join_child(g, right)
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
    join_child(g, fork_child(g, child_ref(1, node=0), SHARE,
                             _matmult_tree_worker, (0, nnodes, n, 0, n)))
    c = g.array_read(c_addr, np.int32, n * n)
    return int(c.sum() & 0xFFFFFFFF)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def run_cluster(entry_builder, nnodes, spec=None):
    """Run a cluster benchmark on ``nnodes`` uniprocessor nodes.

    ``entry_builder(g, nnodes)`` is the guest main.  Returns
    ``(makespan, machine, value)``; the makespan is scheduled on
    :data:`~repro.cluster.spec.NODE_CPUS` per node, as in the paper's
    cluster (§6.3), also at one node.  Raises ``RuntimeError`` if the
    program faults.  Configuration comes from a
    :class:`~repro.cluster.spec.ClusterSpec`: ``ship_mode="full"`` for
    the naive every-page-every-hop migration baseline,
    ``topology``/``placement`` for the routed fabric,
    ``prefetch_depth``/``compression`` for the async fetch queues and
    wire compression, ``loss`` for the deterministic fault schedule,
    ``shard_workers`` for forked host execution.
    """
    with Machine(nnodes=nnodes, spec=spec) as machine:
        result = machine.run(entry_builder, (nnodes,), ncpus=NODE_CPUS) \
            .check("cluster program")
    return result.makespan(), machine, result.value


def sweep_nodes(main, node_counts, spec=None):
    """Run ``main(g, nnodes)`` at every cluster size in ``node_counts``
    under one ``spec`` (the Figure 11 primitive).

    Returns ``{nnodes: (speedup, machine, value)}``, each speedup over
    the first size's makespan.  Every size must compute the same value
    — distribution is semantically transparent (§3.3) and loss is
    cost-only — so a drift raises ``AssertionError``.  Each size builds
    its own fabric from the spec's ``topology`` preset.
    """
    series = {}
    for nnodes in node_counts:
        makespan, machine, value = run_cluster(main, nnodes, spec)
        if not series:
            base_time, base_value = makespan, value
        elif value != base_value:
            raise AssertionError(
                f"value drift at {nnodes} nodes: "
                f"{value!r} != {base_value!r}")
        series[nnodes] = (base_time / makespan if makespan else 1.0,
                          machine, value)
    return series


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
