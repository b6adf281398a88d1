"""Byte-granularity three-way merge — the kernel Merge option (paper §3.2).

    "A Merge is like a Copy, except the kernel copies only bytes that
    differ between the child's current and reference snapshots into the
    parent space, leaving other bytes in the parent untouched.  The
    kernel also detects conflicts: if a byte changed in both the child's
    and parent's spaces since the snapshot, the kernel generates an
    exception."

The fast paths matter: most pages are untouched (frame identity/tag
equals the snapshot baseline) or changed on only one side (whole-frame
adoption).  Only pages written on both sides need a byte-level diff.

Candidates come from the child's dirty ledger (DESIGN.md §2).  Pages
the parent left alone (its frame still the pinned snapshot frame, which
*is* the baseline-tag check) are adopted without reading their bytes;
the remaining both-sides-dirty pages are diffed as one stacked
``(N, 4096)`` uint8 ndarray operation instead of a Python per-page
loop, and written back the same way: the merged rows are one masked
``np.copyto`` and each changed row replaces its parent page whole
(``AddressSpace.write_pages``).  Each candidate costs three page-table
probes and each adoption one remap (``AddressSpace.adopt_frames``), so
the whole merge is O(written-since-snap) whatever the size of the two
page tables (``tests/mem/test_table_reads.py`` holds it to that).

A conflict is detected per batch (``BATCH_PAGES`` both-dirty pages)
before that batch writes, so a merge whose both-dirty set fits one batch
is atomic-on-conflict; programs should still treat a conflicted parent
region as indeterminate.
"""

import numpy as np

from repro.common.errors import MergeConflictError
from repro.mem.page import PAGE_SHIFT, PAGE_SIZE, _ZERO_BYTES


class MergeStats:
    """Cost-relevant accounting returned by :func:`merge_range`.

    ``pages_scanned`` counts candidate pages examined — dirty-ledger
    entries, charged at ``page_track`` each.  ``pages_diffed`` counts
    pages whose *bytes* were compared; ``batch_ops`` counts stacked
    ndarray diff operations (charged at ``batch_diff`` each).
    ``bytes_merged`` counts bytes written into parent frames (whole-frame
    adoptions are COW remaps and copy no bytes).
    """

    __slots__ = ("pages_scanned", "pages_diffed", "pages_adopted",
                 "bytes_merged", "batch_ops", "written_vpns")

    def __init__(self):
        self.pages_scanned = 0
        self.pages_diffed = 0
        self.pages_adopted = 0
        self.bytes_merged = 0
        self.batch_ops = 0
        #: Vpns whose parent mapping or bytes the merge changed (diff
        #: writes + adoptions) — what the kernel must re-register in the
        #: merging node's page cache.  The kernel empties it once
        #: consumed, so long-lived stats logs stay O(1) per merge.
        self.written_vpns = []

    def __eq__(self, other):
        """By value: two identical runs keep equal merge logs."""
        if type(other) is not MergeStats:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    def __repr__(self):
        return (
            f"<MergeStats scanned={self.pages_scanned} diffed={self.pages_diffed}"
            f" adopted={self.pages_adopted} bytes={self.bytes_merged}"
            f" batches={self.batch_ops}>"
        )


def _matrix(frames):
    """Writable ``(N, 4096)`` uint8 copy of the frames' bytes, one row
    each; a missing frame (None) reads as zeros."""
    data = bytearray().join([_ZERO_BYTES if frame is None else frame.data
                             for frame in frames])
    return np.frombuffer(data, dtype=np.uint8).reshape(len(frames), PAGE_SIZE)


#: Valid merge conflict-handling modes.
MODES = ("strict", "lenient", "override")

#: Both-sides-dirty pages are diffed in stacked batches of this many
#: pages, bounding the transient ndarray memory (~3 x 16 MB per batch at
#: the default) no matter how much of the space is dirty on both sides.
BATCH_PAGES = 4096


def merge_range(parent, child, snapshot, addr=None, size=None, mode="strict",
                stats=None):
    """Merge the child's changes since ``snapshot`` into ``parent``.

    The candidates are the child's dirty-ledger entries in the range
    since the snapshot's token; a child that wrote nothing there costs
    one ledger query that reads no event, and nothing else — no page
    table is read and ``stats`` is left as it came.

    Parameters
    ----------
    parent, child:
        :class:`~repro.mem.addrspace.AddressSpace` objects.
    snapshot:
        The child's reference :class:`~repro.mem.snapshot.Snapshot`
        (captured from the child's image at fork time).
    addr, size:
        Page-aligned subrange to merge; defaults to the snapshot's range.
    mode:
        ``"strict"`` (the paper's semantics): a byte changed on *both*
        sides raises :class:`MergeConflictError` even when both sides
        wrote the same value.  ``"lenient"``: identical concurrent writes
        are tolerated (ablation in ``benchmarks/bench_ablation_merge.py``).
        ``"override"``: no conflict detection — the child's changes win,
        which is what the deterministic legacy-pthreads scheduler (§4.5)
        needs to give racy programs a repeatable, merge-order-defined
        outcome instead of an error.
    stats:
        Optional caller-owned :class:`MergeStats` filled in place, so a
        caller can observe the work performed even when the merge raises
        a conflict mid-way (the kernel charges it either way).

    Returns
    -------
    MergeStats
        Page/byte counts for cost-model charging.
    """
    if mode not in MODES:
        raise ValueError(f"unknown merge mode {mode!r}")
    if addr is None:
        addr, size = snapshot.addr, snapshot.size
    if addr % PAGE_SIZE or size % PAGE_SIZE:
        raise ValueError("merge range must be page-aligned")
    if stats is None:
        stats = MergeStats()
    vpn0 = addr >> PAGE_SHIFT
    vpn1 = vpn0 + (size >> PAGE_SHIFT)
    if not (snapshot.covers(vpn0) and (size == 0 or snapshot.covers(vpn1 - 1))):
        raise ValueError(
            f"merge range {addr:#x}+{size:#x} outside snapshot range"
        )
    candidates = snapshot.dirty_in(child, vpn0, vpn1)
    if candidates:
        _merge_tracked(parent, child, snapshot, sorted(candidates), mode, stats)
    return stats


def _merge_tracked(parent, child, snapshot, candidates, mode, stats):
    """O(dirty) enumeration + batched vectorized diff (DESIGN.md)."""
    adopt = []     # (vpn, child_frame): parent unchanged -> whole-frame COW
    compare = []   # (vpn, child_frame, snap_frame, parent_frame): both dirty
    snap_frame_at, child_frame_at, parent_frame_at = (
        snapshot._frames.get, child._pages.get, parent._pages.get)
    for vpn in candidates:
        snap_frame = snap_frame_at(vpn)
        child_frame = child_frame_at(vpn)
        # Fast path 1: the child never replaced this page -> unchanged.
        # (Dirty marks are conservative; a later Copy can restore the
        # snapshot frame, and ledger entries never imply a byte diff.)
        if child_frame is snap_frame:
            continue
        parent_frame = parent_frame_at(vpn)
        if parent_frame is snap_frame:
            # Fast path 2: parent unchanged since the snapshot -> adopt
            # the child's whole frame copy-on-write (an unmap where the
            # child dropped the page), bytes untouched.
            # The snapshot pins its frames (refcounted), so identity is
            # exactly the baseline (serial, generation) check: a pinned
            # frame can never be mutated in place, and within one
            # allocator tag equality implies the same frame object.
            # (Comparing raw tags instead would falsely match across
            # distinct FrameAllocators, whose serial streams collide.)
            adopt.append((vpn, child_frame))
        else:
            compare.append((vpn, child_frame, snap_frame, parent_frame))
    stats.pages_scanned += len(candidates)

    # Stacked (N, 4096) diffs replace the per-page Python loop; batches
    # of BATCH_PAGES bound the transient memory.  Batches run in
    # ascending vpn order and each batch checks conflicts before its own
    # writes, so the raised address is always the lowest conflicting one
    # and a merge whose both-dirty set fits one batch — any realistic
    # one — is atomic-on-conflict.
    for start in range(0, len(compare), BATCH_PAGES):
        vpns, *frames = zip(*compare[start:start + BATCH_PAGES])
        c_mat, s_mat, p_mat = map(_matrix, frames)
        child_diff = c_mat != s_mat
        parent_diff = p_mat != s_mat
        stats.batch_ops += 1
        stats.pages_diffed += len(vpns)
        if mode != "override":
            both = child_diff & parent_diff
            conflict_mask = both if mode == "strict" else both & (c_mat != p_mat)
            conflict_rows = conflict_mask.any(axis=1)
            if conflict_rows.any():
                row = int(np.argmax(conflict_rows))
                idx = int(np.flatnonzero(conflict_mask[row])[0])
                raise MergeConflictError((vpns[row] << PAGE_SHIFT) + idx)
        take = child_diff if mode != "lenient" else child_diff & ~parent_diff
        rows = np.flatnonzero(take.any(axis=1))
        written = [vpns[row] for row in rows.tolist()]
        # Each changed row replaces its parent page whole: the merged
        # bytes are the child's where taken and the parent's elsewhere —
        # ``np.where(take, c_mat, p_mat)``, built in place in p_mat
        # (4x cheaper than the ``where`` at barrier_lu's ~29 rows).
        np.copyto(p_mat, c_mat, where=take)
        parent.write_pages(written, p_mat[rows])
        stats.bytes_merged += int(np.count_nonzero(take))
        stats.written_vpns.extend(written)

    # Adoption is a COW remap, never a byte copy or a permission change.
    parent.adopt_frames(adopt)
    stats.pages_adopted += len(adopt)
    stats.written_vpns.extend(vpn for vpn, _ in adopt)
