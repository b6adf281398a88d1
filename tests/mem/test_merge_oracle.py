"""Randomized oracle test for merge_range (DESIGN.md §dirty-tracking).

Compares the production merge (dirty-ledger enumeration, tag-based
adoption, batched stacked diff) against a naive byte-at-a-time oracle on
randomly generated parent/child/snapshot triples, under all three
conflict modes.  It must produce byte-identical parent memory, raise on
exactly the same triples, and report the same first-conflict address —
and do the same again when the ledger names every page in range, since
the ledger may only narrow what Merge visits, never change what it does.
"""

import random

import pytest

from repro.common.errors import MergeConflictError
from repro.mem import AddressSpace, PAGE_SIZE, Snapshot, merge_range

BASE = 0x8000
NPAGES = 6
SPAN = NPAGES * PAGE_SIZE


def oracle_merge(parent_bytes, child_bytes, snap_bytes, mode):
    """Naive byte-at-a-time reference: returns (result_bytes, conflict_addr).

    ``conflict_addr`` is the lowest conflicting address (None if clean).
    The result bytes are only meaningful when there is no conflict.
    """
    result = bytearray(parent_bytes)
    conflict = None
    for i in range(len(snap_bytes)):
        s, c, p = snap_bytes[i], child_bytes[i], parent_bytes[i]
        child_changed = c != s
        parent_changed = p != s
        if child_changed and parent_changed and mode != "override":
            if mode == "strict" or c != p:
                conflict = BASE + i
                break
        if mode == "lenient":
            if child_changed and not parent_changed:
                result[i] = c
        elif child_changed:
            result[i] = c
    return bytes(result), conflict


def random_triple(rng):
    """Build a parent/child/snapshot triple with random write patterns."""
    parent = AddressSpace()
    # Random initial image: some pages populated, some left demand-zero.
    for vpn in range(NPAGES):
        if rng.random() < 0.7:
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
            parent.write(BASE + vpn * PAGE_SIZE + rng.randrange(PAGE_SIZE - 64),
                         data)
    child = AddressSpace()
    child.copy_range_from(parent, BASE, BASE, SPAN)
    snap = Snapshot.capture(child, BASE, SPAN)

    def mutate(space):
        ops = []
        for _ in range(rng.randrange(0, 12)):
            if rng.random() < 0.4:
                # Hot window shared by both sides: makes write/write
                # overlap (and thus conflicts) common across seeds.
                off = rng.randrange(64)
            else:
                off = rng.randrange(SPAN - 8)
            val = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 8)))
            space.write(BASE + off, val)
            ops.append((off, val))
        if rng.random() < 0.25:  # occasional whole-page zero (unmap)
            vpn = rng.randrange(NPAGES)
            space.zero_range(BASE + vpn * PAGE_SIZE, PAGE_SIZE)
            ops.append(("zero", vpn))
        return ops

    mutate(parent)
    mutate(child)
    return parent, child, snap


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("mode", ["strict", "lenient", "override"])
def test_merge_matches_byte_oracle(seed, mode):
    rng = random.Random(1000 * seed + 17)
    parent, child, snap = random_triple(rng)
    snap_bytes = bytes(
        b"".join(
            bytes(snap.frame(vpn).data) if snap.frame(vpn) is not None
            else bytes(PAGE_SIZE)
            for vpn in range((BASE >> 12), (BASE >> 12) + NPAGES)
        )
    )
    parent_bytes = parent.read(BASE, SPAN)
    child_bytes = child.read(BASE, SPAN)
    expected, conflict = oracle_merge(parent_bytes, child_bytes,
                                      snap_bytes, mode)
    if conflict is not None:
        with pytest.raises(MergeConflictError) as err:
            merge_range(parent, child, snap, mode=mode)
        assert err.value.addr == conflict, f"seed={seed} mode={mode}"
    else:
        merge_range(parent, child, snap, mode=mode)
        assert parent.read(BASE, SPAN) == expected, f"seed={seed} mode={mode}"


@pytest.mark.parametrize("seed", range(20))
def test_tracked_and_untracked_merges_agree(seed):
    """The ledger only narrows enumeration: a merge whose child ledger
    names every page in range — as if nothing had been tracked — must
    produce the same parent memory and the same conflicts as the one
    that visits only the pages actually written."""
    for mode in ("strict", "lenient", "override"):
        outcomes = []
        for every_page in (False, True):
            rng = random.Random(7000 + seed)
            parent, child, snap = random_triple(rng)
            if every_page:
                for vpn in range(BASE >> 12, (BASE >> 12) + NPAGES):
                    child._mark_dirty(vpn)
            try:
                merge_range(parent, child, snap, mode=mode)
                outcomes.append(("ok", parent.read(BASE, SPAN)))
            except MergeConflictError as err:
                outcomes.append(("conflict", err.addr))
        assert outcomes[0] == outcomes[1], f"seed={seed} mode={mode}"


def test_batched_diff_spans_multiple_chunks(monkeypatch):
    """Stats accumulate (not reset) across diff batches, results match
    the single-batch path, and the conflict address is still the lowest."""
    import repro.mem.merge as merge_mod

    def build():
        parent = AddressSpace()
        parent.write(BASE, bytes(range(1, 6)) * PAGE_SIZE)  # 5 pages
        child = AddressSpace()
        child.copy_range_from(parent, BASE, BASE, 5 * PAGE_SIZE)
        snap = Snapshot.capture(child, BASE, 5 * PAGE_SIZE)
        for vpn in range(5):                  # both sides dirty, disjoint
            parent.write(BASE + vpn * PAGE_SIZE, b"\xaa")
            child.write(BASE + vpn * PAGE_SIZE + 1, b"\xbb")
        return parent, child, snap

    monkeypatch.setattr(merge_mod, "BATCH_PAGES", 2)
    parent, child, snap = build()
    stats = merge_range(parent, child, snap)
    assert stats.batch_ops == 3               # 5 pages / 2 per batch
    assert stats.pages_diffed == 5
    assert stats.bytes_merged == 5
    for vpn in range(5):
        assert parent.read(BASE + vpn * PAGE_SIZE, 2) == b"\xaa\xbb"

    # Conflict in the second chunk still reports the lowest address.
    parent, child, snap = build()
    parent.write(BASE + 3 * PAGE_SIZE + 7, b"X")
    child.write(BASE + 3 * PAGE_SIZE + 7, b"Y")
    with pytest.raises(MergeConflictError) as err:
        merge_range(parent, child, snap)
    assert err.value.addr == BASE + 3 * PAGE_SIZE + 7
