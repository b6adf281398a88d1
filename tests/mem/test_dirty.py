"""Unit tests for generation tags, the dirty ledger, and incremental
snapshots (DESIGN.md)."""

import gc

import pytest

from repro.kernel import Machine
from repro.mem import (
    AddressSpace,
    FrameAllocator,
    PAGE_SIZE,
    Snapshot,
    merge_range,
)

BASE = 0x4000


# -- frame allocator / generations ----------------------------------------


def test_machines_have_isolated_serial_streams():
    def main(g):
        g.write(0x1000, b"x")
        return g.space.addrspace.frame(1).serial

    with Machine() as m1:
        s1 = m1.run(main).r0
    with Machine() as m2:
        s2 = m2.run(main).r0
    # Same program, fresh machine -> same serial: no global counter bleed.
    assert s1 == s2


def test_allocator_counts_frames():
    alloc = FrameAllocator()
    space = AddressSpace(allocator=alloc)
    space.write(0x1000, b"a")
    space.write(0x3000, b"b")
    assert alloc.frames_allocated == 2


def test_generation_bumps_on_every_write():
    space = AddressSpace()
    space.write(BASE, b"a")
    frame = space.frame(BASE >> 12)
    gen = frame.generation
    space.write(BASE + 1, b"b")
    assert space.frame(BASE >> 12) is frame
    assert frame.generation > gen


def test_tag_changes_after_cow_break():
    src = AddressSpace()
    src.write(BASE, b"shared")
    dst = AddressSpace()
    dst.copy_range_from(src, BASE, BASE, PAGE_SIZE)
    old_tag = dst.frame(BASE >> 12).tag()
    dst.write(BASE, b"priv")
    assert dst.frame(BASE >> 12).tag() != old_tag
    assert src.frame(BASE >> 12).tag() == old_tag  # source untouched


# -- dirty ledger ----------------------------------------------------------


def test_dirty_since_reports_writes_after_token():
    space = AddressSpace()
    space.write(BASE, b"before")
    token = space.dirty_token()
    assert space.dirty_since(token) == set()
    space.write(BASE + PAGE_SIZE, b"after")
    assert space.dirty_since(token) == {(BASE >> 12) + 1}


def test_nothing_is_dirty_since_now():
    """A token taken "now" answers empty, on a fresh ledger and on one
    with re-marked history, until the next mutation."""
    space = AddressSpace()
    assert space.dirty_since(space.dirty_token()) == set()
    for round_ in range(3):
        for page in range(50):
            space.write(BASE + page * PAGE_SIZE, b"%d" % round_)
    token = space.dirty_token()
    assert space.dirty_since(token) == set()
    assert space.dirty_vpns_since(token) == []
    space.write(BASE, b"again")
    assert space.dirty_since(token) == {BASE >> 12}


def test_marking_allocates_no_object_per_page():
    """10 000 marks over 300 vpns leave the collector nothing new to
    track: the ledger holds one entry per vpn, not a record per mark.
    Counted with the collector off, as ``tests/timing/test_trace.py``
    counts the trace (a tuple is untracked only at its first
    collection)."""
    space = AddressSpace()
    marks = [page * 7 % 300 for page in range(10_000)]
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for start in range(0, len(marks), 4):
            space._mark_dirty_many(marks[start:start + 4])
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert space.dirty_token() == 10_000 and space.dirty_page_count() == 300
    assert grown < 50, grown


def test_dirty_ledger_records_range_ops():
    src = AddressSpace()
    src.write(BASE, b"src")
    space = AddressSpace()
    space.write(BASE + PAGE_SIZE, b"stale")
    token = space.dirty_token()
    space.copy_range_from(src, BASE, BASE, 2 * PAGE_SIZE)
    # Page 0 remapped to src's frame; page 1 unmapped (src side empty).
    assert space.dirty_since(token) == {BASE >> 12, (BASE >> 12) + 1}
    token = space.dirty_token()
    space.zero_range(BASE, PAGE_SIZE)
    assert space.dirty_since(token) == {BASE >> 12}


# -- incremental snapshots -------------------------------------------------


def fork_pair(size=4 * PAGE_SIZE):
    parent = AddressSpace()
    parent.write(BASE, b"seed-data")
    child = AddressSpace()
    child.copy_range_from(parent, BASE, BASE, size)
    return parent, child, Snapshot.capture(child, BASE, size)


def test_recapture_updates_only_dirty_pages():
    _, child, snap = fork_pair()
    old_frame = snap.frame(BASE >> 12)
    child.write(BASE + PAGE_SIZE, b"new page")
    repinned, walked = snap.recapture(child)
    assert (repinned, walked) == (1, 1)
    assert snap.frame(BASE >> 12) is old_frame           # untouched share
    assert snap.frame((BASE >> 12) + 1) is child.frame((BASE >> 12) + 1)


def test_recapture_drops_zeroed_pages():
    _, child, snap = fork_pair()
    assert snap.frame(BASE >> 12) is not None
    child.zero_range(BASE, PAGE_SIZE)
    snap.recapture(child)
    assert snap.frame(BASE >> 12) is None


def test_recapture_pins_nothing_outside_its_range():
    _, child, snap = fork_pair()
    child.write(BASE + 4 * PAGE_SIZE, b"just past the range")
    assert snap.recapture(child) == (0, 1)
    assert snap.frame((BASE >> 12) + 4) is None
    assert snap.page_count() == 1


def test_snapshots_count_the_frames_they_share():
    parent, child, snap = fork_pair()
    shared = child.counters.pages_shared        # Copy's 1 + capture's 1
    assert (shared, snap.page_count()) == (2, 1)
    child.write(BASE, b"new")
    child.write(BASE + PAGE_SIZE, b"new page")
    assert snap.recapture(child) == (2, 2)
    assert child.counters.pages_shared == shared + 2


def test_capture_refuses_a_range_that_is_not_page_aligned():
    space = AddressSpace()
    for addr, size in ((BASE, 100), (BASE + 1, PAGE_SIZE)):
        with pytest.raises(ValueError, match="page-aligned"):
            Snapshot.capture(space, addr, size)


def test_merge_refuses_a_range_one_page_past_the_snapshot():
    parent, child, snap = fork_pair()
    with pytest.raises(ValueError, match="outside snapshot range"):
        merge_range(parent, child, snap, addr=BASE, size=5 * PAGE_SIZE)


def test_recapture_refuses_foreign_space():
    _, _, snap = fork_pair()
    with pytest.raises(ValueError, match="captured from"):
        snap.recapture(AddressSpace())


def test_merge_refuses_snapshot_of_foreign_space():
    """A snapshot's ledger token means nothing to another space: Merge
    refuses instead of guessing which pages that space wrote."""
    parent, child, snap = fork_pair()
    child.write(BASE, b"child-data")
    sibling = child.clone()
    with pytest.raises(ValueError, match="captured from"):
        merge_range(parent, sibling, snap)
    assert parent.read(BASE, 9) == b"seed-data"


def test_merge_after_recapture_sees_only_new_changes():
    parent, child, snap = fork_pair()
    child.write(BASE, b"round-one")
    merge_range(parent, child, snap)
    # Parent re-shares its state and re-snaps (the barrier cycle).
    child.copy_range_from(parent, BASE, BASE, 4 * PAGE_SIZE)
    snap.recapture(child)
    child.write(BASE + 2 * PAGE_SIZE, b"round-two")
    stats = merge_range(parent, child, snap)
    assert stats.pages_scanned == 1                      # only the new page
    assert parent.read(BASE, 9) == b"round-one"
    assert parent.read(BASE + 2 * PAGE_SIZE, 9) == b"round-two"


def test_kernel_resnap_is_incremental():
    """Put with Snap over an existing same-range snapshot recaptures."""
    def child_body(g):
        g.ret()
        g.ret()

    def main(g):
        g.write(BASE, b"image" * 100)
        g.put(1, regs={"entry": child_body}, copy=(BASE, 4 * PAGE_SIZE),
              snap=(BASE, 4 * PAGE_SIZE), start=True)
        g.get(1, regs=True)
        snap_before = g.space.children[1].snapshot
        g.put(1, copy=(BASE, 4 * PAGE_SIZE), snap=(BASE, 4 * PAGE_SIZE),
              start=True)
        snap_after = g.space.children[1].snapshot
        g.get(1, regs=True)
        return snap_before is snap_after

    with Machine() as m:
        assert m.run(main).r0 is True


def test_merge_adoption_sound_across_distinct_allocators():
    """Regression: adoption must key on frame identity, not raw tags —
    serial streams of distinct allocators collide, and a colliding
    parent tag must not masquerade as 'parent unchanged'."""
    from repro.common.errors import MergeConflictError

    parent = AddressSpace(allocator=FrameAllocator())
    child = AddressSpace(allocator=FrameAllocator())
    child.write(BASE, b"CHILD-BASE")                 # serial 1 on B
    snap = Snapshot.capture(child, BASE, PAGE_SIZE)  # baseline (1, 1)
    child.write(BASE, b"CHILD-NEW!")
    parent.write(BASE, b"PARENT-NEW")                # serial 1 on A: collides
    assert parent.frame(BASE >> 12).tag() == snap.frame(BASE >> 12).tag()
    with pytest.raises(MergeConflictError):
        merge_range(parent, child, snap, mode="strict")


def test_read_view_of_unmapped_page_does_not_dirty_ledger():
    """Regression: a read-only view demand-zeroes the frame but must not
    enter the dirty ledger — reads are not writes to Snap/Merge."""
    space = AddressSpace()
    token = space.dirty_token()
    arr = space.as_array(BASE, 16)
    assert arr.sum() == 0
    assert space.frame(BASE >> 12) is not None       # materialized
    assert space.dirty_since(token) == set()          # but clean
    space.write(BASE, b"x")                          # a write does
    assert space.dirty_since(token) == {BASE >> 12}


def test_zero_adoption_preserves_parent_permissions():
    """Regression: merging a child's zero_range must not reset the
    parent's page permissions — Merge moves bytes, not protection bits —
    even when the snapshotted page was already all zeros."""
    from repro.common.errors import PermissionFault
    from repro.mem import PERM_R

    for initial in (b"\x00" * 16, b"nonzero-bytes!"):
        parent = AddressSpace()
        parent.write(BASE, initial)
        child = AddressSpace()
        child.copy_range_from(parent, BASE, BASE, PAGE_SIZE)
        snap = Snapshot.capture(child, BASE, PAGE_SIZE)
        parent.set_perm(BASE, PAGE_SIZE, PERM_R)
        child.zero_range(BASE, PAGE_SIZE)
        merge_range(parent, child, snap)
        assert parent.read(BASE, 16) == bytes(16)
        assert parent.perm(BASE >> 12) == PERM_R
        with pytest.raises(PermissionFault):
            parent.write(BASE, b"x", check_perm=True)


def test_conflicting_merge_is_still_charged_and_recorded():
    """Regression: a merge that raises a conflict must still enter the
    machine's stats log (and virtual-time charges) — the scan and diff
    work happened."""
    from repro.common.errors import MergeConflictError
    from repro.mem.layout import SHARED_BASE
    from repro.runtime.threads import thread_fork, thread_join

    def main(g):
        def w(g2):
            g2.store(SHARED_BASE, 1)
        thread_fork(g, 1, w)
        thread_fork(g, 2, w)
        thread_join(g, 1)
        try:
            thread_join(g, 2)
        except MergeConflictError:
            pass
        return len(g.machine.merge_stats_total)

    with Machine() as m:
        assert m.run(main).r0 == 2


def test_invalid_merge_spec_leaves_no_phantom_stats():
    """Regression: a merge rejected at argument validation performed no
    work and must not enter the stats log (unlike a real conflict)."""
    from repro.mem.layout import SHARED_BASE
    from repro.runtime.threads import thread_fork, thread_join

    def main(g):
        def w(g2):
            g2.store(SHARED_BASE, 1)
        thread_fork(g, 1, w)
        try:
            g.get(1, regs=True, merge=(SHARED_BASE + 1, PAGE_SIZE))  # misaligned
        except ValueError:
            pass
        before = len(g.machine.merge_stats_total)
        thread_join(g, 1)
        return (before, len(g.machine.merge_stats_total))

    with Machine() as m:
        assert m.run(main).r0 == (0, 1)
