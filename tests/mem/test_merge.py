"""Unit tests for snapshots and the three-way byte merge."""

import pytest

from repro.common.errors import MergeConflictError
from repro.mem import AddressSpace, PAGE_SIZE, Snapshot, merge_range
from repro.mem.merge import MergeStats


def fork_pair(addr=0x1000, size=4 * PAGE_SIZE, init=b""):
    """Parent with ``init`` at addr, child COW-copied, snapshot captured."""
    parent = AddressSpace()
    if init:
        parent.write(addr, init)
    child = AddressSpace()
    child.copy_range_from(parent, addr, addr, size)
    snap = Snapshot.capture(child, addr, size)
    return parent, child, snap


def test_snapshot_capture_shares_frames():
    parent, child, snap = fork_pair(init=b"hello")
    assert snap.frame(1) is parent.frame(1)
    assert snap.page_count() == 1


def test_merge_child_change_propagates():
    parent, child, snap = fork_pair(init=b"aaaa")
    child.write(0x1000, b"bbbb")
    stats = merge_range(parent, child, snap)
    assert parent.read(0x1000, 4) == b"bbbb"
    # Parent unchanged -> the whole frame is adopted copy-on-write: a
    # remap, no bytes copied.
    assert stats.pages_adopted == 1
    assert stats.bytes_merged == 0


def test_merge_counts_bytes_on_both_sides_dirty_pages():
    """When the parent also changed, only differing bytes are written."""
    parent, child, snap = fork_pair(init=b"0123456789")
    parent.write(0x1000 + 8, b"PP")     # parent changes bytes 8-9
    child.write(0x1000, b"bbbb")        # child changes bytes 0-3
    stats = merge_range(parent, child, snap)
    assert parent.read(0x1000, 10) == b"bbbb4567PP"
    assert stats.pages_diffed == 1
    assert stats.bytes_merged == 4
    # Plain ints, not numpy scalars: the stats ride in JSON reports and
    # pickled hand-backs.
    assert {type(getattr(stats, name)) for name in stats.__slots__
            if name != "written_vpns"} == {int}
    assert [type(vpn) for vpn in stats.written_vpns] == [int]


def test_merge_untouched_pages_skipped_fast():
    parent, child, snap = fork_pair(init=b"data")
    stats = merge_range(parent, child, snap)
    assert stats.pages_diffed == 0
    assert stats.bytes_merged == 0


def test_merge_preserves_parent_changes_elsewhere():
    parent, child, snap = fork_pair(init=b"0123456789")
    parent.write(0x1000, b"P")          # parent changes byte 0
    child.write(0x1001, b"C")           # child changes byte 1
    merge_range(parent, child, snap)
    assert parent.read(0x1000, 2) == b"PC"


def test_merge_conflict_same_byte():
    parent, child, snap = fork_pair(init=b"xy")
    parent.write(0x1000, b"A")
    child.write(0x1000, b"B")
    with pytest.raises(MergeConflictError) as err:
        merge_range(parent, child, snap)
    assert err.value.addr == 0x1000


def test_strict_merge_conflicts_even_on_identical_values():
    parent, child, snap = fork_pair(init=b"xy")
    parent.write(0x1000, b"Z")
    child.write(0x1000, b"Z")
    with pytest.raises(MergeConflictError):
        merge_range(parent, child, snap, mode="strict")


def test_lenient_merge_tolerates_identical_values():
    parent, child, snap = fork_pair(init=b"xy")
    parent.write(0x1000, b"Z")
    child.write(0x1000, b"Z")
    stats = merge_range(parent, child, snap, mode="lenient")
    assert parent.read(0x1000, 1) == b"Z"
    assert stats.pages_diffed == 1


def test_lenient_merge_still_conflicts_on_different_values():
    parent, child, snap = fork_pair(init=b"xy")
    parent.write(0x1000, b"A")
    child.write(0x1000, b"B")
    with pytest.raises(MergeConflictError):
        merge_range(parent, child, snap, mode="lenient")


def test_merge_swap_is_race_free():
    """The paper's x=y / y=x example (§2.2): two children swap via merge."""
    parent = AddressSpace()
    parent.write(0x1000, (7).to_bytes(4, "little") + (9).to_bytes(4, "little"))
    children = []
    for _ in range(2):
        child = AddressSpace()
        child.copy_range_from(parent, 0x1000, 0x1000, PAGE_SIZE)
        snap = Snapshot.capture(child, 0x1000, PAGE_SIZE)
        children.append((child, snap))
    # Child 0 runs x = y; child 1 runs y = x.
    c0, _ = children[0]
    c1, _ = children[1]
    y = c0.read(0x1004, 4)
    c0.write(0x1000, y)
    x = c1.read(0x1000, 4)
    c1.write(0x1004, x)
    for child, snap in children:
        merge_range(parent, child, snap)
    assert int.from_bytes(parent.read(0x1000, 4), "little") == 9
    assert int.from_bytes(parent.read(0x1004, 4), "little") == 7


def test_sequential_merges_conflict_across_siblings():
    """Second sibling writing the same byte conflicts at its join (§4.4)."""
    parent = AddressSpace()
    parent.write(0x1000, b"\x00" * 8)
    sibs = []
    for _ in range(2):
        child = AddressSpace()
        child.copy_range_from(parent, 0x1000, 0x1000, PAGE_SIZE)
        snap = Snapshot.capture(child, 0x1000, PAGE_SIZE)
        sibs.append((child, snap))
    sibs[0][0].write(0x1002, b"\x11")
    sibs[1][0].write(0x1002, b"\x22")
    merge_range(parent, sibs[0][0], sibs[0][1])
    with pytest.raises(MergeConflictError):
        merge_range(parent, sibs[1][0], sibs[1][1])


def test_merge_whole_frame_adoption_when_parent_unchanged():
    parent, child, snap = fork_pair(init=b"base")
    child.write(0x1000, b"newvalue")
    stats = merge_range(parent, child, snap)
    assert stats.pages_adopted == 1
    assert stats.pages_diffed == 0
    assert parent.read(0x1000, 8) == b"newvalue"


def test_merge_range_must_lie_within_snapshot():
    parent, child, snap = fork_pair()
    with pytest.raises(ValueError):
        merge_range(parent, child, snap, addr=0x100000, size=PAGE_SIZE)


@pytest.mark.parametrize("addr, size, match", [
    (0x1000, PAGE_SIZE + 1, "page-aligned"),
    (0x1001, PAGE_SIZE, "page-aligned"),
    (0x4000, 2 * PAGE_SIZE,
     r"merge range 0x4000\+0x2000 outside snapshot range"),
], ids=["size", "addr", "past-the-end"])
def test_a_malformed_merge_range_is_refused_naming_it(addr, size, match):
    """Either half unaligned is refused, and so is a range that starts
    inside the snapshot but runs past its end — before anything
    merges."""
    parent, child, snap = fork_pair()
    child.write(0x1000, b"c")
    with pytest.raises(ValueError, match=match):
        merge_range(parent, child, snap, addr=addr, size=size)
    assert parent.read(0x1000, 1) == bytes(1)


def test_an_empty_range_at_the_snapshot_start_merges_nothing():
    parent, child, snap = fork_pair()
    child.write(0x1000, b"c")
    assert merge_range(parent, child, snap, addr=0x1000, size=0) \
        == MergeStats()
    assert parent.read(0x1000, 1) == bytes(1)


def test_merge_stats_count_each_candidate_once_and_compare_by_value():
    parent, child, snap = fork_pair(init=b"aaaa")
    child.write(0x1000, b"b")
    child.write(0x3000, b"c")
    stats = merge_range(parent, child, snap)
    assert (stats.pages_scanned, stats.pages_adopted, stats.pages_diffed) \
        == (2, 2, 0)
    assert MergeStats() == MergeStats() != stats
    assert MergeStats() != 0


def test_merge_subrange_only():
    parent, child, snap = fork_pair(init=b"\x00" * 16)
    child.write(0x1000, b"\x01")
    child.write(0x2000, b"\x02")
    merge_range(parent, child, snap, addr=0x1000, size=PAGE_SIZE)
    assert parent.read(0x1000, 1) == b"\x01"
    assert parent.read(0x2000, 1) == bytes(1)  # outside merged subrange


def test_merge_handles_demand_zero_child_pages():
    """Child writes to a page that was unmapped in parent and snapshot."""
    parent = AddressSpace()
    child = AddressSpace()
    child.copy_range_from(parent, 0x1000, 0x1000, 2 * PAGE_SIZE)
    snap = Snapshot.capture(child, 0x1000, 2 * PAGE_SIZE)
    child.write(0x2000, b"fresh")
    merge_range(parent, child, snap)
    assert parent.read(0x2000, 5) == b"fresh"


def test_snapshot_release_drops_refs():
    parent, child, snap = fork_pair(init=b"x")
    frame = parent.frame(1)
    before = frame.refs
    snap.release()
    assert frame.refs == before - 1
