"""Unit tests for copy-on-write address spaces."""

import numpy as np
import pytest

from repro.common.errors import PageFaultError, PermissionFault
from repro.mem import (
    AddressSpace,
    PAGE_SHIFT,
    PAGE_SIZE,
    PERM_NONE,
    PERM_R,
    PERM_RW,
    PERM_W,
    VA_SIZE,
    Snapshot,
)


@pytest.fixture
def space():
    return AddressSpace()


def test_read_unmapped_returns_zeros(space):
    assert space.read(0x1000, 16) == bytes(16)
    assert space.mapped_page_count() == 0


def test_write_then_read_roundtrip(space):
    space.write(0x2000, b"hello world")
    assert space.read(0x2000, 11) == b"hello world"


def test_write_spanning_pages(space):
    addr = 0x3000 + PAGE_SIZE - 4
    space.write(addr, b"abcdefgh")
    assert space.read(addr, 8) == b"abcdefgh"
    assert space.mapped_page_count() == 2


def test_write_counts_demand_zero_events(space):
    events = space.write(0x1000, b"x" * (2 * PAGE_SIZE))
    assert events == 2
    assert space.counters.demand_zero == 2


def test_out_of_range_access_rejected(space):
    with pytest.raises(PageFaultError):
        space.read(VA_SIZE - 4, 8)
    with pytest.raises(PageFaultError):
        space.write(VA_SIZE, b"x")


def test_the_address_range_is_checked_at_its_edges(space):
    """The last byte of the address space is addressable; one byte
    before address 0 and a negative size are not."""
    space.write(VA_SIZE - 1, b"z")
    assert space.read(VA_SIZE - 1, 1) == b"z"
    assert space.read(VA_SIZE - PAGE_SIZE, PAGE_SIZE)[-1:] == b"z"
    with pytest.raises(PageFaultError):
        space.read(-1, 1)
    with pytest.raises(ValueError, match="negative size"):
        space.read(0x1000, -1)


def test_counters_count_what_each_operation_did(space):
    assert space.counters.snapshot() == {
        "cow_breaks": 0, "demand_zero": 0, "pages_shared": 0,
        "pages_zeroed": 0}
    space.as_array(0x1000, 8)                    # a read view demand-zeroes
    assert space.counters.demand_zero == 1
    space.write(0x2000, b"x" * (3 * PAGE_SIZE))
    assert space.clone().counters.pages_shared == 4
    assert space.zero_range(0x2000, 2 * PAGE_SIZE) == 2
    assert space.counters.pages_zeroed == 2


def test_copy_range_shares_frames_cow(space):
    src = AddressSpace()
    src.write(0x1000, b"shared-data")
    space.copy_range_from(src, 0x1000, 0x1000, PAGE_SIZE)
    assert space.frame(1) is src.frame(1)
    assert space.frame(1).refs == 2
    assert space.read(0x1000, 11) == b"shared-data"


def test_cow_break_on_write_after_copy(space):
    src = AddressSpace()
    src.write(0x1000, b"original")
    space.copy_range_from(src, 0x1000, 0x1000, PAGE_SIZE)
    space.write(0x1000, b"modified")
    assert src.read(0x1000, 8) == b"original"
    assert space.read(0x1000, 8) == b"modified"
    assert space.counters.cow_breaks == 1
    assert src.frame(1).refs == 1


def test_copy_range_to_different_destination(space):
    src = AddressSpace()
    src.write(0, b"page-zero")
    space.copy_range_from(src, 0, 0x5000, PAGE_SIZE)
    assert space.read(0x5000, 9) == b"page-zero"


def test_copy_range_unmapped_source_unmaps_destination(space):
    src = AddressSpace()
    space.write(0x1000, b"stale")
    space.copy_range_from(src, 0x1000, 0x1000, PAGE_SIZE)
    assert space.read(0x1000, 5) == bytes(5)
    assert space.mapped_page_count() == 0


def test_copy_range_requires_alignment(space):
    src = AddressSpace()
    with pytest.raises(ValueError):
        space.copy_range_from(src, 0x10, 0x1000, PAGE_SIZE)
    with pytest.raises(ValueError):
        space.copy_range_from(src, 0x1000, 0x1000, 100)


def test_zero_range_clears(space):
    space.write(0x1000, b"junk")
    space.zero_range(0x1000, PAGE_SIZE)
    assert space.read(0x1000, 4) == bytes(4)
    assert space.mapped_page_count() == 0


def test_permission_fault_on_read(space):
    space.write(0x1000, b"secret")
    space.set_perm(0x1000, PAGE_SIZE, PERM_NONE)
    with pytest.raises(PermissionFault):
        space.read(0x1000, 6, check_perm=True)


def test_permission_fault_on_write_to_readonly(space):
    space.write(0x1000, b"ro")
    space.set_perm(0x1000, PAGE_SIZE, PERM_R)
    with pytest.raises(PermissionFault):
        space.write(0x1000, b"xx", check_perm=True)
    # Reads still work.
    assert space.read(0x1000, 2, check_perm=True) == b"ro"


def test_write_requires_the_writable_bit_specifically(space):
    """Regression: the write check tests PERM_W explicitly — a page with
    any permission lacking the W bit must reject writes, and a W-only
    page must accept them while rejecting reads."""
    space.write(0x1000, b"ro")
    for perm in (PERM_NONE, PERM_R):
        space.set_perm(0x1000, PAGE_SIZE, perm)
        with pytest.raises(PermissionFault):
            space.write(0x1000, b"xx", check_perm=True)
    space.set_perm(0x1000, PAGE_SIZE, PERM_W)
    space.write(0x1000, b"ok", check_perm=True)      # write-only: allowed
    with pytest.raises(PermissionFault):
        space.read(0x1000, 2, check_perm=True)
    assert PERM_RW == PERM_R | PERM_W


def test_copy_range_applies_perm_to_already_shared_pages(space):
    """Regression: Copy-with-Perm must update permissions even on pages
    where source and destination already share the identical frame
    (Put applies Perm after its Copy, as here)."""
    src = AddressSpace()
    src.write(0x1000, b"shared")
    space.copy_range_from(src, 0x1000, 0x1000, PAGE_SIZE)
    assert space.frame(1) is src.frame(1)
    # Second copy of the same range, now requesting read-only.
    space.copy_range_from(src, 0x1000, 0x1000, PAGE_SIZE)
    space.set_perm(0x1000, PAGE_SIZE, PERM_R)
    assert space.frame(1) is src.frame(1)
    assert space.perm(1) == PERM_R
    with pytest.raises(PermissionFault):
        space.write(0x1000, b"x", check_perm=True)


def test_perm_not_checked_without_flag(space):
    space.write(0x1000, b"data")
    space.set_perm(0x1000, PAGE_SIZE, PERM_NONE)
    assert space.read(0x1000, 4) == b"data"


def test_clone_is_cow(space):
    space.write(0x1000, b"base")
    twin = space.clone()
    twin.write(0x1000, b"diff")
    assert space.read(0x1000, 4) == b"base"
    assert twin.read(0x1000, 4) == b"diff"


def test_drop_all_releases_references(space):
    src = AddressSpace()
    src.write(0x1000, b"x")
    space.copy_range_from(src, 0x1000, 0x1000, PAGE_SIZE)
    assert src.frame(1).refs == 2
    space.drop_all()
    assert src.frame(1).refs == 1
    assert space.mapped_page_count() == 0


def test_as_array_single_page_view_is_read_only(space):
    """Zero-copy (a later write shows through) but never a way in: a
    frame may be shared copy-on-write, so a store through the view would
    bypass the COW break and the dirty ledger."""
    space.write(0x1000, bytes(range(16)))
    arr = space.as_array(0x1000, 16)
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0] = 0xEE
    space.write(0x1000, b"\xee")
    assert arr[0] == 0xEE


def test_as_array_reads_from_any_offset_within_a_page(space):
    space.write(0x1000, bytes(range(16)))
    assert space.as_array(0x1001, 3).tolist() == [1, 2, 3]
    assert space.as_array(0x1007, 1).tolist() == [7]
    # A range ending on the page's last byte is still a view of it.
    tail = space.as_array(0x1000 + PAGE_SIZE - 4, 4)
    assert np.shares_memory(tail, np.frombuffer(space.frame(1).data,
                                                dtype=np.uint8))


def test_as_array_multi_page_readonly_copy(space):
    space.write(0x1000, b"a" * (2 * PAGE_SIZE))
    arr = space.as_array(0x1000, 2 * PAGE_SIZE)
    assert len(arr) == 2 * PAGE_SIZE
    assert not arr.flags.writeable


def test_view_respects_page_permissions(space):
    """A checked view is a read: it honors the PERM_R bit exactly like
    AddressSpace.read does."""
    space.write(0x1000, b"protected")
    space.set_perm(0x1000, PAGE_SIZE, PERM_R)
    assert bytes(space.as_array(0x1000, 9, check_perm=True)) == b"protected"
    space.set_perm(0x1000, PAGE_SIZE, PERM_NONE)
    with pytest.raises(PermissionFault):
        space.as_array(0x1000, 8, check_perm=True)
    # Unchecked access (kernel-internal use) still works.
    assert len(space.as_array(0x1000, 8)) == 8


# -- the bulk read path ------------------------------------------------------

def _image(space, base, npages):
    """Distinct bytes on every page of ``[base, base + npages pages)``;
    returns the expected flat image."""
    image = bytearray()
    for page in range(npages):
        data = bytes((page * 7 + i) % 251 for i in range(PAGE_SIZE))
        space.write(base + page * PAGE_SIZE, data)
        image += data
    return image


def test_read_unaligned_start_and_end_across_pages(space):
    image = _image(space, 0x4000, 4)
    for start, size in [(5, 3 * PAGE_SIZE + 11), (PAGE_SIZE - 1, 2),
                        (17, 40), (PAGE_SIZE + 9, PAGE_SIZE)]:
        assert space.read(0x4000 + start, size) == image[start:start + size]


def test_read_fills_unmapped_holes_with_zeros(space):
    image = _image(space, 0x4000, 5)
    for hole in (1, 3):
        space.zero_range(0x4000 + hole * PAGE_SIZE, PAGE_SIZE)
        image[hole * PAGE_SIZE:(hole + 1) * PAGE_SIZE] = bytes(PAGE_SIZE)
    assert space.read(0x4000 + 100, 5 * PAGE_SIZE - 200) == image[100:-100]
    # A read that starts and ends inside holes, and one entirely in one.
    assert space.read(0x5000 + 9, 2 * PAGE_SIZE + 9) == \
        image[PAGE_SIZE + 9:3 * PAGE_SIZE + 18]
    assert space.read(0x5000 + 9, 30) == bytes(30)
    assert space.mapped_page_count() == 3          # reads map nothing


def test_read_ending_exactly_on_a_page_boundary(space):
    image = _image(space, 0x4000, 3)
    assert space.read(0x4000 + 77, 2 * PAGE_SIZE - 77) == image[77:2 * PAGE_SIZE]
    assert space.read(0x4000, 3 * PAGE_SIZE) == image
    assert space.read(0x4000 + PAGE_SIZE - 1, 1) == image[PAGE_SIZE - 1:PAGE_SIZE]
    assert space.read(0x4000, 0) == b""


def test_read_permission_fault_names_the_first_offending_address(space):
    _image(space, 0x4000, 4)
    space.set_perm(0x6000, PAGE_SIZE, PERM_W)          # third page: no R
    with pytest.raises(PermissionFault) as fault:
        space.read(0x4000 + 5, 4 * PAGE_SIZE - 5, check_perm=True)
    assert (fault.value.addr, fault.value.needed) == (0x6000, "read")
    # A fault on the first page names the unaligned start, not its page.
    with pytest.raises(PermissionFault) as fault:
        space.read(0x6000 + 5, 100, check_perm=True)
    assert fault.value.addr == 0x6000 + 5
    # An unmapped page can be unreadable too; pages before it are fine.
    space.set_perm(0x9000, PAGE_SIZE, PERM_NONE)
    with pytest.raises(PermissionFault) as fault:
        space.read(0x7000 + 1, 3 * PAGE_SIZE, check_perm=True)
    assert fault.value.addr == 0x9000
    assert space.read(0x7000 + 1, 2 * PAGE_SIZE - 1, check_perm=True)
    # Unchecked reads ignore permissions altogether.
    assert len(space.read(0x4000 + 5, 4 * PAGE_SIZE - 5)) == 4 * PAGE_SIZE - 5
    # An empty read touches no page, so it cannot fault.
    assert space.read(0x6000 + 5, 0, check_perm=True) == b""


def test_mutable_read_returns_a_private_bytearray(space):
    image = _image(space, 0x4000, 2)
    frame = space.frame(4)
    generation = frame.generation
    for addr, size in [(0x4000 + 3, 10), (0x4000 + 3, PAGE_SIZE + 10)]:
        out = space.read(addr, size, mutable=True)
        assert type(out) is bytearray and out == image[3:3 + size]
        out[0] ^= 0xFF
        assert space.read(addr, size) == image[3:3 + size]
    assert type(space.read(0x4000, 0, mutable=True)) is bytearray
    assert type(space.read(0x4000, 8)) is bytes
    assert frame.generation == generation and space.frame(4) is frame


# -- range enumeration --------------------------------------------------------

def test_mapped_vpns_in_is_sorted_on_both_sides_of_the_rule(space):
    for vpn in (40, 9, 23, 8, 31):              # unsorted insertion order
        space.write(vpn * PAGE_SIZE, b"x")
    # narrower than the table: probed
    assert space.mapped_vpns_in(8, 10) == [8, 9]
    assert space.mapped_vpns_in(10, 12) == []
    # wider than the table: scanned
    assert space.mapped_vpns_in(9, 41) == [9, 23, 31, 40]
    assert space.mapped_vpns_in(0, 1 << 19) == [8, 9, 23, 31, 40]
    assert space.mapped_vpns_in(12, 12) == []


def test_zero_range_drops_permissions_inside_the_range_only(space):
    space.set_perm(0x1000, 8 * PAGE_SIZE, PERM_R)
    space.zero_range(0x3000, 2 * PAGE_SIZE)            # narrow: probed
    assert [space.perm(vpn) for vpn in range(1, 9)] == \
        [PERM_R, PERM_R, PERM_RW, PERM_RW, PERM_R, PERM_R, PERM_R, PERM_R]
    space.zero_range(0x2000, 64 * PAGE_SIZE)           # wide: scanned
    assert [space.perm(vpn) for vpn in range(1, 9)] == [PERM_R] + [PERM_RW] * 7


# -- a write moves the buffer's bytes, whatever its item size ----------------

WIDE = np.arange(1, 5, dtype=np.int64)          # 4 elements, 32 bytes


@pytest.mark.parametrize("shape", [
    lambda a: a, memoryview, lambda a: a.reshape(2, 2), lambda a: a.tobytes(),
    lambda a: memoryview(a.reshape(2, 2).T),    # not C-contiguous
    lambda a: list(a.tobytes()),                # no buffer at all
], ids=["ndarray", "memoryview", "2d", "bytes", "strided", "list"])
def test_write_goes_by_the_byte_length_of_the_buffer(space, shape):
    data = shape(WIDE)
    space.write(0x1000 + PAGE_SIZE - 8, data)   # 8 bytes here, 24 over the edge
    want = bytes(memoryview(data)) if not isinstance(data, list) else bytes(data)
    assert len(want) == 32
    assert space.read(0x1000 + PAGE_SIZE - 8, 32) == want
    assert space.read(0x1000 + PAGE_SIZE + 24, 8) == bytes(8)
    assert [len(space.frame(vpn).data) for vpn in space.mapped_vpns()] \
        == [PAGE_SIZE, PAGE_SIZE]


def test_write_range_check_uses_the_byte_length(space):
    with pytest.raises(PageFaultError):
        space.write(VA_SIZE - 8, memoryview(WIDE))      # 4 items, 32 bytes
    assert space.mapped_page_count() == 0


def test_frames_stay_page_sized_after_every_kind_of_write(space):
    pinned = AddressSpace()
    space.write(0x5000, b"seed" * 2048)                 # two whole pages
    pinned.copy_range_from(space, 0x5000, 0x5000, 2 * PAGE_SIZE)
    for addr, data in [(0x5000, bytes(PAGE_SIZE)),              # whole, COW
                       (0x5ffc, WIDE),                          # partial, wide
                       (0x6000, memoryview(WIDE)),              # private hit
                       (0x8000 - 3, np.ones(PAGE_SIZE + 6, dtype=np.uint16))]:
        space.write(addr, data)
        assert {len(space.frame(vpn).data) for vpn in space.mapped_vpns()} \
            == {PAGE_SIZE}
    assert pinned.read(0x5000, 8) == b"seedseed"


#: A page-aligned base for the re-Put and refcount cases below.
VPN = 0x40


def test_a_reput_repins_what_it_remaps_and_then_the_childs_writes():
    """One barrier round's re-Put, every kind of page at once: in sync,
    re-written by the parent, adopted from the child by Merge, unmapped
    by the parent, a zero frame a read view left in the child, and a
    child write outside the range."""
    base = VPN << PAGE_SHIFT
    parent, child = AddressSpace(), AddressSpace()
    for page in range(5):
        parent.write(base + page * PAGE_SIZE, bytes([page + 1]))
    child.copy_range_from(parent, base, base, 6 * PAGE_SIZE)
    snap = Snapshot.capture(child, base, 6 * PAGE_SIZE)
    old = [parent.frame(VPN + page) for page in range(5)]
    child.write(base + PAGE_SIZE, b"c")                  # COW break
    child.write(base + 8 * PAGE_SIZE, b"x")              # outside
    child.as_array(base + 5 * PAGE_SIZE, 4)              # zero frame
    zero = child.frame(VPN + 5)
    parent.write(base + 2 * PAGE_SIZE, b"p")             # COW break
    parent.adopt_frames([(VPN + 1, child.frame(VPN + 1))])
    parent.zero_range(base + 4 * PAGE_SIZE, PAGE_SIZE)
    shared, clock = child.counters.pages_shared, child.dirty_token()
    # Remapped: 2, 4 and 5 (one re-pinned); the child's writes since
    # the Snap: 1 (re-pinned) and 8 (outside, walked only).
    assert child.copy_range_from(parent, base, base, 6 * PAGE_SIZE,
                                 snap=snap) == (2, 5)
    assert {vpn - VPN: frame for vpn, frame in snap._frames.items()} == {
        page: child.frame(VPN + page) for page in range(4)}
    assert [snap.frame(VPN + page).refs for page in range(4)] == [3] * 4
    assert [frame.refs for frame in old[1:3] + old[4:]] == [0, 0, 0]
    assert zero.refs == 0
    assert child.counters.pages_shared == shared + 3
    assert list(child._dirty.items())[-3:] == [
        (VPN + 2, clock + 1), (VPN + 4, clock + 2), (VPN + 5, clock + 3)]
    assert snap._token == child.dirty_token() == clock + 3


@pytest.mark.parametrize("refs", [1, 0])
@pytest.mark.parametrize("where",
                         ["copy", "repin", "adopt", "drop_all", "release"])
def test_the_inline_reference_drops_keep_the_underflow_check(where, refs):
    """The reference drops that skip ``Page.decref``'s call keep its
    check, where the Copy unmaps a frame, where the re-Put re-pins over
    one, where Merge's adoption replaces one and where a space or a
    snapshot lets its frames go: a frame's last reference drops to 0,
    and a frame with none left is refused."""
    addr = VPN << PAGE_SHIFT
    parent, child = AddressSpace(), AddressSpace()
    parent.write(addr, b"p")
    child.write(addr, b"c")
    snap = Snapshot.capture(child, addr, PAGE_SIZE)
    child.write(addr, b"d")     # a COW break: frame and pin, one ref each
    frame = (snap if where in ("repin", "release") else child).frame(VPN)
    frame.refs = refs
    drop = {
        "copy": lambda: child.copy_range_from(parent, addr, addr, PAGE_SIZE),
        "repin": lambda: child.copy_range_from(parent, addr, addr, PAGE_SIZE,
                                               snap=snap),
        "adopt": lambda: child.adopt_frames([(VPN, parent.frame(VPN))]),
        "drop_all": child.drop_all,
        "release": snap.release,
    }[where]
    if refs:
        drop()
        assert frame.refs == 0
    else:
        with pytest.raises(AssertionError, match="page refcount underflow"):
            drop()


