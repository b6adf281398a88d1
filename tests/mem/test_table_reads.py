"""Complexity guards: memory operations cost what they touch.

Each operation below names a handful of pages but runs against page
tables of 4 096 entries.  A counting ``dict`` subclass swapped in for
``AddressSpace._pages`` charges one read per lookup and ``len(table)``
reads per traversal, so a whole-table scan costs thousands where the
operation may spend a small multiple of the pages it names.  Counts, not
wall-clock: these cannot flake.
"""

import pytest

from repro.mem import AddressSpace, PAGE_SIZE, PERM_RW, Snapshot, merge_range

TABLE = 4096
BASE = 0x4000_0000     # vpns far above the table size, as in a guest
#: Page-table reads allowed per page an operation names.
PER_PAGE = 4


class CountingTable(dict):
    """A page table that counts what is read from it."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)

    def pop(self, *args):
        self.reads += 1
        return super().pop(*args)

    def __iter__(self):
        self.reads += len(self)
        return super().__iter__()

    def keys(self):
        self.reads += len(self)
        return super().keys()

    def values(self):
        self.reads += len(self)
        return super().values()

    def items(self):
        self.reads += len(self)
        return super().items()


def addr(page):
    return BASE + page * PAGE_SIZE


@pytest.fixture
def family():
    """A 4 096-page parent, its copy-on-write child and the child's
    reference snapshot over the whole table."""
    parent = AddressSpace()
    for page in range(TABLE):
        parent.write(addr(page), b"p")
    child = AddressSpace()
    child.copy_range_from(parent, BASE, BASE, TABLE * PAGE_SIZE)
    snapshot = Snapshot.capture(child, BASE, TABLE * PAGE_SIZE)
    return parent, child, snapshot


def count_reads(*spaces):
    tables = []
    for space in spaces:
        space._pages = CountingTable(space._pages)
        tables.append(space._pages)
    return tables


def test_the_counting_table_sees_a_scan():
    space = AddressSpace()
    for page in range(TABLE):
        space.write(addr(page), b"p")
    (table,) = count_reads(space)
    assert space.mapped_vpns() == sorted(table)
    assert table.reads >= TABLE


def test_one_page_adoption_reads_one_page(family):
    parent, child, snapshot = family
    child.write(addr(1234), b"c")
    parent_table, child_table = count_reads(parent, child)
    stats = merge_range(parent, child, snapshot)
    assert parent_table.reads <= PER_PAGE
    assert child_table.reads <= PER_PAGE
    assert (stats.pages_scanned, stats.pages_adopted) == (1, 1)
    vpn = addr(1234) // PAGE_SIZE
    assert parent.frame(vpn) is child.frame(vpn)


def test_one_page_copy_reads_one_page(family):
    parent, child, _ = family
    parent.write(addr(77), b"new")
    parent_table, child_table = count_reads(parent, child)
    assert child.copy_range_from(parent, addr(77), addr(77), PAGE_SIZE) == 1
    assert parent_table.reads <= PER_PAGE
    assert child_table.reads <= PER_PAGE


def test_eight_page_capture_reads_eight_pages(family):
    _, child, _ = family
    (table,) = count_reads(child)
    snapshot = Snapshot.capture(child, addr(512), 8 * PAGE_SIZE)
    assert snapshot.page_count() == 8
    assert table.reads <= 8 * PER_PAGE


def test_tracked_merge_of_four_dirty_pages_reads_four_pages(family):
    parent, child, snapshot = family
    for page in (10, 2000):             # child only: adopted
        child.write(addr(page), b"c")
    for page in (11, 4000):             # both sides, disjoint bytes: diffed
        child.write(addr(page), b"c")
        parent.write(addr(page) + 64, b"q")
    parent_table, child_table = count_reads(parent, child)
    stats = merge_range(parent, child, snapshot)
    assert (stats.pages_scanned, stats.pages_adopted, stats.pages_diffed) \
        == (4, 2, 2)
    assert parent_table.reads <= 4 * PER_PAGE
    assert child_table.reads <= 4 * PER_PAGE


def test_whole_range_write_probes_each_page_once_and_sweeps_perms_once(family):
    """``write`` is linear in the pages its byte range overlaps: one
    page-table probe per page (the ledger and the counters are updated
    once per call, not per page) and one sweep of the permissions."""
    _, child, _ = family
    npages = 64
    child.set_perm(addr(100), 8 * PAGE_SIZE, PERM_RW)
    (pages,) = count_reads(child)
    perms = child._perms = CountingTable(child._perms)
    # unaligned on both ends: npages - 1 whole pages and two partial ones
    events = child.write(addr(96) + 100, bytes(npages * PAGE_SIZE),
                         check_perm=True)
    assert events == npages + 1                 # every page was shared
    assert pages.reads <= (npages + 1) + 2
    assert perms.reads <= (npages + 1) + 8      # a probe per page + the hits


def test_one_page_write_against_a_large_permission_table_reads_one_page(family):
    _, child, _ = family
    child.set_perm(BASE, TABLE * PAGE_SIZE, PERM_RW)
    (pages,) = count_reads(child)
    perms = child._perms = CountingTable(child._perms)
    assert child.write(addr(1234) + 8, b"one page", check_perm=True) == 1
    assert pages.reads <= PER_PAGE
    assert perms.reads <= PER_PAGE
