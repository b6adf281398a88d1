"""Complexity guards: a fork/join round trip pays each range once.

``Put(copy=R, snap=R)`` into a fresh child enumerates R once — the Snap
pins the frames the Copy just mapped, at the vpns the Copy names — and
the Get that merges a child which wrote nothing since its Snap asks the
dirty ledger once, reads none of its entries and no page table of the
parent.  Counting stand-ins for a page table and a ledger hold that
by count, as ``tests/mem/test_table_reads.py`` does for the memory
operations one by one.  Counts, not wall-clock: these cannot flake.
"""

import pytest

from repro.kernel import Machine, child_ref
from repro.mem import PAGE_SIZE

BASE = 0x10_0000
PAGES = 16


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

    def __iter__(self):
        self.reads += len(self)
        return super().__iter__()


class CountingLedger(CountingTable):
    """A dirty ledger that counts the entries read from it, whichever
    view they are read through."""

    def keys(self):
        self.reads += len(self)
        return super().keys()

    def values(self):
        self.reads += len(self)
        return super().values()

    def items(self):
        self.reads += len(self)
        return super().items()


@pytest.fixture(params=[(0, 0), (1, 0), (1, 3)],
                ids=["local", "remote", "remote-shifted"])
def round_trip(request):
    """A parent with ``PAGES`` written pages and a fresh child (on the
    parent's node or another one) whose page table counts its reads;
    the Copy + Snap range sits ``shift`` pages above the source."""
    node, shift = request.param
    machine = Machine(nnodes=2)
    parent = machine.new_space(None)
    machine.root = parent
    machine.trace.begin(parent.uid, node=0)
    for page in range(PAGES):
        parent.addrspace.write(BASE + page * PAGE_SIZE, b"p")
    ref = child_ref(1, node=node)
    child = machine.new_space(parent, home_node=node)
    parent.attach(ref, child)
    child.addrspace._pages = CountingTable()
    yield machine, parent, child, ref, BASE + shift * PAGE_SIZE
    machine.close()


def test_put_copy_and_snap_reads_the_child_table_once_per_page(round_trip):
    machine, parent, child, ref, dst = round_trip
    size = PAGES * PAGE_SIZE
    machine.kernel.sys_put(parent, ref, copy=(BASE, dst, size),
                           snap=(dst, size))
    assert child.addrspace._pages.reads <= PAGES
    assert child.snapshot.page_count() == PAGES
    assert all(child.snapshot.frame(vpn) is child.addrspace.frame(vpn)
               for vpn in range(dst // PAGE_SIZE, dst // PAGE_SIZE + PAGES))


def test_merging_an_unwritten_child_reads_no_ledger_event(round_trip):
    machine, parent, child, ref, dst = round_trip
    size = PAGES * PAGE_SIZE
    machine.kernel.sys_put(parent, ref, copy=(BASE, dst, size),
                           snap=(dst, size))
    dirty = child.addrspace._dirty = CountingLedger(child.addrspace._dirty)
    parent.addrspace._pages = CountingTable(parent.addrspace._pages)
    machine.kernel.sys_get(parent, ref, merge=True)
    assert dirty.reads == 0
    assert parent.addrspace._pages.reads == 0
    stats = machine.merge_stats_total[-1]
    assert (stats.pages_scanned, stats.pages_adopted, stats.pages_diffed) \
        == (0, 0, 0)
