"""Complexity guards: a fork/join round trip pays each range once.

``Put(copy=R, snap=R)`` into a fresh child enumerates R once — the Snap
pins the frames the Copy just mapped, at the vpns the Copy names — and
the Get that merges a child which wrote nothing since its Snap asks the
dirty ledger once, reads none of its entries and no page table of the
parent.  The same Put into a child that already holds a snapshot of R
(a barrier round's re-Put) re-pins what its Copy remaps in the Copy's
own pass, so it reads from the child's ledger only the child's own
writes since its Snap, never an entry the Copy just wrote.  Counting stand-ins for a page table and a ledger hold that
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


class RecordingLedger(dict):
    """A dirty ledger that records the stamp of every entry a reader
    walks back through (``dirty_since`` walks ``reversed(items())``
    from the newest entry to the first at or before its token)."""

    def __init__(self, entries):
        super().__init__(entries)
        self.stamps = []

    def items(self):
        return _Walk(self)


class _Walk:
    def __init__(self, ledger):
        self.ledger = ledger

    def __reversed__(self):
        for vpn, stamp in reversed(dict.items(self.ledger)):
            self.ledger.stamps.append(stamp)
            yield vpn, stamp


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


def test_a_reput_reads_only_the_childs_own_writes_from_its_ledger(round_trip):
    machine, parent, child, ref, dst = round_trip
    size = PAGES * PAGE_SIZE
    put = machine.kernel.sys_put
    put(parent, ref, copy=(BASE, dst, size), snap=(dst, size))
    # The round: the child writes three pages, the parent five others.
    for page in (1, 2, 3):
        child.addrspace.write(dst + page * PAGE_SIZE, b"c")
    for page in range(8, 13):
        parent.addrspace.write(BASE + page * PAGE_SIZE, b"q")
    token = child.snapshot._token
    clock = child.addrspace.dirty_token()
    dirty = child.addrspace._dirty = RecordingLedger(child.addrspace._dirty)
    put(parent, ref, copy=(BASE, dst, size), snap=(dst, size))
    # The child's three writes, newest first, and the older entry that
    # ends the walk; none of the eight marks the Copy made.
    assert dirty.stamps[:3] == [clock, clock - 1, clock - 2]
    assert len(dirty.stamps) == 4 and dirty.stamps[3] <= token
    assert child.addrspace.dirty_token() == clock + 8
    assert all(child.snapshot.frame(vpn) is child.addrspace.frame(vpn)
               for vpn in range(dst // PAGE_SIZE, dst // PAGE_SIZE + PAGES))
