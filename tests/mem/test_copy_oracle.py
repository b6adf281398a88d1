"""Differential oracle for the bulk Copy and for Merge's adoption remap.

``reference_copy`` is the per-page ``copy_range_from`` body this
repository shipped before the bulk rewrite (two table scans, a candidate
set, a sort, ``_map`` -> ``_mark_dirty`` per page), kept here as the
reference; the ledger it writes is the per-page ``reference_mark_dirty``
of ``page_oracle.py``, not the production loop.  Every hypothesis example builds the same world twice — random
sparse source/destination tables, frames the two already share, stale
permissions, a dirty ledger with history — runs the production operation
on one and the reference on the other, and requires the two worlds to be
indistinguishable: frame identity at every vpn, refcounts, ``_perms``,
the ledger (the clock, ``_dirty`` in order, and ``dirty_since`` of every
token, against the reference's mark history), ``MemCounters`` and the
return value.

The re-Put — Copy then Snap of one range over a snapshot of it — is
checked the same way against ``copy_range_from`` followed by
``reference_recapture``, the two-pass ``Snapshot.recapture`` body kept
verbatim below.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.kernel import Machine, child_ref
from repro.mem import (
    AddressSpace,
    FrameAllocator,
    PAGE_SHIFT,
    PAGE_SIZE,
    PERM_NONE,
    PERM_R,
    PERM_RW,
    Page,
    Snapshot,
)
from page_oracle import (
    ledger, reference_ledger, reference_mark_dirty, reference_unmap)

#: Tables live in ``[VPN0, VPN0 + UNIVERSE)``; ranges may be wider, so
#: both sides of the probe-or-scan rule are exercised.
VPN0 = 0x40
UNIVERSE = 24


# -- the reference: the old per-page Copy, verbatim in behaviour ------------


def _scan(table, vpn0, vpn1):
    return sorted(v for v in table if vpn0 <= v < vpn1)


def _reference_map(space, vpn, page, perm=None):
    old = space._pages.get(vpn)
    if old is not None:
        old.decref()
    space._pages[vpn] = page
    if perm is not None:
        space._perms[vpn] = perm
    reference_mark_dirty(space, vpn)


def reference_copy(dst, src, src_addr, dst_addr, size, perm=None):
    src_vpn0 = src_addr >> PAGE_SHIFT
    dst_vpn0 = dst_addr >> PAGE_SHIFT
    npages = size >> PAGE_SHIFT
    candidates = set(_scan(src._pages, src_vpn0, src_vpn0 + npages))
    shift = dst_vpn0 - src_vpn0
    candidates.update(
        v - shift for v in _scan(dst._pages, dst_vpn0, dst_vpn0 + npages)
    )
    touched = 0
    for svpn in sorted(candidates):
        i = svpn - src_vpn0
        spage = src._pages.get(src_vpn0 + i)
        dvpn = dst_vpn0 + i
        dpage = dst._pages.get(dvpn)
        if spage is None:
            if dpage is not None:
                dpage.decref()
                del dst._pages[dvpn]
                reference_mark_dirty(dst, dvpn)
                touched += 1
            dst._perms.pop(dvpn, None)
            if perm is not None:
                dst._perms[dvpn] = perm
            continue
        if spage is dpage:
            if perm is not None:
                dst._perms[dvpn] = perm
            continue
        _reference_map(dst, dvpn, spage.incref(), perm)
        dst.counters.pages_shared += 1
        touched += 1
    return touched


def reference_adopt(parent, child, vpn):
    """Merge's one-page adoption as it was: a one-page Copy, or
    ``unmap_page`` when the child dropped the page."""
    if child.frame(vpn) is None:
        reference_unmap(parent, vpn)
    else:
        reference_copy(parent, child, vpn << PAGE_SHIFT, vpn << PAGE_SHIFT,
                       PAGE_SIZE)


# -- worlds -----------------------------------------------------------------

vpn_offsets = st.integers(0, UNIVERSE - 1)
perm_values = st.sampled_from([PERM_NONE, PERM_R, PERM_RW])

worlds = st.fixed_dictionaries({
    # vpn offset -> True when the destination shares the source's frame
    "src_pages": st.dictionaries(vpn_offsets, st.booleans(), max_size=UNIVERSE),
    "dst_pages": st.sets(vpn_offsets, max_size=UNIVERSE),
    "dst_perms": st.dictionaries(vpn_offsets, perm_values, max_size=6),
    # destination ledger history before the call, repeats included
    "history": st.lists(vpn_offsets, max_size=160),
})


def mark_dirty(space, vpn):
    """Production's ledger mark of one page."""
    space._mark_dirty_many((vpn,))


class World:
    """One build of a drawn world.  Frames are labelled in creation
    order, so two builds of the same draw can be compared by label.
    ``mark`` writes the destination's ledger history: production's
    mark in the world production runs on, the per-page
    reference in the other, whose ledger is read from that history."""

    def __init__(self, draw, shift=0, same_space=False,
                 mark=mark_dirty):
        self.mark = mark
        self.ledger = reference_ledger if mark is reference_mark_dirty \
            else ledger
        self.dst = AddressSpace()
        self.src = self.dst if same_space else AddressSpace()
        self.frames = []
        for off in sorted(draw["dst_pages"]):
            self._place(self.dst, VPN0 + off, self._frame())
        for off, shared in sorted(draw["src_pages"].items()):
            frame = self._frame()
            self._place(self.src, VPN0 + off, frame)
            if shared and not same_space:
                self._place(self.dst, VPN0 + off + shift, frame)
        self.dst._perms.update(
            (VPN0 + off, perm) for off, perm in draw["dst_perms"].items())
        for off in draw["history"]:
            mark(self.dst, VPN0 + off)

    def _frame(self):
        frame = Page(bytes([len(self.frames) % 251]) * PAGE_SIZE)
        frame.decref()          # held by page tables only
        self.frames.append(frame)
        return frame

    def _place(self, space, vpn, frame):
        old = space._pages.get(vpn)
        if old is not None:
            old.decref()
        space._pages[vpn] = frame.incref()

    def observe(self, result):
        label = {id(frame): n for n, frame in enumerate(self.frames)}
        spaces = [self.dst] if self.src is self.dst else [self.dst, self.src]
        return {
            "result": result,
            "tables": [{vpn: label[id(frame)]
                        for vpn, frame in space._pages.items()}
                       for space in spaces],
            "refs": [frame.refs for frame in self.frames],
            "perms": [dict(space._perms) for space in spaces],
            "ledger": [self.ledger(space) for space in spaces],
            "counters": [space.counters.snapshot() for space in spaces],
        }


# -- Copy -------------------------------------------------------------------


@given(
    draw=worlds,
    start=st.integers(-4, UNIVERSE),
    npages=st.integers(0, UNIVERSE + 16),
    shift=st.integers(-6, 6),
    same_space=st.booleans(),
    enumerated=st.booleans(),
)
@settings(max_examples=250, deadline=None)
def test_bulk_copy_matches_the_per_page_reference(draw, start, npages, shift,
                                                  same_space, enumerated):
    src_addr = (VPN0 + start) << PAGE_SHIFT
    dst_addr = (VPN0 + start + shift) << PAGE_SHIFT
    size = npages << PAGE_SHIFT
    new = World(draw, shift, same_space)
    old = World(draw, shift, same_space, mark=reference_mark_dirty)
    # The kernel's Copy hands over the source enumeration it already made.
    src_vpns = new.src.mapped_vpns_in(
        VPN0 + start, VPN0 + start + npages) if enumerated else None
    got = new.dst.copy_range_from(new.src, src_addr, dst_addr, size,
                                  src_vpns=src_vpns)
    want = reference_copy(old.dst, old.src, src_addr, dst_addr, size)
    assert new.observe(got) == old.observe(want)


# -- adoption ---------------------------------------------------------------


@given(
    draw=worlds,
    offs=st.lists(vpn_offsets, max_size=UNIVERSE),
    dropped=st.sets(vpn_offsets, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_adopt_matches_the_one_page_reference_copy(draw, offs, dropped):
    """``adopt_frames`` of a list (any order, repeats allowed) against
    one reference adoption per page."""
    new, old = World(draw), World(draw, mark=reference_mark_dirty)
    for world in (new, old):
        for off in sorted(dropped):
            # the child dropped it
            reference_unmap(world.src, VPN0 + off, world.mark)
    vpns = [VPN0 + off for off in offs]
    new.dst.adopt_frames([(vpn, new.src.frame(vpn)) for vpn in vpns])
    for vpn in vpns:
        reference_adopt(old.dst, old.src, vpn)
    assert new.observe(None) == old.observe(None)


@given(draw=worlds, off=vpn_offsets)
@settings(max_examples=60, deadline=None)
def test_unmap_adoption_is_a_copy_that_keeps_permissions(draw, off):
    """Where the child dropped the page, adoption unmaps.  That agrees
    with a one-page Copy of the hole on mappings, refcounts and the
    ledger, and differs only where Merge must: permissions stay (Merge
    moves content, never permissions) and the drop counts as a zeroed
    page."""
    vpn = VPN0 + off
    new, old = World(draw), World(draw, mark=reference_mark_dirty)
    for world in (new, old):
        reference_unmap(world.src, vpn, world.mark)
    mapped = vpn in new.dst._pages
    new.dst.adopt_frames([(vpn, None)])
    reference_copy(old.dst, old.src, vpn << PAGE_SHIFT, vpn << PAGE_SHIFT,
                   PAGE_SIZE)
    got, want = new.observe(None), old.observe(None)
    for key in ("tables", "refs", "ledger"):
        assert got[key] == want[key]
    assert new.dst._perms.get(vpn) == draw["dst_perms"].get(off)
    if mapped:
        assert vpn not in old.dst._perms
    assert new.dst.counters.pages_zeroed == int(mapped)
    assert old.dst.counters.pages_zeroed == 0


# -- the re-Put -------------------------------------------------------------


def reference_recapture(snap, space):
    """``Snapshot.recapture`` as it was before the re-Put fused it into
    the Copy: one ledger read of everything written since the Snap —
    the Copy's own marks included — then one re-pin per vpn."""
    dirty = snap._dirty_since_capture(space)
    vpn0 = snap.addr >> PAGE_SHIFT
    vpn1 = vpn0 + (snap.size >> PAGE_SHIFT)
    frames, pages = snap._frames, space._pages
    repinned = 0
    for vpn in dirty:
        if not vpn0 <= vpn < vpn1:
            continue
        old = frames.pop(vpn, None)
        if old is not None:
            old.decref()
        frame = pages.get(vpn)
        if frame is not None:
            frames[vpn] = frame.incref()
            repinned += 1
    space.counters.pages_shared += repinned
    snap._token = space.dirty_token()
    return repinned, len(dirty)


#: What happens between two Puts: ``(op, offset)``, the offset of a page
#: of the universe — some ranges below leave part of it outside.
between = st.lists(st.tuples(
    st.sampled_from(["child_write", "child_write", "child_zero",
                     "child_view", "parent_write", "parent_zero",
                     "adopt", "merged", "merged"]),
    vpn_offsets), max_size=12)

reputs = st.fixed_dictionaries({
    "parent": st.sets(vpn_offsets, max_size=UNIVERSE),
    "start": st.integers(0, UNIVERSE - 1),
    "npages": st.integers(1, UNIVERSE),
    "shift": st.sampled_from([0, 0, -3, 2, 5]),
    "rounds": st.lists(between, min_size=1, max_size=3),
})


class Barrier:
    """A parent and a child forked by ``Put(copy=R, snap=R)``, built the
    same way twice: frames are compared by serial, which each build
    draws from its own allocator in the same order."""

    def __init__(self, draw):
        allocator = FrameAllocator()
        self.parent = AddressSpace(allocator)
        self.child = AddressSpace(allocator)
        for off in sorted(draw["parent"]):
            self.parent.write((VPN0 + off) << PAGE_SHIFT, bytes([off + 1]))
        self.shift = draw["shift"]
        self.src = (VPN0 + draw["start"]) << PAGE_SHIFT
        self.dst = self.src + (self.shift << PAGE_SHIFT)
        self.size = draw["npages"] << PAGE_SHIFT
        self.child.copy_range_from(self.parent, self.src, self.dst, self.size)
        self.snap = Snapshot.capture(self.child, self.dst, self.size)
        self.frames = {}
        self._collect()

    def between(self, ops):
        """The threads' round: child writes (demand-zero fills and COW
        breaks, some outside the range), unmaps and zero frames a read
        view materialises; parent writes and unmaps; and Merge's
        adoption of a child frame into the parent, of one the child
        has just written (``merged``: a page the Copy then finds in
        sync, which only the ledger names) or of whatever it maps."""
        child, parent = self.child, self.parent
        for op, off in ops:
            addr = (VPN0 + off) << PAGE_SHIFT
            if op == "child_write":
                child.write(addr + off, b"w")
            elif op == "child_zero":
                child.zero_range(addr, PAGE_SIZE)
            elif op == "child_view":
                child.as_array(addr, 8)
            elif op == "parent_write":
                parent.write(addr + 1, bytes([off]))
            elif op == "parent_zero":
                parent.zero_range(addr, PAGE_SIZE)
            else:
                if op == "merged":
                    child.write(addr, b"m")
                vpn = VPN0 + off
                parent.adopt_frames([(vpn - self.shift, child.frame(vpn))])
        self._collect()

    def _collect(self):
        """Remember every frame mapped or pinned now, so that one whose
        last reference the next step drops is still compared."""
        for table in (self.parent._pages, self.child._pages,
                      self.snap._frames):
            for frame in table.values():
                self.frames[frame.serial] = frame

    def observe(self, result):
        self._collect()
        spaces = (self.parent, self.child)
        return {
            "result": result,
            "tables": [{vpn: frame.serial for vpn, frame in space._pages.items()}
                       for space in spaces],
            "pins": {vpn: frame.serial
                     for vpn, frame in self.snap._frames.items()},
            "token": self.snap._token,
            "refs": {serial: frame.refs
                     for serial, frame in sorted(self.frames.items())},
            "perms": [dict(space._perms) for space in spaces],
            "ledger": [ledger(space) for space in spaces],
            "counters": [space.counters.snapshot() for space in spaces],
        }


@given(draw=reputs)
@settings(max_examples=120, deadline=None)
def test_a_reput_matches_copy_then_the_two_pass_recapture(draw):
    """Every barrier round's Put: the Copy re-pins what it remaps in its
    own pass and the rest of the child's writes since the Snap after,
    against the Copy followed by the verbatim two-pass re-Snap."""
    new, old = Barrier(draw), Barrier(draw)
    assert new.observe(None) == old.observe(None)
    for ops in draw["rounds"]:
        for world in (new, old):
            world.between(ops)
        got = new.child.copy_range_from(new.parent, new.src, new.dst,
                                        new.size, snap=new.snap)
        old.child.copy_range_from(old.parent, old.src, old.dst, old.size)
        want = reference_recapture(old.snap, old.child)
        assert new.observe(got) == old.observe(want)


@pytest.mark.parametrize("shape", ["snap", "other", "zero"])
@given(draw=reputs, other=st.integers(-4, 4))
@settings(max_examples=30, deadline=None)
def test_a_snap_the_copy_did_not_fuse_reads_the_ledger(shape, draw, other):
    """A Snap with no Copy, a Copy of another range and a Zero between
    the Copy and the Snap re-snap from the ledger on their own:
    production's ``recapture`` against the verbatim two-pass body."""
    worlds = Barrier(draw), Barrier(draw)
    results = []
    for world, recapture in zip(worlds, (Snapshot.recapture,
                                         reference_recapture)):
        for ops in draw["rounds"]:
            world.between(ops)
            if shape == "other":
                world.child.copy_range_from(
                    world.parent, world.src + (other << PAGE_SHIFT),
                    world.dst, world.size)
            elif shape == "zero":
                world.child.copy_range_from(world.parent, world.src,
                                            world.dst, world.size)
                world.child.zero_range(world.dst, PAGE_SIZE)
            results.append(world.observe(recapture(world.snap, world.child)))
    half = len(results) // 2
    assert results[:half] == results[half:]


def _addr(page):
    return (VPN0 + page) << PAGE_SHIFT


def _pages(*spec):
    """A Put range option in pages from ``VPN0``: addresses, then a
    length."""
    *starts, npages = spec
    return tuple(map(_addr, starts)) + (npages << PAGE_SHIFT,)


#: Put options, by shape, over a child forked with ``copy=R, snap=R``
#: for R the first 8 pages.
PUT_SHAPES = {
    "reput": {"copy": _pages(0, 0, 8), "snap": _pages(0, 8)},
    "shifted": {"copy": _pages(1, 0, 8), "snap": _pages(0, 8)},
    "zero": {"copy": _pages(0, 0, 8), "zero": _pages(2, 1),
             "snap": _pages(0, 8)},
    "other": {"copy": _pages(0, 0, 4), "snap": _pages(0, 8)},
}


def _put_world(shape, apart):
    """A parent, a child forked by ``Put(copy=R, snap=R)``, a round of
    child and parent writes and a Merge-style adoption, then the Put of
    ``shape`` — in one Put, or ``apart``, one Put per option.  Returns
    what the Put left and the cycles it charged beyond its system
    calls."""
    machine = Machine()
    parent = machine.new_space(None)
    machine.root = parent
    machine.trace.begin(parent.uid, node=0)
    for page in range(10):
        parent.addrspace.write(_addr(page), bytes([page + 1]))
    ref = child_ref(1)
    put = machine.kernel.sys_put
    put(parent, ref, copy=_pages(0, 0, 8), snap=_pages(0, 8))
    child = parent.children[ref]
    for page in (1, 3, 9):
        child.addrspace.write(_addr(page) + 5, b"c")
    parent.addrspace.adopt_frames([(VPN0 + 3, child.addrspace.frame(VPN0 + 3))])
    parent.addrspace.write(_addr(5), b"p")
    parent.addrspace.zero_range(*_pages(6, 1))
    options = PUT_SHAPES[shape]
    before = machine.trace.charged(parent.uid)
    if apart:
        for name, value in options.items():
            put(parent, ref, **{name: value})
    else:
        put(parent, ref, **options)
    calls = len(options) if apart else 1
    charged = machine.trace.charged(parent.uid) - before \
        - calls * machine.cost.syscall
    frames = {}
    for table in (parent.addrspace._pages, child.addrspace._pages,
                  child.snapshot._frames):
        frames.update((frame.serial, frame) for frame in table.values())
    spaces = (parent.addrspace, child.addrspace)
    world = {
        "tables": [{vpn: f.serial for vpn, f in space._pages.items()}
                   for space in spaces],
        "pins": {vpn: f.serial for vpn, f in child.snapshot._frames.items()},
        "refs": {serial: f.refs for serial, f in sorted(frames.items())},
        "ledger": [ledger(space) for space in spaces],
        "counters": [space.counters.snapshot() for space in spaces],
        "charged": charged,
    }
    machine.close()
    return world


@pytest.mark.parametrize("shape", sorted(PUT_SHAPES))
def test_a_put_equals_its_options_put_one_at_a_time(shape):
    """However the Put's options fall — a re-Put, shifted or not, which
    its Copy re-snaps in its own pass; a Zero between the Copy and the
    Snap; a Copy of another range — one Put leaves the spaces, the
    snapshot and the ledger as one Put per option does, and charges the
    same but for the extra system calls: a Snap Put alone re-snaps from
    the ledger, with no Copy to fuse into."""
    assert _put_world(shape, apart=False) == _put_world(shape, apart=True)
