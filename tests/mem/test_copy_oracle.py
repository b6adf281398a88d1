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
the ledger (clock, latest-per-vpn map, event log, and ``dirty_since`` for
tokens taken before the call), ``MemCounters`` and the return value.
"""

from hypothesis import given, settings, strategies as st

from repro.mem import (
    AddressSpace,
    PAGE_SHIFT,
    PAGE_SIZE,
    PERM_NONE,
    PERM_R,
    PERM_RW,
    Page,
)
from page_oracle import reference_mark_dirty, reference_unmap

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
    # destination history before the call; long enough to cross the
    # ledger's compaction threshold (64 events) in some examples
    "history": st.lists(vpn_offsets, max_size=160),
})


class World:
    """One build of a drawn world.  Frames are labelled in creation
    order, so two builds of the same draw can be compared by label.
    ``mark`` writes the destination's ledger history: the production
    ``_mark_dirty`` in the world production runs on, the per-page
    reference in the other."""

    def __init__(self, draw, shift=0, same_space=False,
                 mark=AddressSpace._mark_dirty):
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
        history = draw["history"]
        self.tokens = [self.dst.dirty_token()]
        for n, off in enumerate(history):
            mark(self.dst, VPN0 + off)
            if n == len(history) // 2:
                self.tokens.append(self.dst.dirty_token())
        self.tokens.append(self.dst.dirty_token())

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
            "ledger": [(space._clock, dict(space._dirty), list(space._events))
                       for space in spaces],
            "dirty_since": [self.dst.dirty_since(token)
                            for token in self.tokens],
            "counters": [space.counters.snapshot() for space in spaces],
        }


# -- Copy -------------------------------------------------------------------


@given(
    draw=worlds,
    start=st.integers(-4, UNIVERSE),
    npages=st.integers(0, UNIVERSE + 16),
    shift=st.integers(-6, 6),
    perm=st.one_of(st.none(), perm_values),
    same_space=st.booleans(),
    enumerated=st.booleans(),
)
@settings(max_examples=250, deadline=None)
def test_bulk_copy_matches_the_per_page_reference(draw, start, npages, shift,
                                                  perm, same_space, enumerated):
    src_addr = (VPN0 + start) << PAGE_SHIFT
    dst_addr = (VPN0 + start + shift) << PAGE_SHIFT
    size = npages << PAGE_SHIFT
    new = World(draw, shift, same_space)
    old = World(draw, shift, same_space, mark=reference_mark_dirty)
    # The kernel's Copy hands over the source enumeration it already made.
    src_vpns = new.src.mapped_vpns_in(
        VPN0 + start, VPN0 + start + npages) if enumerated else None
    got = new.dst.copy_range_from(new.src, src_addr, dst_addr, size, perm=perm,
                                  src_vpns=src_vpns)
    want = reference_copy(old.dst, old.src, src_addr, dst_addr, size, perm=perm)
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
            reference_unmap(world.src, VPN0 + off)   # the child dropped it
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
        reference_unmap(world.src, vpn)
    mapped = vpn in new.dst._pages
    new.dst.adopt_frames([(vpn, None)])
    reference_copy(old.dst, old.src, vpn << PAGE_SHIFT, vpn << PAGE_SHIFT,
                   PAGE_SIZE)
    got, want = new.observe(None), old.observe(None)
    for key in ("tables", "refs", "ledger", "dirty_since"):
        assert got[key] == want[key]
    assert new.dst._perms.get(vpn) == draw["dst_perms"].get(off)
    if mapped:
        assert vpn not in old.dst._perms
    assert new.dst.counters.pages_zeroed == int(mapped)
    assert old.dst.counters.pages_zeroed == 0
