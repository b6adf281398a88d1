"""Differential oracle for the whole-range ``write`` and ``write_pages``.

``reference_write`` (``page_oracle.py``) is the per-page loop
``AddressSpace.write`` was before the rewrite — an ensure-writable,
a slice assignment and a ledger mark per page.  Every hypothesis
example builds the same world twice — private, snapshot-pinned and
unmapped pages, explicit permissions (an unwritable page may sit
mid-range), a ledger with history — runs the production operation on one
and the reference on the other, and requires the two to be
indistinguishable: bytes, frame identity of untouched pages, refcounts,
serial allocation order, generations, ``MemCounters``, the ledger
(the clock, ``_dirty`` in order, and ``dirty_since`` of every token,
against the reference's mark history), the return value, and on a
fault the address *and* the partial state.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from page_oracle import (
    ledger, reference_ledger, reference_mark_dirty, reference_write)
from repro.common.errors import PermissionFault
from repro.mem import (
    AddressSpace,
    FrameAllocator,
    PAGE_SHIFT,
    PAGE_SIZE,
    PERM_NONE,
    PERM_R,
    PERM_RW,
    PERM_W,
    Page,
)

VPN0 = 0x40
UNIVERSE = 10

vpn_offsets = st.integers(0, UNIVERSE - 1)

worlds = st.fixed_dictionaries({
    # vpn offset -> True when a snapshot pins the frame (refs == 2)
    "pages": st.dictionaries(vpn_offsets, st.booleans(), max_size=UNIVERSE),
    "perms": st.dictionaries(
        vpn_offsets, st.sampled_from([PERM_NONE, PERM_R, PERM_W, PERM_RW]),
        max_size=4),
    # ledger history: marks before the call, repeats included
    "history": st.lists(vpn_offsets, max_size=160),
})

#: The buffer shapes ``write`` is handed; each yields the same bytes.
SHAPES = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": memoryview,
    "uint8": lambda data: np.frombuffer(data, dtype=np.uint8),
    "wide": lambda data: np.frombuffer(data, dtype=np.int64).reshape(-1, 1)
    if len(data) % 8 == 0 else memoryview(data),
    "list": lambda data: list(data) if len(data) <= 64 else data,
}


def mark_dirty(space, vpn):
    """Production's ledger mark of one page."""
    space._mark_dirty_many((vpn,))


class World:
    """One build of a drawn world, on its own frame allocator so serials
    are comparable between two builds."""

    def __init__(self, draw, mark):
        self.frames_of = FrameAllocator()
        self.space = AddressSpace(self.frames_of)
        self.ledger = reference_ledger if mark is reference_mark_dirty \
            else ledger
        self.frames = []
        for off, pinned in sorted(draw["pages"].items()):
            frame = Page(bytes([1 + off]) * PAGE_SIZE, self.frames_of)
            if pinned:
                frame.incref()
            self.space._pages[VPN0 + off] = frame
            self.frames.append(frame)
        self.space._perms.update(
            (VPN0 + off, perm) for off, perm in draw["perms"].items())
        for off in draw["history"]:
            mark(self.space, VPN0 + off)

    def observe(self, result):
        space = self.space
        assert all(len(page.data) == PAGE_SIZE
                   for page in space._pages.values())
        original = {id(frame): n for n, frame in enumerate(self.frames)}
        return {
            "result": result,
            "table": {vpn: (page.serial, page.generation, page.refs,
                            bytes(page.data), original.get(id(page)))
                      for vpn, page in space._pages.items()},
            "original": [(frame.refs, frame.generation, bytes(frame.data))
                         for frame in self.frames],
            "allocated": self.frames_of.frames_allocated,
            "perms": dict(space._perms),
            "ledger": self.ledger(space),
            "counters": space.counters.snapshot(),
        }


def outcome(call):
    try:
        return call()
    except PermissionFault as fault:
        return ("fault", fault.addr, fault.needed)


@given(
    draw=worlds,
    start=st.integers(0, UNIVERSE * PAGE_SIZE - 1),
    pages=st.integers(0, 4),
    tail=st.sampled_from([0, 0, 1, 8, 100, PAGE_SIZE - 1]),
    align=st.booleans(),
    seed=st.integers(0, 2**16),
    shape=st.sampled_from(sorted(SHAPES)),
    check_perm=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_whole_range_write_matches_the_per_page_reference(
        draw, start, pages, tail, align, seed, shape, check_perm):
    if align:
        start &= ~(PAGE_SIZE - 1)
    addr = (VPN0 << PAGE_SHIFT) + start
    data = random.Random(seed).randbytes(pages * PAGE_SIZE + tail)
    new = World(draw, mark_dirty)
    old = World(draw, reference_mark_dirty)
    got = outcome(lambda: new.space.write(addr, SHAPES[shape](data),
                                          check_perm=check_perm))
    want = outcome(lambda: reference_write(old.space, addr, data,
                                           check_perm=check_perm))
    assert new.observe(got) == old.observe(want)


@given(
    draw=worlds,
    offs=st.lists(vpn_offsets, max_size=UNIVERSE, unique=True),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_write_pages_matches_one_reference_write_per_page(draw, offs, seed):
    rows = np.frombuffer(
        random.Random(seed).randbytes(len(offs) * PAGE_SIZE),
        dtype=np.uint8).reshape(len(offs), PAGE_SIZE)
    vpns = [VPN0 + off for off in offs]
    new = World(draw, mark_dirty)
    old = World(draw, reference_mark_dirty)
    got = new.space.write_pages(vpns, rows)
    want = sum(reference_write(old.space, vpn << PAGE_SHIFT, row.tobytes())
               for vpn, row in zip(vpns, rows))
    assert new.observe(got) == old.observe(want)


def test_write_pages_refuses_a_buffer_of_the_wrong_size():
    space = AddressSpace()
    with pytest.raises(ValueError, match="2 pages need 0x2000 bytes"):
        space.write_pages([VPN0, VPN0 + 1], bytes(PAGE_SIZE))
    assert space.mapped_page_count() == 0 and space.dirty_token() == 0


@pytest.mark.parametrize("universe", [1, 5, 31, 40])
@pytest.mark.parametrize("chunk", [1, 3, 64, 65, 200])
def test_mark_dirty_many_compacts_where_the_per_page_ledger_does(universe,
                                                                 chunk):
    """Neither ledger compacts: production's reads as the never-compacted
    mark history — clock, entries in stamp order and ``dirty_since`` of
    every token — after every call, over enough re-marks to resize the
    ledger's dict several times (hypothesis rarely ends an example on a
    resize)."""
    new, old = AddressSpace(), AddressSpace()
    marks = 0
    while marks < 400:
        vpns = [(marks + i) * 7 % universe for i in range(chunk)]
        marks += chunk
        new._mark_dirty_many(vpns)
        for vpn in vpns:
            reference_mark_dirty(old, vpn)
        assert ledger(new) == reference_ledger(old)
