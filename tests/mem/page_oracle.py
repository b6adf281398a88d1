"""The per-page memory primitives as they were before the whole-range
rewrite, kept verbatim as the references of ``test_write_oracle.py`` and
``test_copy_oracle.py``.

They work on an :class:`~repro.mem.AddressSpace`'s tables directly and
call nothing of the production write, adoption or ledger code, so an
oracle that compares against them cannot agree with itself.
"""

from repro.common.errors import PermissionFault
from repro.mem import PAGE_SHIFT, PAGE_SIZE, PERM_W, Page


def reference_mark_dirty(space, vpn):
    space._clock += 1
    space._dirty[vpn] = space._clock
    space._events.append((space._clock, vpn))
    if len(space._events) > 64 and len(space._events) > 2 * len(space._dirty):
        space._events = sorted(
            (clock, vpn) for vpn, clock in space._dirty.items()
        )


def reference_ensure_writable(space, vpn):
    page = space._pages.get(vpn)
    if page is None:
        page = Page(allocator=space.allocator)
        space._pages[vpn] = page
        space.counters.demand_zero += 1
        event = "zero"
    elif page.refs > 1:
        page.decref()
        page = page.fork_copy(space.allocator)
        space._pages[vpn] = page
        space.counters.cow_breaks += 1
        event = "cow"
    else:
        event = "hit"
    page.bump()
    reference_mark_dirty(space, vpn)
    return page, event


def reference_write(space, addr, data, check_perm=False):
    """The old ``AddressSpace.write`` loop.  ``data`` is ``bytes``: the
    old code took ``len(data)`` for the byte count, which is only that
    for byte buffers (the bug the rewrite fixes)."""
    size = len(data)
    view = memoryview(data)
    events = 0
    pos = 0
    while pos < size:
        vpn = (addr + pos) >> PAGE_SHIFT
        off = (addr + pos) & (PAGE_SIZE - 1)
        n = min(PAGE_SIZE - off, size - pos)
        if check_perm and not (space.perm(vpn) & PERM_W):
            raise PermissionFault(addr + pos, "write")
        page, event = reference_ensure_writable(space, vpn)
        if event != "hit":
            events += 1
        page.data[off : off + n] = view[pos : pos + n]
        pos += n
    return events


def reference_unmap(space, vpn):
    """The old ``AddressSpace.unmap_page``: drop the frame, keep the
    permissions."""
    page = space._pages.pop(vpn, None)
    if page is None:
        return 0
    page.decref()
    reference_mark_dirty(space, vpn)
    space.counters.pages_zeroed += 1
    return 1
