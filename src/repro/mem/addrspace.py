"""Sparse, copy-on-write simulated address spaces.

An :class:`AddressSpace` maps virtual page numbers to :class:`Page`
frames with per-page permissions.  All sharing between spaces is
copy-on-write: ``copy_range_from`` and snapshots share frames and bump
refcounts; the first write through a shared mapping copies the frame.

Demand-zero semantics: reading an unmapped page returns zeros; writing an
unmapped page allocates a fresh zero frame.  This matches how the
user-level runtime experiences memory on the real system (the parent maps
zero-filled regions with the Zero option before starting a child) and
keeps every access deterministic.

Dirty tracking (DESIGN.md): every mutation is vectored through
:meth:`AddressSpace._store` (the one write loop) or one of the
page-granular range operations, which record the touched vpns in a
per-space *dirty ledger* stamped with a monotonically increasing write
clock.  Snapshots record the clock at capture time; merges and
re-snapshots then enumerate the pages written since in O(dirty) instead
of scanning every mapped page.

No table scans (DESIGN.md §2): every range operation enumerates its
pages through :func:`table_vpns_in`, which probes the range when it is
narrower than the table and scans the table otherwise, so an operation
costs what it names — never the size of the tables it runs against.
"""

from bisect import bisect_left

import numpy as np

from repro.common.errors import PageFaultError, PermissionFault
from repro.mem.page import Page, PAGE_SIZE, PAGE_SHIFT, _ZERO_BYTES
from repro.mem.layout import VA_SIZE

#: Page permission bits, set via the kernel's Perm option (paper Table 2).
PERM_NONE = 0
PERM_R = 1
PERM_W = 2
PERM_RW = PERM_R | PERM_W


class MemCounters:
    """Cumulative accounting of memory events, for cost charging and tests."""

    __slots__ = ("cow_breaks", "demand_zero", "pages_shared", "pages_zeroed")

    def __init__(self):
        self.cow_breaks = 0
        self.demand_zero = 0
        self.pages_shared = 0
        self.pages_zeroed = 0

    def snapshot(self):
        """Return a plain dict copy of the counters."""
        return {name: getattr(self, name) for name in self.__slots__}


def table_vpns_in(table, vpn0, vpn1):
    """Ascending keys of the vpn-keyed ``table`` inside ``[vpn0, vpn1)``.

    The one range-enumeration rule: probe the range when it is narrower
    than the table, scan the table otherwise — sort its keys, one pass
    in C, and cut the range out by bisection.  Regions are huge but
    sparse and tables can be large while the range names one page, so
    the entries read are min(range, table) either way round.
    """
    if vpn1 - vpn0 <= len(table):
        return [vpn for vpn in range(vpn0, vpn1) if vpn in table]
    vpns = sorted(table)
    return vpns[bisect_left(vpns, vpn0):bisect_left(vpns, vpn1)]


def _check_range(addr, size):
    if size < 0:
        raise ValueError("negative size")
    if addr < 0 or addr + size > VA_SIZE:
        raise PageFaultError(addr, f"range {addr:#x}+{size:#x} outside address space")


def _check_page_aligned(addr, size):
    if addr % PAGE_SIZE or size % PAGE_SIZE:
        raise ValueError(
            f"range {addr:#x}+{size:#x} must be page-aligned for this operation"
        )


def byte_view(data):
    """``data`` as a flat ``memoryview`` of bytes, so that ``nbytes`` is
    what a write of it moves whatever its item size or shape; objects
    without a (C-contiguous) buffer go through ``bytes()``."""
    try:
        return memoryview(data).cast("B")
    except TypeError:
        return memoryview(bytes(data))


class AddressSpace:
    """A private virtual address space, the memory half of a *space* (§3.1)."""

    def __init__(self, allocator=None):
        # vpn -> Page
        self._pages = {}
        # vpn -> perm; pages absent from this dict default to PERM_RW.
        self._perms = {}
        #: Frame serial source (machine-owned; None -> module default).
        self.allocator = allocator
        self.counters = MemCounters()
        #: vpn -> write-clock value of the last mutation touching it,
        #: kept in clock order (a mark moves its vpn to the end), so a
        #: query for a recent token walks back only what it returns.
        self._dirty = {}
        self._clock = 0

    # -- introspection ----------------------------------------------------

    def mapped_page_count(self):
        """Number of pages currently mapped."""
        return len(self._pages)

    def mapped_vpns(self):
        """Sorted list of mapped virtual page numbers."""
        return sorted(self._pages)

    def mapped_vpns_in(self, vpn0, vpn1):
        """Sorted mapped vpns in ``[vpn0, vpn1)`` (see
        :func:`table_vpns_in` for what the enumeration costs)."""
        return table_vpns_in(self._pages, vpn0, vpn1)

    def frame(self, vpn):
        """The :class:`Page` mapped at ``vpn``, or None."""
        return self._pages.get(vpn)

    def perm(self, vpn):
        """Effective permission for ``vpn`` (unmapped pages default RW)."""
        return self._perms.get(vpn, PERM_RW)

    # -- dirty ledger ------------------------------------------------------

    def dirty_token(self):
        """Opaque token marking 'now' in this space's write history.
        Pass to :meth:`dirty_since`."""
        return self._clock

    def dirty_since(self, token):
        """Set of vpns mutated after ``token`` (one of this space's own
        :meth:`dirty_token` values).  A token that is still "now" — no
        mutation since — answers empty at once, reading no entry: the
        Merge of a child that wrote nothing since its Snap is O(1).
        Otherwise the newest entries are walked back to the first stamp
        at or before the token: O(written-since-token)."""
        if token >= self._clock:
            return set()
        since = set()
        for vpn, stamp in reversed(self._dirty.items()):
            if stamp <= token:
                break
            since.add(vpn)
        return since

    def dirty_page_count(self):
        """Pages ever recorded in the dirty ledger (introspection)."""
        return len(self._dirty)

    def dirty_vpns_since(self, token):
        """Sorted vpns mutated after ``token``.

        The deterministic (sorted) enumeration the cluster transport
        ships migration deltas from: a space's per-node visit token is a
        ledger clock, and this answers "what changed since I last
        resided there" in O(written-since), never O(mapped).
        """
        return sorted(self.dirty_since(token))

    def _mark_dirty_many(self, vpns):
        """Record one mutation of each of ``vpns``, in order: each vpn
        is re-inserted at the end of the ledger with the next stamp,
        which keeps the ledger in clock order and leaves no record per
        mark behind."""
        clock, dirty = self._clock, self._dirty
        for vpn in vpns:
            clock += 1
            dirty.pop(vpn, None)
            dirty[vpn] = clock
        self._clock = clock

    # -- page-level operations --------------------------------------------

    def _store(self, vpns, view, pos):
        """Write page-sized windows of ``view`` (flat bytes) to ``vpns``
        in order: the window of the first starts at ``pos`` and each
        next one a page further, clipped to the view — ``pos`` is
        negative where the bytes start inside the first page.  The one
        write loop: every page is probed once, a frame that must be
        replaced (demand-zero fill, COW break) by a *whole-page* window
        is born with its bytes — one 4 KB copy, not copy-then-overwrite
        — and the counters and the ledger are updated once, after.
        Returns the number of page events (fills + COW breaks)."""
        pages, allocator, size = self._pages, self.allocator, view.nbytes
        zeros = cows = 0
        for vpn in vpns:
            end = pos + PAGE_SIZE
            whole = pos >= 0 and end <= size
            page = pages.get(vpn)
            if page is None or page.refs > 1:
                if page is None:
                    zeros += 1
                else:
                    page.refs -= 1      # refs > 1: no underflow to check
                    cows += 1
                if whole:
                    page = Page(view[pos:end], allocator)
                elif page is None:
                    page = Page(allocator=allocator)
                else:
                    page = page.fork_copy(allocator)
                pages[vpn] = page
            elif whole:
                page.data[:] = view[pos:end]
            if not whole:
                lo, hi = max(pos, 0), min(end, size)
                page.data[lo - pos:hi - pos] = view[lo:hi]
            page.bump()
            pos = end
        self.counters.demand_zero += zeros
        self.counters.cow_breaks += cows
        self._mark_dirty_many(vpns)
        return zeros + cows

    # -- byte-level access (used by the guest API) ------------------------

    def read(self, addr, size, check_perm=False, mutable=False):
        """Read ``size`` bytes at ``addr``.  Unmapped pages read as zeros.

        Returns ``bytes``, or with ``mutable=True`` a fresh ``bytearray``
        the caller owns (a writable buffer at the same single copy).
        """
        _check_range(addr, size)
        empty = bytearray() if mutable else b""
        if size == 0:
            return empty
        vpn0 = addr >> PAGE_SHIFT
        vpn1 = ((addr + size - 1) >> PAGE_SHIFT) + 1
        if check_perm and self._perms:
            # Only pages with an explicit permission can be unreadable.
            for vpn in table_vpns_in(self._perms, vpn0, vpn1):
                if not (self._perms[vpn] & PERM_R):
                    raise PermissionFault(max(addr, vpn << PAGE_SHIFT), "read")
        # Whole-page buffers, the two ends trimmed through memoryviews,
        # joined once: one copy of the data however many pages it spans.
        pages = self._pages
        parts = [pages[vpn].data if vpn in pages else _ZERO_BYTES
                 for vpn in range(vpn0, vpn1)]
        off = addr & (PAGE_SIZE - 1)
        end = off + size - ((vpn1 - vpn0 - 1) << PAGE_SHIFT)
        if end != PAGE_SIZE:
            parts[-1] = memoryview(parts[-1])[:end]
        if off:
            parts[0] = memoryview(parts[0])[off:]
        return empty.join(parts)

    def write(self, addr, data, check_perm=False):
        """Write ``data`` — any buffer, by its *byte* length — at
        ``addr``.  Returns the number of page events (COW breaks +
        demand-zero fills) so callers can charge costs.  A permission
        fault is raised after the pages below the faulting one were
        written."""
        view = byte_view(data)
        size = view.nbytes
        # Guests compute addresses with numpy, whose scalars would make
        # every shift and compare below several times slower.
        addr = int(addr)
        _check_range(addr, size)
        if size == 0:
            return 0
        vpn0 = addr >> PAGE_SHIFT
        vpn1 = ((addr + size - 1) >> PAGE_SHIFT) + 1
        fault = None
        if check_perm and self._perms:
            # Only pages with an explicit permission can be unwritable.
            perms = self._perms
            fault = next((vpn for vpn in table_vpns_in(perms, vpn0, vpn1)
                          if not perms[vpn] & PERM_W), None)
        events = self._store(range(vpn0, vpn1 if fault is None else fault),
                             view, -(addr & (PAGE_SIZE - 1)))
        if fault is not None:
            raise PermissionFault(max(addr, fault << PAGE_SHIFT), "write")
        return events

    def write_pages(self, vpns, data):
        """Overwrite the whole pages ``vpns`` (a sequence, any order)
        with consecutive 4 KB rows of ``data``; permissions are not
        consulted.  Merge's write-back uses this."""
        view = byte_view(data)
        if view.nbytes != len(vpns) * PAGE_SIZE:
            raise ValueError(
                f"{len(vpns)} pages need {len(vpns) * PAGE_SIZE:#x} bytes, "
                f"got {view.nbytes:#x}")
        return self._store(vpns, view, 0)

    def as_array(self, addr, size, check_perm=False):
        """Return a read-only numpy uint8 array of ``[addr, addr+size)``.

        Within one page it is a zero-copy view of the frame, which may
        be shared copy-on-write with other spaces — so it is marked
        non-writeable; a range crossing pages is a copy (a contiguous
        view is only possible page by page).  Writes go through
        :meth:`write`, which breaks the sharing first.
        """
        _check_range(addr, size)
        vpn = addr >> PAGE_SHIFT
        off = addr & (PAGE_SIZE - 1)
        if off + size <= PAGE_SIZE:
            if check_perm and not (self.perm(vpn) & PERM_R):
                raise PermissionFault(addr, "read")
            page = self._pages.get(vpn)
            if page is None:
                # Demand-zero for a read view: materialize the frame
                # without bumping its generation or dirtying the ledger —
                # a read must not look like a write to Snap/Merge
                # accounting.
                page = Page(allocator=self.allocator)
                self._pages[vpn] = page
                self.counters.demand_zero += 1
            view = np.frombuffer(page.data, dtype=np.uint8)[off : off + size]
            view.flags.writeable = False
            return view
        return np.frombuffer(self.read(addr, size, check_perm=check_perm),
                             dtype=np.uint8)

    # -- range operations (kernel Copy / Zero / Perm, page-aligned) -------

    def copy_range_from(self, src, src_addr, dst_addr, size, src_vpns=None,
                        snap=None):
        """Logically copy ``[src_addr, src_addr+size)`` of ``src`` into
        ``[dst_addr, ...)`` of self, sharing frames copy-on-write.

        Implements the kernel Copy option (paper §3.2): "the kernel uses
        copy-on-write to optimize large copies".  Returns the number of
        pages whose mappings changed (for cost accounting).  ``src_vpns``
        is ``src``'s mapped vpns in the range when the caller has already
        enumerated them.

        ``snap`` — self's :class:`~repro.mem.snapshot.Snapshot` of exactly
        the destination range — makes this a re-Put, Copy then Snap of
        one range, in one pass: each remapped vpn's pinned frame is
        re-pinned in the iteration that remaps it, and
        :meth:`Snapshot.recapture` then re-pins only what self wrote
        since the Snap and the Copy left in place, read from the ledger
        before the Copy's own marks.  The return is then the re-Snap's
        ``(repinned, walked)``.
        """
        _check_range(src_addr, size)
        _check_range(dst_addr, size)
        _check_page_aligned(src_addr, size)
        _check_page_aligned(dst_addr, size)
        src_vpn0 = src_addr >> PAGE_SHIFT
        dst_vpn0 = dst_addr >> PAGE_SHIFT
        npages = size >> PAGE_SHIFT
        shift = dst_vpn0 - src_vpn0
        spages, dpages, perms = src._pages, self._pages, self._perms
        # A re-Put's pins, and what self wrote since the Snap, read
        # before the Copy's own marks join it.
        pins = snap and snap._frames
        written = snap and snap._dirty_since_capture(self)
        # Only pages mapped on either side can need work (sparse ranges):
        # the source's pages, plus destination pages with no source page
        # (those get unmapped), in ascending order.
        candidates = (src.mapped_vpns_in(src_vpn0, src_vpn0 + npages)
                      if src_vpns is None else src_vpns)
        # A destination range with nothing mapped (a fresh child) needs
        # no probe per page: every destination page is absent.
        mapped = self.mapped_vpns_in(dst_vpn0, dst_vpn0 + npages)
        stale = [dvpn - shift for dvpn in mapped if dvpn - shift not in spages]
        if stale:
            candidates = sorted(candidates + stale)
        changed = []
        shared = 0
        for svpn in candidates:
            dvpn = svpn + shift
            spage = spages.get(svpn)
            dpage = dpages.get(dvpn) if mapped else None
            # A frame both sides already share is in sync: no bookkeeping.
            if spage is not dpage:
                # Refcounts change inline, without a call per page; only
                # a frame with no reference left goes through decref,
                # which refuses it.
                if dpage is not None:
                    dpage.refs -= 1 if dpage.refs > 0 else dpage.decref()
                if pins is not None:
                    # The re-Snap: the pin follows the new mapping.
                    if (old := pins.pop(dvpn, None)) is not None:
                        old.refs -= 1 if old.refs > 0 else old.decref()
                    if spage is not None:
                        pins[dvpn] = spage
                if spage is None:
                    del dpages[dvpn]
                else:
                    dpages[dvpn] = spage
                    spage.refs += 1 if pins is None else 2
                    shared += 1
                changed.append(dvpn)
            if spage is None:
                perms.pop(dvpn, None)
        self._mark_dirty_many(changed)
        self.counters.pages_shared += shared if pins is None else 2 * shared
        if pins is None:
            return len(changed)
        repinned, walked = snap.recapture(self, written.difference(changed))
        return shared + repinned, len(changed) + walked

    def adopt_frames(self, pairs):
        """Map each ``(vpn, page)`` of ``pairs`` copy-on-write — a
        ``None`` page unmaps ``vpn`` (demand-zero on next access) —
        leaving permissions alone: a remap per pair without Copy's range
        machinery, and a frame already in place is left as it is.
        Merge's whole-frame adoption uses this; Merge transfers
        *content*, never permissions."""
        pages = self._pages
        changed = []
        shared = 0
        for vpn, page in pairs:
            old = pages.get(vpn)
            if old is page:
                continue
            if old is not None:
                old.refs -= 1 if old.refs > 0 else old.decref()
            if page is None:
                del pages[vpn]
            else:
                pages[vpn] = page
                page.refs += 1
                shared += 1
            changed.append(vpn)
        self._mark_dirty_many(changed)
        self.counters.pages_shared += shared
        self.counters.pages_zeroed += len(changed) - shared

    def zero_range(self, addr, size):
        """Zero-fill a page-aligned range (kernel Zero option).

        Implemented by unmapping: demand-zero reads make this equivalent
        to mapping fresh zero frames, without the cost.
        """
        _check_range(addr, size)
        _check_page_aligned(addr, size)
        vpn0 = addr >> PAGE_SHIFT
        npages = size >> PAGE_SHIFT
        removed = self.mapped_vpns_in(vpn0, vpn0 + npages)
        for vpn in removed:
            self._pages.pop(vpn).decref()
        self._mark_dirty_many(removed)
        for vpn in table_vpns_in(self._perms, vpn0, vpn0 + npages):
            del self._perms[vpn]
        self.counters.pages_zeroed += len(removed)
        return len(removed)

    def set_perm(self, addr, size, perm):
        """Set page permissions on a page-aligned range (Perm option).

        Permissions are metadata, not content: they do not enter the
        dirty ledger (Merge and snapshots compare bytes only)."""
        _check_range(addr, size)
        _check_page_aligned(addr, size)
        vpn0 = addr >> PAGE_SHIFT
        for vpn in range(vpn0, vpn0 + (size >> PAGE_SHIFT)):
            self._perms[vpn] = perm

    def clone(self):
        """Return a full COW clone of this address space (used by the
        kernel's Tree option and by space migration)."""
        out = AddressSpace(self.allocator)
        for vpn, page in self._pages.items():
            out._pages[vpn] = page.incref()
        out._perms = dict(self._perms)
        out.counters.pages_shared += len(self._pages)
        return out

    def drop_all(self):
        """Release every mapping (space destruction)."""
        for page in self._pages.values():
            page.refs -= 1 if page.refs > 0 else page.decref()
        self._pages.clear()
        self._perms.clear()
        self._dirty.clear()

    def __repr__(self):
        return (
            f"<AddressSpace pages={len(self._pages)} "
            f"dirty={len(self._dirty)}>"
        )
