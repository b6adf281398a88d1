"""Address-space snapshots (the kernel Snap option, paper §3.2).

A snapshot records, copy-on-write, the frames mapped over a range of a
space's address space at the instant of the Snap.  It later serves as the
*reference* against which Merge computes what the child changed.

Beyond the frame shares themselves, a snapshot captures a *baseline* of
``(vpn, serial, generation)`` triples and the source space's dirty-ledger
token (DESIGN.md).  The token lets Merge enumerate candidate pages in
O(written-since-snap) and lets a repeated Snap over the same range update
itself in O(dirty) via :meth:`Snapshot.recapture`.  The baseline records
the content version pinned at each vpn; because a pinned (refcounted)
frame can never be mutated in place, Merge's ``frame is snap_frame``
identity test *is* the baseline comparison, performed without touching
page bytes — :meth:`baseline_tag` exists for introspection, tests, and
delta tooling, not as a separate merge fast path.
"""

from repro.mem.page import PAGE_SHIFT, PAGE_SIZE


class Snapshot:
    """Immutable reference copy of a range of an address space."""

    def __init__(self, addr, size, frames, source, token):
        #: Base address of the snapshotted range.
        self.addr = addr
        #: Size of the snapshotted range in bytes.
        self.size = size
        #: vpn -> Page (refcounted shares); vpns absent were unmapped.
        #: Holding the reference *pins* each frame: refs >= 2 forces any
        #: writer to COW instead of mutating in place, so a pinned
        #: frame's ``(serial, generation)`` tag is frozen at its
        #: capture-time value — the frames themselves are the baseline.
        self._frames = frames
        #: The AddressSpace the snapshot was captured from (identity only:
        #: the token below is a clock value of *that* space's ledger, so
        #: the snapshot answers dirty queries for no other).
        self._source = source
        #: The source's dirty-ledger token at capture.
        self._token = token

    @classmethod
    def capture(cls, space, addr, size):
        """Snapshot ``[addr, addr+size)`` of ``space`` (page-aligned)."""
        if addr % PAGE_SIZE or size % PAGE_SIZE:
            raise ValueError("snapshot range must be page-aligned")
        vpn0 = addr >> PAGE_SHIFT
        pages = space._pages
        frames = {vpn: pages[vpn].incref() for vpn in
                  space.mapped_vpns_in(vpn0, vpn0 + (size >> PAGE_SHIFT))}
        space.counters.pages_shared += len(frames)
        return cls(addr, size, frames, source=space, token=space.dirty_token())

    def recapture(self, space):
        """Re-snapshot the same range of the same space *incrementally*.

        Visits only the pages ``space`` mutated since this snapshot was
        (re)captured — O(dirty), not O(mapped) — updating the pinned
        frames in place.  Returns ``(repinned, walked)``: pages whose
        frame was re-pinned (page_map-equivalent work) and ledger
        entries enumerated (page_track-equivalent work; dropping the pin
        of a now-unmapped page costs only the walk).
        """
        dirty = self._dirty_since_capture(space)
        vpn0 = self.addr >> PAGE_SHIFT
        vpn1 = vpn0 + (self.size >> PAGE_SHIFT)
        frames, pages = self._frames, space._pages
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
        self._token = space.dirty_token()
        return repinned, len(dirty)

    def frame(self, vpn):
        """The frame snapshotted at ``vpn``, or None if it was unmapped."""
        return self._frames.get(vpn)

    def baseline_tag(self, vpn):
        """The ``(serial, generation)`` content tag snapshotted at ``vpn``,
        or None if the page was unmapped at capture.  Read straight off
        the pinned frame — pinning freezes the tag (see ``_frames``)."""
        frame = self._frames.get(vpn)
        return frame.tag() if frame is not None else None

    def dirty_in(self, child, vpn0, vpn1):
        """Vpns in ``[vpn0, vpn1)`` that ``child`` mutated since capture."""
        return [vpn for vpn in self._dirty_since_capture(child)
                if vpn0 <= vpn < vpn1]

    def _dirty_since_capture(self, space):
        """The ledger query behind :meth:`recapture` and :meth:`dirty_in`;
        refuses any space but the captured one (and a released snapshot)."""
        if space is not self._source:
            raise ValueError(
                "a snapshot answers only for the space it was captured from")
        return space.dirty_since(self._token)

    def covers(self, vpn):
        """True if ``vpn`` lies inside the snapshotted range."""
        vpn0 = self.addr >> PAGE_SHIFT
        return vpn0 <= vpn < vpn0 + (self.size >> PAGE_SHIFT)

    def page_count(self):
        """Number of frames retained by the snapshot."""
        return len(self._frames)

    def release(self):
        """Drop all frame references (snapshot discarded/replaced)."""
        for page in self._frames.values():
            page.decref()
        self._frames = {}
        self._source = None
        self._token = None

    def __repr__(self):
        return (
            f"<Snapshot {self.addr:#x}+{self.size:#x} "
            f"frames={len(self._frames)}>"
        )
