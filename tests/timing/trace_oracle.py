"""The trace recorder as it was before it became one list per field,
kept verbatim as the reference of ``test_trace.py``.

Every segment here is a :class:`Segment` object and every edge and link
transfer a tuple, appended one at a time.  :func:`packed` reads such a
trace the way the run ledgers (``repro.kernel.ledgers``) read it from
the origin mark, so an oracle test can compare the two recorders by the
very rows a machine image and its digest are made of.
"""


class Segment:
    """A contiguous chunk of one execution context's work."""

    __slots__ = ("id", "uid", "node", "cycles", "label", "closed")

    def __init__(self, seg_id, uid, node, label=""):
        self.id = seg_id
        self.uid = uid
        self.node = node
        self.cycles = 0
        self.label = label
        self.closed = False

    def __repr__(self):
        state = "closed" if self.closed else "open"
        return (
            f"<Segment #{self.id} uid={self.uid} node={self.node} "
            f"cycles={self.cycles} {state} {self.label!r}>"
        )


class Trace:
    """Recorder for segments and edges during a logical execution."""

    def __init__(self):
        self.segments = []
        #: list of (src_segment_id, dst_segment_id, latency_cycles)
        self.edges = []
        #: list of (src_id, dst_id, link, busy_cycles, latency_cycles,
        #: cls, kind) — precedence edges that additionally *occupy* a
        #: network link (any hashable channel identity; the transport's
        #: are fabric endpoint pairs): the destination becomes ready
        #: only after the transfer wins the link, occupies it ``busy``
        #: cycles and transits ``latency`` more, on no CPU.  ``cls``
        #: names the link's class and ``kind`` the transfer's protocol
        #: purpose ("migrate", "fetch", "prefetch", "retx", ...), both
        #: possibly None.  The cluster transport appends them
        #: (``Transport._stall_edges``).  Kept separate from
        #: :attr:`edges` so plain consumers keep their 3-tuple shape.
        self.transfers = []
        self._open = {}   # uid -> Segment
        self._last = {}   # uid -> last closed Segment
        self._cum = {}    # uid -> cycles of all *closed* segments
        #: Optional observer called with each segment the moment it
        #: closes (``cut``/``sleep``/``end``), *after* the trace's own
        #: bookkeeping.  The time-travel debugger's ``goto`` uses it to
        #: capture machine state at a precise point of a replay; the
        #: observer must not mutate the trace (it would perturb the very
        #: replay it is observing).  ``None`` (the default) costs one
        #: attribute test per close.
        self.on_close = None

    # -- lifecycle ---------------------------------------------------------

    def begin(self, uid, node=0, label=""):
        """Open the first segment for execution context ``uid``."""
        if uid in self._open:
            raise ValueError(f"context {uid!r} already has an open segment")
        seg = Segment(len(self.segments), uid, node, label)
        self.segments.append(seg)
        self._open[uid] = seg
        return seg

    def charge(self, uid, cycles):
        """Add ``cycles`` of work to ``uid``'s open segment."""
        self._open[uid].cycles += cycles

    def cut(self, uid, label=""):
        """Close ``uid``'s open segment and open the next one.

        Returns ``(closed, opened)``.  A program-order edge is added.
        """
        closed = self._open.pop(uid)
        closed.closed = True
        self._last[uid] = closed
        self._cum[uid] = self._cum.get(uid, 0) + closed.cycles
        opened = Segment(len(self.segments), uid, closed.node, label)
        self.segments.append(opened)
        self._open[uid] = opened
        self.edges.append((closed.id, opened.id, 0))
        if self.on_close is not None:
            self.on_close(closed)
        return closed, opened

    def sleep(self, uid, cycles, label=""):
        """Close ``uid``'s open segment and open the next one ``cycles``
        of virtual time later, consuming no CPU in between.

        A timer wait, as opposed to :meth:`charge`, which models compute
        and occupies a CPU for its duration.  The serving dispatcher
        uses it to idle until the next trace arrival without starving
        the request children sharing its node.  Sleep does not advance
        :meth:`charged` (it is not work); callers pacing against the
        program clock must account for it separately.

        Returns ``(closed, opened)``.
        """
        closed = self._open.pop(uid)
        closed.closed = True
        self._last[uid] = closed
        self._cum[uid] = self._cum.get(uid, 0) + closed.cycles
        opened = Segment(len(self.segments), uid, closed.node, label)
        self.segments.append(opened)
        self._open[uid] = opened
        self.edges.append((closed.id, opened.id, cycles))
        if self.on_close is not None:
            self.on_close(closed)
        return closed, opened

    def end(self, uid):
        """Close ``uid``'s final segment (context exits)."""
        closed = self._open.pop(uid)
        closed.closed = True
        self._last[uid] = closed
        self._cum[uid] = self._cum.get(uid, 0) + closed.cycles
        if self.on_close is not None:
            self.on_close(closed)
        return closed

    # -- queries -------------------------------------------------------------

    def current(self, uid):
        """``uid``'s open segment (raises KeyError if none)."""
        return self._open[uid]

    def is_open(self, uid):
        """True if ``uid`` currently has an open segment."""
        return uid in self._open

    def last_closed(self, uid):
        """Most recently closed segment of ``uid`` (or None)."""
        return self._last.get(uid)

    def charged(self, uid):
        """Total cycles charged to ``uid`` so far (closed segments plus
        the open one) — the per-context *program clock* the control
        plane reads to estimate how much compute separated two simulated
        events.  A pure function of the simulation, so replays agree."""
        total = self._cum.get(uid, 0)
        open_seg = self._open.get(uid)
        if open_seg is not None:
            total += open_seg.cycles
        return total

    def move_node(self, uid, node):
        """Record that ``uid`` now executes on ``node`` (space migration).

        Cuts the open segment so work before/after the move is scheduled
        on the right node, and returns ``(closed, opened)``.
        """
        closed, opened = self.cut(uid, label="migrate")
        opened.node = node
        return closed, opened

    def edge(self, src_seg, dst_seg, latency=0):
        """Add a precedence edge between two segments (objects or ids)."""
        src = src_seg.id if isinstance(src_seg, Segment) else src_seg
        dst = dst_seg.id if isinstance(dst_seg, Segment) else dst_seg
        self.edges.append((src, dst, latency))

    def finish(self):
        """Close any remaining open segments (end of simulation)."""
        for uid in list(self._open):
            self.end(uid)

    # -- statistics ---------------------------------------------------------

    def total_cycles(self):
        """Sum of all segment durations (serial work)."""
        return sum(seg.cycles for seg in self.segments)

    def __repr__(self):
        return f"<Trace segments={len(self.segments)} edges={len(self.edges)}>"


def packed(trace):
    """The ``whole_run(...)["trace"]`` shape of ``trace``."""
    return {
        "segments": [(seg.id, seg.uid, seg.node, seg.cycles, seg.label,
                      seg.closed) for seg in trace.segments],
        "edges": list(trace.edges),
        "transfers": list(trace.transfers),
        "charged": {},
        "open": {uid: seg.id for uid, seg in trace._open.items()},
        "last": {uid: seg.id for uid, seg in trace._last.items()},
        "cum": dict(trace._cum),
    }
