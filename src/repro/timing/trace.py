"""Execution traces: segments of work connected by precedence edges.

During logical execution every space (or baseline thread) owns one *open*
segment accumulating charged cycles.  At each synchronization event the
owner ``cut``s: the open segment closes and a new one opens, with an
implicit program-order edge between them.  Cross-space dependencies
(Put-starts-child, Get-waits-for-child, network messages) become explicit
edges, optionally carrying latency (network transit time that occupies no
CPU).

The resulting DAG is fed to :func:`repro.timing.schedule.schedule`.
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
        #: network link, tagged with the link's class name and the
        #: protocol purpose of the transfer (both may be None); see
        #: :meth:`link_edge`.  Kept separate from :attr:`edges` so plain
        #: consumers keep their 3-tuple shape.
        self.transfers = []
        #: list of (segment_id, node, policy, knob, old, new) — control-
        #: plane decision records, anchored at the deciding segment (the
        #: caller's rendezvous segment).  Annotations only: decisions act
        #: on the run through ordinary segments/edges (knob changes,
        #: migrations, timeout waits), so both schedule engines replay
        #: their *consequences* without reading this list.  Kept on the
        #: trace so a replayed trace carries its decision history.
        self.decisions = []
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

    def decision(self, seg, node, policy, knob, old, new):
        """Record one control-plane decision anchored at segment ``seg``."""
        seg_id = seg.id if isinstance(seg, Segment) else seg
        record = (seg_id, node, policy, knob, old, new)
        self.decisions.append(record)
        return record

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

    def link_edge(self, src_seg, dst_seg, link, busy=0, latency=0, cls=None,
                  kind=None):
        """Precedence edge that also serializes on a network link.

        ``link`` is any hashable channel identity (the cluster transport
        uses ``(endpoint, endpoint)`` pairs of fabric vertices — node
        ints and switch names).  The destination becomes ready only
        after the transfer wins the link (transfers on one link contend,
        FIFO in completion order of their sources), occupies it for
        ``busy`` cycles of serialization, and transits ``latency``
        further cycles.  Neither phase consumes a CPU.  ``cls`` tags the
        link's latency/bandwidth class so the scheduler can aggregate
        occupancy per class (rack vs oversubscribed core links);
        ``kind`` tags the transfer's protocol purpose ("migrate",
        "fetch", "prefetch", "retx", ...) so stall time can be
        attributed — notably the explicit stall edges a *late-arriving*
        prefetched page charges, versus a stop-and-wait demand round
        trip, versus the retransmission timeouts a lossy fabric's
        reliable link layer adds (``kind="retx"``).
        """
        self.link_edges(src_seg, dst_seg, [(link, busy, latency, cls, kind)])

    def link_edges(self, src_seg, dst_seg, edges):
        """One :meth:`link_edge` between the two segments per ``(link,
        busy, latency, cls, kind)`` of ``edges``, in order, entered as a
        single ``extend`` — every link one exchange occupied."""
        src = src_seg.id if isinstance(src_seg, Segment) else src_seg
        dst = dst_seg.id if isinstance(dst_seg, Segment) else dst_seg
        self.transfers.extend([(src, dst, *edge) for edge in edges])

    def finish(self):
        """Close any remaining open segments (end of simulation)."""
        for uid in list(self._open):
            self.end(uid)

    # -- statistics ---------------------------------------------------------

    def total_cycles(self):
        """Sum of all segment durations (serial work)."""
        return sum(seg.cycles for seg in self.segments)

    def cycles_by_uid(self):
        """Dict uid -> total cycles charged to that context."""
        out = {}
        for seg in self.segments:
            out[seg.uid] = out.get(seg.uid, 0) + seg.cycles
        return out

    def __repr__(self):
        return f"<Trace segments={len(self.segments)} edges={len(self.edges)}>"
