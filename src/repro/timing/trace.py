"""Execution traces: segments of work connected by precedence edges.

During logical execution every space (or baseline thread) owns one *open*
segment accumulating charged cycles.  At each synchronization event the
owner ``cut``s: the open segment closes and a new one opens, with an
implicit program-order edge between them.  Cross-space dependencies
(Put-starts-child, Get-waits-for-child, network messages) become explicit
edges, optionally carrying latency (network transit time that occupies no
CPU).

A segment is its id: an index into one list per field
(:class:`Columns`), as are edges and link transfers.  The trace holds no
per-record object, so a long run leaves the garbage collector nothing of
it to walk, and :func:`repro.timing.schedule.schedule` reads the lists
in place.
"""


class Columns:
    """One list per field, named after it: ``columns.cycles[i]`` is
    field ``cycles`` of record ``i``.  Recording code appends to the
    lists; readers off that path take whole records as tuples,
    ``columns[i]`` (led by ``i`` itself when ``numbered``: a segment's
    id is its place).  A slice, its deletion and ``extend`` move
    records the same way, for the run ledgers."""

    def __init__(self, fields, numbered=False):
        self.fields = fields
        self.numbered = numbered
        for field in fields:
            setattr(self, field, [])

    def lists(self):
        return [getattr(self, field) for field in self.fields]

    def __len__(self):
        return len(getattr(self, self.fields[0]))

    def __iter__(self):
        return iter(self[:])

    def __getitem__(self, i):
        ids = range(len(self))[i]
        if isinstance(i, slice):
            records = zip(*[values[i] for values in self.lists()])
            if self.numbered:
                return [(sid, *record) for sid, record in zip(ids, records)]
            return list(records)
        record = tuple(values[ids] for values in self.lists())
        return (ids, *record) if self.numbered else record

    def __delitem__(self, i):
        for values in self.lists():
            del values[i]

    def extend(self, records):
        fields = zip(*records)
        if self.numbered:
            next(fields, None)      # the ids: records land in id order
        for values, more in zip(self.lists(), fields):
            values.extend(more)


class Trace:
    """Recorder for segments and edges during a logical execution."""

    def __init__(self):
        #: Indexed by segment id: the execution context, the node it
        #: runs on, the cycles charged to it, its label, whether it has
        #: closed.
        self.segments = Columns(("uid", "node", "cycles", "label",
                                 "closed"), numbered=True)
        #: Precedence edges: source id, destination id, latency cycles.
        self.edges = Columns(("src", "dst", "latency"))
        #: Precedence edges that additionally *occupy* a network link
        #: (any hashable channel identity; the transport's are fabric
        #: endpoint pairs): the destination becomes ready only after the
        #: transfer wins the link, occupies it ``busy`` cycles and
        #: transits ``latency`` more, on no CPU.  ``cls`` names the
        #: link's class and ``kind`` the transfer's protocol purpose
        #: ("migrate", "fetch", "prefetch", "retx", ...), both possibly
        #: None.  The cluster transport extends them
        #: (``Transport._stall_edges``).  Kept apart from :attr:`edges`
        #: so plain consumers keep their 3-field records.
        self.transfers = Columns(("src", "dst", "link", "busy", "latency",
                                  "cls", "kind"))
        self._open = {}   # uid -> open segment id
        self._last = {}   # uid -> last closed segment id
        self._cum = {}    # uid -> cycles of all *closed* segments
        #: Optional observer called with each segment id the moment it
        #: closes (``cut``/``sleep``/``end``), *after* the trace's own
        #: bookkeeping.  The time-travel debugger's ``goto`` uses it to
        #: capture machine state at a precise point of a replay; the
        #: observer must not mutate the trace (it would perturb the very
        #: replay it is observing).  ``None`` (the default) costs one
        #: attribute test per close.
        self.on_close = None

    # -- lifecycle ---------------------------------------------------------

    def _close(self, uid):
        sid = self._open.pop(uid)
        self.segments.closed[sid] = True
        self._last[uid] = sid
        self._cum[uid] = self._cum.get(uid, 0) + self.segments.cycles[sid]
        return sid

    def begin(self, uid, node=0, label=""):
        """Open a segment for execution context ``uid``, which has none
        open; returns its id."""
        if uid in self._open:
            raise ValueError(f"context {uid!r} already has an open segment")
        segments = self.segments
        sid = len(segments.uid)
        segments.uid.append(uid)
        segments.node.append(node)
        segments.cycles.append(0)
        segments.label.append(label)
        segments.closed.append(False)
        self._open[uid] = sid
        return sid

    def charge(self, uid, cycles):
        """Add ``cycles`` of work to ``uid``'s open segment."""
        self.segments.cycles[self._open[uid]] += cycles

    def cut(self, uid, label=""):
        """Close ``uid``'s open segment and open the next one.

        Returns ``(closed, opened)`` ids.  A program-order edge is added.
        """
        return self.sleep(uid, 0, label)

    def sleep(self, uid, cycles, label=""):
        """Close ``uid``'s open segment and open the next one ``cycles``
        of virtual time later, consuming no CPU in between.

        A timer wait, as opposed to :meth:`charge`, which models compute
        and occupies a CPU for its duration.  The serving dispatcher
        uses it to idle until the next trace arrival without starving
        the request children sharing its node.  Sleep does not advance
        :meth:`charged` (it is not work); callers pacing against the
        program clock must account for it separately.

        Returns ``(closed, opened)`` ids.
        """
        closed = self._close(uid)
        opened = self.begin(uid, self.segments.node[closed], label)
        self.edge(closed, opened, cycles)
        if self.on_close is not None:
            self.on_close(closed)
        return closed, opened

    def end(self, uid):
        """Close ``uid``'s final segment (context exits); returns its id."""
        closed = self._close(uid)
        if self.on_close is not None:
            self.on_close(closed)
        return closed

    # -- queries -------------------------------------------------------------

    def current(self, uid):
        """Id of ``uid``'s open segment (raises KeyError if none)."""
        return self._open[uid]

    def is_open(self, uid):
        """True if ``uid`` currently has an open segment."""
        return uid in self._open

    def last_closed(self, uid):
        """Id of the most recently closed segment of ``uid`` (or None)."""
        return self._last.get(uid)

    def charged(self, uid):
        """Total cycles charged to ``uid`` so far (closed segments plus
        the open one) — the per-context *program clock* the control
        plane reads to estimate how much compute separated two simulated
        events.  A pure function of the simulation, so replays agree."""
        total = self._cum.get(uid, 0)
        open_seg = self._open.get(uid)
        if open_seg is not None:
            total += self.segments.cycles[open_seg]
        return total

    def move_node(self, uid, node):
        """Record that ``uid`` now executes on ``node`` (space migration).

        Cuts the open segment so work before/after the move is scheduled
        on the right node, and returns ``(closed, opened)`` ids.
        """
        closed, opened = self.sleep(uid, 0, "migrate")
        self.segments.node[opened] = node
        return closed, opened

    def edge(self, src, dst, latency=0):
        """Add a precedence edge from segment id ``src`` to ``dst``."""
        edges = self.edges
        edges.src.append(src)
        edges.dst.append(dst)
        edges.latency.append(latency)

    def finish(self):
        """Close any remaining open segments (end of simulation)."""
        for uid in list(self._open):
            self.end(uid)

    # -- statistics ---------------------------------------------------------

    def total_cycles(self):
        """Sum of all segment durations (serial work)."""
        return sum(self.segments.cycles)

    def __repr__(self):
        return (f"<Trace segments={len(self.segments)} "
                f"edges={len(self.edges)}>")
