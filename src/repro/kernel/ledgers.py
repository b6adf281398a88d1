"""What a run may move: the one declaration of a machine's run state.

A started space's subtree computes the same values whenever it runs
(paper §3.2), so everything a run does to the machine outside its own
space graph can be named ahead of time.  :data:`LEDGERS` names it: each
entry is one machine-global and the four things done with it — ``mark``
it, extract a run's ``delta`` since a mark, ``rewind`` it by that delta,
``adopt`` the delta into another machine.  :data:`NOT_REPLAYED` names
every other attribute the ``Machine``, ``Trace``, ``Transport`` and
``Space`` constructors assign and why it needs none of the four;
:data:`SPLICED` the ``Space`` attributes a run may change
(``tests/kernel/test_shard.py`` holds all three to the constructors).

The declaration is read twice.  ``kernel/shard.py`` hands a subtree's
run back from a worker process as the deltas since the fork-time marks.
:func:`whole_run` is the same hand-back taken from the *origin* mark —
a freshly constructed machine: counters at zero, sequences and tables
empty (each kind's ``ORIGIN``) — which is everything the run has moved:
the content of a ``repro.debug`` ``MachineImage`` and what two runs are
compared by.  A new machine-global is a row here, and is then
shipped, rewound, adopted, frozen, compared and digested with no
further code.
"""


def _uid_index(uid):
    """Numeric suffix of a machine-assigned space uid (``"s42"`` -> 42);
    None for the root's or any foreign uid shape."""
    if isinstance(uid, str) and uid[:1] == "s" and uid[1:].isdigit():
        return int(uid[1:])
    return None


class Renumber:
    """Worker numbering -> the parent's at adoption time: whatever a run
    numbered past the fork-time bases shifts by the parent's growth
    since the fork."""

    def __init__(self, machine, base):
        self.serial0 = base["serial"]
        self.uid0 = base["uid"]
        self.seg0 = base["segments"]
        self.serials = machine.frames._next_serial - self.serial0
        self.uids = machine._uid_counter - self.uid0
        self.segs = len(machine.trace.segments) - self.seg0

    def serial(self, serial):
        return serial + self.serials if serial > self.serial0 else serial

    def uid(self, uid):
        index = _uid_index(uid)
        if index is not None and index > self.uid0:
            return f"s{index + self.uids}"
        return uid

    def sid(self, sid):
        return sid + self.segs if sid >= self.seg0 else sid


_ABSENT = object()


def _diff(now, before):
    """Entries of ``now`` that ``before`` lacks or holds differently."""
    return {key: value for key, value in now.items()
            if before.get(key, _ABSENT) != value}


def _restore(table, before, keys):
    """Put ``keys`` of ``table`` back to what ``before`` holds (absent
    there: absent again)."""
    for key in keys:
        if key not in before:
            del table[key]
        else:
            table[key] = before[key]


class Ledger:
    """One machine-global a subtree's run may move, and the four things
    done with it: ``mark`` it once per worker (the machine is the same
    before every sibling of a queue), extract the run's ``delta``,
    ``rewind`` it by that delta once the sibling is handed back, and
    ``adopt`` the delta into the parent."""

    #: The mark of a freshly constructed machine: a ``delta`` from it
    #: is all the ledger holds (:func:`whole_run`).
    ORIGIN = {}

    def __init__(self, key, owner, attr, refuse=None, local=None):
        #: Name of the delta in the hand-back payload and in an image;
        #: None for state the parent never sees (rewound, not handed
        #: back).
        self.key = key
        #: Where it lives: ``machine.<owner>.<attr>`` (the machine's own
        #: attribute when ``owner`` is empty).
        self.owner = owner
        self.attr = attr
        #: Why the worker refuses to report a run that moved it at all.
        self.refuse = refuse
        #: Why an unkeyed ledger stays the worker's own.
        self.local = local

    def holder(self, machine):
        return getattr(machine, self.owner) if self.owner else machine

    def get(self, machine):
        return getattr(self.holder(machine), self.attr)


class Counters(Ledger):
    """Numbers a run only adds to (``attr`` is a tuple of them; None
    takes the holder's ``SCALARS``): the delta is the differences."""

    def names(self, machine):
        return self.attr or self.holder(machine).SCALARS

    def mark(self, machine):
        holder = self.holder(machine)
        return {name: getattr(holder, name) for name in self.names(machine)}

    def delta(self, machine, mark):
        return {name: now - mark.get(name, 0)
                for name, now in self.mark(machine).items()
                if now != mark.get(name, 0)}

    def rewind(self, machine, mark, delta):
        holder = self.holder(machine)
        for name in delta:
            setattr(holder, name, mark[name])

    def adopt(self, machine, delta, renumber):
        holder = self.holder(machine)
        for name, amount in delta.items():
            setattr(holder, name, getattr(holder, name) + amount)


class Tail(Ledger):
    """A sequence a run only appends to (a list, or the trace's
    :class:`~repro.timing.trace.Columns` taken as records): the delta
    is the suffix (``unpack``ed into the parent's numbering)."""

    ORIGIN = 0

    def __init__(self, key, owner, attr, unpack=None):
        super().__init__(key, owner, attr)
        self.unpack = unpack

    def mark(self, machine):
        return len(self.get(machine))

    def delta(self, machine, mark):
        return self.get(machine)[mark:]

    def rewind(self, machine, mark, delta):
        del self.get(machine)[mark:]

    def adopt(self, machine, delta, renumber):
        if self.unpack is not None:
            delta = [self.unpack(renumber, item) for item in delta]
        self.get(machine).extend(delta)


class Table(Ledger):
    """A dict a run writes by key: the delta is the entries it added or
    changed (it removes none); ``unpack`` renumbers an entry for the
    parent."""

    def __init__(self, key, owner, attr, unpack=None, local=None):
        super().__init__(key, owner, attr, local=local)
        self.unpack = unpack

    def mark(self, machine):
        return dict(self.get(machine))

    def delta(self, machine, mark):
        return _diff(self.get(machine), mark)

    def rewind(self, machine, mark, delta):
        _restore(self.get(machine), mark, delta)

    def adopt(self, machine, delta, renumber):
        if self.unpack is not None:
            delta = (self.unpack(renumber, *entry) for entry in delta.items())
        self.get(machine).update(delta)


class Nested(Table):
    """A dict of dicts a run writes by inner key (``node_cache``)."""

    def mark(self, machine):
        return {key: dict(inner) for key, inner in self.get(machine).items()}

    def delta(self, machine, mark):
        out = {}
        for key, inner in self.get(machine).items():
            moved = _diff(inner, mark.get(key, {}))
            if moved:
                out[key] = moved
        return out

    def rewind(self, machine, mark, delta):
        table = self.get(machine)
        for key, moved in delta.items():
            if key in mark:
                _restore(table[key], mark[key], moved)
            else:
                del table[key]

    def adopt(self, machine, delta, renumber):
        table = self.get(machine)
        for key, moved in delta.items():
            inner = table[key]
            for entry in moved.items():
                inner_key, value = self.unpack(renumber, *entry)
                inner[inner_key] = value


class Charged(Ledger):
    """Segments open at the fork that the run charged or closed in
    place (the sibling's own start segment; segment ids below the
    fork-time base need no renumbering)."""

    def mark(self, machine):
        trace = self.holder(machine)
        cycles = trace.segments.cycles
        return {sid: cycles[sid] for sid in trace._open.values()}

    def delta(self, machine, mark):
        segments = self.get(machine)
        cycles, closed = segments.cycles, segments.closed
        return {sid: (cycles[sid], closed[sid])
                for sid, before in mark.items()
                if closed[sid] or cycles[sid] != before}

    def rewind(self, machine, mark, delta):
        segments = self.get(machine)
        for sid in delta:
            segments.cycles[sid] = mark[sid]
            segments.closed[sid] = False

    def adopt(self, machine, delta, renumber):
        segments = self.get(machine)
        for sid, (cycles, closed) in delta.items():
            segments.cycles[sid] = cycles
            segments.closed[sid] = closed


class Rows(Ledger):
    """A transport table of ``CounterRow`` rows (``links``, ``nodes``),
    moved in place; adoption goes through the table's get-or-create
    ``accessor`` (``link``, ``node``)."""

    def __init__(self, key, owner, attr, accessor):
        super().__init__(key, owner, attr)
        self.accessor = accessor

    def mark(self, machine):
        return {key: row.as_dict()
                for key, row in self.get(machine).items()}

    def delta(self, machine, mark):
        out = {}
        for key, row in self.get(machine).items():
            moved = row.delta_since(mark.get(key))
            if moved is not None:
                out[key] = moved
        return out

    def rewind(self, machine, mark, delta):
        rows = self.get(machine)
        for key in delta:
            if key in mark:
                rows[key].restore(mark[key])
            else:
                del rows[key]

    def adopt(self, machine, delta, renumber):
        row_of = getattr(self.holder(machine), self.accessor)
        for key, moved in delta.items():
            row_of(key).add(moved)


def _unpack_segment(renumber, row):
    """``(id, uid, node, cycles, label, closed)``: the id and the uid
    renumber."""
    sid, uid, *fields = row
    return (renumber.sid(sid), renumber.uid(uid), *fields)


def _unpack_edge(renumber, edge):
    """Edges and transfers: the two leading segment ids renumber."""
    return (renumber.sid(edge[0]), renumber.sid(edge[1])) + edge[2:]


def _unpack_debug(renumber, line):
    """``Machine.dev_debug`` heads a line with ``[uid]`` of its space."""
    uid, rest = line[1:].split("]", 1)
    return f"[{renumber.uid(uid)}]{rest}"


def _by_uid(renumber, uid, value):
    return renumber.uid(uid), value


def _segment_by_uid(renumber, uid, sid):
    return renumber.uid(uid), renumber.sid(sid)


def _by_serial(renumber, serial, value):
    return renumber.serial(serial), value


#: Everything a subtree's run may move outside its own space graph, in
#: adoption order.
LEDGERS = (
    Counters("uids", "", ("_uid_counter",)),
    Counters("counters", "frames", ("_next_serial", "frames_allocated")),
    Counters("scalars", "transport", None),
    # Cursor devices hand out values that depend on global order: a
    # worker's delta of them is always empty, the root's own reads are
    # in the image.
    Counters("cursors", "", ("_time_idx", "_console_pos"),
             refuse="cursor device read"),
    Tail("console_out", "", "console_output"),
    Tail("debug_lines", "", "debug_lines", unpack=_unpack_debug),
    Tail("merge_stats", "", "merge_stats_total"),
    Tail("segments", "trace", "segments", unpack=_unpack_segment),
    Tail("edges", "trace", "edges", unpack=_unpack_edge),
    Tail("transfers", "trace", "transfers", unpack=_unpack_edge),
    Charged("charged", "trace", "segments"),
    Table("open", "trace", "_open", unpack=_segment_by_uid),
    Table("last", "trace", "_last", unpack=_segment_by_uid),
    Table("cum", "trace", "_cum", unpack=_by_uid),
    Nested("node_cache", "", "node_cache", unpack=_by_serial),
    Table("frame_origin", "", "frame_origin", unpack=_by_serial),
    Table("placements", "", "node_map"),
    Table(None, "transport", "_wire_sizes", local=(
        "a memo of encoded sizes by frame tag: sound within one run, "
        "but two subtrees of a queue number their new frames alike")),
    Rows("links", "transport", "links", "link"),
    Rows("nodes", "transport", "nodes", "node"),
)

_CONFIG = "configuration: fixed at construction, only read during a run"
_HOST = ("host machinery: a worker forgets the parent's guest threads "
         "(Engine.after_fork) and unwinds its own after every sibling")

#: Every other attribute the constructors assign, and why a run needs
#: none of mark / delta / rewind / adopt (for a Space: no splice) for it.
NOT_REPLAYED = {
    "Machine": {
        **dict.fromkeys((
            "spec", "cost", "nnodes", "merge_mode", "topology",
            "placement", "_console_in", "_time_script", "programs"),
            _CONFIG),
        "loss": "configuration: the schedule's decisions are fixed at "
                "construction; it holds only memos of folded key "
                "prefixes, each link's (seed, link) and each (link, "
                "sender)'s, the same in every process whatever drew first",
        "frames": "its counters are a ledger of their own",
        "trace": "its lists and tables are ledgers of their own",
        "transport": "its counters and tables are ledgers of their own",
        "engine": _HOST,
        "kernel": "stateless: it holds the machine and nothing else",
        "root": "a subtree travels as the payload's space graph",
        "shard": "None inside a worker: no nested sharding",
        "_closed": "lifecycle flag of the parent's machine",
    },
    "Trace": {
        "on_close": "the debugger's observer; its replays force the "
                    "serial engine",
    },
    "Transport": {
        "machine": _CONFIG,
        "_prices": "configuration: a memo of CostModel.link_message over "
                   "the machine's fixed cost model and tcp_mode, the same "
                   "in every process whatever ran first",
    },
    # What ``_adopt`` leaves alone on the parent's Space object when it
    # splices a hand-back in (everything else is ``SPLICED``).
    "Space": {
        "machine": "the parent's machine, not the worker's copy",
        "parent": "the caller's child table keeps this very object",
        "slot": "its number in that table, which no run changes",
        "uid": "assigned before the fork; the trace refers to it",
        "ctx": "reset: a handed-back space has no live guest stack here",
        "home_node": "fixed at creation: nothing re-homes a space",
        "io_privilege": "granted by the parent's Put, never by the "
                        "space's own run",
    },
}

#: The ``Space.__init__`` attributes a run may change: ``_adopt`` copies
#: exactly these from the handed-back space onto the parent's object.
SPLICED = ("addrspace", "regs", "snapshot", "children", "state", "trap",
           "trap_info", "insn_limit", "visit_tokens", "messages", "inflight",
           "cur_node", "killed", "started")


def whole_run(machine):
    """``{owner: {key: delta}}`` of every keyed ledger from its origin
    mark: everything the run has moved so far, as fresh copies in the
    hand-back's own shape (the trace's lists as rows, counter rows as
    their sums since creation; a counter or row that never moved is
    absent)."""
    run = {}
    for ledger in LEDGERS:
        if ledger.key is not None:
            run.setdefault(ledger.owner or "machine", {})[ledger.key] = \
                ledger.delta(machine, ledger.ORIGIN)
    return run
