"""Network accounting for cluster runs.

Every cross-node kernel path routes through the machine's
:class:`~repro.cluster.transport.Transport`, which accumulates a ledger
row per directed fabric link and per node as the simulation runs
(DESIGN §3 "One name per counter").
:class:`NetworkStats` is the operator's *view* of those live counters —
it keeps no copy of any of them — under the names one would read off a
switch to explain why matmult-tree levels off at two nodes (§6.3):
migration hops, per-link totals, per-class (rack vs cross-rack)
aggregates, prefetch-queue effectiveness, and the compressed-vs-raw
byte ledger.  Its tables are column lists over the one
:func:`render_table`.
"""

from repro.mem.page import PAGE_SIZE


def render_table(columns, rows, empty):
    """Right-aligned text table: one ``(header, width, format)`` per
    column (the format is what follows the width in a format spec —
    ``""``, ``","``, ``".1f"``, ``".1%"``), one tuple of cell values per
    row; ``empty`` is the answer when there are no rows."""
    if not rows:
        return empty
    lines = [" ".join(f"{head:>{width}}" for head, width, _ in columns)]
    for row in rows:
        lines.append(" ".join(f"{cell:>{width}{fmt}}"
                              for cell, (_, width, fmt) in zip(row, columns)))
    return "\n".join(lines)


def link_key(link):
    """Deterministic sort key for links whose endpoints mix node ints
    and switch-name strings: nodes before switches, each ascending."""
    return tuple((0, end) if isinstance(end, int) else (1, end)
                 for end in link)


def _kib(nbytes):
    return nbytes / 1024


#: The traffic columns ``class_table`` and ``link_table`` share, and the
#: cells of one ``LinkStats.FIELDS`` dict under them.
_TRAFFIC = (("msgs", 7, ""), ("pages", 8, ""), ("wire KiB", 10, ".1f"),
            ("raw KiB", 10, ".1f"), ("busy cycles", 14, ","))


def _traffic(row):
    return (row["messages"], row["pages"], _kib(row["bytes_sent"]),
            _kib(row["raw_bytes"]), row["busy_cycles"])


#: ``node_table``'s columns: the node, then ``NodeStats.FIELDS``.
_NODE_COLUMNS = (("node", 5, ""), ("pulled", 7, ""), ("pf-iss", 7, ""),
                 ("pf-used", 8, ""), ("stale", 6, ""), ("churn", 6, ""))

#: ``retx_table``: its columns, and the ``LinkStats.FIELDS`` counters
#: under them that its TOTAL row sums.
_RETX_COLUMNS = (("link", 16, ""), ("msgs", 7, ""), ("dropped", 8, ""),
                 ("retx", 6, ""), ("retx KiB", 9, ".1f"))
_RETX_FIELDS = ("messages", "dropped_msgs", "retx_msgs", "retx_bytes")


class NetworkStats:
    """Traffic summary of one cluster run: a read-through view of the
    machine's transport, so it reads the same whenever it was built."""

    #: Names here that differ from the transport's own.  Wire bytes and
    #: cycles are summed over every *traversed* link — an H-hop route
    #: moves its bytes H times, as on a real switched fabric — with page
    #: payloads at their compressed size (``comp_bytes <= raw_bytes``
    #: always, equal when compression is off); ``wire_cycles`` includes
    #: fire-and-forget ACKs, so it reads higher than the scheduler's
    #: ``ScheduleResult.link_busy``.
    ALIASES = {
        "wire_bytes": "bytes_total", "wire_cycles": "busy_total",
        "raw_bytes": "raw_total", "comp_bytes": "comp_total",
        "dropped_msgs": "drops",
    }

    def __init__(self, machine):
        self.machine = machine

    def __getattr__(self, name):
        """Every other counter is the transport's, under its own name
        (``migrations``, ``messages``, ``hops``, ``batches``,
        ``pages_shipped``/``_pulled``/``_prefetched``,
        ``prefetch_used``/``_stale``, ``codec_cycles``, ``retx_msgs``,
        ``retx_bytes``, ``dropped_bytes``, ``retx_wait``) or its
        :attr:`ALIASES` entry."""
        if name == "machine":       # not yet constructed (copy, pickle)
            raise AttributeError(name)
        return getattr(self.machine.transport, self.ALIASES.get(name, name))

    #: The fabric the traffic was routed over.
    topology = property(lambda self: self.machine.topology.name)
    #: Pages that crossed the wire over the whole run (migration
    #: deltas, demand fetches, and speculative prefetches — the latter
    #: never folded into the demand-pull total), and the payload bytes
    #: they moved before compression.
    pages_fetched = property(lambda self: self.machine.pages_fetched)
    bytes_moved = property(lambda self: self.pages_fetched * PAGE_SIZE)
    #: Prefetched pages no space later demanded (wasted speculation).
    prefetch_unused = property(
        lambda self: self.machine.transport.prefetch_unused())
    #: Whether PAGE_BATCH payloads were compressed.
    compression = property(lambda self: self.machine.spec.compression)

    @property
    def loss(self):
        """The fabric's deterministic fault schedule (one-line
        description, or None on a lossless fabric)."""
        loss = self.machine.loss
        return loss.describe() if loss else None

    @property
    def per_link(self):
        """(src, dst) -> per-link breakdown (``LinkStats.as_dict()``:
        class, every ``FIELDS`` counter, message-type counts) in
        :func:`link_key` order; switch-attached links included."""
        links = self.machine.transport.links
        return {link: links[link].as_dict()
                for link in sorted(links, key=link_key)}

    @property
    def per_class(self):
        """link-class name -> aggregate traffic over all links of the
        class (the rack vs cross-rack split): ``links`` plus every
        ``LinkStats.FIELDS`` counter."""
        return self.machine.transport.class_totals()

    @property
    def cached_per_node(self):
        """node -> number of distinct *frames* currently cached there
        (the cache keeps only each frame's newest generation, so dead
        versions don't count)."""
        return {node: len(serials)
                for node, serials in self.machine.node_cache.items()}

    def class_table(self):
        """Aligned per-class rows: the rack/cross-rack aggregate view."""
        return render_table(
            (("class", 8, ""), ("links", 6, "")) + _TRAFFIC,
            [(cls, agg["links"]) + _traffic(agg)
             for cls, agg in sorted(self.per_class.items())],
            "(no cross-node traffic)")

    def link_table(self):
        """Per-class aggregates followed by the raw per-link rows.

        Byte columns match :meth:`class_table` and
        :meth:`compression_table`: ``wire KiB`` is what serialized
        (compressed payloads + framing), ``raw KiB`` the payloads'
        pre-compression size — the same quantity under the same name
        in every view.
        """
        links = render_table(
            (("link", 16, ""), ("class", 6, "")) + _TRAFFIC,
            [(f"{src}->{dst}", stats["cls"]) + _traffic(stats)
             for (src, dst), stats in self.per_link.items()],
            None)
        if links is None:
            return "(no cross-node traffic)"
        return f"{self.class_table()}\n\n{links}"

    def compression_table(self):
        """Per-link compressed-vs-raw payload ledger.

        One row per link that carried pages: raw payload KiB, the KiB
        that actually serialized after zero-suppression/RLE, and the
        saving — plus a totals row.  With compression off the columns
        are equal and the saving reads 0%.
        """
        rows = [(f"{src}->{dst}", stats["raw_bytes"], stats["comp_bytes"])
                for (src, dst), stats in self.per_link.items()
                if stats["pages"]]
        if rows:
            rows.append(("TOTAL", self.raw_bytes, self.comp_bytes))
        return render_table(
            (("link", 16, ""), ("raw KiB", 10, ".1f"),
             ("wire KiB", 10, ".1f"), ("saved", 7, ".1%")),
            [(name, _kib(raw), _kib(comp), 1.0 - comp / raw if raw else 0.0)
             for name, raw, comp in rows],
            "(no page payloads crossed any link)")

    def retx_table(self):
        """Per-link retransmission ledger of the deterministic fault
        schedule.

        One row per link the schedule faulted — wire copies dropped and
        retransmitted (messages and KiB) — plus a totals row.  The row
        *content* is a pure function of the schedule and the program
        (fault decisions are keyed on the link, the sending space's slot
        path and its own message number), so two runs under one seed
        render the same table byte for byte, on every backend and in
        any evaluation order — the determinism oracle the fault tests
        pin down.
        """
        rows = {f"{src}->{dst}": stats
                for (src, dst), stats in self.per_link.items()
                if stats["dropped_msgs"] or stats["retx_msgs"]}
        if rows:
            rows["TOTAL"] = {name: sum(stats[name] for stats in rows.values())
                             for name in _RETX_FIELDS}
        return render_table(
            _RETX_COLUMNS,
            [(name, stats["messages"], stats["dropped_msgs"],
              stats["retx_msgs"], _kib(stats["retx_bytes"]))
             for name, stats in rows.items()],
            "(no link ever dropped a message)")

    def node_table(self):
        """Aligned per-node rows of the cumulative page-path counters
        (``NodeStats.FIELDS``: demand pulls, prefetch issued / used /
        stale, churn) of every node that moved a page — the counters a
        control plane diffs at each decision pass, the same whatever
        backend ran the machine."""
        nodes = self.machine.transport.nodes
        rows = [(node, *nodes[node].as_dict().values())
                for node in sorted(nodes)]
        return render_table(_NODE_COLUMNS,
                            [row for row in rows if any(row[1:])],
                            "(no node moved a page)")

    def class_bytes(self, cls):
        """Total wire bytes sent over links of class ``cls`` (0 if the
        fabric has none) — e.g. ``class_bytes("core")`` is the
        cross-rack volume a placement tries to shrink."""
        return self.per_class.get(cls, {}).get("bytes_sent", 0)

    def compression_ratio(self):
        """Compressed / raw payload bytes (1.0 when nothing compressed)."""
        if not self.raw_bytes:
            return 1.0
        return self.comp_bytes / self.raw_bytes

    def summary(self):
        """One-paragraph human-readable summary."""
        prefetch = ""
        if self.pages_prefetched:
            prefetch = (f", {self.pages_prefetched:,} prefetched "
                        f"[{self.prefetch_used:,} used, "
                        f"{self.prefetch_unused:,} unused]")
        comp = ""
        if self.compression:
            comp = (f", payload compressed "
                    f"{self.raw_bytes / 1024:.0f} -> "
                    f"{self.comp_bytes / 1024:.0f} KiB "
                    f"({self.compression_ratio():.0%})")
        retx = ""
        if self.loss is not None:
            retx = (f", faults [{self.loss}]: {self.dropped_msgs:,} drops "
                    f"-> {self.retx_msgs:,} retransmits "
                    f"({self.retx_bytes / 1024:.0f} KiB, "
                    f"{self.retx_wait:,} wait cycles)")
        return (
            f"{self.migrations} migration hops, "
            f"{self.pages_fetched:,} pages fetched "
            f"({self.pages_shipped:,} shipped with migrations, "
            f"{self.pages_pulled:,} demand-pulled{prefetch}; "
            f"{self.bytes_moved / 1024:.0f} KiB payload in "
            f"{self.messages:,} messages over {self.hops:,} link "
            f"traversals{comp}), {self.wire_cycles:,} wire cycles over "
            f"{len(self.machine.transport.links)} {self.topology} "
            f"links{retx}, "
            f"cache population: {dict(sorted(self.cached_per_node.items()))}"
        )

    def __repr__(self):
        return f"<NetworkStats {self.summary()}>"
