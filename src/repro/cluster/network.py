"""Network accounting for cluster runs.

Every cross-node kernel path routes through the machine's
:class:`~repro.cluster.transport.Transport`, which counts messages,
bytes, pages, and serialization cycles per directed fabric link as the
simulation runs.  This module turns those live counters into the
operator-readable statistics one would read off a switch to explain why
matmult-tree levels off at two nodes (§6.3) — no post-hoc trace rescans:
migration hops, per-link totals, per-class (rack vs cross-rack)
aggregates, prefetch-queue effectiveness, and the compressed-vs-raw
byte ledger are maintained incrementally by the transport itself.
"""

from repro.mem.page import PAGE_SIZE


class NetworkStats:
    """Traffic summary of one cluster run."""

    def __init__(self, machine):
        self.machine = machine
        transport = machine.transport
        #: The fabric the traffic was routed over.
        self.topology = machine.topology.name
        #: Pages that crossed the wire over the whole run (migration
        #: deltas, demand fetches, and speculative prefetches).
        self.pages_fetched = machine.pages_fetched
        #: ... split by protocol path.  Prefetched pages are counted on
        #: their own, never folded into the demand-pull total;
        #: ``prefetch_used`` says how many of them a space later
        #: actually demanded (the rest were wasted speculation).
        self.pages_shipped = transport.pages_shipped
        self.pages_pulled = transport.pages_pulled
        self.pages_prefetched = transport.pages_prefetched
        self.prefetch_used = transport.prefetch_used
        self.prefetch_unused = transport.prefetch_unused()
        self.prefetch_stale = transport.prefetch_stale
        #: Page payload bytes those transfers moved (pre-compression).
        self.bytes_moved = self.pages_fetched * PAGE_SIZE
        #: Total wire bytes including message framing, scatter/gather
        #: headers, and control traffic (PAGE_REQ/ACK), summed over
        #: every *traversed* link — an H-hop route moves its bytes H
        #: times, as on a real switched fabric.  Page payloads count at
        #: their *compressed* size when the machine compresses.
        self.wire_bytes = transport.bytes_total
        #: Page payload bytes before/after wire compression, summed over
        #: traversed links like :attr:`wire_bytes`.  Equal when
        #: compression is off; ``comp_bytes <= raw_bytes`` always.
        self.raw_bytes = transport.raw_total
        self.comp_bytes = transport.comp_total
        #: Whether PAGE_BATCH payloads were compressed, and what the
        #: codec cost (cycles charged as transfer latency).
        self.compression = machine.compression
        self.codec_cycles = transport.codec_cycles
        #: The fabric's deterministic fault schedule (one-line
        #: description, or None on a lossless fabric) and its
        #: consequences: wire copies the schedule dropped / the link
        #: layer retransmitted / duplicated / reordered, the
        #: retransmitted byte volume, and the timeout cycles
        #: space-stalling exchanges spent waiting on retransmits
        #: (charged as ``kind="retx"`` stall edges in the schedule).
        self.loss = machine.loss.describe() if machine.loss else None
        self.dropped_msgs = transport.drops
        self.dropped_bytes = transport.dropped_bytes
        self.retx_msgs = transport.retx_msgs
        self.retx_bytes = transport.retx_bytes
        self.dup_msgs = transport.dups
        self.reorder_msgs = transport.reorders
        self.retx_wait = transport.retx_wait
        #: Logical messages of any type, link traversals they cost, and
        #: PAGE_BATCH messages specifically.
        self.messages = transport.messages
        self.hops = transport.hops
        self.batches = transport.batches
        #: Migration hops (one MIGRATE message each), counted
        #: incrementally by the transport as they happen.
        self.migrations = transport.migrations
        #: Serialization cycles summed over every link and message type
        #: (including fire-and-forget ACKs, which never stall a space —
        #: so this reads higher than the scheduler's per-link
        #: ``ScheduleResult.link_busy`` occupancy).
        self.wire_cycles = transport.busy_total
        #: (src, dst) -> per-link breakdown (class, messages, bytes,
        #: pages, raw/compressed payload bytes, occupancy, message-type
        #: counts); switch-attached links included.
        self.per_link = {
            link: stats.as_dict()
            for link, stats in sorted(transport.links.items(),
                                      key=lambda kv: _link_key(kv[0]))
        }
        #: link-class name -> aggregate traffic over all links of the
        #: class (the rack vs cross-rack split): ``links`` plus every
        #: ``LinkStats.FIELDS`` counter.
        self.per_class = transport.class_totals()
        #: node -> number of distinct *frames* currently cached there
        #: (the cache keeps only each frame's newest generation, so dead
        #: versions don't count).
        self.cached_per_node = {
            node: len(serials) for node, serials in machine.node_cache.items()
        }

    def class_table(self):
        """Aligned per-class rows: the rack/cross-rack aggregate view."""
        if not self.per_class:
            return "(no cross-node traffic)"
        lines = [f"{'class':>8} {'links':>6} {'msgs':>7} {'pages':>8} "
                 f"{'wire KiB':>10} {'raw KiB':>10} {'busy cycles':>14}"]
        for cls, agg in sorted(self.per_class.items()):
            lines.append(
                f"{cls:>8} {agg['links']:>6} {agg['messages']:>7} "
                f"{agg['pages']:>8} {agg['bytes_sent'] / 1024:>10.1f} "
                f"{agg['raw_bytes'] / 1024:>10.1f} "
                f"{agg['busy_cycles']:>14,}"
            )
        return "\n".join(lines)

    def link_table(self):
        """Per-class aggregates followed by the raw per-link rows.

        Byte columns match :meth:`class_table` and
        :meth:`compression_table`: ``wire KiB`` is what serialized
        (compressed payloads + framing), ``raw KiB`` the payloads'
        pre-compression size — the same quantity under the same name
        in every view.
        """
        if not self.per_link:
            return "(no cross-node traffic)"
        lines = [self.class_table(), ""]
        lines.append(f"{'link':>16} {'class':>6} {'msgs':>7} {'pages':>8} "
                     f"{'wire KiB':>10} {'raw KiB':>10} {'busy cycles':>14}")
        for (src, dst), stats in self.per_link.items():
            lines.append(
                f"{f'{src}->{dst}':>16} {stats['cls']:>6} "
                f"{stats['messages']:>7} {stats['pages']:>8} "
                f"{stats['bytes_sent'] / 1024:>10.1f} "
                f"{stats['raw_bytes'] / 1024:>10.1f} "
                f"{stats['busy_cycles']:>14,}"
            )
        return "\n".join(lines)

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
        if not rows:
            return "(no page payloads crossed any link)"
        lines = [f"{'link':>16} {'raw KiB':>10} {'wire KiB':>10} "
                 f"{'saved':>7}"]
        for name, raw, comp in rows + [("TOTAL", self.raw_bytes,
                                        self.comp_bytes)]:
            saved = 1.0 - comp / raw if raw else 0.0
            lines.append(f"{name:>16} {raw / 1024:>10.1f} "
                         f"{comp / 1024:>10.1f} {saved:>6.1%}")
        return "\n".join(lines)

    def retx_table(self):
        """Per-link retransmission ledger of the deterministic fault
        schedule.

        One row per link the schedule faulted — wire copies dropped,
        retransmitted (messages and KiB), duplicated, and reordered —
        plus a totals row.  The row *content* is a pure function of the
        schedule and the program (fault decisions are keyed on
        ``(link, msg_serial)``), so two runs under one seed render the
        same table byte for byte — the determinism oracle the fault
        tests pin down.
        """
        rows = [(f"{src}->{dst}", stats)
                for (src, dst), stats in self.per_link.items()
                if stats["dropped_msgs"] or stats["retx_msgs"]
                or stats["dup_msgs"] or stats["reorder_msgs"]]
        if not rows:
            return ("(no link ever dropped, duplicated, or reordered "
                    "a message)")
        lines = [f"{'link':>16} {'msgs':>7} {'dropped':>8} {'retx':>6} "
                 f"{'retx KiB':>9} {'dup':>5} {'reorder':>8}"]
        total = {"messages": 0, "dropped_msgs": 0, "retx_msgs": 0,
                 "retx_bytes": 0, "dup_msgs": 0, "reorder_msgs": 0}
        for name, stats in rows:
            for key in total:
                total[key] += stats[key]
            lines.append(
                f"{name:>16} {stats['messages']:>7} "
                f"{stats['dropped_msgs']:>8} {stats['retx_msgs']:>6} "
                f"{stats['retx_bytes'] / 1024:>9.1f} "
                f"{stats['dup_msgs']:>5} {stats['reorder_msgs']:>8}")
        lines.append(
            f"{'TOTAL':>16} {total['messages']:>7} "
            f"{total['dropped_msgs']:>8} {total['retx_msgs']:>6} "
            f"{total['retx_bytes'] / 1024:>9.1f} "
            f"{total['dup_msgs']:>5} {total['reorder_msgs']:>8}")
        return "\n".join(lines)

    def window(self):
        """Snapshot-and-reset the transport's current telemetry window.

        Returns the :class:`~repro.cluster.transport.TelemetryWindow`
        accumulated since the last snapshot (per-node stall/prefetch
        counters, per-route delivery samples, per-pair bytes, fault
        deltas) and opens a fresh one — the exact read-and-reset the
        control plane performs at each decision pass, exposed for
        operators and tests.  On a machine with a control plane attached
        the controller consumes the windows itself; calling this
        mid-run there would steal its telemetry, so prefer it on
        ``control=None`` machines or after the run completes.
        """
        return self.machine.transport.take_window()

    def class_bytes(self, cls):
        """Total wire bytes sent over links of class ``cls`` (0 if the
        fabric has none) — e.g. ``class_bytes("core")`` is the
        cross-rack volume placement policies try to shrink."""
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
                    f"{self.retx_wait:,} wait cycles), "
                    f"{self.dup_msgs:,} dups, {self.reorder_msgs:,} "
                    f"reorders")
        return (
            f"{self.migrations} migration hops, "
            f"{self.pages_fetched:,} pages fetched "
            f"({self.pages_shipped:,} shipped with migrations, "
            f"{self.pages_pulled:,} demand-pulled{prefetch}; "
            f"{self.bytes_moved / 1024:.0f} KiB payload in "
            f"{self.messages:,} messages over {self.hops:,} link "
            f"traversals{comp}), {self.wire_cycles:,} wire cycles over "
            f"{len(self.per_link)} {self.topology} links{retx}, "
            f"cache population: {dict(sorted(self.cached_per_node.items()))}"
        )

    def __repr__(self):
        return f"<NetworkStats {self.summary()}>"


def _link_key(link):
    """Deterministic sort key for links whose endpoints mix node ints
    and switch-name strings."""
    return tuple((0, end) if isinstance(end, int) else (1, end)
                 for end in link)
