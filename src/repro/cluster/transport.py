"""Message-level cluster transport (paper §3.3, rebuilt as a subsystem).

Every cross-node kernel path (migrate, remote fork/join's copy, demand
fetch, merge) routes its traffic through the one :class:`Transport` a
machine owns.  The protocol and its cost model are specified in
DESIGN.md, once: §3 (message types, routed links, delta shipping, wire
time as link occupancy, "one name per counter"), §4 (the async prefetch
queue and PAGE_BATCH compression), §5 (the deterministic loss schedule
and the reliable link layer) and §8 (telemetry windows).  What a reader
of this file needs from there:

* four message types — ``MIGRATE``, ``PAGE_REQ``, ``PAGE_BATCH``,
  fire-and-forget ``ACK`` — each routed hop by hop over the machine's
  :class:`~repro.cluster.topology.Topology`; **every traversed link**
  accrues the message on its :class:`LinkStats`;
* an exchange a space stalls on becomes one
  :meth:`~repro.timing.trace.Trace.link_edge` per traversed link
  (:meth:`Transport._stall_edges`), which is how ``schedule()`` makes
  crossing flows contend; a prefetch exchange draws the same edges from
  its issue anchor when redeemed, or into a sink segment when nobody
  ever demands it;
* the transport **only accumulates**: a :attr:`Ledger.FIELDS` row per
  link, per node and per directed node pair, plus
  :attr:`Transport.SCALARS`.  Run-wide totals are sums over the rows, a
  :class:`TelemetryWindow` is the difference of two marks of them.
"""

import enum
from operator import itemgetter

from repro.cluster import compress
from repro.cluster.faults import RetxBill
from repro.cluster.network import render_table
from repro.cluster.topology import NODE_CLASS
from repro.common.errors import NetworkLossError
from repro.mem.page import PAGE_SIZE


class MsgType(enum.Enum):
    """Wire message types of the cluster protocol."""

    MIGRATE = "migrate"
    PAGE_REQ = "page_req"
    PAGE_BATCH = "page_batch"
    ACK = "ack"


#: The type names, as :attr:`LinkStats.by_type` keys them and as they
#: head a message of a leg (:meth:`Transport._leg`): ``(type name,
#: serial, wire bytes, stalls)`` — ``stalls`` is False for a
#: fire-and-forget message, which bills nobody for its serialization or
#: its faults.
MIGRATE, PAGE_REQ, PAGE_BATCH, ACK = (mtype.name for mtype in MsgType)


class Ledger:
    """One row of cumulative counters, declared once by :attr:`FIELDS`:
    zero-init, :meth:`as_dict`, :meth:`delta_since`, :meth:`add` and
    :meth:`restore` all derive from that tuple.  The transport keeps no
    other kind of counter — a row per link (:class:`LinkStats`), per
    node (:class:`NodeStats`) and per directed node pair
    (:class:`PairStats`); a sharded worker hands the rows it moved back
    as :meth:`delta_since` dicts and a telemetry window is the same
    difference against the previous take's mark."""

    FIELDS = ()
    __slots__ = ()

    def __init_subclass__(cls):
        # Zero-init compiled from FIELDS as one chained assignment: a
        # ``setattr`` per field was a third of a route's first use.
        exec(f"def __init__(self): "
             f"{''.join(f'self.{name} = ' for name in cls.FIELDS)}0",
             scope := {})
        cls.zero = scope["__init__"]

    def __init__(self):
        self.zero()

    def as_dict(self):
        """Plain-dict view (reporting, and the mark of a later
        :meth:`delta_since` / :meth:`restore`)."""
        return {name: getattr(self, name) for name in self.FIELDS}

    def delta_since(self, base):
        """What the row accumulated since ``base`` — an earlier
        :meth:`as_dict` of it, or None for "since creation" — in the
        shape :meth:`add` folds back in; None when nothing moved."""
        base = base or {}
        delta = {name: getattr(self, name) - base.get(name, 0)
                 for name in self.FIELDS}
        return delta if any(delta.values()) else None

    def add(self, delta):
        """Fold a :meth:`delta_since` result into this row."""
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name) + delta[name])

    def restore(self, base):
        """Back to ``base``, an earlier :meth:`as_dict` of this row (a
        shard worker's rewind between two subtrees of its queue)."""
        for name in self.FIELDS:
            setattr(self, name, base[name])


class LinkStats(Ledger):
    """Cumulative traffic accounting of one directed fabric link: the
    :attr:`FIELDS` counters (which ``Transport.class_totals`` also sums
    per class) plus the per-message-type counts."""

    FIELDS = (
        #: Messages serialized onto the link (each routed message counts
        #: once per link it traverses).
        "messages",
        #: Wire bytes queued at the sending endpoint.
        "bytes_sent",
        #: Wire bytes handed to the receiving endpoint, credited per
        #: *exchange* from its page counts (independently of the
        #: per-message ``bytes_sent``).  The conservation invariant the transport tests pin down —
        #: enforced on every traversed link of every route — is
        #: ``bytes_sent == bytes_received + dropped_bytes``: the link
        #: layer delivers every byte it does not drop.
        "bytes_received",
        #: Page payloads moved over the link.
        "pages",
        #: Page payload bytes *before* wire compression (``pages * 4096``).
        "raw_bytes",
        #: Page payload bytes actually serialized (equal to
        #: ``raw_bytes`` when compression is off; never above it —
        #: the per-link compression conservation invariant).
        "comp_bytes",
        #: Serialization cycles of *every* message on the link,
        #: including fire-and-forget ACKs.  The scheduler's
        #: ``ScheduleResult.link_busy`` counts only space-stalling
        #: transfers (those with a trace link edge), so it reads lower
        #: than this by the ACK/untraced share.
        "busy_cycles",
        #: Retransmitted copies the link's reliable layer re-serialized
        #: after the loss schedule dropped an earlier copy (the
        #: retransmit ledger ``NetworkStats.retx_table()`` renders).
        "retx_msgs", "retx_bytes",
        #: Copies the loss schedule dropped on this link (each later
        #: retransmitted; the dropped bytes close the conservation
        #: equation ``sent == received + dropped``).
        "dropped_msgs", "dropped_bytes",
    )

    __slots__ = ("link_class", "cls", "by_type") + FIELDS

    def __init__(self, link_class=NODE_CLASS):
        self.zero()
        #: The link's latency/bandwidth class (what a leg prices and
        #: holds by; not part of :meth:`as_dict`) and its name.
        self.link_class = link_class
        self.cls = link_class.name
        #: message-type name -> message count.
        self.by_type = {}

    def as_dict(self):
        out = super().as_dict()
        out["cls"] = self.cls
        out["by_type"] = dict(self.by_type)
        return out

    def delta_since(self, base):
        delta = super().delta_since(base)
        if delta is not None:   # a type count only moves with ``messages``
            types = (base or {}).get("by_type", {})
            delta["by_type"] = {
                mtype: count - types.get(mtype, 0)
                for mtype, count in self.by_type.items()
                if count != types.get(mtype, 0)}
        return delta

    def add(self, delta):
        super().add(delta)
        for mtype, count in delta["by_type"].items():
            self.by_type[mtype] = self.by_type.get(mtype, 0) + count

    def restore(self, base):
        super().restore(base)
        self.by_type = dict(base["by_type"])


class NodeStats(Ledger):
    """Cumulative page-path counters of one node's demand and prefetch
    traffic: the rows of a :class:`TelemetryWindow` and what the
    transport's run-wide page totals sum."""

    FIELDS = (
        #: Pages the node moved by stop-and-wait demand fetch.
        "pulled",
        #: Pages its async prefetch queue speculatively pulled, and how
        #: many of those a space later actually demanded.  The
        #: difference is wasted speculative bandwidth — reported
        #: separately, never folded into the demand-pull count.
        "prefetch_issued", "prefetch_used",
        #: Prefetched frames whose content was superseded (the producer
        #: wrote a newer generation) before any space demanded them.
        "prefetch_stale",
        #: Frames still queued two or more windows after their issue,
        #: counted once per exchange by :meth:`Transport.take_window`.
        "prefetch_aged",
        #: Re-speculation on a page the node had already fetched once:
        #: its producer rewrote it since (the churn signal).
        "prefetch_refresh",
    )
    __slots__ = FIELDS


class PairStats(Ledger):
    """Logical message bytes one node sent another (counted once per
    message, not per hop)."""

    FIELDS = ("bytes",)
    __slots__ = FIELDS


class PrefetchExchange:
    """One in-flight async PAGE_REQ/PAGE_BATCH exchange.

    Issued without stalling anyone; redeemed as a unit the first time a
    space demands any of its frames (the whole scatter/gather response
    arrives together), at which point its link edges enter the trace.
    """

    __slots__ = ("anchor", "usage", "latency", "frames", "retx", "window",
                 "aged")

    def __init__(self, anchor, usage, latency, frames, retx, window):
        #: Trace segment (id) of the issue point (the segment closed
        #: just before the prediction fired); the transfer's
        #: serialization starts when it finishes.
        self.anchor = anchor
        #: link -> busy cycles the exchange occupies on it.
        self.usage = usage
        #: Route transit + codec latency of the response.
        self.latency = latency
        #: ``[(frame, generation-at-issue), ...]`` the exchange
        #: carries.  Frames are live objects: a generation that moved
        #: on by redeem time means the producer superseded the payload
        #: in flight — those bytes are stale, not used.
        self.frames = frames
        #: Retransmission charges (:class:`~repro.cluster.faults.
        #: RetxBill`) the exchange accumulated at issue time, emitted
        #: as ``kind="retx"`` edges when the exchange is redeemed or
        #: flushed; None on a lossless fabric.
        self.retx = retx
        #: Index of the telemetry window the exchange was issued in,
        #: and whether a later take already counted its still-queued
        #: frames as aged speculation (counted once).
        self.window = window
        self.aged = False


#: Route-latency samples kept per route and window (first come first
#: kept — a deterministic cap on what one long quantum can pile up).
ROUTE_SAMPLE_CAP = 512


class TelemetryWindow:
    """What the transport's node and pair ledgers accumulated between
    two :meth:`Transport.take_window` calls, plus the route samples
    taken meanwhile.

    All content is a pure function of the simulated execution, so two
    same-seed runs produce bit-identical window sequences — which is
    what makes controller decisions replay-exact.
    """

    __slots__ = ("index", "nodes", "route_samples", "pair_bytes")

    #: :meth:`table`'s columns: the node, then :attr:`NodeStats.FIELDS`.
    COLUMNS = (("node", 5, ""), ("pulled", 7, ""), ("pf-iss", 7, ""),
               ("pf-used", 8, ""), ("stale", 6, ""), ("aged", 5, ""),
               ("churn", 6, ""))

    def __init__(self, index, nodes, route_samples, pair_bytes):
        #: Monotone window serial (0-based).
        self.index = index
        #: node -> dict of :attr:`NodeStats.FIELDS` deltas.  A node has
        #: a row iff one of its counters moved in the window (the
        #: controller's growth hold counts rows).
        self.nodes = nodes
        #: ``{(a, b): [delivery-cycles sample, ...]}`` per unordered
        #: node pair — modelled per-message delivery latency of each
        #: clean single-page exchange on the route.  Taken only while a
        #: controller is attached (its SRTT policy is the one reader).
        self.route_samples = route_samples
        #: ``{(src, dst): bytes}`` the :class:`PairStats` deltas.
        self.pair_bytes = pair_bytes

    def table(self):
        """Aligned per-node rows of the window's counters."""
        return render_table(
            self.COLUMNS,
            [(node, *(row[name] for name in NodeStats.FIELDS))
             for node, row in sorted(self.nodes.items())],
            f"(window {self.index}: no telemetry)")

    def __repr__(self):
        return (f"<TelemetryWindow {self.index} nodes={len(self.nodes)} "
                f"pairs={len(self.pair_bytes)}>")


def _total(table, field):
    """Read-only total of one :attr:`Ledger.FIELDS` counter over every
    row of ``table`` — the rows are the only copy kept."""
    return property(lambda self: sum(getattr(row, field)
                                     for row in getattr(self, table).values()))


class Transport:
    """The simulated interconnect of one machine's cluster."""

    #: The counters no ledger row can answer, pure accumulations like
    #: the rows (a sharded run ships them from workers as deltas and
    #: adds them on adoption).
    SCALARS = (
        "migrations", "pages_shipped", "batches", "messages", "hops",
        "codec_cycles", "retx_wait",
    )

    #: Wire bytes and serialization cycles summed over every traversed
    #: link (an H-hop route moves its bytes H times).
    bytes_total = _total("links", "bytes_sent")
    busy_total = _total("links", "busy_cycles")
    #: Page payload bytes before/after wire compression, summed over
    #: traversed links like :attr:`bytes_total` (equal when compression
    #: is off).
    raw_total = _total("links", "raw_bytes")
    comp_total = _total("links", "comp_bytes")
    #: Fault/retransmission totals over every link: copies the loss
    #: schedule dropped / the link layer re-serialized.
    drops = _total("links", "dropped_msgs")
    dropped_bytes = _total("links", "dropped_bytes")
    retx_msgs = _total("links", "retx_msgs")
    retx_bytes = _total("links", "retx_bytes")
    #: The page-path totals over every node (:attr:`NodeStats.FIELDS`).
    pages_pulled = _total("nodes", "pulled")
    pages_prefetched = _total("nodes", "prefetch_issued")
    prefetch_used = _total("nodes", "prefetch_used")
    prefetch_stale = _total("nodes", "prefetch_stale")

    def __init__(self, machine):
        self.machine = machine
        #: (src_endpoint, dst_endpoint) -> LinkStats, one entry per
        #: *physical* fabric link that ever carried traffic (switch
        #: links included); node -> NodeStats; directed (src, dst) node
        #: pair -> PairStats.  Rows are created by :meth:`link`,
        #: :meth:`node` and :meth:`pair` on first use.
        self.links = {}
        self.nodes = {}
        self.pairs = {}
        #: Migration hops performed (one per MIGRATE message) —
        #: maintained incrementally so NetworkStats never rescans the
        #: trace.
        self.migrations = 0
        #: Pages moved eagerly with migrations (delta or full ship).
        self.pages_shipped = 0
        #: PAGE_BATCH messages sent.
        self.batches = 0
        #: Logical protocol messages (each counted once however many
        #: links its route traverses).  The count before a send is that
        #: message's *serial*, the key (with the link) of every fault
        #: decision — deterministic because the simulation is, so the
        #: loss schedule replays bit-identically.
        self.messages = 0
        #: Link traversals: a message over an H-hop route counts H.
        self.hops = 0
        #: Encode/decode cycles the compression codec cost (charged as
        #: transfer latency, not link occupancy).
        self.codec_cycles = 0
        #: Sender-side timeout cycles space-stalling exchanges
        #: accumulated waiting on retransmits.
        self.retx_wait = 0
        #: node -> {frame serial: (generation, PrefetchExchange, frame)}
        #: — that node's async fetch queue of in-flight predicted
        #: frames, keyed by the generation current at issue time.
        self.inflight = {}
        #: Monotone counter naming the sink segments of undemanded
        #: exchanges (purged mid-run or flushed at end of run).
        self._sinks = 0
        #: Encoded wire size per frame content tag (content never
        #: changes under a tag, so sizes are computed once).
        self._wire_sizes = {}
        # -- telemetry windows (take_window) -----------------------------
        #: Monotone window serial: how many windows have been taken.
        self.window_index = 0
        #: ``{"nodes"|"pairs": {key: the row's as_dict() when the
        #: running window first used it}}`` — the marks the next take
        #: diffs against, so a take costs O(rows that moved).
        self._marks = {"nodes": {}, "pairs": {}}
        #: unordered (a, b) node pair -> delivery-latency samples of the
        #: running window's clean page exchanges (capped at
        #: ROUTE_SAMPLE_CAP).  An order-dependent capped list, which no
        #: delta can replay: taken only with a controller attached.
        self.route_samples = {}

    # -- bookkeeping -------------------------------------------------------

    def link(self, link):
        """The :class:`LinkStats` of one directed fabric link."""
        stats = self.links.get(link)
        if stats is None:
            stats = self.links[link] = LinkStats(
                self.machine.topology.link_class(link))
        return stats

    def _windowed(self, table, key, new):
        """Get-or-create row ``key`` of ``table``, marked as the running
        telemetry window first finds it."""
        rows = getattr(self, table)
        row = rows.get(key)
        if row is None:
            row = rows[key] = new()
        marks = self._marks[table]
        if key not in marks:
            marks[key] = row.as_dict()
        return row

    def node(self, node):
        """The :class:`NodeStats` of ``node``."""
        return self._windowed("nodes", node, NodeStats)

    def pair(self, pair):
        """The :class:`PairStats` of the directed ``(src, dst)`` pair."""
        return self._windowed("pairs", pair, PairStats)

    def wire_size(self, frame):
        """Wire payload bytes of ``frame``: 4096 raw, or its encoded
        size (cached per content tag) under compression."""
        if not self.machine.spec.compression:
            return PAGE_SIZE
        tag = frame.tag()
        size = self._wire_sizes.get(tag)
        if size is None:
            size = self._wire_sizes[tag] = compress.wire_size(frame.data)
        return size

    def queue_len(self, node):
        """In-flight prefetched frames of ``node``'s async fetch queue."""
        return len(self.inflight.get(node, ()))

    def prefetch_unused(self):
        """Prefetched pages no space ever demanded (stale included)."""
        return self.pages_prefetched - self.prefetch_used

    # -- telemetry windows -------------------------------------------------

    def _note_route_sample(self, src, dst, usages, nmsgs, bill, npages):
        """Record one delivery-latency sample for the ``src``/``dst``
        route: route transit plus the exchange's mean per-message
        serialization.  Two Karn-style filters keep the estimator
        honest about what the retransmit timer actually guards:
        exchanges that hit the fault path contribute nothing (a
        retransmitted exchange's latency says more about the timeout
        than about the route), and so do multi-page batch exchanges —
        a batch's drain time measures the sender's throughput, while
        the timer waits on the route's *turnaround* for one copy, which
        only minimal (single-data-message) exchanges exhibit.  Without
        a controller nothing reads the samples and none is taken."""
        machine = self.machine
        if machine.control is None or npages > 1 or bill:
            return
        pair = (src, dst) if src <= dst else (dst, src)
        samples = self.route_samples.setdefault(pair, [])
        if len(samples) >= ROUTE_SAMPLE_CAP:
            return
        transit = machine.topology.route_latency(machine.cost, src, dst)
        busy = sum(sum(usage.values()) for usage in usages)
        samples.append(transit + busy // max(1, nmsgs))

    def _moved_since_mark(self, table):
        """``{key: delta_since(mark)}`` of the rows of ``table`` that
        moved in the running window, in key order; opens the next."""
        rows = getattr(self, table)
        marks, self._marks[table] = self._marks[table], {}
        moved = {}
        for key in sorted(marks):
            delta = rows[key].delta_since(marks[key])
            if delta is not None:
                moved[key] = delta
        return moved

    def take_window(self):
        """The :class:`TelemetryWindow` of everything the node and pair
        ledgers accumulated since the previous call (or the start of
        the run); the next window starts here.

        Before diffing, still-queued prefetched frames issued two or
        more windows ago are counted (once per exchange) as
        ``prefetch_aged`` — in-flight speculation the run is visibly
        not consuming, the shrink signal that needs no end-of-run
        flush.
        """
        index = self.window_index
        for node in sorted(self.inflight):
            queue = self.inflight[node]
            for _, exchange, _ in queue.values():
                if exchange.aged or exchange.window > index - 2:
                    continue
                exchange.aged = True
                self.node(node).prefetch_aged += sum(
                    1 for _, ex, _ in queue.values() if ex is exchange)
        samples, self.route_samples = self.route_samples, {}
        self.window_index = index + 1
        return TelemetryWindow(
            index, self._moved_since_mark("nodes"), samples,
            {pair: row["bytes"]
             for pair, row in self._moved_since_mark("pairs").items()})

    def _leg(self, src, dst, msgs, delivered, usage=None, faults=None,
             pages=0, payload=0):
        """One direction of an exchange: serialize ``msgs`` along the
        fabric route ``src -> dst`` and credit ``delivered`` bytes to
        every link of it — a single walk of the route's link rows,
        hop-major (DESIGN §3 "A leg is one walk of its route").

        ``msgs`` are message tuples (see :data:`MIGRATE`).  Every traversed
        link accrues each message's bytes, pages, and its class-scaled
        serialization cycles, priced once per distinct ``byte_factor``
        on the route; ``usage`` (when given) collects the per-link busy
        cycles of the *stalling* messages for the caller's trace edges.
        Only the sending side is accounted per message: ``delivered``
        is the caller's own arithmetic over the exchange's page counts,
        so the conservation invariant cross-checks the two computations
        per physical link — e.g. a batch split that loses pages shows
        up as a sent/received mismatch.

        Under ``ClusterSpec(loss=...)`` each link's copy consults the
        deterministic loss schedule, keyed on ``(link, message serial,
        attempt)``.  Dropped copies are retransmitted by the link layer
        after the route's retransmit timeout (at most
        ``cost.retx_limit`` retries).  ``faults`` (a
        :class:`~repro.cluster.faults.RetxBill`) collects, for the
        stalling messages, the retransmissions' per-link occupancy and
        the timeout waits for the caller's ``kind="retx"`` trace edges;
        fire-and-forget messages fault silently.
        """
        machine = self.machine
        cost = machine.cost
        loss = machine.loss
        links = self.links
        route = machine.topology.route(src, dst)
        if msgs:
            self.pair((src, dst)).bytes += delivered
            self.hops += len(route) * len(msgs)
        # The retransmit timer is per logical message: the (possibly
        # control-tuned) timeout of the route, resolved once so every
        # hop copy of every message of the leg waits the same timer.
        timeout = machine.retx_timeout_for(src, dst) if loss else 0
        prices = {}
        extra = []
        for link in route:
            row = links.get(link) or self.link(link)
            factor = row.link_class.byte_factor
            price = prices.get(factor)
            if price is None:
                priced = [msg + (cost.link_message(
                    msg[2], byte_factor=factor, tcp=machine.spec.tcp_mode),)
                    for msg in msgs]
                stalling = [msg[4] for msg in priced if msg[3]]
                price = prices[factor] = (
                    priced, sum(stalling) if stalling else None)
            priced, stalling = price
            if usage is not None and stalling is not None:
                usage[link] = usage.get(link, 0) + stalling
            by_type = row.by_type
            for name, serial, nbytes, stalls, busy in priced:
                attempt = 0
                while True:
                    row.messages += 1
                    row.bytes_sent += nbytes
                    row.busy_cycles += busy
                    by_type[name] = by_type.get(name, 0) + 1
                    if not loss:
                        break
                    bill = faults if stalls else None
                    if attempt:
                        row.retx_msgs += 1
                        row.retx_bytes += nbytes
                        if bill is not None:
                            extra.append((serial, link, busy))
                    if not loss.drops(link, serial, attempt):
                        break
                    row.dropped_msgs += 1
                    row.dropped_bytes += nbytes
                    attempt += 1
                    if attempt > cost.retx_limit:
                        raise NetworkLossError(
                            f"{name} msg {serial} on link {link}: "
                            f"all {cost.retx_limit} retransmissions "
                            f"dropped")
                    if bill is not None:
                        bill.wait += timeout
                        self.retx_wait += timeout
            row.bytes_received += delivered
            if pages:
                # Payload/page accounting is per logical traversal: the
                # content crosses the link once however many wire copies
                # the link layer needed.
                row.pages += pages
                row.raw_bytes += pages * PAGE_SIZE
                row.comp_bytes += payload
        # The bill lists its links in the order per-message sends would
        # have found them: by message, then by hop (the sort is stable).
        if extra:
            extra.sort(key=itemgetter(0))
            for _, link, busy in extra:
                faults.usage[link] = faults.usage.get(link, 0) + busy

    def _stall_edges(self, closed, opened, kind, parts, bill):
        """One trace link edge per physical link the exchange occupied:
        the space resumes only after its transfer wins *each* link it
        crossed (shared uplinks make crossing flows contend) and
        transits the route latency.  ``parts`` are the exchange's
        ``(link -> busy cycles, latency)`` legs; a non-empty ``bill``
        (the :class:`~repro.cluster.faults.RetxBill` of a lossy fabric)
        adds its extra occupancy and timeout waits as ``kind="retx"``
        edges between the same two segments."""
        links = self.links
        legs = [(kind, usage, latency) for usage, latency in parts]
        if bill:
            legs.append(("retx", bill.usage, bill.wait))
        self.machine.trace.link_edges(closed, opened, [
            (link, busy, latency, links[link].cls, leg_kind)
            for leg_kind, usage, latency in legs
            for link, busy in usage.items()])

    def _batch_sizes(self, npages):
        """Split ``npages`` into PAGE_BATCH loads (``cost.msg_batch``)."""
        cap = max(1, self.machine.cost.msg_batch)
        sizes = []
        while npages > 0:
            take = min(cap, npages)
            sizes.append(take)
            npages -= take
        return sizes

    def _batches(self, frames):
        """Number one exchange's messages — its head (MIGRATE or
        PAGE_REQ), a PAGE_BATCH per load of ``frames``, its ACK, in that
        order — and build the batches.

        Returns ``(head, msgs, ack, payload, codec)``: the head's and
        the ACK's serials around the PAGE_BATCH message tuples, the
        total payload bytes those serialize (compressed when the machine
        compresses; headers excluded) and the encode+decode cycles the
        codec cost.
        """
        cost = self.machine.cost
        sizes = [self.wire_size(frame) for frame in frames]
        head = self.messages
        msgs = []
        index = 0
        for take in self._batch_sizes(len(frames)):
            payload = sum(sizes[index:index + take])
            msgs.append((PAGE_BATCH, head + 1 + len(msgs),
                         payload + take * cost.page_hdr, True))
            index += take
        ack = head + 1 + len(msgs)
        self.batches += len(msgs)
        self.messages = ack + 1
        payload = sum(sizes)
        codec = 0
        if self.machine.spec.compression and frames:
            codec = int(len(frames) * PAGE_SIZE * cost.comp_encode_byte
                        + payload * cost.comp_decode_byte)
            self.codec_cycles += codec
        return head, msgs, ack, payload, codec

    def _page_exchange(self, origin, node, frames, req_usage, resp_usage,
                       faults):
        """Wire accounting of one PAGE_REQ/PAGE_BATCH/ACK exchange
        pulling ``frames`` from ``origin`` to ``node`` — shared by the
        demand and prefetch paths so the two can never drift apart and
        break per-link conservation: a ``[PAGE_REQ, ACK]`` leg out and
        a ``PAGE_BATCH...`` leg back, numbered request, batches, ACK.
        Returns the codec cycles.
        """
        cost = self.machine.cost
        npages = len(frames)
        head, batches, ack, payload, codec = self._batches(frames)
        self._leg(node, origin,
                  [(PAGE_REQ, head, cost.msg_ctrl + 8 * npages, True),
                   (ACK, ack, cost.msg_ctrl, False)],
                  2 * cost.msg_ctrl + 8 * npages, req_usage, faults)
        self._leg(origin, node, batches, payload + npages * cost.page_hdr,
                  resp_usage, faults, npages, payload)
        # One delivery-latency sample per clean exchange (telemetry for
        # the control plane's SRTT estimator).  The request and response
        # usage dicts may alias (the prefetch path passes one dict):
        # count it once.
        usages = [req_usage] if resp_usage is req_usage \
            else [req_usage, resp_usage]
        self._note_route_sample(origin, node, usages, 1 + len(batches),
                                faults, npages)
        return codec

    # -- protocol exchanges ------------------------------------------------

    def migrate(self, space, src, dst, shipped):
        """Move ``space`` from ``src`` to ``dst``, shipping the
        ``shipped`` delta frames with it.

        A ``[MIGRATE, PAGE_BATCH...]`` leg along the ``src -> dst``
        route and an async ACK leg back, then cuts the space's trace
        segment across per-link edges so the space resumes on ``dst``
        only after the transfer serializes on every traversed link
        (contending with other traffic crossing those links) and
        transits the route's total latency.
        """
        machine = self.machine
        cost = machine.cost
        self.migrations += 1
        self.pages_shipped += len(shipped)
        usage = {}
        bill = RetxBill() if machine.loss else None
        head, batches, ack, payload, codec = self._batches(shipped)
        # Receiver-side accounting from the exchange's own arithmetic
        # (not the per-message sizes): conservation cross-checks them.
        self._leg(src, dst,
                  [(MIGRATE, head, cost.migrate_bytes, True)] + batches,
                  cost.migrate_bytes + payload + len(shipped) * cost.page_hdr,
                  usage, bill, len(shipped), payload)
        self._leg(dst, src, [(ACK, ack, cost.msg_ctrl, False)],
                  cost.msg_ctrl)
        self._note_route_sample(src, dst, (usage,), 1 + len(batches), bill,
                                len(shipped))
        trace = machine.trace
        if trace.is_open(space.uid):
            closed, opened = trace.move_node(space.uid, dst)
            transit = machine.topology.route_latency(cost, src, dst)
            self._stall_edges(closed, opened, "migrate",
                              [(usage, transit + codec)], bill)

    def fetch(self, space, origin, node, frames):
        """Demand-fetch ``frames`` for ``space`` (resident on ``node``)
        from the node that produced their newest content.

        One PAGE_REQ out, batched PAGE_BATCHes back, async ACK.  The
        space stalls until the response serializes on every link of the
        ``origin -> node`` route and transits the route latency (plus
        codec time under compression); the request's (small)
        serialization contends on the forward route without adding
        transit time of its own — the exchange is modelled as a single
        pipelined round trip, as the seed's per-page charge was.
        """
        machine = self.machine
        self.node(node).pulled += len(frames)
        req_usage = {}
        resp_usage = {}
        bill = RetxBill() if machine.loss else None
        codec = self._page_exchange(origin, node, frames, req_usage,
                                    resp_usage, bill)
        trace = machine.trace
        if trace.is_open(space.uid):
            closed, opened = trace.cut(space.uid, label="fetch")
            transit = machine.topology.route_latency(machine.cost, origin,
                                                     node)
            self._stall_edges(closed, opened, "fetch",
                              [(req_usage, 0), (resp_usage, transit + codec)],
                              bill)

    def prefetch(self, space, origin, node, frames):
        """Asynchronously issue a PAGE_REQ/PAGE_BATCH exchange pulling
        predicted-next ``frames`` to ``node`` — nobody stalls.

        The exchange's wire traffic is accounted immediately (it is on
        the links now, whether or not anyone ends up wanting it) and
        queued on ``node``'s async fetch queue, anchored at ``space``'s
        most recently *closed* segment — callers issue prefetches right
        after a cut (a demand fetch's, or a migration's), so in the
        schedule the transfer's serialization starts at the issue point
        and overlaps whatever compute follows.  A later demand on any
        of the frames redeems the exchange (:meth:`redeem_exchanges`
        via :meth:`take_inflight`).
        """
        machine = self.machine
        npages = len(frames)
        if npages == 0 or origin == node:
            return
        self.node(node).prefetch_issued += npages
        usage = {}
        bill = RetxBill() if machine.loss else None
        codec = self._page_exchange(origin, node, frames, usage, usage, bill)
        last = machine.trace.last_closed(space.uid)
        anchor = last.id if last is not None else None
        latency = (machine.topology.route_latency(machine.cost, origin, node)
                   + codec)
        exchange = PrefetchExchange(
            anchor, usage, latency,
            [(frame, frame.generation) for frame in frames],
            retx=bill, window=self.window_index)
        queue = self.inflight.setdefault(node, {})
        for frame in frames:
            queue[frame.serial] = (frame.generation, exchange, frame)

    def purge_superseded(self, node):
        """Drop ``node``'s queued entries whose frame was rewritten
        since they were issued; returns how many were dropped.

        The predictor runs this before refilling the queue: a queued
        entry at a superseded generation is already wasted wire — a
        future demand on it is a guaranteed stale miss — so it is
        dropped (and counted stale) now, freeing its queue slot for the
        fresh content the predictor is about to re-issue.  Hot pages
        rewritten faster than anyone reads them thus charge deep queues
        *every* rewrite — the recurring-waste signal the control
        plane's shrink rule keys on.  An exchange whose last queued
        frame is purged was never demanded, so its wire contention
        enters the trace through a sink segment here, exactly as
        :meth:`flush_inflight` does at end of run.
        """
        queue = self.inflight.get(node)
        if not queue:
            return 0
        doomed = [serial for serial, (held, _, frame) in queue.items()
                  if frame.generation != held]
        for serial in doomed:
            _, exchange, _ = queue.pop(serial)
            self.node(node).prefetch_stale += 1
            if not any(entry[1] is exchange for entry in queue.values()):
                self._sink_exchange(exchange, node, "prefetch-stale")
        return len(doomed)

    def take_inflight(self, node, serial, generation):
        """Claim an in-flight prefetched frame for a demand on it.

        Returns the frame's :class:`PrefetchExchange` when ``node``'s
        queue holds ``serial`` at exactly ``generation``; a queue entry
        at a superseded generation is dropped (and counted stale) —
        its bytes were wasted and the caller must demand-fetch the
        fresh content.
        """
        queue = self.inflight.get(node)
        if not queue or serial not in queue:
            return None
        held_generation, exchange, _ = queue.pop(serial)
        if held_generation != generation:
            self.node(node).prefetch_stale += 1
            return None
        self.node(node).prefetch_used += 1
        return exchange

    def redeem_exchanges(self, space, node, exchanges):
        """A space demanded in-flight prefetched frames: stall it until
        their exchanges arrive, and land every frame they carry.

        Cuts the space's segment once and draws each exchange's link
        edges from its issue *anchor* to the newly opened segment
        (kind ``"prefetch"``) — the scheduler then charges only the
        part of each transfer that outlived the compute between issue
        and demand; an early arrival stalls nothing.  All frames of a
        redeemed exchange enter the node's tag cache (the scatter/
        gather response arrived as a unit).
        """
        machine = self.machine
        trace = machine.trace
        cache = machine.node_cache[node]
        queue = self.inflight.get(node, {})
        stats = self.node(node)
        opened = None
        if trace.is_open(space.uid):
            _, opened = trace.cut(space.uid, label="prefetch-wait")
        for exchange in exchanges:
            for frame, generation in exchange.frames:
                # Only tags still queued land here: the tag that
                # triggered the redeem was claimed (and counted used)
                # by take_inflight.
                entry = queue.get(frame.serial)
                if entry is None or entry[1] is not exchange:
                    continue
                del queue[frame.serial]
                if frame.generation != generation:
                    # The producer superseded this sibling in flight:
                    # its arrived bytes carry a dead generation and
                    # must not enter the cache (a demand on the fresh
                    # tag will fetch it properly).
                    stats.prefetch_stale += 1
                    continue
                stats.prefetch_used += 1
                if cache.get(frame.serial, -1) < generation:
                    cache[frame.serial] = generation
            if opened is not None and exchange.anchor is not None:
                self._stall_edges(exchange.anchor, opened, "prefetch",
                                  [(exchange.usage, exchange.latency)],
                                  exchange.retx)

    def flush_inflight(self, kind="prefetch-unused"):
        """End-of-run accounting for exchanges nobody ever redeemed.

        Their wire bytes were counted at issue, but without a
        demanding segment their serialization never entered the trace —
        and on a shared link, speculative traffic delays everyone
        whether or not it is wanted.  For each still-queued exchange
        this emits its link edges from the issue anchor into a fresh
        zero-cycle *sink* segment (no space waits on it), so
        ``schedule()`` makes mispredicted prefetches contend with real
        transfers and reports their residue under ``kind``.  Called by
        the machine once the run drains; queues are cleared, so a
        second call is a no-op.
        """
        flushed = set()
        for node in sorted(self.inflight):
            queue = self.inflight[node]
            for _, exchange, _ in queue.values():
                if id(exchange) in flushed:
                    continue
                flushed.add(id(exchange))
                self._sink_exchange(exchange, node, kind)
            queue.clear()

    def _sink_exchange(self, exchange, node, kind):
        """Emit an undemanded exchange's link edges into a fresh
        zero-cycle sink segment at ``node`` (no space waits on it), so
        ``schedule()`` still makes its wire traffic contend with real
        transfers; the residue reports under ``kind``."""
        if exchange.anchor is None:
            return
        trace = self.machine.trace
        self._sinks += 1
        sink = trace.begin(f"~{kind}{self._sinks}@{node}",
                           node=node, label=kind)
        trace.end(sink.uid)
        self._stall_edges(exchange.anchor, sink, kind,
                          [(exchange.usage, exchange.latency)], exchange.retx)

    # -- invariants --------------------------------------------------------

    def conservation_ok(self):
        """True iff every traversed link accounts for every byte it
        sent — delivered plus dropped — and never compressed a payload
        *up*.

        Sender bytes accumulate per wire copy as each serializes onto
        each link of its route (retransmissions included); receiver
        bytes are credited per *exchange* from its page counts; dropped
        bytes are tallied as the loss schedule eats copies.  ``sent == received + dropped`` holds per physical link
        only when no protocol step loses, double-counts, or mis-routes
        traffic — on a lossless fabric it reduces to the original
        ``sent == received`` cross-check.
        """
        return all(s.bytes_sent == s.bytes_received + s.dropped_bytes
                   and s.comp_bytes <= s.raw_bytes
                   for s in self.links.values())

    def class_totals(self):
        """Per-class aggregate traffic: {class name -> dict of totals}.

        Counts the links of each latency/bandwidth class and sums every
        :attr:`LinkStats.FIELDS` counter over them — the rack-vs-core
        split an operator reads to spot oversubscription.
        """
        totals = {}
        for stats in self.links.values():
            agg = totals.get(stats.cls)
            if agg is None:
                agg = totals[stats.cls] = dict.fromkeys(
                    ("links",) + LinkStats.FIELDS, 0)
            agg["links"] += 1
            for name in LinkStats.FIELDS:
                agg[name] += getattr(stats, name)
        return totals

    def __repr__(self):
        retx = f" retx={self.retx_msgs}" if self.retx_msgs else ""
        return (f"<Transport links={len(self.links)} "
                f"msgs={self.messages} "
                f"pages={self.pages_shipped + self.pages_pulled}"
                f"+{self.pages_prefetched}pf "
                f"({self.prefetch_used} used){retx}>")
