"""Message-level cluster transport (paper §3.3, rebuilt as a subsystem).

Every cross-node kernel path (migrate, remote fork/join's copy, demand
fetch, merge) routes its traffic through the one :class:`Transport` a
machine owns.  The protocol and its cost model are specified in
DESIGN.md, once: §3 (message types, routed links, delta shipping, wire
time as link occupancy, "one name per counter"), §4 (the async prefetch
queue and PAGE_BATCH compression), §5 (the deterministic loss schedule
and the reliable link layer).  What a reader of this file needs from
there:

* four message types — ``MIGRATE``, ``PAGE_REQ``, ``PAGE_BATCH``,
  fire-and-forget ``ACK`` — each routed hop by hop over the machine's
  :class:`~repro.cluster.topology.Topology`; **every traversed link**
  accrues the message on its :class:`LinkStats`;
* an exchange a space stalls on becomes one
  :attr:`~repro.timing.trace.Trace.transfers` entry per traversed link
  (:meth:`Transport._stall_edges`), which is how ``schedule()`` makes
  crossing flows contend; a prefetch exchange draws the same edges from
  its issue anchor when redeemed, or into a sink segment when nobody
  ever demands it;
* the transport **only accumulates**: a :attr:`CounterRow.FIELDS` row per
  link and per node, plus :attr:`Transport.SCALARS`.  Run-wide totals
  are sums over the rows.
"""

import enum
from operator import itemgetter

from repro.cluster import compress
from repro.cluster.faults import RetxBill
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


class CounterRow:
    """One row of cumulative counters, declared once by :attr:`FIELDS`:
    zero-init, :meth:`as_dict`, :meth:`delta_since`, :meth:`add` and
    :meth:`restore` all derive from that tuple.  The transport keeps no
    other kind of counter — a row per link (:class:`LinkStats`) and per
    node (:class:`NodeStats`); a sharded worker hands the rows it moved
    back as :meth:`delta_since` dicts."""

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


class LinkStats(CounterRow):
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


class NodeStats(CounterRow):
    """Cumulative page-path counters of one node's demand and prefetch
    traffic: what the transport's run-wide page totals sum."""

    FIELDS = (
        #: Pages the node moved by stop-and-wait demand fetch.
        "pulled",
        #: Pages the spaces' async prefetch queues speculatively pulled
        #: to the node, and how many of those a space later actually
        #: demanded.  The difference is wasted speculative bandwidth —
        #: reported separately, never folded into the demand-pull count.
        "prefetch_issued", "prefetch_used",
        #: Prefetched frames whose content was superseded (the producer
        #: wrote a newer generation) before any space demanded them.
        "prefetch_stale",
        #: Re-speculation on a page the node had already fetched once:
        #: its producer rewrote it since (the churn signal).
        "prefetch_refresh",
    )
    __slots__ = FIELDS


class PrefetchExchange:
    """One in-flight async PAGE_REQ/PAGE_BATCH exchange.

    Issued without stalling anyone; redeemed as a unit the first time a
    space demands any of its frames (the whole scatter/gather response
    arrives together), at which point its link edges enter the trace.
    """

    __slots__ = ("anchor", "usage", "latency", "frames", "retx")

    def __init__(self, anchor, usage, latency, frames, retx):
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


def _total(table, field):
    """Read-only total of one :attr:`CounterRow.FIELDS` counter over every
    row of ``table`` — the rows are the only copy kept."""
    return property(lambda self: sum(getattr(row, field)
                                     for row in getattr(self, table).values()))


class Transport:
    """The simulated interconnect of one machine's cluster."""

    #: The counters no counter row can answer, pure accumulations like
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
        #: links included); node -> NodeStats.  Rows are created by
        #: :meth:`link` and :meth:`node` on first use.
        self.links = {}
        self.nodes = {}
        #: Migration hops performed (one per MIGRATE message) —
        #: maintained incrementally so NetworkStats never rescans the
        #: trace.
        self.migrations = 0
        #: Pages moved eagerly with migrations (delta or full ship).
        self.pages_shipped = 0
        #: PAGE_BATCH messages sent.
        self.batches = 0
        #: Logical protocol messages (each counted once however many
        #: links its route traverses): a statistic only.  A message's
        #: number — what its loss draws key on — is its sending space's
        #: own count (``Space.messages``), never this machine-wide one.
        self.messages = 0
        #: Link traversals: a message over an H-hop route counts H.
        self.hops = 0
        #: Encode/decode cycles the compression codec cost (charged as
        #: transfer latency, not link occupancy).
        self.codec_cycles = 0
        #: Sender-side timeout cycles space-stalling exchanges
        #: accumulated waiting on retransmits.
        self.retx_wait = 0
        #: Encoded wire size per frame content tag (content never
        #: changes under a tag, so sizes are computed once).
        self._wire_sizes = {}
        #: ``byte_factor -> {wire bytes: the link occupancy of one such
        #: message}`` (``CostModel.link_message``; the cost model and
        #: ``tcp_mode`` are fixed per machine, so a price never changes).
        self._prices = {}

    # -- bookkeeping -------------------------------------------------------

    def link(self, link):
        """The :class:`LinkStats` of one directed fabric link."""
        stats = self.links.get(link)
        if stats is None:
            stats = self.links[link] = LinkStats(
                self.machine.topology.link_class(link))
        return stats

    def node(self, node):
        """The :class:`NodeStats` of ``node``."""
        row = self.nodes.get(node)
        if row is None:
            row = self.nodes[node] = NodeStats()
        return row

    def _wire_load(self, frames):
        """Compressed payload bytes of one PAGE_BATCH load of
        ``frames``: the content tags not yet cached are sized in one
        :func:`compress.wire_sizes` call, each tag once."""
        known = self._wire_sizes
        tags = [(frame.serial, frame.generation) for frame in frames]
        fresh = {tag: frame.data for tag, frame in zip(tags, frames)
                 if tag not in known}
        if fresh:
            known.update(zip(fresh, compress.wire_sizes(list(
                fresh.values()))))
        return sum(map(known.__getitem__, tags))

    def prefetch_unused(self):
        """Prefetched pages no space ever demanded (stale included)."""
        return self.pages_prefetched - self.prefetch_used

    def _leg(self, src, dst, msgs, delivered, usage=None, faults=None,
             pages=0, payload=0):
        """One direction of an exchange: serialize ``msgs`` along the
        fabric route ``src -> dst`` and credit ``delivered`` bytes to
        every link of it — a single walk of the route's link rows,
        hop-major (DESIGN §3 "A leg is one walk of its route").  Returns
        the route's transit latency (``net_latency`` times the record's
        summed latency factor): the leg's one route-record lookup
        answers both.

        ``msgs`` are message tuples (see :data:`MIGRATE`).  Every traversed
        link accrues each message's bytes, pages, and its class-scaled
        serialization cycles (priced from the ``byte_factor -> bytes``
        memo); ``usage`` (when given) collects the per-link busy
        cycles of the *stalling* messages for the caller's trace edges.
        Only the sending side is accounted per message: ``delivered``
        is the caller's own arithmetic over the exchange's page counts,
        so the conservation invariant cross-checks the two computations
        per physical link — e.g. a batch split that loses pages shows
        up as a sent/received mismatch.

        Under ``ClusterSpec(loss=...)`` each link's copy consults the
        deterministic loss schedule, keyed on ``(link, sending space,
        message number, attempt)``: ``faults`` (the exchange's
        :class:`~repro.cluster.faults.RetxBill`) holds the sending
        space's key, and a message's number is the one :meth:`_batches`
        gave it from that space's own count.  Dropped copies are
        retransmitted by the link layer after ``cost.retx_timeout`` (at
        most ``cost.retx_limit`` retries).  ``faults`` collects, for
        the stalling messages, the retransmissions' per-link occupancy
        and the timeout waits for the caller's ``kind="retx"`` trace
        edges; fire-and-forget messages fault silently.  A stalling
        message that exhausts its retries raises
        :class:`NetworkLossError`; a fire-and-forget one (an ACK) delays
        nobody, so it dies on that hop instead: the link counts its
        dropped copies, nothing of it is delivered there, and no later
        link of the route sees it.
        """
        machine = self.machine
        cost = machine.cost
        loss = machine.loss
        links = self.links
        prices = self._prices
        route, classes, latency_factor = \
            machine.topology.route_record(src, dst)
        self.hops += len(route) * len(msgs)
        stalling = False
        if usage is not None:
            for msg in msgs:
                if msg[3]:
                    stalling = True
                    break
        extra = None
        for link, link_class in zip(route, classes):
            # Rows are created at first traversal, so a leg that dies
            # of retry exhaustion leaves no row past the failing hop.
            row = links.get(link)
            if row is None:
                row = links[link] = LinkStats(link_class)
            factor = link_class.byte_factor
            priced = prices.get(factor)
            if priced is None:
                priced = prices[factor] = {}
            by_type = row.by_type
            stalled = 0
            lost = None
            for name, serial, nbytes, stalls in msgs:
                busy = priced.get(nbytes)
                if busy is None:
                    busy = priced[nbytes] = cost.link_message(
                        nbytes, factor, machine.spec.tcp_mode)
                if stalls:
                    stalled += busy
                row.messages += 1
                row.bytes_sent += nbytes
                row.busy_cycles += busy
                by_type[name] = by_type.get(name, 0) + 1
                if not (loss and loss.drops(link, faults.key, serial, 0)):
                    continue
                # The link layer retransmits until a copy gets through.
                bill = faults if stalls else None
                attempt = 0
                while True:
                    row.dropped_msgs += 1
                    row.dropped_bytes += nbytes
                    attempt += 1
                    if attempt > cost.retx_limit:
                        if not stalls:
                            # An ACK's faults delay nobody (DESIGN §5):
                            # it dies here, and delivers nothing.
                            lost = serial
                            delivered -= nbytes
                            self.hops -= len(route) - 1 - route.index(link)
                            break
                        # Neither the messages after it on this link
                        # nor any later link were reached.
                        self.hops -= (
                            (len(route) - route.index(link)) * len(msgs)
                            - 1 - [msg[1] for msg in msgs].index(serial))
                        raise NetworkLossError(
                            f"{name} msg {serial} of space "
                            f"{faults.path} on link {link}: "
                            f"all {cost.retx_limit} retransmissions "
                            f"dropped")
                    if bill is not None:
                        bill.wait += cost.retx_timeout
                        self.retx_wait += cost.retx_timeout
                    row.messages += 1
                    row.bytes_sent += nbytes
                    row.busy_cycles += busy
                    by_type[name] += 1
                    row.retx_msgs += 1
                    row.retx_bytes += nbytes
                    if bill is not None:
                        if extra is None:
                            extra = []
                        extra.append((serial, link, busy))
                    if not loss.drops(link, faults.key, serial, attempt):
                        break
            if stalling:
                usage[link] = usage.get(link, 0) + stalled
            row.bytes_received += delivered
            if pages:
                # Payload/page accounting is per logical traversal: the
                # content crosses the link once however many wire copies
                # the link layer needed.
                row.pages += pages
                row.raw_bytes += pages * PAGE_SIZE
                row.comp_bytes += payload
            if lost is not None:
                # The ACK goes no further; a leg of it alone ends here.
                msgs = [msg for msg in msgs if msg[1] != lost]
                if not msgs:
                    break
        # The bill lists its links in the order per-message sends would
        # have found them: by message, then by hop (the sort is stable).
        if extra:
            extra.sort(key=itemgetter(0))
            for _, link, busy in extra:
                faults.usage[link] = faults.usage.get(link, 0) + busy
        return int(cost.net_latency * latency_factor)

    def _stall_edges(self, src, dst, parts, bill):
        """One trace link edge per physical link the exchange occupied,
        from segment id ``src`` to segment id ``dst``: the space resumes
        only after its transfer wins *each* link it crossed (shared
        core links make crossing flows contend) and transits the route
        latency.  ``parts`` is a fresh list of the exchange's ``(link ->
        busy cycles, latency, kind)`` legs; a non-empty ``bill`` (the
        :class:`~repro.cluster.faults.RetxBill` of a lossy fabric) adds
        its extra occupancy and timeout waits as ``kind="retx"`` edges
        between the same two segments.  Each leg extends every one of the
        trace's transfer lists once."""
        if bill:
            parts.append((bill.usage, bill.wait, "retx"))
        transfers = self.machine.trace.transfers
        rows = self.links
        for usage, latency, kind in parts:
            transfers.src.extend([src] * len(usage))
            transfers.dst.extend([dst] * len(usage))
            transfers.link.extend(usage)
            transfers.busy.extend(usage.values())
            transfers.latency.extend([latency] * len(usage))
            transfers.cls.extend([rows[link].cls for link in usage])
            transfers.kind.extend([kind] * len(usage))

    def _batches(self, space, frames):
        """Number one exchange's messages from ``space``'s own count —
        its head (MIGRATE or PAGE_REQ), a PAGE_BATCH per load of up to
        ``cost.msg_batch`` ``frames``, its ACK, in that order — and
        build the batches.
        Without compression every page is ``PAGE_SIZE`` on the wire, so
        the loads are sized by arithmetic; with it, each load is sized
        by one :meth:`_wire_load`.

        Returns ``(head, msgs, ack, payload, codec)``: the head's and
        the ACK's serials around the PAGE_BATCH message tuples, the
        total payload bytes those serialize (compressed when the machine
        compresses; headers excluded) and the encode+decode cycles the
        codec cost.
        """
        machine = self.machine
        cost = machine.cost
        compressed = machine.spec.compression
        cap = cost.msg_batch
        npages = len(frames)
        head = space.messages
        msgs = []
        payload = 0
        for start in range(0, npages, cap):
            take = min(cap, npages - start)
            load = self._wire_load(frames[start:start + take]) \
                if compressed else take * PAGE_SIZE
            msgs.append((PAGE_BATCH, head + 1 + len(msgs),
                         load + take * cost.page_hdr, True))
            payload += load
        ack = head + 1 + len(msgs)
        self.batches += len(msgs)
        space.messages = ack + 1
        self.messages += ack + 1 - head
        codec = 0
        if compressed and frames:
            codec = int(npages * PAGE_SIZE * cost.comp_encode_byte
                        + payload * cost.comp_decode_byte)
            self.codec_cycles += codec
        return head, msgs, ack, payload, codec

    def _page_exchange(self, space, origin, node, frames, req_usage,
                       resp_usage, faults):
        """Wire accounting of one PAGE_REQ/PAGE_BATCH/ACK exchange
        pulling ``frames`` from ``origin`` to ``node`` — shared by the
        demand and prefetch paths so the two can never drift apart and
        break per-link conservation: a ``[PAGE_REQ, ACK]`` leg out and
        a ``PAGE_BATCH...`` leg back, numbered request, batches, ACK.
        Returns ``(codec, transit)``: the codec cycles and the response
        route's transit latency.
        """
        cost = self.machine.cost
        npages = len(frames)
        head, batches, ack, payload, codec = self._batches(space, frames)
        self._leg(node, origin,
                  [(PAGE_REQ, head, cost.msg_ctrl + 8 * npages, True),
                   (ACK, ack, cost.msg_ctrl, False)],
                  2 * cost.msg_ctrl + 8 * npages, req_usage, faults)
        transit = self._leg(origin, node, batches,
                            payload + npages * cost.page_hdr,
                            resp_usage, faults, npages, payload)
        return codec, transit

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
        npages = len(shipped)
        self.migrations += 1
        self.pages_shipped += npages
        usage = {}
        bill = RetxBill(space.slot_path()) if machine.loss else None
        head, msgs, ack, payload, codec = self._batches(space, shipped)
        msgs.insert(0, (MIGRATE, head, cost.migrate_bytes, True))
        # Receiver-side accounting from the exchange's own arithmetic
        # (not the per-message sizes): conservation cross-checks them.
        transit = self._leg(
            src, dst, msgs,
            cost.migrate_bytes + payload + npages * cost.page_hdr,
            usage, bill, npages, payload)
        self._leg(dst, src, [(ACK, ack, cost.msg_ctrl, False)],
                  cost.msg_ctrl, faults=bill)
        trace = machine.trace
        if trace.is_open(space.uid):
            closed, opened = trace.move_node(space.uid, dst)
            self._stall_edges(closed, opened,
                              [(usage, transit + codec, "migrate")], bill)

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
        bill = RetxBill(space.slot_path()) if machine.loss else None
        codec, transit = self._page_exchange(space, origin, node, frames,
                                             req_usage, resp_usage, bill)
        trace = machine.trace
        if trace.is_open(space.uid):
            closed, opened = trace.cut(space.uid, label="fetch")
            self._stall_edges(closed, opened,
                              [(req_usage, 0, "fetch"),
                               (resp_usage, transit + codec, "fetch")], bill)

    def prefetch(self, space, origin, node, frames):
        """Asynchronously issue a PAGE_REQ/PAGE_BATCH exchange pulling
        predicted-next ``frames`` to ``node`` — nobody stalls.

        The exchange's wire traffic is accounted immediately (it is on
        the links now, whether or not anyone ends up wanting it) and
        queued on ``space``'s own async fetch queue for ``node``
        (``Space.inflight``), anchored at the space's most recently
        *closed* segment — callers issue prefetches right after a cut
        (a demand fetch's, or a migration's), so in the schedule the
        transfer's serialization starts at the issue point and overlaps
        whatever compute follows.  A later demand by the space on any
        of the frames redeems the exchange (:meth:`redeem_exchanges`
        via :meth:`take_inflight`).
        """
        machine = self.machine
        npages = len(frames)
        if npages == 0 or origin == node:
            return
        self.node(node).prefetch_issued += npages
        usage = {}
        bill = RetxBill(space.slot_path()) if machine.loss else None
        codec, transit = self._page_exchange(space, origin, node, frames,
                                             usage, usage, bill)
        exchange = PrefetchExchange(
            machine.trace.last_closed(space.uid), usage, transit + codec,
            [(frame, frame.generation) for frame in frames],
            retx=bill)
        if space.inflight is None:
            space.inflight = {}
        queue = space.inflight.setdefault(node, {})
        for frame in frames:
            queue[frame.serial] = (frame.generation, exchange, frame)

    def purge_superseded(self, space, node):
        """Drop ``space``'s queued entries for ``node`` whose frame was
        rewritten since they were issued; returns how many were dropped.

        The predictor runs this before refilling the queue: a queued
        entry at a superseded generation is already wasted wire — a
        future demand on it is a guaranteed stale miss — so it is
        dropped (and counted stale) now, freeing its queue slot for the
        fresh content the predictor is about to re-issue.  Hot pages
        rewritten faster than anyone reads them thus charge deep queues
        *every* rewrite.  An exchange whose last queued frame is purged
        was never demanded, so its wire contention enters the trace
        through a sink segment here, exactly as :meth:`flush_inflight`
        does for what is left at the end of the run.
        """
        queue = space.inflight and space.inflight.get(node)
        if not queue:
            return 0
        doomed = [serial for serial, (held, _, frame) in queue.items()
                  if frame.generation != held]
        for serial in doomed:
            _, exchange, _ = queue.pop(serial)
            self.node(node).prefetch_stale += 1
            if not any(entry[1] is exchange for entry in queue.values()):
                self._sink_exchange(space, exchange, node, "prefetch-stale")
        return len(doomed)

    def take_inflight(self, space, node, serial, generation):
        """Claim an in-flight prefetched frame for a demand on it.

        Returns the frame's :class:`PrefetchExchange` when ``space``'s
        queue for ``node`` holds ``serial`` at exactly ``generation``; a
        queue entry at a superseded generation is dropped (and counted
        stale) — its bytes were wasted and the caller must demand-fetch
        the fresh content.
        """
        queue = space.inflight and space.inflight.get(node)
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
        queue = space.inflight.get(node, {})
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
                self._stall_edges(
                    exchange.anchor, opened,
                    [(exchange.usage, exchange.latency, "prefetch")],
                    exchange.retx)

    def flush_inflight(self, top):
        """Sink every exchange still queued in ``top``'s subtree.

        Their wire bytes were counted at issue, but without a
        demanding segment their serialization never entered the trace —
        and on a shared link, speculative traffic delays everyone
        whether or not it is wanted.  For each still-queued exchange
        this emits its link edges from the issue anchor into a fresh
        zero-cycle *sink* segment (no space waits on it), so
        ``schedule()`` makes mispredicted prefetches contend with real
        transfers and reports their residue as ``"prefetch-unused"``.
        Called by the machine on the root once the run drains, and by
        the kernel on a subtree it destroys mid-run; queues are cleared,
        so a second call is a no-op.
        """
        for space in top.walk():
            inflight = space.inflight
            if not inflight:
                continue
            for node in sorted(inflight):
                flushed = set()
                for _, exchange, _ in inflight[node].values():
                    if id(exchange) not in flushed:
                        flushed.add(id(exchange))
                        self._sink_exchange(space, exchange, node,
                                            "prefetch-unused")
            inflight.clear()

    def _sink_exchange(self, space, exchange, node, kind):
        """Emit an undemanded exchange's link edges into a fresh
        zero-cycle sink segment at ``node`` (no space waits on it), so
        ``schedule()`` still makes its wire traffic contend with real
        transfers; the residue reports under ``kind``.  The sink is
        named from ``kind``, ``node`` and the issuing space's slot path
        — what no evaluation order or worker renumbers."""
        if exchange.anchor is None:
            return
        trace = self.machine.trace
        path = "".join(f"/{num}" for num in space.slot_path())
        uid = f"~{kind}{path}@{node}"
        sink = trace.begin(uid, node=node, label=kind)
        trace.end(uid)
        self._stall_edges(exchange.anchor, sink,
                          [(exchange.usage, exchange.latency, kind)],
                          exchange.retx)

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
