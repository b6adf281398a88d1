"""Message-level cluster transport (paper §3.3, rebuilt as a subsystem).

The seed charged cross-node work as scalars: a flat ``migrate_base +
net_msg`` per hop and one independent round trip per demand-fetched
page.  This module replaces that with an explicit protocol over a
*routed fabric*; every cross-node kernel path (migrate, remote
fork/join's copy, demand fetch, merge) now routes its traffic through
one :class:`Transport` owned by the machine.

Message types
-------------

``MIGRATE``
    Carries a space's register file plus its address-space summary
    (``cost.migrate_bytes``), followed by the *delta* of its pages.
``PAGE_BATCH``
    A scatter/gather message moving up to ``cost.msg_batch`` pages
    (each ``payload + cost.page_hdr`` bytes on the wire, where the
    payload is 4 KiB raw or its compressed size — see below), instead
    of one message per page.
``PAGE_REQ``
    A page-fetch request naming the wanted pages (``cost.msg_ctrl`` +
    8 bytes per page), sent to the node that produced their newest
    content — either a *demand* fetch the space stalls on, or an
    *async prefetch* for predicted-next frames that overlaps compute.
``ACK``
    Completion notice on the reverse route.  ACKs are fire-and-forget:
    they occupy wire bytes/messages in the accounting but never delay
    the sending space.

Links, routes, and time
-----------------------

The machine's :class:`~repro.cluster.topology.Topology` describes the
fabric: links are ordered pairs of fabric *endpoints* (node ints and
switch names), each carrying a latency/bandwidth class.  A message
between non-adjacent endpoints is routed hop by hop — **every traversed
link** accrues its messages, bytes, pages, and serialization occupancy
(``cost.link_message`` scaled by the link class's bandwidth factor,
TCP surcharge when the machine runs in ``tcp_mode``).  On the legacy
flat fabric every route is the single direct link, reproducing the
pre-topology accounting exactly.

Transfers that stall a space are recorded as one
:meth:`~repro.timing.trace.Trace.link_edge` per traversed link, so the
scheduler makes overlapping transfers contend *on each physical link of
the route* while leaving the CPUs free — a shared cross-rack uplink
serializes every node pair that crosses it, which is how
oversubscription bends the scaling curve.  The route's total transit
latency (sum of per-hop class latencies) is charged alongside.

Pipelined prefetch
------------------

Demand fetches are stop-and-wait: the space stalls for the whole round
trip.  With ``prefetch_depth > 0`` each node also runs an *async fetch
queue*: the kernel predicts the frames a space will touch next
(sequentially past a faulting range, and from the migration ledger at
migration time) and the transport issues their PAGE_REQ/PAGE_BATCH
exchange immediately, anchored at the segment that was open when the
prediction fired.  Nothing stalls at issue time; the in-flight transfer
serializes on its links *while the CPU keeps computing*.  When a later
touch demands an in-flight frame, the whole exchange is *redeemed*:
trace link edges run from the issue anchor to the demanding segment
(kind ``"prefetch"``), so the scheduler charges only the part of the
transfer that outlived the compute it hid behind — a late arrival is an
explicit stall edge, an early one costs nothing.  Prefetched frames the
run never demands stay in the queue and are reported as
``prefetch_unused`` — speculative wire traffic, never folded into the
demand-pull count.

Determinism makes this aggressive pipelining safe: page content at each
quantum boundary is fully determined, so a predicted fetch can never
observe — or produce — different bytes than the demand fetch it
replaces.

Wire compression
----------------

With ``ClusterSpec(compression=True)`` every PAGE_BATCH payload is encoded
per frame (:mod:`repro.cluster.compress`): all-zero frames are
suppressed to the per-page header, mostly-zero frames ship zero-run
RLE, and high-entropy frames fall back to raw — per-page, per-link,
``compressed <= raw`` always.  Links account both byte counts
(:attr:`LinkStats.raw_bytes` vs :attr:`LinkStats.comp_bytes`), encoded
sizes are cached per frame content tag, and codec work is charged as
transfer latency via the ``comp_encode_byte``/``comp_decode_byte``
cost knobs.

Deterministic faults and retransmission
---------------------------------------

With ``ClusterSpec(loss=...)`` every wire copy of every message consults
the machine's :class:`~repro.cluster.faults.LossSchedule` — a pure
function of ``(seed, link, msg_serial, attempt)``, so reruns fault
bit-identically.  Each fabric link runs a reliable link layer: a
dropped copy is retransmitted after ``cost.retx_timeout`` cycles
(bounded by ``cost.retx_limit``, exhaustion raises
:class:`~repro.common.errors.NetworkLossError`); a duplicated copy
serializes and arrives twice, the receiver discarding the second; a
reordered copy is held back one hop latency at the receiver.  Every
extra copy occupies its link (it contends in ``schedule()``), the
per-link ledger keeps the split (:attr:`LinkStats.retx_msgs` /
:attr:`LinkStats.retx_bytes` / :attr:`LinkStats.dropped_bytes`), and
the timeout waits of a space-stalling exchange are charged as
``kind="retx"`` trace link edges — so
``ScheduleResult.stall_cycles["retx"]`` is exactly the time spaces
lost to the unreliable fabric.  ACKs stay fire-and-forget: their
faults are accounted on the links but never delay a space.
Determinism guarantees loss is cost-only — computed values and final
memory images are identical under any schedule — and conservation
extends to ``delivered + dropped == sent`` per physical link.

Delta shipping
--------------

A migrating space's memory image moves with it.  In ``ship_mode="full"``
every mapped page crosses on every hop (the naive protocol, kept as the
ablation baseline).  In ``ship_mode="delta"`` the kernel enumerates
candidates from the dirty ledger via the space's per-node visit tokens —
only pages written since the space last resided on the target — and the
per-node tag cache then drops pages whose ``(serial, generation)``
content is already present there.  In ``ship_mode="demand"`` the
MIGRATE message carries only the summary and every page demand-faults
(or prefetches) over later — the paper's baseline distributed-memory
protocol, and the stage on which the prefetch ablation measures
stop-and-wait against pipelined fetching.  See
:meth:`repro.kernel.kernel.Kernel.migrate`.
"""

import enum

from repro.cluster import compress
from repro.cluster.faults import DROP, DUPLICATE, REORDER, RetxBill
from repro.common.errors import NetworkLossError
from repro.mem.page import PAGE_SIZE


class MsgType(enum.Enum):
    """Wire message types of the cluster protocol."""

    MIGRATE = "migrate"
    PAGE_REQ = "page_req"
    PAGE_BATCH = "page_batch"
    ACK = "ack"


class LinkStats:
    """Cumulative traffic accounting of one directed fabric link."""

    #: The additive counters, declared once: zero-init, :meth:`as_dict`,
    #: :meth:`delta_since`, :meth:`add` and ``Transport.class_totals``
    #: all derive from this tuple.
    FIELDS = (
        #: Messages serialized onto the link (each routed message counts
        #: once per link it traverses).
        "messages",
        #: Wire bytes queued at the sending endpoint.
        "bytes_sent",
        #: Wire bytes handed to the receiving endpoint.  The clean copy
        #: of every message is credited per *exchange* from its page
        #: counts (independently of the per-message ``bytes_sent``);
        #: duplicated copies are credited as they arrive.  The
        #: conservation invariant the transport tests pin down —
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
        #: Duplicated copies: serialized and delivered twice, the
        #: receiver discarding the extra arrival.
        "dup_msgs", "dup_bytes",
        #: Copies delivered out of order, held back one hop latency.
        "reorder_msgs",
    )

    __slots__ = ("cls", "by_type") + FIELDS

    def __init__(self, cls="node"):
        #: Name of the link's latency/bandwidth class.
        self.cls = cls
        #: message-type name -> message count.
        self.by_type = {}
        for name in self.FIELDS:
            setattr(self, name, 0)

    def as_dict(self):
        """Plain-dict view (reporting)."""
        out = {name: getattr(self, name) for name in self.FIELDS}
        out["cls"] = self.cls
        out["by_type"] = dict(self.by_type)
        return out

    def delta_since(self, base):
        """What the link accumulated since ``base`` — an earlier
        :meth:`as_dict` of it, or None for "since creation" — in the
        shape :meth:`add` folds back in; None when nothing moved."""
        base = base or {}
        delta = {name: getattr(self, name) - base.get(name, 0)
                 for name in self.FIELDS}
        base_types = base.get("by_type", {})
        delta["by_type"] = {
            mtype: count - base_types.get(mtype, 0)
            for mtype, count in self.by_type.items()
            if count != base_types.get(mtype, 0)
        }
        return delta if any(delta.values()) else None

    def add(self, delta):
        """Fold a :meth:`delta_since` result into this link."""
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name) + delta[name])
        for mtype, count in delta["by_type"].items():
            self.by_type[mtype] = self.by_type.get(mtype, 0) + count

    def restore(self, base):
        """Back to ``base``, an earlier :meth:`as_dict` of this link (a
        shard worker's rewind between two subtrees of its queue)."""
        for name in self.FIELDS:
            setattr(self, name, base[name])
        self.by_type = dict(base["by_type"])


class PrefetchExchange:
    """One in-flight async PAGE_REQ/PAGE_BATCH exchange.

    Issued without stalling anyone; redeemed as a unit the first time a
    space demands any of its frames (the whole scatter/gather response
    arrives together), at which point its link edges enter the trace.
    """

    __slots__ = ("anchor", "usage", "latency", "frames", "origin", "retx",
                 "issuer_uid", "issue_charged", "wire_time", "window",
                 "aged")

    def __init__(self, anchor, usage, latency, frames, origin, retx=None):
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
        #: Node the pages were pulled from.
        self.origin = origin
        #: Retransmission charges (:class:`~repro.cluster.faults.
        #: RetxBill`) the exchange accumulated at issue time, emitted
        #: as ``kind="retx"`` edges when the exchange is redeemed or
        #: flushed; None on a lossless fabric.
        self.retx = retx
        #: Issue-time telemetry for the control plane's late-redeem
        #: estimator: the issuing space, its program clock
        #: (``Trace.charged``) at issue, the exchange's modelled wire
        #: time (serialization + transit + retx waits), and the
        #: telemetry window index it was issued in.
        self.issuer_uid = None
        self.issue_charged = 0
        self.wire_time = 0
        self.window = 0
        #: Whether the window sweep already counted this exchange's
        #: still-queued frames as aged speculation (counted once).
        self.aged = False


#: Per-node telemetry counters tracked inside one window (the keys of
#: every node dict a :class:`TelemetryWindow` carries).
NODE_WINDOW_KEYS = ("pulled", "prefetch_issued", "prefetch_used",
                    "prefetch_stale", "prefetch_aged", "prefetch_refresh",
                    "late_redeems", "late_cycles")

#: Route-latency samples kept per window (first come first kept — a
#: deterministic cap, so an unattended window can never grow unbounded).
ROUTE_SAMPLE_CAP = 512


class TelemetryWindow:
    """Read-only snapshot of one telemetry window (``Transport.
    take_window``): everything the transport observed since the last
    snapshot, reset on take.

    All content is a pure function of the simulated execution, so two
    same-seed runs produce bit-identical window sequences — which is
    what makes controller decisions replay-exact.
    """

    __slots__ = ("index", "nodes", "route_samples", "pair_bytes",
                 "drops", "retx_msgs", "retx_wait", "messages")

    def __init__(self, index, nodes, route_samples, pair_bytes,
                 drops, retx_msgs, retx_wait, messages):
        #: Monotone window serial (0-based).
        self.index = index
        #: node -> dict of :data:`NODE_WINDOW_KEYS` counters: demand
        #: pulls, prefetch issue/hit/stale splits, aged in-flight
        #: frames, and the late-redeem count/estimated stall cycles.
        self.nodes = nodes
        #: ``{(a, b): [delivery-cycles sample, ...]}`` per unordered
        #: node pair — modelled per-message delivery latency of each
        #: clean page exchange on the route (Karn's rule: exchanges
        #: that retransmitted contribute no sample).
        self.route_samples = route_samples
        #: ``{(src, dst): bytes}`` logical message bytes per directed
        #: node pair (counted once per message, not per hop).
        self.pair_bytes = pair_bytes
        #: Fault-path deltas over the window.
        self.drops, self.retx_msgs, self.retx_wait = drops, retx_msgs, retx_wait
        #: Logical messages sent during the window.
        self.messages = messages

    def node(self, node):
        """Counters of ``node`` (zeros when it saw no traffic)."""
        return self.nodes.get(node) or dict.fromkeys(NODE_WINDOW_KEYS, 0)

    def table(self):
        """Aligned per-node rows of the window's counters."""
        if not self.nodes:
            return f"(window {self.index}: no telemetry)"
        lines = [f"{'node':>5} {'pulled':>7} {'pf-iss':>7} {'pf-used':>8} "
                 f"{'stale':>6} {'aged':>5} {'churn':>6} {'late':>5} "
                 f"{'late cycles':>12}"]
        for node in sorted(self.nodes):
            row = self.nodes[node]
            lines.append(
                f"{node:>5} {row['pulled']:>7} {row['prefetch_issued']:>7} "
                f"{row['prefetch_used']:>8} {row['prefetch_stale']:>6} "
                f"{row['prefetch_aged']:>5} {row['prefetch_refresh']:>6} "
                f"{row['late_redeems']:>5} {row['late_cycles']:>12,}")
        return "\n".join(lines)

    def __repr__(self):
        return (f"<TelemetryWindow {self.index} nodes={len(self.nodes)} "
                f"msgs={self.messages} drops={self.drops}>")


def _link_total(field):
    """Read-only total of one :attr:`LinkStats.FIELDS` counter over
    every link — the per-link ledgers are the only copy kept."""
    return property(lambda self: sum(getattr(stats, field)
                                     for stats in self.links.values()))


class Transport:
    """The simulated interconnect of one machine's cluster."""

    #: The counters below that are pure accumulations (order-independent
    #: sums): a sharded run ships them from workers as deltas and adds
    #: them on adoption.
    SCALARS = (
        "migrations", "pages_shipped", "pages_pulled", "pages_prefetched",
        "prefetch_used", "prefetch_stale", "batches", "messages", "hops",
        "codec_cycles", "msg_serial", "retx_wait",
    )

    #: Wire bytes and serialization cycles summed over every traversed
    #: link (an H-hop route moves its bytes H times).
    bytes_total = _link_total("bytes_sent")
    busy_total = _link_total("busy_cycles")
    #: Page payload bytes before/after wire compression, summed over
    #: traversed links like :attr:`bytes_total` (equal when compression
    #: is off).
    raw_total = _link_total("raw_bytes")
    comp_total = _link_total("comp_bytes")
    #: Fault/retransmission totals over every link: copies the loss
    #: schedule dropped / the link layer re-serialized / duplicated /
    #: reordered.
    drops = _link_total("dropped_msgs")
    dropped_bytes = _link_total("dropped_bytes")
    retx_msgs = _link_total("retx_msgs")
    retx_bytes = _link_total("retx_bytes")
    dups = _link_total("dup_msgs")
    reorders = _link_total("reorder_msgs")

    def __init__(self, machine):
        self.machine = machine
        #: (src_endpoint, dst_endpoint) -> LinkStats, one entry per
        #: *physical* fabric link that ever carried traffic (switch
        #: links included).
        self.links = {}
        #: Migration hops performed (one per MIGRATE message) —
        #: maintained incrementally so NetworkStats never rescans the
        #: trace.
        self.migrations = 0
        #: Pages moved eagerly with migrations (delta or full ship).
        self.pages_shipped = 0
        #: Pages moved by stop-and-wait demand fetch.
        self.pages_pulled = 0
        #: Pages speculatively moved by the async prefetch queues, and
        #: how many of those a space later actually demanded.  The
        #: difference is wasted speculative bandwidth — reported
        #: separately, never folded into the demand-pull count.
        self.pages_prefetched = 0
        self.prefetch_used = 0
        #: Prefetched frames whose content was superseded (the producer
        #: wrote a newer generation) before any space demanded them.
        self.prefetch_stale = 0
        #: PAGE_BATCH messages sent.
        self.batches = 0
        #: Logical protocol messages (each counted once however many
        #: links its route traverses).
        self.messages = 0
        #: Link traversals: a message over an H-hop route counts H.
        self.hops = 0
        #: Encode/decode cycles the compression codec cost (charged as
        #: transfer latency, not link occupancy).
        self.codec_cycles = 0
        #: Logical message serial: incremented once per :meth:`_send`,
        #: the key (with the link) of every fault decision — serials
        #: are deterministic because the simulation is, so the loss
        #: schedule replays bit-identically.
        self.msg_serial = 0
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
        # -- telemetry window (snapshot/reset by take_window) ------------
        #: Monotone window serial: how many windows have been taken.
        self.window_index = 0
        #: node -> per-window counter dict (NODE_WINDOW_KEYS).
        self.win_nodes = {}
        #: unordered (a, b) node pair -> delivery-latency samples of the
        #: window's clean page exchanges (capped at ROUTE_SAMPLE_CAP).
        self.win_route_samples = {}
        #: directed (src, dst) node pair -> logical message bytes.
        self.win_pair_bytes = {}
        #: Copies the running window saw dropped / retransmitted (the
        #: cumulative totals are link sums; a window must not pay one).
        self._win_drops = 0
        self._win_retx = 0
        # Cumulative-counter marks of the running window's start.
        self._win_wait0 = 0
        self._win_msgs0 = 0

    # -- bookkeeping -------------------------------------------------------

    def link(self, link):
        """The :class:`LinkStats` of one directed fabric link."""
        stats = self.links.get(link)
        if stats is None:
            cls = self.machine.topology.link_class(link).name
            stats = self.links[link] = LinkStats(cls)
        return stats

    def wire_size(self, frame):
        """Wire payload bytes of ``frame``: 4096 raw, or its encoded
        size (cached per content tag) under compression."""
        if not self.machine.compression:
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

    def _wnode(self, node):
        """The running window's counter dict of ``node``."""
        counters = self.win_nodes.get(node)
        if counters is None:
            counters = self.win_nodes[node] = dict.fromkeys(
                NODE_WINDOW_KEYS, 0)
        return counters

    def _note_route_sample(self, src, dst, usage, nmsgs, bill,
                           npages=1):
        """Record one delivery-latency sample for the ``src``/``dst``
        route: route transit plus the exchange's mean per-message
        serialization.  Two Karn-style filters keep the estimator
        honest about what the retransmit timer actually guards:
        exchanges that hit the fault path contribute nothing (a
        retransmitted exchange's latency says more about the timeout
        than about the route), and so do multi-page batch exchanges —
        a batch's drain time measures the sender's throughput, while
        the timer waits on the route's *turnaround* for one copy, which
        only minimal (single-data-message) exchanges exhibit."""
        if bill is not None and (bill.usage or bill.wait):
            return
        if npages > 1:
            return
        pair = (src, dst) if src <= dst else (dst, src)
        samples = self.win_route_samples.setdefault(pair, [])
        if len(samples) >= ROUTE_SAMPLE_CAP:
            return
        machine = self.machine
        transit = machine.topology.route_latency(machine.cost, src, dst)
        busy = sum(usage.values()) if usage else 0
        samples.append(transit + busy // max(1, nmsgs))

    def take_window(self):
        """Snapshot-and-reset the running telemetry window.

        Returns a :class:`TelemetryWindow` of everything observed since
        the previous call (or the start of the run) and opens the next
        window.  Before snapshotting, still-queued prefetched frames
        issued two or more windows ago are counted (once per exchange)
        as ``prefetch_aged`` — in-flight speculation the run is visibly
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
                queued = sum(1 for _, ex, _ in queue.values()
                             if ex is exchange)
                self._wnode(node)["prefetch_aged"] += queued
        window = TelemetryWindow(
            index, self.win_nodes, self.win_route_samples,
            self.win_pair_bytes,
            drops=self._win_drops, retx_msgs=self._win_retx,
            retx_wait=self.retx_wait - self._win_wait0,
            messages=self.messages - self._win_msgs0,
        )
        self.window_index = index + 1
        self.win_nodes = {}
        self.win_route_samples = {}
        self.win_pair_bytes = {}
        self._win_drops = self._win_retx = 0
        self._win_wait0 = self.retx_wait
        self._win_msgs0 = self.messages
        return window

    def _send(self, mtype, src, dst, nbytes, pages=0, usage=None,
              raw_payload=0, comp_payload=0, faults=None):
        """Serialize one message along the fabric route ``src -> dst``.

        Every traversed link accrues the message's bytes, pages, and
        its class-scaled serialization cycles; ``usage`` (when given)
        collects per-link busy cycles for the caller's trace edges.
        ``raw_payload``/``comp_payload`` carry the page payload's
        pre-/post-compression byte counts for the per-link compression
        ledger.  Only the *sending* side is accounted here; the
        exchange methods credit ``bytes_received`` from their own
        arithmetic (:meth:`_receive`), so the conservation invariant
        cross-checks the two computations per physical link — e.g. a
        batch split that loses pages shows up as a sent/received
        mismatch.

        Under ``ClusterSpec(loss=...)`` each link's copy consults the
        deterministic loss schedule, keyed on ``(link, msg_serial,
        attempt)``.  Dropped copies are retransmitted by the link layer
        after ``cost.retx_timeout`` (at most ``cost.retx_limit``
        retries); duplicated copies serialize and arrive twice (the
        receiver discards the extra, credited here); reordered copies
        are held back one hop latency.  ``faults`` (a
        :class:`~repro.cluster.faults.RetxBill`, for messages a space
        stalls on) collects the extra per-link occupancy and the
        timeout waits for the caller's ``kind="retx"`` trace edges;
        fire-and-forget messages pass None and fault silently.
        """
        machine = self.machine
        cost = machine.cost
        topo = machine.topology
        loss = machine.loss
        serial = self.msg_serial
        self.msg_serial += 1
        self.messages += 1
        self.win_pair_bytes[(src, dst)] = \
            self.win_pair_bytes.get((src, dst), 0) + nbytes
        # The retransmit timer is per logical message: the (possibly
        # control-tuned) timeout of the message's route, resolved once
        # so every hop copy of this message waits the same timer.
        timeout = machine.retx_timeout_for(src, dst) if loss else 0
        for link in topo.route(src, dst):
            cls = topo.link_class(link)
            busy = cost.link_message(nbytes, byte_factor=cls.byte_factor,
                                     tcp=machine.tcp_mode)
            stats = self.link(link)
            # Payload/page accounting is per logical traversal: the
            # content crosses the link once however many wire copies
            # the link layer needs.
            stats.pages += pages
            stats.raw_bytes += raw_payload
            stats.comp_bytes += comp_payload
            self.hops += 1
            if usage is not None:
                usage[link] = usage.get(link, 0) + busy
            attempt = 0
            while True:
                stats.messages += 1
                stats.bytes_sent += nbytes
                stats.busy_cycles += busy
                stats.by_type[mtype.name] = \
                    stats.by_type.get(mtype.name, 0) + 1
                if attempt:
                    stats.retx_msgs += 1
                    stats.retx_bytes += nbytes
                    self._win_retx += 1
                    if faults is not None:
                        faults.usage[link] = faults.usage.get(link, 0) + busy
                outcome = loss.decide(link, serial, attempt) if loss \
                    else None
                if outcome is DROP:
                    stats.dropped_msgs += 1
                    stats.dropped_bytes += nbytes
                    self._win_drops += 1
                    attempt += 1
                    if attempt > cost.retx_limit:
                        raise NetworkLossError(
                            f"{mtype.name} msg {serial} on link {link}: "
                            f"all {cost.retx_limit} retransmissions "
                            f"dropped")
                    if faults is not None:
                        faults.wait += timeout
                        self.retx_wait += timeout
                    continue
                if outcome is DUPLICATE:
                    # The link layer serialized a second copy; it
                    # arrives and the receiver discards it, so it is
                    # credited delivered right here (the exchange
                    # arithmetic only knows clean copies).
                    stats.messages += 1
                    stats.bytes_sent += nbytes
                    stats.bytes_received += nbytes
                    stats.busy_cycles += busy
                    stats.dup_msgs += 1
                    stats.dup_bytes += nbytes
                    stats.by_type[mtype.name] += 1
                    if faults is not None:
                        faults.usage[link] = faults.usage.get(link, 0) + busy
                elif outcome is REORDER:
                    # Delivered behind a later copy: the receiver holds
                    # it one hop transit before handing it up.
                    stats.reorder_msgs += 1
                    if faults is not None:
                        hold = int(cls.latency_factor * cost.net_latency)
                        faults.wait += hold
                        faults.usage.setdefault(link, 0)
                        self.retx_wait += hold
                break

    def _receive(self, src, dst, nbytes):
        """Credit ``nbytes`` delivered over every link of the
        ``src -> dst`` route (lossless fabric)."""
        for link in self.machine.topology.route(src, dst):
            self.link(link).bytes_received += nbytes

    def _stall_edges(self, closed, opened, usage, latency=0, kind=None):
        """One trace link edge per physical link the exchange occupied:
        the space resumes only after its transfer wins *each* link it
        crossed (shared uplinks make crossing flows contend) and
        transits the route latency."""
        trace = self.machine.trace
        topo = self.machine.topology
        for link, busy in usage.items():
            trace.link_edge(closed, opened, link=link, busy=busy,
                            latency=latency, cls=topo.link_class(link).name,
                            kind=kind)

    def _batch_sizes(self, npages):
        """Split ``npages`` into PAGE_BATCH loads (``cost.msg_batch``)."""
        cap = max(1, self.machine.cost.msg_batch)
        sizes = []
        while npages > 0:
            take = min(cap, npages)
            sizes.append(take)
            npages -= take
        return sizes

    def _ship(self, src, dst, frames, usage=None, faults=None):
        """Send ``frames`` as PAGE_BATCH messages over the route.

        Returns ``(payload, codec)``: total payload bytes serialized
        (compressed when the machine compresses; headers excluded) and
        the encode+decode cycles the codec cost.
        """
        cost = self.machine.cost
        sizes = [self.wire_size(frame) for frame in frames]
        index = 0
        for take in self._batch_sizes(len(frames)):
            payload = sum(sizes[index:index + take])
            self._send(MsgType.PAGE_BATCH, src, dst,
                       payload + take * cost.page_hdr,
                       pages=take, usage=usage,
                       raw_payload=take * PAGE_SIZE, comp_payload=payload,
                       faults=faults)
            self.batches += 1
            index += take
        payload = sum(sizes)
        codec = 0
        if self.machine.compression and frames:
            codec = int(len(frames) * PAGE_SIZE * cost.comp_encode_byte
                        + payload * cost.comp_decode_byte)
            self.codec_cycles += codec
        return payload, codec

    def _page_exchange(self, origin, node, frames, req_usage=None,
                       resp_usage=None, faults=None):
        """Wire accounting of one PAGE_REQ/PAGE_BATCH/ACK exchange
        pulling ``frames`` from ``origin`` to ``node`` — shared by the
        demand and prefetch paths so the two can never drift apart and
        break per-link conservation.  Returns ``(payload, codec)``.
        """
        cost = self.machine.cost
        npages = len(frames)
        self._send(MsgType.PAGE_REQ, node, origin,
                   cost.msg_ctrl + 8 * npages, usage=req_usage,
                   faults=faults)
        payload, codec = self._ship(origin, node, frames, usage=resp_usage,
                                    faults=faults)
        self._send(MsgType.ACK, node, origin, cost.msg_ctrl)
        self._receive(node, origin, 2 * cost.msg_ctrl + 8 * npages)
        self._receive(origin, node, payload + npages * cost.page_hdr)
        # One delivery-latency sample per clean exchange (telemetry for
        # the control plane's SRTT estimator).  The request and response
        # usage dicts may alias (the prefetch path passes one dict);
        # merge without double counting.
        usage = dict(req_usage or ())
        if resp_usage is not None and resp_usage is not req_usage:
            for link, busy in resp_usage.items():
                usage[link] = usage.get(link, 0) + busy
        nmsgs = 1 + len(self._batch_sizes(npages))
        self._note_route_sample(origin, node, usage, nmsgs, faults,
                                npages=npages)
        return payload, codec

    # -- protocol exchanges ------------------------------------------------

    def migrate(self, space, src, dst, shipped):
        """Move ``space`` from ``src`` to ``dst``, shipping the
        ``shipped`` delta frames with it.

        Sends MIGRATE + PAGE_BATCHes along the ``src -> dst`` route and
        an async ACK back, then cuts the space's trace segment across
        per-link edges so the space resumes on ``dst`` only after the
        transfer serializes on every traversed link (contending with
        other traffic crossing those links) and transits the route's
        total latency.
        """
        machine = self.machine
        cost = machine.cost
        self.migrations += 1
        self.pages_shipped += len(shipped)
        usage = {}
        bill = RetxBill() if machine.loss else None
        self._send(MsgType.MIGRATE, src, dst, cost.migrate_bytes, usage=usage,
                   faults=bill)
        payload, codec = self._ship(src, dst, shipped, usage=usage,
                                    faults=bill)
        self._send(MsgType.ACK, dst, src, cost.msg_ctrl)
        # Receiver-side accounting from the exchange's own arithmetic
        # (not the per-message sends): conservation cross-checks them.
        self._receive(src, dst, cost.migrate_bytes
                      + payload + len(shipped) * cost.page_hdr)
        self._receive(dst, src, cost.msg_ctrl)
        self._note_route_sample(src, dst, usage,
                                1 + len(self._batch_sizes(len(shipped))),
                                bill, npages=len(shipped))
        trace = machine.trace
        if trace.is_open(space.uid):
            closed, opened = trace.move_node(space.uid, dst)
            self._stall_edges(closed, opened, usage,
                              latency=machine.topology.route_latency(
                                  cost, src, dst) + codec,
                              kind="migrate")
            if bill:
                self._stall_edges(closed, opened, bill.usage,
                                  latency=bill.wait, kind="retx")

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
        npages = len(frames)
        self.pages_pulled += npages
        self._wnode(node)["pulled"] += npages
        req_usage = {}
        resp_usage = {}
        bill = RetxBill() if machine.loss else None
        _, codec = self._page_exchange(origin, node, frames,
                                       req_usage=req_usage,
                                       resp_usage=resp_usage,
                                       faults=bill)
        trace = machine.trace
        if trace.is_open(space.uid):
            closed, opened = trace.cut(space.uid, label="fetch")
            self._stall_edges(closed, opened, req_usage, kind="fetch")
            self._stall_edges(closed, opened, resp_usage,
                              latency=machine.topology.route_latency(
                                  machine.cost, origin, node) + codec,
                              kind="fetch")
            if bill:
                self._stall_edges(closed, opened, bill.usage,
                                  latency=bill.wait, kind="retx")

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
        self.pages_prefetched += npages
        self._wnode(node)["prefetch_issued"] += npages
        usage = {}
        bill = RetxBill() if machine.loss else None
        _, codec = self._page_exchange(origin, node, frames,
                                       req_usage=usage, resp_usage=usage,
                                       faults=bill)
        trace = machine.trace
        last = trace.last_closed(space.uid)
        anchor = last.id if last is not None else None
        latency = (machine.topology.route_latency(machine.cost, origin, node)
                   + codec)
        exchange = PrefetchExchange(
            anchor, usage, latency,
            [(frame, frame.generation) for frame in frames], origin,
            retx=bill)
        exchange.issuer_uid = space.uid
        exchange.issue_charged = trace.charged(space.uid)
        exchange.wire_time = (sum(usage.values()) + latency
                              + (bill.wait if bill else 0))
        exchange.window = self.window_index
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
            self.prefetch_stale += 1
            self._wnode(node)["prefetch_stale"] += 1
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
            self.prefetch_stale += 1
            self._wnode(node)["prefetch_stale"] += 1
            return None
        self.prefetch_used += 1
        self._wnode(node)["prefetch_used"] += 1
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
        counters = self._wnode(node)
        opened = None
        if trace.is_open(space.uid):
            _, opened = trace.cut(space.uid, label="prefetch-wait")
        for exchange in exchanges:
            # Late-redeem estimator: compare the exchange's modelled
            # wire time against the program clock that elapsed between
            # issue and demand (the demander's when it is the issuer,
            # the issuer's otherwise).  Wire time the compute did not
            # cover is the stall the schedule will charge — the signal
            # to run the queue deeper.
            clock_uid = (space.uid if space.uid == exchange.issuer_uid
                         else exchange.issuer_uid)
            elapsed = 0
            if clock_uid is not None:
                elapsed = max(0, trace.charged(clock_uid)
                              - exchange.issue_charged)
            late = exchange.wire_time - elapsed
            if late > 0:
                counters["late_redeems"] += 1
                counters["late_cycles"] += late
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
                    self.prefetch_stale += 1
                    counters["prefetch_stale"] += 1
                    continue
                self.prefetch_used += 1
                counters["prefetch_used"] += 1
                if cache.get(frame.serial, -1) < generation:
                    cache[frame.serial] = generation
            if opened is not None and exchange.anchor is not None:
                self._stall_edges(exchange.anchor, opened, exchange.usage,
                                  latency=exchange.latency, kind="prefetch")
                if exchange.retx:
                    self._stall_edges(exchange.anchor, opened,
                                      exchange.retx.usage,
                                      latency=exchange.retx.wait,
                                      kind="retx")

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
        self._stall_edges(exchange.anchor, sink, exchange.usage,
                          latency=exchange.latency, kind=kind)
        if exchange.retx:
            self._stall_edges(exchange.anchor, sink,
                              exchange.retx.usage,
                              latency=exchange.retx.wait,
                              kind="retx")

    # -- invariants --------------------------------------------------------

    def conservation_ok(self):
        """True iff every traversed link accounts for every byte it
        sent — delivered plus dropped — and never compressed a payload
        *up*.

        Sender bytes accumulate per wire copy as each serializes onto
        each link of its route (retransmissions and duplicates
        included); receiver bytes are credited per *exchange* from its
        page counts for the clean copy, plus inline for duplicate
        arrivals; dropped bytes are tallied as the loss schedule eats
        copies.  ``sent == received + dropped`` holds per physical link
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
