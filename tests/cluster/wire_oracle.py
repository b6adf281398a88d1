"""The transport's send path as it was before an exchange became two
hop-major legs, kept verbatim as the reference of
``test_wire_oracle.py``.

:class:`ReferenceTransport` walks a route once per *message*
(``_send``), again to credit the receiver (``_receive``) and again to
draw the stall edges (``_stall_edges``).  It overrides every method of
the production send path and stubs out the leg, so an oracle that
compares against it cannot agree with itself: it prices a route's
transit from the per-link ``link_class`` latency factors
(``_transit``), never from the route record.  What it inherits is the
link and node row
accessors, the codec size cache (which its own ``wire_size`` fills a frame at
a time) and the prefetch queue, none of which the rewrite touched (the queue's redeem and sink paths call
``_stall_edges`` with segment ids, as the reference's own paths do).

Loss draws key on the sending space: the reference numbers each
space's messages in a table of its own, by slot path, one ``_send`` at
a time, and folds the path afresh for every message — where production
counts on the space and folds once per exchange.
"""

from repro.cluster.faults import RetxBill, sender_key
from repro.cluster.transport import MsgType, PrefetchExchange, Transport
from repro.common.errors import NetworkLossError
from repro.mem.page import PAGE_SIZE


class ReferenceTransport(Transport):
    """``Transport`` with the per-message send path of PR 23."""

    #: The production walk: reaching it from here is a bug in the oracle.
    _leg = _batches = None

    def __init__(self, machine):
        super().__init__(machine)
        #: slot path -> messages that space has sent so far.
        self.numbers = {}

    def _transit(self, src, dst):
        """Total transit latency (cycles) of the ``src -> dst`` route:
        ``net_latency`` times its links' summed latency factors."""
        topo = self.machine.topology
        return int(self.machine.cost.net_latency
                   * sum(topo.link_class(link).latency_factor
                         for link in topo.route(src, dst)))

    def _send(self, space, mtype, src, dst, nbytes, pages=0, usage=None,
              raw_payload=0, comp_payload=0, faults=None):
        """Serialize one message ``space`` sends along the fabric route
        ``src -> dst``.

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
        deterministic loss schedule, keyed on ``(link, the sending
        space's slot path, its message number, attempt)``.  Dropped copies are retransmitted by the link layer
        after ``cost.retx_timeout`` (at most ``cost.retx_limit``
        retries).  ``faults`` (a
        :class:`~repro.cluster.faults.RetxBill`, for messages a space
        stalls on) collects the extra per-link occupancy and the
        timeout waits for the caller's ``kind="retx"`` trace edges;
        fire-and-forget messages pass None and fault silently.  An ACK
        that exhausts its retries delays nobody: it dies on that hop,
        and the walk returns the hop's index (None when it arrived).
        """
        machine = self.machine
        cost = machine.cost
        topo = machine.topology
        loss = machine.loss
        path = tuple(space.slot_path())
        number = self.numbers.get(path, 0)
        self.numbers[path] = number + 1
        self.messages += 1
        for hop, link in enumerate(topo.route(src, dst)):
            cls = topo.link_class(link)
            busy = cost.link_message(nbytes, byte_factor=cls.byte_factor,
                                     tcp=machine.spec.tcp_mode)
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
                    if faults is not None:
                        faults.usage[link] = faults.usage.get(link, 0) + busy
                if not (loss and loss.drops(link, sender_key(path), number,
                                            attempt)):
                    break
                stats.dropped_msgs += 1
                stats.dropped_bytes += nbytes
                attempt += 1
                if attempt > cost.retx_limit:
                    if mtype is MsgType.ACK:
                        return hop
                    raise NetworkLossError(
                        f"{mtype.name} msg {number} of space {list(path)} "
                        f"on link {link}: "
                        f"all {cost.retx_limit} retransmissions "
                        f"dropped")
                if faults is not None:
                    faults.wait += cost.retx_timeout
                    self.retx_wait += cost.retx_timeout

    def _receive(self, src, dst, nbytes, ack=0, died=None):
        """Credit ``nbytes`` delivered over every link of the
        ``src -> dst`` route; when its ``ack``-byte ACK died at hop
        ``died``, every link from there on is credited without it, and
        one it alone would have reached is not touched."""
        for hop, link in enumerate(self.machine.topology.route(src, dst)):
            if died is not None and hop >= died:
                if hop > died and nbytes == ack:
                    return
                self.link(link).bytes_received += nbytes - ack
            else:
                self.link(link).bytes_received += nbytes

    def _stall_edges(self, src, dst, parts, bill):
        """One trace link edge per physical link the exchange occupied:
        the space resumes only after its transfer wins *each* link it
        crossed (shared uplinks make crossing flows contend) and
        transits the route latency.  ``parts`` are the exchange's
        ``(link -> busy cycles, latency, kind)`` legs (the production
        calling convention, which the inherited prefetch-queue methods
        use); a non-empty ``bill`` (the
        :class:`~repro.cluster.faults.RetxBill` of a lossy fabric) adds
        its extra occupancy and timeout waits as ``kind="retx"`` edges
        between the same two segments."""
        trace = self.machine.trace
        link_class = self.machine.topology.link_class
        legs = [(kind, usage, latency) for usage, latency, kind in parts]
        if bill:
            legs.append(("retx", bill.usage, bill.wait))
        for leg_kind, usage, latency in legs:
            for link, busy in usage.items():
                trace.transfers.extend([(src, dst, link, busy, latency,
                                         link_class(link).name, leg_kind)])

    def wire_size(self, frame):
        """Wire payload bytes of ``frame``: 4096 raw, or its encoded
        size (cached per content tag) under compression."""
        if not self.machine.spec.compression:
            return PAGE_SIZE
        return self._wire_load((frame,))

    def _batch_sizes(self, npages):
        """Split ``npages`` into PAGE_BATCH loads (``cost.msg_batch``)."""
        cap = max(1, self.machine.cost.msg_batch)
        sizes = []
        while npages > 0:
            take = min(cap, npages)
            sizes.append(take)
            npages -= take
        return sizes

    def _ship(self, space, src, dst, frames, usage=None, faults=None):
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
            self._send(space, MsgType.PAGE_BATCH, src, dst,
                       payload + take * cost.page_hdr,
                       pages=take, usage=usage,
                       raw_payload=take * PAGE_SIZE, comp_payload=payload,
                       faults=faults)
            self.batches += 1
            index += take
        payload = sum(sizes)
        codec = 0
        if self.machine.spec.compression and frames:
            codec = int(len(frames) * PAGE_SIZE * cost.comp_encode_byte
                        + payload * cost.comp_decode_byte)
            self.codec_cycles += codec
        return payload, codec

    def _page_exchange(self, space, origin, node, frames, req_usage=None,
                       resp_usage=None, faults=None):
        """Wire accounting of one PAGE_REQ/PAGE_BATCH/ACK exchange
        pulling ``frames`` from ``origin`` to ``node`` — shared by the
        demand and prefetch paths so the two can never drift apart and
        break per-link conservation.  Returns ``(payload, codec)``.
        """
        cost = self.machine.cost
        npages = len(frames)
        self._send(space, MsgType.PAGE_REQ, node, origin,
                   cost.msg_ctrl + 8 * npages, usage=req_usage,
                   faults=faults)
        payload, codec = self._ship(space, origin, node, frames,
                                    usage=resp_usage, faults=faults)
        died = self._send(space, MsgType.ACK, node, origin, cost.msg_ctrl)
        self._receive(node, origin, 2 * cost.msg_ctrl + 8 * npages,
                      cost.msg_ctrl, died)
        self._receive(origin, node, payload + npages * cost.page_hdr)
        return payload, codec

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
        bill = RetxBill(space.slot_path()) if machine.loss else None
        self._send(space, MsgType.MIGRATE, src, dst, cost.migrate_bytes,
                   usage=usage, faults=bill)
        payload, codec = self._ship(space, src, dst, shipped, usage=usage,
                                    faults=bill)
        died = self._send(space, MsgType.ACK, dst, src, cost.msg_ctrl)
        # Receiver-side accounting from the exchange's own arithmetic
        # (not the per-message sends): conservation cross-checks them.
        self._receive(src, dst, cost.migrate_bytes
                      + payload + len(shipped) * cost.page_hdr)
        self._receive(dst, src, cost.msg_ctrl, cost.msg_ctrl, died)
        trace = machine.trace
        if trace.is_open(space.uid):
            closed, opened = trace.move_node(space.uid, dst)
            transit = self._transit(src, dst)
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
        npages = len(frames)
        self.node(node).pulled += npages
        req_usage = {}
        resp_usage = {}
        bill = RetxBill(space.slot_path()) if machine.loss else None
        _, codec = self._page_exchange(space, origin, node, frames,
                                       req_usage=req_usage,
                                       resp_usage=resp_usage,
                                       faults=bill)
        trace = machine.trace
        if trace.is_open(space.uid):
            closed, opened = trace.cut(space.uid, label="fetch")
            transit = self._transit(origin, node)
            self._stall_edges(closed, opened,
                              [(req_usage, 0, "fetch"),
                               (resp_usage, transit + codec, "fetch")], bill)

    def prefetch(self, space, origin, node, frames):
        """Asynchronously issue a PAGE_REQ/PAGE_BATCH exchange pulling
        predicted-next ``frames`` to ``node`` — nobody stalls.

        The exchange's wire traffic is accounted immediately (it is on
        the links now, whether or not anyone ends up wanting it) and
        queued on ``space``'s own async fetch queue for ``node``,
        anchored at the space's most recently *closed* segment — callers
        issue prefetches right after a cut (a demand fetch's, or a
        migration's), so in the schedule the transfer's serialization
        starts at the issue point and overlaps whatever compute follows.
        A later demand on any of the frames redeems the exchange
        (:meth:`redeem_exchanges` via :meth:`take_inflight`).
        """
        machine = self.machine
        npages = len(frames)
        if npages == 0 or origin == node:
            return
        self.node(node).prefetch_issued += npages
        usage = {}
        bill = RetxBill(space.slot_path()) if machine.loss else None
        _, codec = self._page_exchange(space, origin, node, frames,
                                       req_usage=usage, resp_usage=usage,
                                       faults=bill)
        anchor = machine.trace.last_closed(space.uid)
        latency = self._transit(origin, node) + codec
        exchange = PrefetchExchange(
            anchor, usage, latency,
            [(frame, frame.generation) for frame in frames],
            retx=bill)
        if space.inflight is None:      # created by a space's first prefetch
            space.inflight = {}
        queue = space.inflight.setdefault(node, {})
        for frame in frames:
            queue[frame.serial] = (frame.generation, exchange, frame)
