"""Deterministic control plane: the prefetch depth tuned at quantum edges.

The async prefetch queue depth decides much of a demand-paged cluster
run's makespan, yet the transport already observes exactly the signals
needed to tune it live: demand pulls and stale/aged speculation.
``ClusterSpec(prefetch_depth="adaptive")`` attaches a
:class:`Controller` that closes that feedback loop *deterministically*:

* **Decision points are quantum boundaries.**  The kernel invokes the
  controller from the rendezvous path (``Kernel._rendezvous``), right
  after a child ran to a stop — the same points at which the paper's
  kernel takes scheduling decisions.  Nothing else ever calls it.
* **Inputs are a pure function of simulated state.**  Each decision
  pass reads one *window*: what the transport's node rows accumulated
  since the previous pass (the controller diffs the rows it saw last
  pass, DESIGN §8) and the in-flight exchanges that aged.  No host
  time, no randomness, no schedule()-side information: the window
  holds only quantities the simulated execution itself determined, so
  two same-seed runs feed the controller bit-identical windows.  All of
  it is the controller's own state; the transport only accumulates and
  never calls the controller.
* **Outputs take effect at the next quantum.**  Decisions mutate
  per-node depths that the kernel consults *on their next use*;
  nothing retroactively edits the trace.  Each decision is a line of
  :attr:`Controller.log` and costs the guest nothing (the controller
  runs beside the kernel, on the management plane) — so replaying the
  trace replays the decisions' consequences exactly.

The policy is AIMD-style, per node.  The demand signal
is the window's stop-and-wait *pulls* — pages nobody had even queued.
(Late redeems deliberately do not grow depth, and the window carries
none: they also fire on every ledger-predicted page a space demands the
instant it lands, so growing on them inflates depth in phases that are
already fully covered.)  A
pull burst at or above the current depth jumps straight to the burst
size (slow start, so a node streaming a matrix converges to a deep
queue within a few quanta); a trickle adds one.  The waste signal is
stale frames (producer superseded the payload in flight) plus half the
*aged* in-flight frames (issued two or more windows ago and still
unclaimed) plus *churn* (``prefetch_refresh``: re-speculation on pages
whose producer rewrote them since this node last fetched them —
batched exchanges launder superseded siblings as "used", so churn must
count as waste on its own).  Waste halves depth (multiplicative
decrease, floor 1 — a depth-0 node observes no waste and would
oscillate); churn-dominated windows collapse straight to observed
demand, since every retained slot re-pays its wire tax at the next
rewrite.  Two fleet-wide ratchets exploit the SPMD structure: one
node's demand jump raises the boot depth its siblings start from, and
one node's churn collapse pins every node's depth down before their
next fork.  Growth re-arms only after ``GROWTH_HOLD`` strictly-clean
windows (zero churn *and* zero stale/aged: the purge path converts a
doomed queue's churn into stale counts, so churn going quiet alone
proves nothing).
"""

from collections import Counter

#: The policy's fixed constants (nothing ever tuned them per run).
#: Upper bound on any adaptive prefetch depth.
DEPTH_CAP = 64
#: Shrink when ``stale + aged/2 + churn > max(1, used // WASTE_TOLERANCE)``.
WASTE_TOLERANCE = 8
#: Clean (zero-waste) windows a node must string together after a
#: shrink before demand may grow its depth again.  Without the holdoff,
#: a phase whose speculation is *inherently* doomed (hot pages rewritten
#: every round) oscillates: the shrink empties the queue, the next
#: window's demand misses re-grow it, and the round after that wastes
#: it all over again.
GROWTH_HOLD = 2


class Controller:
    """Per-node adaptive prefetch depths of one machine.

    Each machine whose spec says ``prefetch_depth="adaptive"`` builds
    its own, so no adaptation outlives its run.
    """

    def __init__(self):
        #: Bootstrap depth for nodes with no per-node state yet.  It
        #: ratchets up to the largest demand-driven depth any node
        #: reached: in an SPMD program the nodes stream near-identical
        #: working sets, so the first node's burst sizes the queues of
        #: the nodes that have not streamed yet — without it, every
        #: node's one big stream runs at the cold depth and the (per
        #: node, once-only) lesson always arrives a quantum late.
        #:
        #: It starts at half the cap — a deliberately generous
        #: speculation budget (TCP's large-initial-window rationale): a
        #: wrong prior sheds within a window or two of waste telemetry,
        #: while a too-timid prior costs the one unrepeatable event the
        #: controller can never replay — each node's first big stream,
        #: which at quantum granularity is over before its first
        #: decision lands.
        self._boot = DEPTH_CAP // 2
        #: node -> current adaptive prefetch depth, -> remaining clean
        #: windows before demand-driven growth re-arms, and -> whether
        #: the node's last shrink was churn-driven (in which case
        #: re-growth probes by +1 instead of jumping: a jump back into
        #: a rewrite-every-round phase re-pays the whole queue's wire
        #: tax for a full round before the next window can undo it).
        self.depths = {}
        self._hold = {}
        self._churned = {}
        #: Human-readable decision log, one line per decision, in
        #: decision order (the rendering the example prints).
        self.log = []
        self.windows_seen = 0
        # -- the window's inputs (DESIGN §8) --------------------------
        #: node -> its transport row's ``as_dict()`` at the previous
        #: pass: the next window is each row's ``delta_since`` it.
        self._seen = {}
        #: in-flight ``PrefetchExchange`` -> the pass that first saw it
        #: queued, or None once its queued frames were counted aged.
        self._queued = {}

    # -- knob read (the kernel's prefetch path) ----------------------------

    def depth_for(self, node):
        """Current adaptive prefetch depth of ``node``."""
        return self.depths.get(node, self._boot)

    def _window(self, transport, index):
        """node -> what its transport row accumulated since the previous
        pass, plus ``prefetch_aged``: the frames of its exchanges still
        queued two or more passes after one first saw them (each
        exchange counted once) — in-flight speculation the run is
        visibly not consuming, the shrink signal that needs no
        end-of-run flush.  A node has a row iff one of these moved."""
        before, self._queued = self._queued, {}
        aged = {}
        for node in sorted(transport.inflight):
            queued = Counter(entry[1]
                             for entry in transport.inflight[node].values())
            for exchange, frames in queued.items():
                first = before.get(exchange, index)
                if first is not None and first <= index - 2:
                    aged[node] = aged.get(node, 0) + frames
                    first = None
                self._queued[exchange] = first
        rows = {}
        for node in sorted(transport.nodes):
            row = transport.nodes[node]
            delta = row.delta_since(self._seen.get(node))
            if delta is not None:
                self._seen[node] = row.as_dict()
            if delta is not None or node in aged:
                rows[node] = delta or dict.fromkeys(row.FIELDS, 0)
                rows[node]["prefetch_aged"] = aged.get(node, 0)
        return rows

    # -- the quantum hook --------------------------------------------------

    def on_quantum(self, machine):
        """One control-plane pass at a quantum boundary.

        Called by ``Kernel._rendezvous`` after a child ran to a stop.
        Takes the window since the previous pass and adjusts the
        per-node depths from it.
        """
        index = self.windows_seen
        self.windows_seen += 1
        self._decide_prefetch(machine, self._window(machine.transport, index))

    def _record(self, node, old, new):
        self.log.append(f"w{self.windows_seen - 1:>3} prefetch  "
                        f"depth[{node}]: {old:,} -> {new:,}")

    # -- the policy --------------------------------------------------------

    def _decide_prefetch(self, machine, rows):
        collapse = None
        for node, row in rows.items():
            depth = self.depth_for(node)
            used = row["prefetch_used"]
            # Stale frames are certain waste (the producer superseded
            # them in flight); aged frames are only *probable* waste —
            # still queued, they may yet redeem next phase — so they
            # weigh half.
            waste = row["prefetch_stale"] + row["prefetch_aged"] // 2
            # Refreshes are re-speculation on pages whose producer
            # rewrote them since this node last fetched them.  One
            # refresh is a page keeping up; a *recurring* stream of
            # them is churn — hot pages rewritten every round tax the
            # wire at every queue refill, and batched exchanges launder
            # the casualties as "used" (any demanded sibling lands the
            # whole exchange), so churn must count as waste on its own.
            churn = row["prefetch_refresh"]
            # Growth keys on demand *pulls* only: pages nobody had even
            # queued.  Late redeems mean the pipeline is shallow, but
            # they also fire on every ledger-predicted page a space
            # demands the instant it lands — growing on them inflates
            # depth in phases that are already fully covered.
            demand = row["pulled"]
            hold = self._hold.get(node, 0)
            clean = (churn == 0 and row["prefetch_stale"] == 0
                     and row["prefetch_aged"] == 0)
            new = depth
            if clean and depth >= 1:
                # A strictly clean window with speculation active: the
                # rewrite churn has stopped *and* nothing the node still
                # speculates on is dying in flight; jumps are safe
                # again.  (churn alone going quiet is not enough — the
                # purge path converts a doomed queue's churn into stale
                # counts, so a node can look churn-free while its every
                # speculation is still being superseded.)
                self._churned.pop(node, None)
            if waste + churn > max(1, used // WASTE_TOLERANCE):
                # Multiplicative decrease: speculation is visibly being
                # wasted (superseded in flight, or sitting unclaimed) —
                # and growth is held until the waste stops, so a phase
                # of inherently doomed speculation decays to the floor
                # instead of oscillating against the demand rules below.
                # The floor is 1, not 0 (TCP's one-segment congestion
                # window): a zero-depth queue observes no waste at all,
                # so a node parked at 0 would look spotless, re-grow on
                # the next quiet window, and oscillate forever.
                new = max(1, depth // 2)
                if churn >= max(1, waste):
                    # Churn-dominated windows collapse straight to what
                    # demand shows is genuinely missing (floor 1): every
                    # retained slot of depth re-pays its wire next
                    # rewrite, so halving toward the floor one window at
                    # a time just meters out the same recurring tax.
                    new = max(1, min(new, max(1, demand)))
                    self._churned[node] = True
                    collapse = new if collapse is None else min(collapse, new)
                self._hold[node] = GROWTH_HOLD
            elif hold:
                if clean:
                    self._hold[node] = hold - 1
            elif demand >= max(1, depth) and not self._churned.get(node):
                # The queue is clearly undersized: the node stalled on a
                # burst it could not have pipelined.  Jump to the
                # observed per-window demand (the depth that would have
                # hidden this whole burst), with slow-start doubling as
                # the floor so a trickle of stalls still converges.
                new = min(DEPTH_CAP, max(2 * depth, 1, demand))
                if new > self._boot:
                    self._boot = new
            elif demand > 0:
                # Mild residual stalling under an almost-right depth:
                # additive increase (AIMD's congestion avoidance).
                new = min(DEPTH_CAP, depth + 1)
            if new != depth:
                self.depths[node] = new
                self._record(node, depth, new)
        if collapse is not None:
            # Fleet-wide downward ratchet, the mirror of ``_boot``'s
            # upward one and on the same SPMD rationale: the nodes run
            # the same program against the same producer, so one node's
            # churn lesson reprices the queues of nodes that have not
            # hit theirs yet — crucially *before* their next fork, not a
            # full round of recurring wire tax later.
            self._boot = min(self._boot, collapse)
            for node in range(machine.nnodes):
                old = self.depth_for(node)
                self._churned[node] = True
                self._hold[node] = GROWTH_HOLD
                # Pin an explicit per-node entry even when the depth
                # value is unchanged: a node left on the implicit boot
                # default would silently re-inflate the next time some
                # other node's demand jump ratchets ``_boot`` back up.
                self.depths[node] = min(old, collapse)
                if old > collapse:
                    self._record(node, old, collapse)

    # -- reporting ---------------------------------------------------------

    def __repr__(self):
        return (f"<Controller windows={self.windows_seen} "
                f"decisions={len(self.log)}>")

