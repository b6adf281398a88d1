"""Deterministic control plane: the prefetch depth tuned at quantum edges.

The async prefetch queue depth decides much of a demand-paged cluster
run's makespan, yet the transport already observes exactly the signals
needed to tune it live: demand pulls and stale speculation.
``ClusterSpec(prefetch_depth="adaptive")`` attaches a
:class:`Controller` that closes that feedback loop *deterministically*:

* **Decision points are quantum boundaries.**  The kernel invokes the
  controller from the rendezvous path (``Kernel._rendezvous``), right
  after a child ran to a stop — the same points at which the paper's
  kernel takes scheduling decisions.  Nothing else ever calls it.
* **Inputs are a pure function of simulated state.**  Each decision
  pass reads one *window*: what the transport's node rows accumulated
  since the previous pass (the controller diffs the rows it saw last
  pass, DESIGN §8).  No host time, no randomness, no schedule()-side
  information: the window holds only quantities the simulated
  execution itself determined, so two same-seed runs feed the
  controller bit-identical windows.  All of it is the controller's own
  state; the transport only accumulates and never calls the
  controller, and only the kernel and the transport know the prefetch
  queue's layout.
* **Outputs take effect at the next quantum.**  Decisions mutate
  per-node depths that the kernel consults *on their next use*;
  nothing retroactively edits the trace.  Each decision is a line of
  :attr:`Controller.log` and costs the guest nothing (the controller
  runs beside the kernel, on the management plane) — so replaying the
  trace replays the decisions' consequences exactly.

The policy is per node.  The demand signal is the window's
stop-and-wait *pulls* — pages nobody had even queued.  (Late redeems
deliberately do not grow depth, and the window carries none: they also
fire on every ledger-predicted page a space demands the instant it
lands, so growing on them inflates depth in phases that are already
fully covered.)  A pull burst at or above the current depth *jumps*
straight to the burst size (slow start, so a node streaming a matrix
converges to a deep queue within a few quanta).  The waste signal is
stale frames (producer superseded the payload in flight) plus *churn*
(``prefetch_refresh``: re-speculation on pages whose producer rewrote
them since this node last fetched them — batched exchanges launder
superseded siblings as "used", so churn must count as waste on its
own).  Waste *halves* depth (multiplicative decrease, floor 1 — a
depth-0 node observes no waste and would oscillate); a churn-dominated
window *collapses* straight to observed demand, since every retained
slot re-pays its wire tax at the next rewrite, and the *fleet* follows:
one node's churn collapse pins every node's depth down before their
next fork (the nodes run the same SPMD program).  Growth re-arms only
after a *hold* of ``GROWTH_HOLD`` strictly-clean windows (zero churn
*and* zero stale: the purge path converts a doomed queue's churn into
stale counts, so churn going quiet alone proves nothing).
"""

#: The policy's fixed constants (nothing ever tuned them per run).
#: Upper bound on any adaptive prefetch depth.
DEPTH_CAP = 64
#: Shrink when ``stale + churn > max(1, used // WASTE_TOLERANCE)``.
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
        #: Depth of nodes with no per-node state yet.  It starts at
        #: half the cap — a deliberately generous speculation budget
        #: (TCP's large-initial-window rationale): a wrong prior sheds
        #: within a window or two of waste telemetry, while a too-timid
        #: prior costs the one unrepeatable event the controller can
        #: never replay — each node's first big stream, which at
        #: quantum granularity is over before its first decision
        #: lands.  Only a fleet collapse lowers it.
        self._boot = DEPTH_CAP // 2
        #: node -> current adaptive prefetch depth, and -> remaining
        #: clean windows before demand-driven growth re-arms.
        self.depths = {}
        self._hold = {}
        #: Human-readable decision log, one line per decision, in
        #: decision order (the rendering the example prints).
        self.log = []
        self.windows_seen = 0
        #: The window's input (DESIGN §8): node -> its transport row's
        #: ``as_dict()`` at the previous pass; the next window is each
        #: row's ``delta_since`` it.
        self._seen = {}

    # -- knob read (the kernel's prefetch path) ----------------------------

    def depth_for(self, node):
        """Current adaptive prefetch depth of ``node``."""
        return self.depths.get(node, self._boot)

    def _window(self, transport):
        """node -> what its transport row accumulated since the previous
        pass.  A node has a row iff one of its counters moved."""
        rows = {}
        for node in sorted(transport.nodes):
            row = transport.nodes[node]
            delta = row.delta_since(self._seen.get(node))
            if delta is not None:
                self._seen[node] = row.as_dict()
                rows[node] = delta
        return rows

    # -- the quantum hook --------------------------------------------------

    def on_quantum(self, machine):
        """One control-plane pass at a quantum boundary.

        Called by ``Kernel._rendezvous`` after a child ran to a stop.
        Takes the window since the previous pass and adjusts the
        per-node depths from it.
        """
        self.windows_seen += 1
        self._decide_prefetch(machine, self._window(machine.transport))

    def _record(self, node, old, new):
        self.log.append(f"w{self.windows_seen - 1:>3} prefetch  "
                        f"depth[{node}]: {old:,} -> {new:,}")

    # -- the policy --------------------------------------------------------

    def _decide_prefetch(self, machine, rows):
        collapse = None
        for node, row in rows.items():
            depth = self.depth_for(node)
            used = row["prefetch_used"]
            # Stale frames are certain waste: the producer superseded
            # them in flight.
            stale = row["prefetch_stale"]
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
            new = depth
            if stale + churn > max(1, used // WASTE_TOLERANCE):
                # Multiplicative decrease: speculation is visibly being
                # wasted — and growth is held until the waste stops, so
                # a phase of inherently doomed speculation decays to the
                # floor instead of oscillating against the demand jump.
                # The floor is 1, not 0 (TCP's one-segment congestion
                # window): a zero-depth queue observes no waste at all,
                # so a node parked at 0 would look spotless, re-grow on
                # the next quiet window, and oscillate forever.
                new = max(1, depth // 2)
                if churn >= stale:
                    # Churn-dominated windows collapse straight to what
                    # demand shows is genuinely missing (floor 1): every
                    # retained slot of depth re-pays its wire next
                    # rewrite, so halving toward the floor one window at
                    # a time just meters out the same recurring tax.
                    new = max(1, min(new, demand))
                    collapse = new if collapse is None else min(collapse, new)
                self._hold[node] = GROWTH_HOLD
            elif hold:
                # Only a strictly clean window drains the hold: churn
                # alone going quiet is not enough — the purge path
                # converts a doomed queue's churn into stale counts, so
                # a node can look churn-free while its every
                # speculation is still being superseded.
                if churn == 0 and stale == 0:
                    self._hold[node] = hold - 1
            elif demand >= depth:
                # The queue is clearly undersized: the node stalled on a
                # burst it could not have pipelined.  Jump to the
                # observed per-window demand (the depth that would have
                # hidden this whole burst), with slow-start doubling as
                # the floor so a trickle of stalls still converges.
                new = min(DEPTH_CAP, max(2 * depth, demand))
            if new != depth:
                self.depths[node] = new
                self._record(node, depth, new)
        if collapse is not None:
            # Fleet collapse, on the SPMD rationale: the nodes run the
            # same program against the same producer, so one node's
            # churn lesson reprices the queues of nodes that have not
            # hit theirs yet — crucially *before* their next fork, not
            # a full round of recurring wire tax later.  Lowering the
            # boot depth covers the nodes with no depth of their own.
            self._boot = min(self._boot, collapse)
            for node in range(machine.nnodes):
                self._hold[node] = GROWTH_HOLD
                old = self.depth_for(node)
                if old > collapse:
                    self.depths[node] = collapse
                    self._record(node, old, collapse)

    # -- reporting ---------------------------------------------------------

    def __repr__(self):
        return (f"<Controller windows={self.windows_seen} "
                f"decisions={len(self.log)}>")

