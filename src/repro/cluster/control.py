"""Deterministic control plane: telemetry-tuned knobs at quantum edges.

Every knob that decides a cluster run's makespan — the async prefetch
queue depth, the retransmit timeout, the placement of virtual nodes on
the fabric — ships as a static constant, yet the transport already
observes exactly the signals needed to tune them live: demand pulls,
stale/aged speculation, per-route delivery latencies, per-pair traffic
volumes.  A :class:`Controller` closes that
feedback loop *deterministically*:

* **Decision points are quantum boundaries.**  The kernel invokes the
  controller from the rendezvous path (``Kernel._rendezvous``), right
  after a child ran to a stop — the same points at which the paper's
  kernel takes scheduling decisions.  Nothing else ever calls it.
* **Inputs are a pure function of simulated state.**  Each decision
  pass consumes one read-only
  :class:`~repro.cluster.transport.TelemetryWindow` — what the
  transport's node and pair ledgers accumulated since the previous
  pass (the difference of two marks, DESIGN §8).  No host time,
  no randomness, no schedule()-side information: the window holds only
  quantities the simulated execution itself determined, so two
  same-seed runs feed the controller bit-identical windows.
* **Outputs take effect at the next quantum.**  Decisions mutate knob
  state (per-node depths, per-route timeouts, the virtual-to-physical
  node map) that the kernel and transport consult *on their next use*;
  nothing retroactively edits the trace.  Each decision is recorded on
  the trace (:attr:`~repro.timing.trace.Trace.decisions`) anchored at
  the deciding segment, and its cycle cost (``cost.ctrl_decide``) is
  charged to the rendezvousing space — so replaying the trace replays
  the decisions' consequences exactly, on either schedule engine.

Three policies ship:

**Adaptive prefetch depth** (per node, AIMD-style).  The demand signal
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

**Per-route retransmit timeouts** (SRTT + RTTVAR).  The transport
samples each clean *single-page* exchange's modelled delivery latency
per route (Karn's rule twice over: exchanges that hit the fault path
contribute no sample, and multi-page batches measure sender drain, not
route turnaround); the controller smooths them with the RFC 6298
integer estimator
(``srtt += (s - srtt)/8``, ``rttvar += (|s - srtt| - rttvar)/4``) and
sets the route's timeout to ``srtt + 4*rttvar``, clamped between twice
the route's transit latency (a retransmit can never beat physics) and
the static ``cost.retx_timeout`` (adaptation may stop over-waiting on
fast rack links, never under-wait worse than the static timer).  Lossy
runs stop paying a core-link-sized timer on every rack-link drop.

**Hot-pair re-placement.**  When one cross-rack node pair's traffic
dominates the window (above an absolute floor, a fraction of all
cross-rack bytes, and twice the runner-up pair) — and the *same* pair
dominated two deciding windows in a row, so a phased program's
rotating "hot" pair is never chased — the controller swaps the
*population* of the remote end with the coldest node of the peer's
rack: the virtual-to-physical
node map entries swap, every space homed on either physical node swaps
its home, and quiescent spaces migrate over the existing ledger-driven
delta path immediately (running spaces drift home lazily through the
engine's stop path).  Placement stays a bijection, so — as with the
static policies — re-placement relocates traffic, never semantics.
"""

#: The policies' fixed constants (nothing ever tuned them per run).
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
#: Hot-pair thresholds: absolute window bytes and fraction of the
#: window's total cross-rack bytes a pair must carry.
REPLACE_FLOOR = 192 * 1024
REPLACE_FRAC = 0.5
#: Windows to wait after a move before considering the next one, and
#: the per-run move budget (re-placement must converge, not thrash).
REPLACE_COOLDOWN = 4
MAX_MOVES = 4


def _fmt_knob(value):
    return f"{value:,}" if isinstance(value, int) else str(value)


class Controller:
    """Per-node adaptive control state of one machine.

    Construct directly (``ClusterSpec(control=Controller(...))``), from the
    string ``"adaptive"`` (all defaults), or from a kwargs dict; the
    machine calls :meth:`reset` when it takes ownership, so a reused
    instance never leaks state between runs.
    """

    #: Recognized policy names (the ``policies`` argument).
    POLICIES = ("prefetch", "retx", "placement")

    def __init__(self, policies=POLICIES):
        unknown = set(policies) - set(self.POLICIES)
        if unknown:
            raise ValueError(f"unknown control policies {sorted(unknown)} "
                             f"(have {list(self.POLICIES)})")
        self.policies = tuple(policies)
        self.machine = None
        self.reset(None)

    # -- lifecycle ---------------------------------------------------------

    def reset(self, machine):
        """(Re)bind to ``machine`` and clear all adaptive state."""
        self.machine = machine
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
        #: unordered (a, b) node pair -> smoothed RTT state / timeout.
        self.srtt = {}
        self.rttvar = {}
        self.timeouts = {}
        #: Re-placement state.
        self.moves = 0
        self._cooldown = 0
        self._last_hot = None
        #: Human-readable decision log, one line per decision, in
        #: decision order (same content as the trace's ``decisions``
        #: records — the rendering the example prints).
        self.log = []
        self.windows_seen = 0

    # -- knob reads (kernel/transport hot paths) ---------------------------

    def depth_for(self, node):
        """Current adaptive prefetch depth of ``node``."""
        return self.depths.get(node, self._boot)

    def timeout_for(self, src, dst):
        """Adaptive retransmit timeout of the ``src``/``dst`` route, or
        None before any sample arrived (caller falls back to the static
        ``cost.retx_timeout``)."""
        pair = (src, dst) if src <= dst else (dst, src)
        return self.timeouts.get(pair)

    # -- the quantum hook --------------------------------------------------

    def on_quantum(self, machine, caller):
        """One control-plane pass at a quantum boundary.

        Called by ``Kernel._rendezvous`` after ``caller``'s child ran to
        a stop.  Consumes the telemetry window and lets each enabled
        policy adjust its knobs; decisions are recorded on the trace
        anchored at ``caller``'s open segment and charged
        ``cost.ctrl_decide`` cycles.
        """
        window = machine.transport.take_window()
        self.windows_seen += 1
        trace = machine.trace
        anchor = trace.current(caller.uid) if trace.is_open(caller.uid) \
            else None
        if "prefetch" in self.policies:
            self._decide_prefetch(machine, window, anchor)
        if "retx" in self.policies:
            self._decide_retx(machine, window, anchor)
        if "placement" in self.policies:
            self._decide_placement(machine, window, anchor, caller)
        machine.kernel.kcharge(caller, machine.cost.ctrl_decide)

    def _record(self, machine, anchor, node, policy, knob, old, new):
        seg_id = anchor.id if anchor is not None else -1
        machine.trace.decision(seg_id, node, policy, knob, old, new)
        self.log.append(
            f"w{machine.transport.window_index - 1:>3} {policy:<9} "
            f"{knob}[{node}]: {_fmt_knob(old)} -> {_fmt_knob(new)}")

    # -- policy 1: adaptive prefetch depth ---------------------------------

    def _decide_prefetch(self, machine, window, anchor):
        collapse = None
        for node in sorted(window.nodes):
            row = window.nodes[node]
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
                self._record(machine, anchor, node, "prefetch",
                             "depth", depth, new)
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
                    self._record(machine, anchor, node, "prefetch",
                                 "depth", old, collapse)

    # -- policy 2: per-route SRTT retransmit timeouts ----------------------

    def _decide_retx(self, machine, window, anchor):
        if machine.loss is None:
            return
        cost = machine.cost
        for pair in sorted(window.route_samples):
            samples = window.route_samples[pair]
            srtt = self.srtt.get(pair)
            var = self.rttvar.get(pair, 0)
            for sample in samples:
                if srtt is None:
                    # RFC 6298 bootstrap: first sample seeds the pair.
                    srtt, var = sample, sample // 2
                else:
                    err = sample - srtt
                    var += (abs(err) - var) // 4
                    srtt += err // 8
            if srtt is None:
                continue
            self.srtt[pair], self.rttvar[pair] = srtt, var
            # Physics floor: a retransmit fired inside the route's round
            # trip can only duplicate, never rescue.  Static ceiling:
            # adaptation may stop over-waiting, never wait longer than
            # the static timer would have (the ceiling wins when a long
            # route's floor exceeds it).
            floor = 2 * machine.topology.route_latency(cost, *pair)
            rto = min(cost.retx_timeout, max(floor, srtt + 4 * var))
            old = self.timeouts.get(pair, cost.retx_timeout)
            if rto != old:
                self.timeouts[pair] = rto
                self._record(machine, anchor, pair, "retx",
                             "timeout", old, rto)
            else:
                self.timeouts[pair] = rto

    # -- policy 3: hot-pair re-placement -----------------------------------

    def _decide_placement(self, machine, window, anchor, caller):
        topo = machine.topology
        racks = topo.racks()
        if len(racks) < 2:
            return
        if self._cooldown > 0:
            self._cooldown -= 1
            return
        if self.moves >= MAX_MOVES:
            return
        # Symmetric per-pair window bytes, cross-rack pairs only.
        sym = {}
        cross_total = 0
        for (src, dst), nbytes in window.pair_bytes.items():
            if topo.rack_of(src) == topo.rack_of(dst):
                continue
            pair = (src, dst) if src <= dst else (dst, src)
            sym[pair] = sym.get(pair, 0) + nbytes
            cross_total += nbytes
        if not sym:
            return
        (a, b), hot = max(sorted(sym.items()), key=lambda kv: kv[1])
        if hot < REPLACE_FLOOR or hot < REPLACE_FRAC * cross_total:
            self._last_hot = None
            return
        # The hot pair must also dominate the runner-up decisively: an
        # SPMD hub fanning out near-equal traffic to every rack shows a
        # "top" pair by rounding noise only, and migrating one of its
        # spokes just moves the same bytes to a different uplink while
        # paying the relocation and refill for nothing.
        runner_up = max((nbytes for pair, nbytes in sym.items()
                         if pair != (a, b)), default=0)
        if hot < 2 * runner_up:
            self._last_hot = None
            return
        # Persistence filter: act only when the same pair dominated two
        # deciding windows in a row.  Phased programs (a reduction tree
        # streaming different halves each level) show a different "hot"
        # pair every window; chasing those relocates spaces for traffic
        # that has already moved on.  A genuine placement pathology —
        # two tightly-coupled spaces pinned across the core — dominates
        # every window.
        if self._last_hot != (a, b):
            self._last_hot = (a, b)
            return
        victim = self._pick_victim(machine, window, a, b)
        if victim is None:
            return
        self._swap_nodes(machine, b, victim, caller)
        self.moves += 1
        self._cooldown = REPLACE_COOLDOWN
        self._last_hot = None
        self._record(machine, anchor, (a, b), "placement",
                     "swap", b, victim)

    def _pick_victim(self, machine, window, a, b):
        """Coldest currently-assigned node of ``a``'s rack (``b`` moves
        into its slot).  Only assigned slots are eligible: swapping an
        unassigned slot could collide with the static policy's future
        first-use assignments."""
        topo = machine.topology
        assigned = machine.node_owner

        def traffic(node):
            return sum(nbytes
                       for (src, dst), nbytes in window.pair_bytes.items()
                       if src == node or dst == node)

        candidates = [node for node in racks_of(topo, a)
                      if node != a and node in assigned]
        if not candidates or b not in assigned:
            return None
        return min(candidates, key=lambda node: (traffic(node), node))

    def _swap_nodes(self, machine, b, c, caller):
        """Swap the populations of physical nodes ``b`` and ``c``.

        The virtual-to-physical map entries swap (placement stays a
        bijection), every space homed on either node swaps its home,
        and quiescent spaces with a trace context migrate immediately
        over the ordinary delta path — paying the move's real wire cost
        now to relocate their future traffic.  The rendezvousing caller
        and running spaces only change *home*: the engine's stop path
        migrates them to the new home at their next stop.
        """
        machine.swap_nodes(b, c)
        trace = machine.trace
        for space in machine.root.walk():
            if space.home_node == b:
                new_home = c
            elif space.home_node == c:
                new_home = b
            else:
                continue
            space.home_node = new_home
            if (space is not caller and space.is_stopped()
                    and space.cur_node != new_home
                    and trace.is_open(space.uid)):
                machine.kernel.migrate(space, new_home)

    # -- reporting ---------------------------------------------------------

    def decision_log(self, last=None):
        """The formatted decision log (optionally only the ``last`` N)."""
        lines = self.log if last is None else self.log[-last:]
        return "\n".join(lines) if lines else "(no decisions)"

    def __repr__(self):
        return (f"<Controller policies={'/'.join(self.policies)} "
                f"windows={self.windows_seen} decisions={len(self.log)} "
                f"moves={self.moves}>")


def racks_of(topo, node):
    """Members of ``node``'s rack."""
    return topo.racks()[topo.rack_of(node)]


def resolve_control(spec):
    """Build a controller from None (off), the string ``"adaptive"``, a
    kwargs dict, or a :class:`Controller` instance."""
    if spec is None:
        return None
    if isinstance(spec, Controller):
        return spec
    if isinstance(spec, str):
        if spec == "adaptive":
            return Controller()
        raise ValueError(f"unknown control spec {spec!r} "
                         f"(have 'adaptive', a dict, or a Controller)")
    if isinstance(spec, dict):
        return Controller(**spec)
    raise ValueError(f"cannot interpret control spec {spec!r}")
