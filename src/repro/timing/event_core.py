"""Discrete-event scheduling core: the one implementation of the policy.

Greedy list scheduling with deterministic tie-breaking (see
:mod:`repro.timing.schedule` for the policy itself), done as O(log n)
work per event over a precompiled plan.  The straightforward list-loop
form of the same policy lives in ``tests/timing/list_oracle.py``; the
equivalence suite holds this module to it field by field and grant by
grant.

* the trace is *compiled* once into per-segment successor tuples
  (plain edges first, then link transfers, each in trace order per
  source) with links, link classes, transfer kinds, and nodes interned
  to small integers;
* the single event heap holds packed integers ``(time, order, seg)``
  instead of 4-tuples, so a heap sift compares small ints, not tuples —
  the tie-breaking contract: finish events carry an incrementing
  dispatch order, arrivals order among themselves by destination id and
  after every same-time finish;
* dispatch takes a fast path that never touches the per-node ready
  heap while it is empty (the common case on sparse cluster traces);
* per-link/per-class/per-kind statistics live in small dense arrays
  indexed by interned id and are allocated only for links/classes the
  trace actually uses — nothing is sized by node count or by the
  cartesian (link x class) space, so 1024-node fat-tree sweeps do not
  blow memory on bookkeeping;
* every link grant is recorded as it is made (the transfer's index in
  ``trace.transfers`` and the cycle it won its link), which is all
  :class:`~repro.timing.timeline.Timeline` needs to answer positional
  questions about the schedule.

The compiled plan is cached on the trace object keyed by the
``(segments, edges, transfers)`` lengths — traces are append-only, so
the lengths identify the DAG shape.  On a *finished* trace (no open
segments) the per-segment ``cycles``/``node`` arrays are frozen into
the plan too, since every mutation path (``charge``, ``cut``,
``move_node``, ``begin``) either requires an open segment or appends a
new one; replaying a finished trace then skips straight to the event
loop.  While segments are still open the two arrays are rebuilt per
call (one O(n) attribute sweep).
"""

from heapq import heappop, heappush

_PLAN_ATTR = "_event_core_plan"


class _CompiledTrace:
    """Interned successor-tuple form of a trace's DAG (shape-keyed)."""

    __slots__ = (
        "key", "npreds", "plain", "xfer",
        "links", "classes", "kinds",
        "arrive_base", "order_bits", "seg_bits",
        "seg_cycles", "cyc_shift", "seg_node", "node_keys", "busy_total",
    )


def _build_seg_arrays(plan, segments):
    """Per-segment cycles/node arrays with nodes interned in first-use
    (segment-id) order, plus the cycles pre-shifted into packed-event
    position and the total busy cycles (every segment runs exactly
    once, so the scheduled busy sum is a static property of the
    trace)."""
    nseg = len(segments)
    time_shift = plan.order_bits + plan.seg_bits
    seg_cycles = [0] * nseg
    cyc_shift = [0] * nseg
    seg_node = [0] * nseg
    node_ids = {}
    for i, seg in enumerate(segments):
        cycles = seg.cycles
        seg_cycles[i] = cycles
        cyc_shift[i] = cycles << time_shift
        node = seg.node
        ni = node_ids.get(node)
        if ni is None:
            ni = node_ids[node] = len(node_ids)
        seg_node[i] = ni
    plan.seg_cycles = seg_cycles
    plan.cyc_shift = cyc_shift
    plan.seg_node = seg_node
    plan.node_keys = list(node_ids)
    plan.busy_total = sum(seg_cycles)


def _compile(trace):
    """Build (or fetch) the successor plan + interning tables."""
    segments = trace.segments
    edges = trace.edges
    transfers = trace.transfers
    key = (len(segments), len(edges), len(transfers))
    plan = getattr(trace, _PLAN_ATTR, None)
    frozen = not getattr(trace, "_open", True)
    if plan is not None and plan.key == key:
        if plan.seg_cycles is None:
            _build_seg_arrays(plan, segments)
            if not frozen:
                arrays = (plan.seg_cycles, plan.cyc_shift, plan.seg_node,
                          plan.node_keys, plan.busy_total)
                plan.seg_cycles = plan.cyc_shift = None
                plan.seg_node = plan.node_keys = None
                return (plan,) + arrays
        return (plan, plan.seg_cycles, plan.cyc_shift, plan.seg_node,
                plan.node_keys, plan.busy_total)

    nseg = len(segments)
    plan = _CompiledTrace()
    plan.key = key
    npreds = [0] * nseg

    # Plain edges, grouped per source in trace order; a finishing
    # segment releases these before its link transfers.
    plain = [()] * nseg
    acc = {}
    for src, dst, lat in edges:
        npreds[dst] += 1
        lst = acc.get(src)
        if lst is None:
            acc[src] = [(dst, lat)]
        else:
            lst.append((dst, lat))
    for src, lst in acc.items():
        plain[src] = tuple(lst)

    # Link transfers, grouped per source in trace order, with link /
    # class / effective-kind identities interned to small ints, the
    # serialization + transit sum precomputed per transfer, and the
    # transfer's index in ``trace.transfers`` for the grant record.
    xfer = [()] * nseg
    acc = {}
    link_ids = {}
    cls_ids = {}
    kind_ids = {}
    for ti, (src, dst, link, busy, lat, cls, kind) in enumerate(transfers):
        npreds[dst] += 1
        li = link_ids.get(link)
        if li is None:
            li = link_ids[link] = len(link_ids)
        ci = cls_ids.get(cls)
        if ci is None:
            ci = cls_ids[cls] = len(cls_ids)
        # The label a stall behind this transfer is attributed to.
        eff = kind or cls or "link"
        ki = kind_ids.get(eff)
        if ki is None:
            ki = kind_ids[eff] = len(kind_ids)
        rec = (dst, li, busy, busy + lat, ci, ki, ti)
        lst = acc.get(src)
        if lst is None:
            acc[src] = [rec]
        else:
            lst.append(rec)
    for src, lst in acc.items():
        xfer[src] = tuple(lst)

    plan.plain = plain
    plan.xfer = xfer
    plan.links = list(link_ids)
    plan.classes = list(cls_ids)
    plan.kinds = list(kind_ids)
    plan.npreds = npreds

    # Packed-event geometry.  Finish events use dispatch orders
    # 1..nseg; arrivals order after every same-time finish and among
    # themselves by destination id, so ``arrive_base + dst`` with
    # ``arrive_base > nseg`` gives exactly that order while keeping the
    # packed ints narrow.
    plan.arrive_base = nseg + 1
    plan.order_bits = max(1, (2 * nseg + 1).bit_length())
    plan.seg_bits = max(1, (nseg - 1).bit_length() if nseg > 1 else 1)

    _build_seg_arrays(plan, segments)
    arrays = (plan.seg_cycles, plan.cyc_shift, plan.seg_node,
              plan.node_keys, plan.busy_total)
    if not frozen:
        # Open segments may still be charged or moved without changing
        # the shape key — don't freeze their arrays into the cache.
        plan.seg_cycles = plan.cyc_shift = None
        plan.seg_node = plan.node_keys = None
    try:
        setattr(trace, _PLAN_ATTR, plan)
    except AttributeError:
        pass  # slotted/frozen trace stand-ins simply recompile
    return (plan,) + arrays


def run_event_schedule(trace, ncpus=1):
    """Event-core scheduling of ``trace``; returns the raw result pieces
    ``(makespan, busy, start_times, finish_times, cpu_count, link_busy,
    class_busy, stall_cycles, grants)`` with start/finish as dense
    per-segment lists and ``grants`` as the pair of parallel lists
    (index into ``trace.transfers``, cycle the transfer won its link)
    in grant order (the caller wraps all three lazily)."""
    nseg = len(trace.segments)
    (plan, seg_cycles, cyc_shift, seg_node,
     node_keys, busy_total) = _compile(trace)

    free = [ncpus] * len(node_keys)
    total_cpus = ncpus * len(node_keys) or max(1, ncpus)

    npreds = plan.npreds[:]
    plain = plan.plain
    xfer = plan.xfer

    nlinks = len(plan.links)
    link_free = [0] * nlinks
    link_busy = [0] * nlinks
    cls_busy = [0] * len(plan.classes)
    kind_stall = [0] * len(plan.kinds)

    ready = [[] for _ in node_keys]
    ready_at = [0] * nseg
    # Per destination: when it would be ready with an infinitely fast
    # network (program order + plain-edge latency; link data counts as
    # ready the instant its producer finished), and the kind of the
    # latest-arriving link transfer.  The gap to ``ready_at`` is the
    # transfer-induced stall charged to that kind.
    ready_nonet = [0] * nseg
    link_ready = [0] * nseg
    link_kind = [-1] * nseg
    start_t = [0] * nseg
    finish_t = [-1] * nseg
    grant_index = []
    grant_start = []

    push = heappush
    pop = heappop
    events = []
    seg_bits = plan.seg_bits
    time_shift = plan.order_bits + seg_bits
    seg_mask = (1 << seg_bits) - 1
    low_mask = (1 << time_shift) - 1
    arrive_shift = plan.arrive_base << seg_bits
    order_step = 1 << seg_bits
    # Dispatch order lives pre-shifted into packed-event position; the
    # counter doubles as the dispatched-segment count (see the cycle
    # check at the bottom).
    order_packed = 0

    # Roots become ready at 0 in id order, each immediately draining
    # its node's ready queue, which fixes the dispatch-order counter.
    for sid in range(nseg):
        if npreds[sid]:
            continue
        node = seg_node[sid]
        rq = ready[node]
        if free[node] > 0 and not rq:
            free[node] -= 1
            order_packed += order_step
            push(events, cyc_shift[sid] + order_packed + sid)
        else:
            push(rq, sid)
            while free[node] > 0 and rq:
                run = pop(rq)
                free[node] -= 1
                order_packed += order_step
                push(events, cyc_shift[run] + order_packed + run)

    now = 0
    while events:
        packed = pop(events)
        sid = packed & seg_mask
        low = packed & low_mask
        now = packed >> time_shift
        if low - sid >= arrive_shift:
            # Arrival: the destination becomes ready now.
            nowsh = packed - low
            node = seg_node[sid]
            rq = ready[node]
            if free[node] > 0 and not rq:
                free[node] -= 1
                start_t[sid] = now
                order_packed += order_step
                push(events, nowsh + cyc_shift[sid] + order_packed + sid)
            else:
                push(rq, sid)
                while free[node] > 0 and rq:
                    run = pop(rq)
                    free[node] -= 1
                    start_t[run] = now
                    order_packed += order_step
                    push(events, nowsh + cyc_shift[run] + order_packed + run)
            continue

        # Finish of sid.
        nowsh = packed - low
        finish_t[sid] = now
        node = seg_node[sid]
        free[node] += 1

        for dst, lat in plain[sid]:
            arrival = now + lat
            if arrival > ready_nonet[dst]:
                ready_nonet[dst] = arrival
            if arrival > ready_at[dst]:
                ready_at[dst] = arrival
            n = npreds[dst] - 1
            npreds[dst] = n
            if not n:
                at = ready_at[dst]
                stall = at - ready_nonet[dst]
                if stall > 0 and link_kind[dst] >= 0:
                    kind_stall[link_kind[dst]] += stall
                if at > now:
                    push(events, (at << time_shift) + arrive_shift + dst)
                else:
                    nd = seg_node[dst]
                    rq = ready[nd]
                    if free[nd] > 0 and not rq:
                        free[nd] -= 1
                        start_t[dst] = now
                        order_packed += order_step
                        push(events,
                             nowsh + cyc_shift[dst] + order_packed + dst)
                    else:
                        push(rq, dst)
                        while free[nd] > 0 and rq:
                            run = pop(rq)
                            free[nd] -= 1
                            start_t[run] = now
                            order_packed += order_step
                            push(events,
                                 nowsh + cyc_shift[run] + order_packed + run)

        for dst, li, xb, xblat, ci, ki, ti in xfer[sid]:
            # The transfer waits for the channel, serializes on it,
            # then transits; contention order follows the (already
            # deterministic) source-finish order.
            lf = link_free[li]
            xfer_start = now if now >= lf else lf
            grant_index.append(ti)
            grant_start.append(xfer_start)
            link_free[li] = xfer_start + xb
            link_busy[li] += xb
            cls_busy[ci] += xb
            arrival = xfer_start + xblat
            if now > ready_nonet[dst]:
                ready_nonet[dst] = now
            if arrival >= link_ready[dst]:
                link_ready[dst] = arrival
                link_kind[dst] = ki
            if arrival > ready_at[dst]:
                ready_at[dst] = arrival
            n = npreds[dst] - 1
            npreds[dst] = n
            if not n:
                at = ready_at[dst]
                stall = at - ready_nonet[dst]
                if stall > 0 and link_kind[dst] >= 0:
                    kind_stall[link_kind[dst]] += stall
                if at > now:
                    push(events, (at << time_shift) + arrive_shift + dst)
                else:
                    nd = seg_node[dst]
                    rq = ready[nd]
                    if free[nd] > 0 and not rq:
                        free[nd] -= 1
                        start_t[dst] = now
                        order_packed += order_step
                        push(events,
                             nowsh + cyc_shift[dst] + order_packed + dst)
                    else:
                        push(rq, dst)
                        while free[nd] > 0 and rq:
                            run = pop(rq)
                            free[nd] -= 1
                            start_t[run] = now
                            order_packed += order_step
                            push(events,
                                 nowsh + cyc_shift[run] + order_packed + run)

        rq = ready[node]
        while free[node] > 0 and rq:
            run = pop(rq)
            free[node] -= 1
            start_t[run] = now
            order_packed += order_step
            push(events, nowsh + cyc_shift[run] + order_packed + run)

    if order_packed >> seg_bits != nseg:
        # The dispatch counter doubles as a completion count, so the
        # O(n) sweep below only runs on the error path.
        unscheduled = [i for i in range(nseg) if finish_t[i] < 0]
        raise ValueError(
            f"trace contains a cycle or dangling dependency; "
            f"{len(unscheduled)} segments never ran (first: {unscheduled[:3]})"
        )

    link_busy_out = dict(zip(plan.links, link_busy))
    cls_busy_out = dict(zip(plan.classes, cls_busy))
    stall_out = {plan.kinds[i]: kind_stall[i]
                 for i in range(len(kind_stall)) if kind_stall[i] > 0}
    return (now, busy_total, start_t, finish_t, total_cpus,
            link_busy_out, cls_busy_out, stall_out,
            (grant_index, grant_start))
