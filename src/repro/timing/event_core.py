"""Discrete-event scheduling core: the one implementation of the policy.

Greedy list scheduling with deterministic tie-breaking (see
:mod:`repro.timing.schedule` for the policy itself), done as O(log n)
work per event.  ``tests/timing/list_oracle.py`` is the same policy as
a plain list loop; the equivalence suite holds this module to it field
by field and grant by grant.

* the trace's lists are read in place: edges and transfers are grouped
  by source as offsets over one stable source-sorted order of their
  indices, so a finishing segment walks its plain edges, then its link
  transfers, in trace order — no per-edge record is built;
* the event heap holds packed ints ``(time, order, seg)``: finish events
  carry an incrementing dispatch order, arrivals order after every
  same-time finish and by destination id among themselves;
* links are interned to ids in first-use order, so the loop hashes no
  link: occupancy per link and per link class is summed once from the
  lists (every transfer is granted exactly once); the loop keeps only
  each link's next free cycle in a list by link id, and records each
  grant (transfer index, cycle it won its link) for
  :class:`~repro.timing.timeline.Timeline`.

Nothing built here outlives the call and nothing is written onto the
trace: ``schedule()`` is a pure reader, and no per-edge containers stay
behind for the garbage collector to walk.
"""

from heapq import heappop, heappush
from itertools import accumulate


def _tally(ids, n):
    """How often each of ``0..n-1`` occurs in ``ids``."""
    counts = [0] * n
    for i in ids:
        counts[i] += 1
    return counts


def _sums(keys, values):
    """``key -> sum of its values``, keys in first-use order."""
    out = {}
    for key, value in zip(keys, values):
        out[key] = out.get(key, 0) + value
    return out


def run_event_schedule(trace, ncpus):
    """Schedule a non-empty ``trace``; returns ``(makespan, busy, start,
    finish, cpu_count, link_busy, class_busy, stall_cycles, grants)``
    with start/finish as dense per-segment lists and ``grants`` as the
    parallel lists (transfer index, cycle the transfer won its link) in
    grant order, which the caller wraps lazily."""
    edges = trace.edges
    transfers = trace.transfers
    cycles = trace.segments.cycles
    nseg = len(cycles)
    e_lat = edges.latency
    t_busy, t_lat, t_cls, t_kind = (
        transfers.busy, transfers.latency, transfers.cls, transfers.kind)
    nedges = len(e_lat)

    # Successor index ``i`` is edge ``i`` below ``nedges``, else transfer
    # ``i - nedges``.  A stable sort by source keeps each source's plain
    # edges first, then its transfers, in trace order.
    srcs = edges.src + transfers.src
    dsts = edges.dst + transfers.dst
    succ = sorted(range(len(srcs)), key=srcs.__getitem__)
    off = [0, *accumulate(_tally(srcs, nseg))]
    npreds = _tally(dsts, nseg)
    # Link ids in first-use order, which is also the order of the sums.
    link_ids = {}
    t_link = [link_ids.setdefault(link, len(link_ids))
              for link in transfers.link]
    link_busy = dict(zip(link_ids, _sums(t_link, t_busy).values()))
    class_busy = _sums(t_cls, t_busy)
    # The labels a stall behind a transfer is attributed to, in
    # first-use order (the order ``stall_cycles`` reports them in).
    labels = dict.fromkeys(kind or cls or "link"
                           for cls, kind in dict.fromkeys(zip(t_cls, t_kind)))

    # Packed-event geometry.  Finish events use dispatch orders 1..nseg;
    # an arrival's order is ``nseg + 1 + dst``: after every same-time
    # finish, and by destination id among themselves.
    order_bits = max(1, (2 * nseg + 1).bit_length())
    seg_bits = max(1, (nseg - 1).bit_length() if nseg > 1 else 1)
    time_shift = order_bits + seg_bits
    seg_mask = (1 << seg_bits) - 1
    low_mask = (1 << time_shift) - 1
    arrive_shift = (nseg + 1) << seg_bits
    order_step = 1 << seg_bits

    # Nodes interned in first-use (segment-id) order; cycles pre-shifted
    # into packed-event position.
    node_ids = {}
    seg_node = [node_ids.setdefault(node, len(node_ids))
                for node in trace.segments.node]
    cyc_shift = [c << time_shift for c in cycles]

    free = [ncpus] * len(node_ids)
    ready = [[] for _ in node_ids]
    link_free = [0] * len(link_ids)
    stall_cycles = {}
    ready_at = [0] * nseg
    # Per destination: when it would be ready on an infinitely fast
    # network (program order + plain-edge latency; link data ready when
    # its producer finished), and the label of the latest-arriving
    # transfer.  The gap to ``ready_at`` is the stall charged to it.
    ready_nonet = [0] * nseg
    link_ready = [0] * nseg
    link_kind = [None] * nseg
    start_t = [0] * nseg
    finish_t = [-1] * nseg
    grant_index = []
    grant_start = []

    push = heappush
    pop = heappop
    events = []
    # Dispatch order, pre-shifted into packed-event position; it doubles
    # as the dispatched-segment count (the cycle check at the bottom).
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
        nowsh = packed - low
        if low - sid >= arrive_shift:
            # Arrival: the destination becomes ready now.
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
        finish_t[sid] = now
        node = seg_node[sid]
        free[node] += 1

        for i in succ[off[sid]:off[sid + 1]]:
            dst = dsts[i]
            if i < nedges:
                arrival = now + e_lat[i]
                if arrival > ready_nonet[dst]:
                    ready_nonet[dst] = arrival
            else:
                # The transfer waits for the channel, serializes on it,
                # then transits; contention order follows the (already
                # deterministic) source-finish order.
                i -= nedges
                link = t_link[i]
                lf = link_free[link]
                xfer_start = now if now >= lf else lf
                grant_index.append(i)
                grant_start.append(xfer_start)
                done = xfer_start + t_busy[i]
                link_free[link] = done
                arrival = done + t_lat[i]
                if now > ready_nonet[dst]:
                    ready_nonet[dst] = now
                if arrival >= link_ready[dst]:
                    link_ready[dst] = arrival
                    link_kind[dst] = t_kind[i] or t_cls[i] or "link"
            if arrival > ready_at[dst]:
                ready_at[dst] = arrival
            n = npreds[dst] - 1
            npreds[dst] = n
            if n:
                continue
            # dst's last predecessor: charge its stall, then queue its
            # arrival or make it ready now.
            at = ready_at[dst]
            stall = at - ready_nonet[dst]
            if stall > 0 and link_kind[dst] is not None:
                label = link_kind[dst]
                stall_cycles[label] = stall_cycles.get(label, 0) + stall
            if at > now:
                push(events, (at << time_shift) + arrive_shift + dst)
                continue
            nd = seg_node[dst]
            rq = ready[nd]
            if free[nd] > 0 and not rq:
                free[nd] -= 1
                start_t[dst] = now
                order_packed += order_step
                push(events, nowsh + cyc_shift[dst] + order_packed + dst)
            else:
                push(rq, dst)
                while free[nd] > 0 and rq:
                    run = pop(rq)
                    free[nd] -= 1
                    start_t[run] = now
                    order_packed += order_step
                    push(events, nowsh + cyc_shift[run] + order_packed + run)

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

    stall_out = {label: stall_cycles[label]
                 for label in labels if label in stall_cycles}
    return (now, sum(cycles), start_t, finish_t, ncpus * len(node_ids),
            link_busy, class_busy, stall_out, (grant_index, grant_start))
