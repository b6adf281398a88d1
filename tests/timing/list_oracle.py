"""The reference implementation of the scheduling policy.

``src/`` holds exactly one scheduler, the discrete-event core in
:mod:`repro.timing.event_core`.  This is the policy written the obvious
way — a heap of ``(time, order, kind, segment)`` tuples over dict
adjacency — kept out of ``src/`` as the oracle the equivalence suite
(``test_event_core.py``) compares the event core against: every
:class:`~repro.timing.schedule.ScheduleResult` field, and every link
transfer's interval in grant order (what
:class:`~repro.timing.timeline.Timeline` shows the debugger).

Do not optimise this file; its value is that it is easy to check by eye.
"""

import heapq
from collections import defaultdict, namedtuple

#: One link transfer on the schedule, as ``TransferInterval`` names it.
TRANSFER_FIELDS = ("src", "dst", "link", "start", "end", "arrival", "cls",
                   "kind")

OracleResult = namedtuple("OracleResult", [
    "makespan", "busy", "start", "finish", "cpu_count", "link_busy",
    "class_busy", "stall_cycles", "transfers"])


def schedule_list(trace, ncpus=1):
    """Schedule ``trace`` with the plain list loop; returns an
    :class:`OracleResult`."""
    segments = trace.segments
    if not segments:
        return OracleResult(0, 0, {}, {}, max(1, ncpus), {}, {}, {}, [])

    npreds = [0] * len(segments)
    succs = defaultdict(list)
    for src, dst, latency in trace.edges:
        npreds[dst] += 1
        succs[src].append((dst, latency, None, 0, None, None))
    for src, dst, link, busy, latency, cls, kind in trace.transfers:
        npreds[dst] += 1
        succs[src].append((dst, latency, link, busy, cls, kind))
    link_free = {}      # link -> time the channel next becomes idle
    link_busy = {}      # link -> total serialization cycles
    class_busy = {}     # link-class name -> total serialization cycles
    stall_cycles = {}   # transfer kind -> cycles destinations waited
    transfers = []      # TRANSFER_FIELDS tuples in link-grant order

    free = defaultdict(int)        # node -> free CPU count (lazy init)
    seen_nodes = set()
    ready = defaultdict(list)      # node -> heap of (seg_id)
    ready_at = [0] * len(segments)
    # Per destination: when it would be ready with an infinitely fast
    # network (program order + plain-edge latency), and the kind of the
    # latest-arriving link transfer.  Their gap is the transfer-induced
    # stall charged to that kind.
    ready_nonet = [0] * len(segments)
    link_ready = [0] * len(segments)
    link_kind = [None] * len(segments)
    start = {}
    finish = {}
    events = []                    # heap of (time, order, kind, payload)
    order = 0

    def ensure_node(node):
        if node not in seen_nodes:
            seen_nodes.add(node)
            free[node] = ncpus

    def make_ready(time, seg_id):
        seg = segments[seg_id]
        ensure_node(seg.node)
        heapq.heappush(ready[seg.node], seg_id)
        dispatch(time, seg.node)

    def dispatch(time, node):
        nonlocal order
        while free[node] > 0 and ready[node]:
            seg_id = heapq.heappop(ready[node])
            free[node] -= 1
            seg = segments[seg_id]
            start[seg_id] = time
            finish_time = time + seg.cycles
            order += 1
            heapq.heappush(events, (finish_time, order, "finish", seg_id))

    roots = [i for i, n in enumerate(npreds) if n == 0]
    for seg_id in roots:
        make_ready(0, seg_id)

    now = 0
    busy = 0
    while events:
        now, _, kind, seg_id = heapq.heappop(events)
        if kind == "arrive":
            make_ready(now, seg_id)
            continue
        # finish
        seg = segments[seg_id]
        finish[seg_id] = now
        busy += seg.cycles
        free[seg.node] += 1
        for dst, latency, link, xfer_busy, cls, kind in succs[seg_id]:
            npreds[dst] -= 1
            if link is None:
                arrival = now + latency
                ready_nonet[dst] = max(ready_nonet[dst], arrival)
            else:
                # The transfer waits for the channel, serializes on it,
                # then transits; contention order follows the (already
                # deterministic) source-finish order.
                xfer_start = max(now, link_free.get(link, 0))
                link_free[link] = xfer_start + xfer_busy
                link_busy[link] = link_busy.get(link, 0) + xfer_busy
                class_busy[cls] = class_busy.get(cls, 0) + xfer_busy
                arrival = xfer_start + xfer_busy + latency
                transfers.append((seg_id, dst, link, xfer_start,
                                  xfer_start + xfer_busy, arrival, cls, kind))
                # With an infinitely fast network the data would be
                # ready the instant its producer finished.
                ready_nonet[dst] = max(ready_nonet[dst], now)
                if arrival >= link_ready[dst]:
                    link_ready[dst] = arrival
                    link_kind[dst] = kind or cls or "link"
            ready_at[dst] = max(ready_at[dst], arrival)
            if npreds[dst] == 0:
                stall = ready_at[dst] - ready_nonet[dst]
                if stall > 0 and link_kind[dst] is not None:
                    stall_cycles[link_kind[dst]] = (
                        stall_cycles.get(link_kind[dst], 0) + stall)
                if ready_at[dst] > now:
                    heapq.heappush(
                        events, (ready_at[dst], 10**9 + dst, "arrive", dst)
                    )
                else:
                    make_ready(now, dst)
        dispatch(now, seg.node)

    unscheduled = [i for i in range(len(segments)) if i not in finish]
    if unscheduled:
        raise ValueError(
            f"trace contains a cycle or dangling dependency; "
            f"{len(unscheduled)} segments never ran (first: {unscheduled[:3]})"
        )

    total_cpus = sum(free[node] for node in seen_nodes) or max(1, ncpus)
    return OracleResult(now, busy, start, finish, total_cpus, link_busy,
                        class_busy, stall_cycles, transfers)
