"""Deterministic list scheduling of a trace onto CPUs.

Given the segment DAG recorded in a :class:`~repro.timing.trace.Trace`,
compute the makespan achievable with a fixed number of CPUs per node.
Greedy list scheduling (ready segments run FIFO by segment id on the
first free CPU of their node) — the same policy a work-conserving kernel
scheduler approximates — with fully deterministic tie-breaking.

Latency on an edge models network transit: the destination becomes ready
``latency`` cycles after the source finishes, occupying no CPU.

Link edges (:meth:`repro.timing.trace.Trace.link_edge`) additionally
occupy a network channel: a transfer must win its link, serialize for
``busy`` cycles (overlapping transfers on the same link contend, in
deterministic source-finish order), then transit ``latency`` cycles.
Per-link occupancy totals are reported on the result.

The policy has one implementation: the discrete-event core in
:mod:`repro.timing.event_core` (compiled CSR adjacency, packed-int
event heap, interned link/class/kind statistics; O(log n) per event,
which is what makes 64-1024-node fat-tree sweeps affordable).

A link transfer becomes eligible when its *source* segment finishes —
which may be long before the destination's program-order predecessor
does.  An async prefetch anchored at an early segment therefore
overlaps its serialization with CPU busy instead of serializing with
it; only the part of the transfer that outlives the compute it hides
behind stalls the destination.  That residue is reported per transfer
kind in :attr:`ScheduleResult.stall_cycles` — the demand-stall metric
the prefetch ablation gates.
"""

from repro.timing.event_core import run_event_schedule


class ScheduleResult:
    """Outcome of scheduling a trace.

    ``start``/``finish`` are exposed as mappings (segment id -> time)
    but materialized lazily: the event core hands over dense
    per-segment time arrays, and the dict form is only built if a
    caller actually indexes into it.  High-node-count sweeps that read
    just ``makespan``/``stall_cycles`` never pay for two dicts of every
    segment's timestamps — nor for the :attr:`grants` pairs.
    """

    __slots__ = ("makespan", "busy", "_start", "_finish", "cpu_count",
                 "link_busy", "class_busy", "stall_cycles", "_grants")

    def __init__(self, makespan, busy, start, finish, cpu_count,
                 link_busy=None, class_busy=None, stall_cycles=None,
                 grants=((), ())):
        #: Total virtual time from first segment start to last finish.
        self.makespan = makespan
        #: Total CPU-busy cycles (sum of scheduled segment durations).
        self.busy = busy
        # Dense per-segment lists (dicts for the empty trace),
        # normalized on first access via the properties below.
        self._start = start
        self._finish = finish
        #: Total CPUs across all nodes.
        self.cpu_count = cpu_count
        #: link -> serialization cycles the link spent occupied.
        self.link_busy = link_busy or {}
        #: link-class name -> total serialization cycles over all links
        #: of that class (None collects untagged edges).
        self.class_busy = class_busy or {}
        #: transfer kind ("fetch", "prefetch", "migrate", ...) -> cycles
        #: destinations actually *waited* on transfers of that kind
        #: beyond their program-order readiness.  A fully overlapped
        #: prefetch contributes zero here even though it occupied its
        #: links; a stop-and-wait demand round trip contributes its
        #: whole transfer.
        self.stall_cycles = stall_cycles or {}
        # Parallel (transfer index, grant cycle) lists until first read.
        self._grants = grants

    @property
    def start(self):
        """segment id -> start time (materialized on first access)."""
        if not isinstance(self._start, dict):
            self._start = dict(enumerate(self._start))
        return self._start

    @property
    def finish(self):
        """segment id -> finish time (materialized on first access)."""
        if not isinstance(self._finish, dict):
            self._finish = dict(enumerate(self._finish))
        return self._finish

    @property
    def grants(self):
        """``(index into trace.transfers, cycle the transfer won its
        link)`` per link transfer, in grant order (materialized on
        first access)."""
        if not isinstance(self._grants, list):
            self._grants = list(zip(*self._grants))
        return self._grants

    @property
    def utilization(self):
        """Fraction of CPU capacity kept busy over the makespan."""
        if self.makespan == 0:
            return 0.0
        return self.busy / (self.makespan * self.cpu_count)

    def __repr__(self):
        return (
            f"<ScheduleResult makespan={self.makespan} "
            f"utilization={self.utilization:.2%}>"
        )


def schedule(trace, ncpus=1):
    """Compute the makespan of ``trace`` with ``ncpus`` CPUs per node.

    Parameters
    ----------
    trace:
        A finished :class:`~repro.timing.trace.Trace` (all segments closed).
    ncpus:
        CPUs available on every node.

    Returns
    -------
    ScheduleResult
    """
    if not trace.segments:
        return ScheduleResult(0, 0, {}, {}, max(1, ncpus))
    return ScheduleResult(*run_event_schedule(trace, ncpus))


def critical_path(trace):
    """Length of the longest path through the trace (infinite-CPU bound)."""
    result = schedule(trace, ncpus=10**9)
    return result.makespan
