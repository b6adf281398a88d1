"""Cycle-addressable view of a scheduled trace (the debugger's clock).

:func:`repro.timing.schedule.schedule` answers *aggregate* questions —
makespan, per-link occupancy, stall attribution.  The time-travel
debugger needs *positional* ones: which segments were running at cycle
N, which messages were on which wire, how far along was each link's
retransmit ledger.  A :class:`Timeline` answers them from what the
schedule already holds — per-segment start/finish times and the link
grants in the order the event core made them — so there is no second
copy of the scheduling policy to keep in step.

A :class:`Timeline` is a pure function of the trace and the CPU
configuration: building it twice, or on a replayed trace, yields the
same intervals bit for bit — which is what lets ``repro.debug links
--at N`` describe a finished run's wire state at an arbitrary cycle
without having recorded anything during the run.
"""


class TransferInterval:
    """One link transfer placed on the schedule's timeline.

    ``start`` is when the transfer won its link, ``end = start + busy``
    when it released it, ``arrival = end + latency`` when the payload
    reached the destination segment.  ``src``/``dst`` are segment ids.
    """

    __slots__ = ("src", "dst", "link", "start", "end", "arrival", "cls",
                 "kind")

    def __init__(self, src, dst, link, start, end, arrival, cls, kind):
        self.src = src
        self.dst = dst
        self.link = link
        self.start = start
        self.end = end
        self.arrival = arrival
        self.cls = cls
        self.kind = kind

    def occupies_at(self, cycle):
        """True while the transfer holds its link (serialization)."""
        return self.start <= cycle < self.end

    def in_flight_at(self, cycle):
        """True from winning the link until the payload arrives."""
        return self.start <= cycle < self.arrival

    def __repr__(self):
        return (f"<Transfer {self.src}->{self.dst} link={self.link} "
                f"[{self.start}, {self.end})+{self.arrival - self.end} "
                f"kind={self.kind}>")


class Timeline:
    """Per-segment and per-transfer intervals of one scheduled trace.

    Built from a trace and the ``ScheduleResult`` of scheduling it.

    Attributes
    ----------
    start / finish:
        segment id -> scheduled start / finish time.
    transfers:
        :class:`TransferInterval` list in link-grant order.
    makespan:
        The schedule's makespan.
    """

    def __init__(self, trace, sched):
        self.trace = trace
        self.start = sched.start
        self.finish = sched.finish
        self.makespan = sched.makespan
        self.transfers = []
        for index, granted in sched.grants:
            src, dst, link, busy, latency, cls, kind = trace.transfers[index]
            end = granted + busy
            self.transfers.append(TransferInterval(
                src, dst, link, granted, end, end + latency, cls, kind))

    # -- cycle-addressed queries -------------------------------------------

    def running_at(self, cycle):
        """Segments occupying a CPU at ``cycle`` (started, not finished),
        sorted by segment id."""
        return sorted(
            seg_id for seg_id, t0 in self.start.items()
            if t0 <= cycle < self.finish[seg_id])

    def in_flight_at(self, cycle):
        """Transfers on the wire at ``cycle`` (won their link, payload
        not yet arrived), in link-grant order."""
        return [t for t in self.transfers if t.in_flight_at(cycle)]

    def link_busy_until(self, cycle):
        """link -> serialization cycles accumulated up to ``cycle``
        (transfers in progress contribute their elapsed part)."""
        busy = {}
        for t in self.transfers:
            if t.start >= cycle:
                continue
            busy[t.link] = busy.get(t.link, 0) + min(t.end, cycle) - t.start
        return busy

    def kind_counts_until(self, cycle, kind=None):
        """transfer kind -> transfers whose serialization started by
        ``cycle`` (``kind=`` filters to one; the retransmit ledger's
        progress counter is ``kind="retx"``)."""
        counts = {}
        for t in self.transfers:
            if t.start < cycle and (kind is None or t.kind == kind):
                counts[t.kind] = counts.get(t.kind, 0) + 1
        return counts

    def closed_by(self, cycle):
        """Ids of all segments with ``finish <= cycle`` — the event set
        ``goto`` replays through (state *at* cycle N means: every
        segment the schedule completed by N has run)."""
        return {seg_id for seg_id, t1 in self.finish.items() if t1 <= cycle}

    def __repr__(self):
        return (f"<Timeline segments={len(self.finish)} "
                f"transfers={len(self.transfers)} "
                f"makespan={self.makespan}>")
