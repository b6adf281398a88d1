"""Open-loop request serving over the cluster: tail latency & autoscaling.

:func:`serve_trace` runs a deterministic arrival trace (from
:mod:`repro.bench.workloads.serving`) against a cluster: a dispatcher
space forks one child per request onto the cluster's nodes through the
ordinary Put/Get migration path, paced by its own program clock so the
trace is *open-loop* — requests arrive when the trace says, whether or
not the cluster has kept up, and dispatcher lag shows up as queueing
latency exactly as it would in a real service.

Per-request completion times come from the same deterministic scheduler
that prices every other benchmark: a request is complete when its
child's last trace segment finishes, which includes migration transfers,
demand fetches, retransmissions under loss — everything the transport
charged.  :class:`ServingResult` reduces the per-request latency table
to the metrics a service owner recognizes: p50/p95/p99 latency and
goodput, all integers, bit-identical for a given seed on every platform.

Autoscaling: pass ``autoscale=((0, n0), (t1, n1), ...)`` to step the
*active* node set mid-trace.  Scaling out dispatches onto cold nodes
(their first requests pay the share's migration burst — the cold-start
tail); scaling in first *drains* the leaving nodes by joining their
outstanding requests over the delta-migration path before dispatch
continues on the survivors.
"""

from repro.bench.workloads import serving as workload
from repro.cluster.spec import NODE_CPUS
from repro.kernel.kernel import child_ref
from repro.kernel.machine import Machine
from repro.timing.schedule import schedule

#: First local child slot used for request children (distinct rids get
#: distinct slots; the low 16 bits of a child ref bound the trace size).
REQ_LOCAL_BASE = 16
MAX_REQUESTS = 0xFFFF - REQ_LOCAL_BASE


class ServingResult:
    """Outcome of one :func:`serve_trace` run."""

    def __init__(self, nnodes, spec, arrivals, latencies, values, span,
                 result):
        #: Cluster size the trace was served on.
        self.nnodes = nnodes
        #: The :class:`~repro.cluster.spec.ClusterSpec` the run was
        #: configured with.
        self.spec = spec
        #: Intended arrival time of each request, in rid order.
        self.arrivals = tuple(arrivals)
        #: Per-request completion latency (finish - intended arrival),
        #: in rid order.  Open-loop: dispatcher queueing delay counts.
        self.latencies = tuple(latencies)
        #: Per-request computed values, in rid order (pure functions of
        #: rid — the arrival seed must never change them).
        self.values = tuple(values)
        #: First arrival to last completion, in cycles.
        self.span = span
        #: The run's :class:`~repro.kernel.machine.MachineResult`;
        #: ``machine`` and ``checksum`` read through it.
        self.result = result

    machine = property(lambda self: self.result.machine)
    #: Order-sensitive fold of the values (the guest's return value).
    checksum = property(lambda self: self.result.value)

    def percentile(self, q):
        """Nearest-rank percentile of the latency table (integer)."""
        xs = sorted(self.latencies)
        rank = max(1, -(-q * len(xs) // 100))   # ceil(q * n / 100)
        return xs[rank - 1]

    @property
    def p50(self):
        return self.percentile(50)

    @property
    def p95(self):
        return self.percentile(95)

    @property
    def p99(self):
        return self.percentile(99)

    @property
    def goodput(self):
        """Completed requests per 10^9 simulated cycles (integer)."""
        if self.span <= 0:
            return 0
        return len(self.latencies) * 10**9 // self.span

    def latency_cdf(self):
        """Sorted (latency, cumulative_fraction_percent) points for the
        latency-CDF figure — integer percent, nearest rank."""
        xs = sorted(self.latencies)
        n = len(xs)
        return tuple((x, (i + 1) * 100 // n) for i, x in enumerate(xs))

    def __repr__(self):
        return (f"<ServingResult nodes={self.nnodes} "
                f"requests={len(self.latencies)} p50={self.p50:,} "
                f"p99={self.p99:,} goodput={self.goodput}/Gcyc>")


def _normalize_plan(autoscale, nnodes):
    """Validate an autoscale plan into a sorted ((start, nactive), ...)."""
    if autoscale is None:
        return ((0, nnodes),)
    plan = tuple(sorted((int(start), int(nactive))
                        for start, nactive in autoscale))
    if not plan or plan[0][0] != 0:
        raise ValueError("autoscale plan must begin at cycle 0")
    for _, nactive in plan:
        if not 1 <= nactive <= nnodes:
            raise ValueError(
                f"autoscale step {nactive} outside 1..{nnodes}")
    return plan


def _active_at(plan, t):
    """Active node count of the latest plan step at or before ``t``."""
    nactive = plan[0][1]
    for start, count in plan:
        if start > t:
            break
        nactive = count
    return nactive


def _fork_request(g, rid, vnode):
    """Fork request ``rid``'s child onto virtual node ``vnode``, carrying
    a snapshot of the serving share (the dispatcher migrates there —
    dispatch cost *is* migration cost)."""
    ref = child_ref(REQ_LOCAL_BASE + rid, node=vnode)
    addr, size = workload.SHARE
    g.kcharge(g.cost.fork_image_pages * g.cost.page_map)
    g.put(ref, regs={"entry": workload.serve_request, "args": (rid,)},
          copy=(addr, size), snap=(addr, size), start=True)
    return ref


def _join_request(g, ref):
    g.kcharge(g.cost.fork_image_pages * g.cost.page_scan)
    return g.get(ref, regs=True, merge=True)["r0"]


def _advance_lag(machine, uid, state):
    """Accumulate the dispatcher's *schedule-time lag*: link delays on
    transfers it waited for (its own MIGRATE hops, mostly), which move
    it through schedule time without touching its program clock.

    Deterministic — read straight off the append-only trace.  Transfers
    of one message lay one link edge per route hop into the same
    destination segment, and the destination waits for the slowest, so
    per (src, dst) pair the delay is the max of ``busy + latency``.
    The estimate is a lower bound (link contention and rendezvous waits
    are not in it); anything unabsorbed surfaces as queueing latency,
    which is the honest open-loop outcome.
    """
    transfers = machine.trace.transfers
    segments = machine.trace.segments
    best = {}
    for i in range(state["idx"], len(transfers)):
        src, dst, _link, busy, latency, _cls, _kind = transfers[i]
        if segments[dst].uid == uid:
            delay = busy + latency
            if delay > best.get((src, dst), -1):
                best[(src, dst)] = delay
    state["idx"] = len(transfers)
    state["lag"] += sum(best.values())
    return state["lag"]


def _dispatch(g, machine, arrivals, plan, refs_out, values_out):
    """The dispatcher guest: open-loop dispatch of the whole trace.

    Paced by the dispatcher's *program clock* plus its accumulated
    schedule-time lag (:func:`_advance_lag`): if the next arrival is
    still in the future it sleeps the gap away (a no-CPU timer wait —
    ``Trace.sleep`` — so colocated request children are not starved);
    if it has fallen behind — migration hops, drain joins — it
    dispatches immediately and the request eats the delay as queueing
    latency.  Round-robin over the currently active nodes; scale-in
    steps drain the leaving nodes' outstanding requests first.
    """
    workload.publish_inputs(g)
    outstanding = []     # (rid, ref, vnode), dispatch order
    dispatched = 0
    slept = 0
    nactive_prev = _active_at(plan, 0)
    lag_state = {"idx": 0, "lag": 0}
    for rid, arrival in enumerate(arrivals):
        now = (machine.trace.charged(g.uid) + slept
               + _advance_lag(machine, g.uid, lag_state))
        if arrival > now:
            machine.trace.sleep(g.uid, arrival - now, label="arrival-wait")
            slept += arrival - now
        nactive = _active_at(plan, arrival)
        if nactive < nactive_prev:
            # Drain: collect every outstanding request on nodes leaving
            # the active set (the dispatcher rides the delta-migration
            # path out to each and back — a real drain bubble).
            keep = []
            for orid, oref, ovnode in outstanding:
                if ovnode >= nactive:
                    values_out[orid] = _join_request(g, oref)
                else:
                    keep.append((orid, oref, ovnode))
            outstanding = keep
        nactive_prev = nactive
        vnode = dispatched % nactive
        dispatched += 1
        ref = _fork_request(g, rid, vnode)
        refs_out[rid] = ref
        outstanding.append((rid, ref, vnode))
    for orid, oref, _ in outstanding:
        values_out[orid] = _join_request(g, oref)
    return workload.fold_checksum(
        values_out[rid] for rid in range(len(arrivals)))


def serve_trace(nnodes, spec=None, requests=160, mean_gap=240_000, seed=11,
                autoscale=None):
    """Serve a deterministic open-loop request trace on the cluster.

    ``requests`` arrivals are drawn by
    :func:`repro.bench.workloads.serving.make_arrivals` (Poisson at one
    request per ``mean_gap`` cycles, shaped by the ``DIURNAL`` profile)
    and dispatched across ``nnodes`` nodes configured by ``spec``.
    ``autoscale`` optionally steps the active node count mid-trace.

    Returns a :class:`ServingResult`.  For one seed the entire latency
    table is bit-identical across runs and platforms; across *different*
    seeds the per-request values are identical (values depend only on
    rids) while the latency table moves — arrival timing is cost-only.
    """
    if requests > MAX_REQUESTS:
        raise ValueError(f"at most {MAX_REQUESTS} requests per trace")
    arrivals = workload.make_arrivals(requests, mean_gap, seed)
    plan = _normalize_plan(autoscale, nnodes)
    machine = Machine(nnodes=nnodes, spec=spec)
    refs = {}
    values = {}

    def main(g):
        return _dispatch(g, machine, arrivals, plan, refs, values)

    with machine:
        result = machine.run(main, ncpus=NODE_CPUS).check("serving trace")
        finish = schedule(machine.trace, ncpus=NODE_CPUS).finish
        finish_by_uid = {}
        for seg in machine.trace.segments:
            t = finish[seg.id]
            if t > finish_by_uid.get(seg.uid, -1):
                finish_by_uid[seg.uid] = t
        latencies = []
        for rid, arrival in enumerate(arrivals):
            uid = machine.root.children[refs[rid]].uid
            latencies.append(finish_by_uid[uid] - arrival)
        span = max(finish_by_uid[machine.root.children[refs[rid]].uid]
                   for rid in range(requests)) - arrivals[0]
        return ServingResult(
            nnodes, machine.spec, arrivals, latencies,
            [values[rid] for rid in range(requests)], span, result)
