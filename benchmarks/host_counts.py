"""Exact host-work counts of one benchmark iteration: what a perf claim
states as a count as well as a time.

    python benchmarks/host_counts.py circuit_fat 1

runs one ``large`` iteration of a perfbench workload in this process,
through perfbench's own ``WORKLOADS[name].case()`` / ``.run()`` from the
checkout in the current directory, and prints one JSON line:

* ``handoffs_per_op`` — baton hand-offs to a guest thread (every
  release of a worker's ``go`` lock, the pool's retirement at
  ``Machine.close`` included) per operation of the workload;
* ``workers_started`` — guest worker threads the engine started;
* ``collections`` — gen-0/1/2 garbage collections during the run, from
  ``gc.callbacks`` (after a ``gc.collect()``, as perfbench times it);
* ``sizer_calls`` / ``sizer_pages`` — calls of the compression codec's
  sizer and the pages handed to it: ``compress.wire_sizes`` (one call
  per PAGE_BATCH load), or ``compress.wire_size`` (one page a call) in
  a checkout that predates it;
* ``loss_draws`` — ``LossSchedule.draw`` calls, one per wire copy a
  lossy fabric decides;
* ``inflight_claims`` — ``Transport.take_inflight`` calls: a demand
  miss's claims on its space's prefetch queue for the node;
* ``ledger_entries`` — dirty-ledger entries read: the vpns every
  ``AddressSpace.dirty_since`` call returns, summed (a Merge's, a
  re-Snap's and a migration delta's enumeration);
* ``wire_frames`` / ``wire_bytes`` — frames and bytes sent over the
  real backend's coordinator<->worker links, summed over
  ``machine.shard.wire_links`` (None where the run had no real
  coordinator);
* ``addrspace_unshipped`` — adopted subtrees whose hand-back shipped
  no address space (the run created no space and left every pre-fork
  one's in place; None without a real coordinator, and 0 from a
  checkout whose coordinator does not count them).

The program is observed from outside: :func:`counting` wraps each new
worker's ``go`` lock in a :class:`CountingLock` and the sizer, the
loss draw, the queue claim and the ledger query in counting wrappers,
so the program carries no counter.  An
iteration the workload's oracle rejects is refused, not counted.
"""

import contextlib
import gc
import json
import os
import sys


class CountingLock:
    """A lock that counts its releases of the lock it wraps."""

    def __init__(self, lock):
        self._lock = lock
        self.releases = 0

    def acquire(self, *args, **kwargs):
        return self._lock.acquire(*args, **kwargs)

    def release(self):
        self.releases += 1
        self._lock.release()


class Counts:
    """What :func:`counting` saw: the guest workers started, how many
    garbage collections of each generation ran, the codec sizer's calls
    and pages, the loss draws, the prefetch-queue claims and the ledger
    entries read."""

    def __init__(self):
        self.workers = []
        self.collections = [0, 0, 0]
        self.sizer_calls = 0
        self.sizer_pages = 0
        self.loss_draws = 0
        self.inflight_claims = 0
        self.ledger_entries = 0

    @property
    def handoffs(self):
        """Releases of a worker's ``go`` lock: each one hands the baton
        to a guest thread (or retires an idle worker)."""
        return sum(worker.go.releases for worker in self.workers)

    def collected(self, phase, info):
        if phase == "start":
            self.collections[info["generation"]] += 1


@contextlib.contextmanager
def counting():
    """Count guest hand-offs, worker starts, collections, codec sizings,
    loss draws, prefetch-queue claims and ledger entries read in the
    body.

    Yields a :class:`Counts`.  A worker started in the body has its
    ``go`` lock wrapped before any context reads it; a machine built
    inside the body must also be closed inside it."""
    from repro.cluster import compress, faults
    from repro.cluster.transport import Transport
    from repro.kernel import engine
    from repro.mem.addrspace import AddressSpace

    counts = Counts()
    start = engine._Worker.__init__
    batched = hasattr(compress, "wire_sizes")
    sizer_name = "wire_sizes" if batched else "wire_size"
    sizer = getattr(compress, sizer_name)
    draw = faults.LossSchedule.draw
    take_inflight = Transport.take_inflight
    dirty_since = AddressSpace.dirty_since

    def counted_start(worker, *args, **kwargs):
        start(worker, *args, **kwargs)
        worker.go = CountingLock(worker.go)
        counts.workers.append(worker)

    def counted_sizer(pages):
        counts.sizer_calls += 1
        counts.sizer_pages += len(pages) if batched else 1
        return sizer(pages)

    def counted_draw(schedule, *args, **kwargs):
        counts.loss_draws += 1
        return draw(schedule, *args, **kwargs)

    def counted_take_inflight(transport, *args):
        counts.inflight_claims += 1
        return take_inflight(transport, *args)

    def counted_dirty_since(space, token):
        since = dirty_since(space, token)
        counts.ledger_entries += len(since)
        return since

    engine._Worker.__init__ = counted_start
    setattr(compress, sizer_name, counted_sizer)
    faults.LossSchedule.draw = counted_draw
    Transport.take_inflight = counted_take_inflight
    AddressSpace.dirty_since = counted_dirty_since
    gc.collect()
    gc.callbacks.append(counts.collected)
    try:
        yield counts
    finally:
        gc.callbacks.remove(counts.collected)
        AddressSpace.dirty_since = dirty_since
        Transport.take_inflight = take_inflight
        faults.LossSchedule.draw = draw
        setattr(compress, sizer_name, sizer)
        engine._Worker.__init__ = start


def count(name, seed):
    """Counts of one ``large`` iteration of perfbench workload ``name``,
    or None where it cannot run on this host.  Raises ``RuntimeError``
    if the workload's oracle fails any of the iteration's operations."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    if workload.unavailable is not None and workload.unavailable():
        return None
    case = workload.case("large", seed)
    with counting() as counts:
        raw = workload.run(case.args)
    outcome = workload.judge(case, raw)
    if outcome.failed:
        raise RuntimeError(f"{name}: {outcome.failed} of {outcome.ops} "
                           f"operations failed ({outcome.reason}); "
                           f"not counted")
    return {"handoffs_per_op": counts.handoffs / outcome.ops,
            "workers_started": len(counts.workers),
            "collections": counts.collections,
            "sizer_calls": counts.sizer_calls,
            "sizer_pages": counts.sizer_pages,
            "loss_draws": counts.loss_draws,
            "inflight_claims": counts.inflight_claims,
            "ledger_entries": counts.ledger_entries,
            **wire_counts(getattr(raw, "machine", None))}


def wire_counts(machine):
    """``wire_frames`` and ``wire_bytes``: what every real-wire link of
    ``machine``'s coordinator carried, summed, and its
    ``addrspace_unshipped`` (all None without a real coordinator)."""
    shard = getattr(machine, "shard", None)
    links = getattr(shard, "wire_links", None)
    if links is None:
        return {"wire_frames": None, "wire_bytes": None,
                "addrspace_unshipped": None}
    return {"wire_frames": sum(link["frames"] for link in links.values()),
            "wire_bytes": sum(link["bytes"] for link in links.values()),
            "addrspace_unshipped": getattr(shard, "addrspace_unshipped", 0)}


if __name__ == "__main__":
    checkout = os.getcwd()
    sys.path[:0] = [os.path.join(checkout, "src"), checkout]
    print(json.dumps(count(sys.argv[1], int(sys.argv[2]))))
