"""Shared-memory multithreading in the private workspace model (§4.4).

``thread_fork`` copies the shared region into a child space, snapshots
it, and starts the child; ``thread_join`` merges the child's changes back
into the parent, detecting write/write conflicts.  Reads therefore see
only causally-prior writes — the Figure 1 actor update pattern is
race-free — and concurrent writes to the same bytes are reliably reported
at the join, independent of any schedule.

``ThreadGroup`` adds the barrier pattern: "the parent calls Get with
Merge to collect each child's changes before the barrier, then calls Put
with Copy and Snap to resume each child with a new shared memory snapshot
containing all threads' prior results."

Thread stacks are host-Python stacks and thus automatically
thread-private, matching the paper's default placement of stacks outside
the shared region.
"""

from repro.common.errors import RuntimeApiError
from repro.kernel.traps import Trap
from repro.mem.layout import SHARED_BASE, SHARED_END

#: Default shared region (the heap + globals analogue).
DEFAULT_SHARE = (SHARED_BASE, SHARED_END - SHARED_BASE)

#: Ret status a child uses to announce it reached the barrier.
ST_BARRIER = 0x7E01


def image_map_cost(g):
    """Cycles to COW-map the program image's pages at a fresh fork.

    Copying the image's page mappings (text/data/runtime) is a fixed
    per-fork cost beyond the workload's own pages."""
    return g.cost.fork_image_pages * g.cost.page_map


def image_track_cost(g):
    """Cycles to find the program image's pages unchanged: one ledger
    probe per page (page_track), which is all a join's Merge or a
    barrier's incremental re-snap (Snapshot.recapture) spends on them —
    never a PTE scan or a fresh COW mapping."""
    return g.cost.fork_image_pages * g.cost.page_track


class ThreadFault(RuntimeApiError):
    """A joined thread stopped on a fault trap."""

    def __init__(self, childno, trap, info):
        self.childno = childno
        self.trap = trap
        super().__init__(f"thread {childno} faulted: {trap.name} ({info})")


def thread_fork(g, childno, entry, args=(), share=DEFAULT_SHARE, limit=None):
    """Fork a child thread: Copy + Snap + Regs + Start in one Put (§4.4)."""
    addr, size = share
    g.kcharge(image_map_cost(g))
    g.put(
        childno,
        regs={"entry": entry, "args": tuple(args)},
        copy=(addr, size),
        snap=(addr, size),
        start=True,
        limit=limit,
    )


def thread_join(g, childno, merge=True):
    """Join a child thread: Get with Merge collects its shared-memory
    changes; returns the child's r0 (its entry's return value).

    Write/write conflicts surface here as
    :class:`~repro.common.errors.MergeConflictError` — at the join of the
    second conflicting child, exactly as in the paper's §2.2 example.
    """
    g.kcharge(image_track_cost(g))
    view = g.get(childno, regs=True, merge=merge)
    trap = view["trap"]
    if trap not in (Trap.EXIT, Trap.RET):
        raise ThreadFault(childno, trap, view["trap_info"])
    return view["r0"]


def barrier_arrive(g, value=0):
    """Called by a child thread: stop at a barrier until released."""
    g.ret(status=ST_BARRIER, r0=value)


class ThreadGroup:
    """Manage a set of fork/join threads with optional barrier rounds.

    >>> def worker(g, i):          # doctest: +SKIP
    ...     g.store(SHARED_BASE + 8 * i, i)
    >>> tg = ThreadGroup(g)        # doctest: +SKIP
    >>> for i in range(4):
    ...     tg.fork(worker, (i,))
    >>> tg.join_all()
    """

    def __init__(self, g, base=0x100, share=DEFAULT_SHARE):
        self.g = g
        self.base = base
        self.share = share
        self._next = 0
        self._live = {}

    def fork(self, entry, args=(), limit=None):
        """Start a new thread; returns its thread id."""
        tid = self._next
        self._next += 1
        childno = self.base + tid
        thread_fork(self.g, childno, entry, args, self.share, limit)
        self._live[tid] = childno
        return tid

    def join(self, tid):
        """Join one thread (merging its changes); returns its result."""
        childno = self._live.pop(tid)
        return thread_join(self.g, childno)

    def join_all(self):
        """Join every live thread in tid order; returns their results."""
        return [self.join(tid) for tid in sorted(self._live)]

    # -- barriers ----------------------------------------------------------

    def run_barrier_rounds(self, max_rounds=None):
        """Drive threads through barrier rounds until all exit (§4.4).

        Each round: merge every thread's pre-barrier changes into the
        master, then hand every still-running thread a fresh snapshot of
        the combined state.  Returns the list of exit values in tid order.
        """
        results = {}
        rounds = 0
        addr, size = self.share
        while self._live:
            at_barrier = []
            for tid in sorted(self._live):
                childno = self._live[tid]
                self.g.kcharge(image_track_cost(self.g))
                view = self.g.get(childno, regs=True, merge=True)
                trap = view["trap"]
                if trap is Trap.EXIT:
                    results[tid] = view["r0"]
                    del self._live[tid]
                elif trap is Trap.RET and view["status"] == ST_BARRIER:
                    at_barrier.append(tid)
                else:
                    raise ThreadFault(childno, trap, view["trap_info"])
            for tid in at_barrier:
                childno = self._live[tid]
                # Re-snap over the image is incremental.
                self.g.kcharge(image_track_cost(self.g))
                self.g.put(
                    childno,
                    copy=(addr, size),
                    snap=(addr, size),
                    start=True,
                )
            rounds += 1
            if max_rounds is not None and rounds > max_rounds:
                raise RuntimeApiError(f"exceeded {max_rounds} barrier rounds")
        return [results[tid] for tid in sorted(results)]
