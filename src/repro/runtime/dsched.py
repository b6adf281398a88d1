"""Deterministic scheduling of legacy (pthreads-style) code (paper §4.5).

For code written with *nondeterministic* synchronization (mutexes), the
process's master space never runs application code: it acts as a
deterministic scheduler.  Each application thread runs in a child space
and is preempted by the kernel's **instruction limit** after a fixed
quantum; shared-memory changes propagate only at quantum boundaries via
Merge (a weak consistency model ordering only synchronization
operations, like DMP-B).

Mutexes follow the paper's ownership protocol: a mutex is always *owned*
by some thread; the owner locks and unlocks without scheduler
interaction (plain stores to its private working copy, merged at quantum
end); any other thread needing the mutex invokes the scheduler via Ret,
and the scheduler *steals* the mutex from its owner at the owner's next
quantum boundary if it is unlocked, else queues the requester.

The master is a scaling bottleneck unless quanta are large (§4.5) — and
that serial per-round merge work is exactly what reproduces the ~35 %
deterministic-scheduling overhead of blackscholes in Figure 7.
"""

from repro.common.errors import DeadlockError, RuntimeApiError
from repro.kernel.traps import Trap
from repro.mem.layout import SHARED_BASE, SHARED_END
from repro.runtime.threads import image_map_cost, image_track_cost

#: Scheduler-call Ret status; the operation is in r1, its argument in r2.
ST_SCHED = 0x7D01

OP_LOCK = 1
OP_YIELD = 2
OP_COND_WAIT = 3
OP_COND_SIGNAL = 4
OP_COND_BROADCAST = 5

#: Number of condition variables (ids are small integers, like mutexes).
NCOND = 1024

#: Mutex table lives at the top of the shared region (16 bytes per mutex:
#: owner word, locked word), so lock state merges like any shared data.
NMUTEX = 1024
MUTEX_TABLE = SHARED_END - 0x10_0000

#: Default quantum: 10 million instructions, the paper's choice (§6.2).
DEFAULT_QUANTUM = 10_000_000


def _mutex_addr(mid):
    if not 0 <= mid < NMUTEX:
        raise RuntimeApiError(f"mutex id {mid} out of range")
    return MUTEX_TABLE + mid * 16


class DetThread:
    """Guest-side handle a scheduled thread uses for synchronization."""

    def __init__(self, g, tid):
        self.g = g
        #: This thread's index under the deterministic scheduler.
        self.tid = tid

    def _sched_call(self, op, arg):
        self.g.ret(status=ST_SCHED, r1=op, r2=arg)

    def mutex_lock(self, mid):
        """Lock mutex ``mid`` (pthread_mutex_lock equivalent).

        Fast path: the mutex's owner locks with a plain private-copy
        store.  Slow path: ask the scheduler for ownership and return
        once granted (§4.5).
        """
        addr = _mutex_addr(mid)
        owner = self.g.load(addr, 4)
        if owner != self.tid + 1:
            self._sched_call(OP_LOCK, mid)
            # Resumed with a fresh snapshot in which we are the owner.
        self.g.store(addr + 4, 1, size=4)

    def mutex_unlock(self, mid):
        """Unlock mutex ``mid``; a plain store, scheduler-free."""
        self.g.store(_mutex_addr(mid) + 4, 0, size=4)

    def sched_yield(self):
        """Voluntarily end this thread's quantum."""
        self._sched_call(OP_YIELD, 0)

    def cond_wait(self, cid, mid):
        """pthread_cond_wait: release ``mid``, sleep on ``cid``, return
        holding ``mid`` again (re-granted by the scheduler)."""
        if not 0 <= cid < NCOND:
            raise RuntimeApiError(f"cond id {cid} out of range")
        self.g.store(_mutex_addr(mid) + 4, 0, size=4)   # release the mutex
        self._sched_call(OP_COND_WAIT, (cid << 16) | mid)
        # Resumed with mutex ownership re-granted; take the lock.
        self.g.store(_mutex_addr(mid) + 4, 1, size=4)

    def cond_signal(self, cid):
        """pthread_cond_signal: wake the longest-waiting thread."""
        self._sched_call(OP_COND_SIGNAL, cid)

    def cond_broadcast(self, cid):
        """pthread_cond_broadcast: wake every waiter."""
        self._sched_call(OP_COND_BROADCAST, cid)


class _ThreadState:
    __slots__ = ("tid", "childno", "entry", "args", "status", "result", "waiting")

    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    DONE = "done"

    def __init__(self, tid, childno, entry, args):
        self.tid = tid
        self.childno = childno
        self.entry = entry
        self.args = args
        self.status = self.RUNNABLE
        self.result = None
        self.waiting = None  # mutex id while BLOCKED


def _det_thread_entry(g, entry, tid, args):
    return entry(DetThread(g, tid), *args)


class DetScheduler:
    """The master-space deterministic scheduler."""

    def __init__(self, g, quantum=DEFAULT_QUANTUM, base=0x300,
                 share=(SHARED_BASE, SHARED_END - SHARED_BASE)):
        self.g = g
        self.quantum = quantum
        self.base = base
        self.share = share
        self._threads = []
        #: mutex id -> FIFO of blocked tids.
        self._mutex_queue = {}
        #: cond id -> FIFO of (tid, mutex id) sleepers.
        self._cond_queue = {}
        #: Rounds executed (tests/ablations read this).
        self.rounds = 0

    def spawn(self, entry, args=()):
        """Register a thread running ``entry(dt, *args)``; returns its tid."""
        tid = len(self._threads)
        self._threads.append(
            _ThreadState(tid, self.base + tid, entry, tuple(args))
        )
        return tid

    # -- scheduling rounds ---------------------------------------------------

    def run(self):
        """Run all spawned threads to completion; returns results by tid."""
        g = self.g
        addr, size = self.share
        started = set()
        while any(t.status != _ThreadState.DONE for t in self._threads):
            runnable = [t for t in self._threads if t.status == _ThreadState.RUNNABLE]
            if not runnable:
                blocked = {t.tid: t.waiting for t in self._threads
                           if t.status == _ThreadState.BLOCKED}
                raise DeadlockError(f"all threads blocked on mutexes: {blocked}")
            # Phase 1: start every runnable thread for one quantum.  All
            # quanta run logically concurrently (trace edges fan out from
            # this master segment).
            for t in runnable:
                regs = None
                if t.tid not in started:
                    started.add(t.tid)
                    regs = {
                        "entry": _det_thread_entry,
                        "args": (t.entry, t.tid, t.args),
                    }
                # First dispatch COW-maps the whole image; each further
                # quantum only re-snaps it, incrementally.
                if regs is not None:
                    g.kcharge(image_map_cost(g))
                else:
                    g.kcharge(image_track_cost(g))
                g.put(
                    t.childno,
                    regs=regs,
                    copy=(addr, size),
                    snap=(addr, size),
                    start=True,
                    limit=self.quantum,
                )
            # Phase 2: rendezvous with each, merging its quantum's writes.
            requests = []
            for t in runnable:
                # Override mode: racy legacy programs get a repeatable,
                # merge-order-defined outcome instead of a conflict (§4.5).
                view = g.get(t.childno, regs=True, merge=True, merge_mode="override")
                trap = view["trap"]
                if trap is Trap.EXIT:
                    t.status = _ThreadState.DONE
                    t.result = view["r0"]
                elif trap is Trap.INSN_LIMIT:
                    pass  # preempted mid-code; runs again next round
                elif trap is Trap.RET and view["status"] == ST_SCHED:
                    requests.append((t, view["r1"], view["r2"]))
                else:
                    raise RuntimeApiError(
                        f"thread {t.tid} stopped unexpectedly: {trap.name} "
                        f"{view['trap_info']}"
                    )
            # Phase 3: process synchronization ops in tid order, then
            # steal unlocked mutexes for queued waiters (§4.5).
            for t, op, arg in requests:
                if op == OP_YIELD:
                    continue
                if op == OP_LOCK:
                    t.status = _ThreadState.BLOCKED
                    t.waiting = arg
                    self._mutex_queue.setdefault(arg, []).append(t.tid)
                elif op == OP_COND_WAIT:
                    cid, mid = arg >> 16, arg & 0xFFFF
                    t.status = _ThreadState.BLOCKED
                    t.waiting = ("cond", cid)
                    self._cond_queue.setdefault(cid, []).append((t.tid, mid))
                elif op == OP_COND_SIGNAL:
                    self._wake_cond(arg, all_waiters=False)
                elif op == OP_COND_BROADCAST:
                    self._wake_cond(arg, all_waiters=True)
                else:
                    raise RuntimeApiError(f"unknown scheduler op {op}")
            self._grant_mutexes()
            self.rounds += 1
        return [t.result for t in self._threads]

    def _wake_cond(self, cid, all_waiters):
        """Move sleeper(s) from a condition queue to their mutex queues;
        they run again once the mutex is (re)granted, like any locker."""
        queue = self._cond_queue.get(cid, [])
        count = len(queue) if all_waiters else min(1, len(queue))
        for _ in range(count):
            tid, mid = queue.pop(0)
            thread = self._threads[tid]
            thread.waiting = mid
            self._mutex_queue.setdefault(mid, []).append(tid)

    def _grant_mutexes(self):
        """Transfer ownership of unlocked, contended mutexes (the steal)."""
        g = self.g
        for mid in sorted(self._mutex_queue):
            queue = self._mutex_queue[mid]
            if not queue:
                continue
            addr = _mutex_addr(mid)
            locked = g.load(addr + 4, 4)
            if locked:
                continue  # owner still holds it; steal at a later boundary
            new_owner = queue.pop(0)
            g.store(addr, new_owner + 1, size=4)
            thread = self._threads[new_owner]
            thread.status = _ThreadState.RUNNABLE
            thread.waiting = None


def det_pthreads_run(g, workers, quantum=DEFAULT_QUANTUM):
    """Convenience: run ``workers`` (list of (entry, args)) under the
    deterministic scheduler; returns their results."""
    sched = DetScheduler(g, quantum=quantum)
    for entry, args in workers:
        sched.spawn(entry, args)
    return sched.run()
