"""A nondeterministic "Linux + pthreads" shared-memory simulator.

The point of this baseline is to be the denominator of Figures 7, 9 and
10: it runs the same workloads as Determinator but

* threads share one address space directly — no copy, snapshot, or merge
  costs at interactions;
* thread create/join charge kernel thread-system costs, including a
  *serialized* component proportional to the number of active cores
  (coarse model of runqueue/futex contention, cf. paper §6.2 and [54]);
* every execution segment's duration receives a small seeded jitter, so
  timing — and thus any timing-dependent behaviour — varies run to run
  (vary the seed to observe it) while remaining reproducible for a fixed
  seed, which is what a benchmark harness needs.

Logical execution is sequential (thread bodies run to completion in
spawn order); this is faithful for the data-race-free fork/join/barrier
workloads the evaluation uses, and the simulator makes no claim of
reproducing racy semantics (it reports timing, not races).
"""

from repro.common.detrandom import DeterministicRandom
from repro.mem.addrspace import AddressSpace
from repro.timing.model import CostModel
from repro.timing.schedule import schedule
from repro.timing.trace import Trace

import numpy as np


class LinuxResult:
    """Outcome of a :meth:`LinuxMachine.run`."""

    def __init__(self, machine, value):
        self.machine = machine
        #: The main thread's return value.
        self.value = value
        self.trace = machine.trace

    def makespan(self, ncpus=None):
        """Virtual completion time on ``ncpus`` CPUs."""
        if ncpus is None:
            ncpus = self.machine.ncpus
        return schedule(self.trace, ncpus=ncpus).makespan

    def total_cycles(self):
        return self.trace.total_cycles()


class LinuxThread:
    """Handle a baseline thread uses: memory, compute, spawn/join, barriers.

    Mirrors the Determinator :class:`~repro.kernel.guest.Guest` memory
    API closely enough that workloads can be written once against a
    common surface (see :mod:`repro.bench.workloads`).
    """

    def __init__(self, machine, uid):
        self.machine = machine
        self.uid = uid

    # -- accounting -----------------------------------------------------

    def charge(self, n):
        self.machine.trace.charge(self.uid, n)

    def work(self, n):
        """Model ``n`` instructions of computation."""
        self.charge(int(n))

    def alloc_work(self, n):
        """Model allocation-heavy computation: dilated by heap/futex
        contention as more cores are occupied (§2.4, [14], [54])."""
        machine = self.machine
        active = min(machine._threads_alive, machine.ncpus)
        dilation = 1.0 + machine.cost.malloc_contention * max(0, active - 1)
        self.charge(int(n * dilation))

    # -- shared memory (direct, no isolation) ----------------------------

    def read(self, addr, n):
        self.charge(6 + (n >> 4))
        return self.machine.mem.read(addr, n)

    def write(self, addr, data):
        self.charge(6 + (len(data) >> 4))
        self.machine.mem.write(addr, data)

    def load(self, addr, size=8, signed=False):
        return int.from_bytes(self.read(addr, size), "little", signed=signed)

    def store(self, addr, value, size=8):
        self.write(addr, int(value).to_bytes(size, "little", signed=value < 0))

    def array_read(self, addr, dtype, count):
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * count
        self.charge(6 + (nbytes >> 4))
        raw = self.machine.mem.read(addr, nbytes)
        return np.frombuffer(raw, dtype=dtype).copy()

    def array_write(self, addr, arr):
        self.write(addr, np.ascontiguousarray(arr).tobytes())

    # -- threads ---------------------------------------------------------

    def spawn(self, fn, args=(), light=False):
        """pthread_create: returns a joinable handle.

        ``light=True`` models re-dispatching an existing worker through a
        barrier (pthread_barrier wake) instead of clone(): it charges
        barrier costs and no thread-system contention.
        """
        machine = self.machine
        cost = machine.cost
        machine._threads_alive += 1
        if light:
            self.charge(2 * cost.lock_op)
        else:
            self.charge(cost.thread_create + machine.contention_penalty())
        closed, _ = machine.trace.cut(self.uid, label="spawn")
        tid = machine._next_tid()
        seg = machine.trace.begin(tid, label="thread")
        machine.trace.edge(closed, seg)
        child = LinuxThread(machine, tid)
        value = fn(child, *args)
        machine._jitter_segment(tid)
        end_seg = machine.trace.end(tid)
        return _Joinable(tid, end_seg, value)

    def join(self, handle, light=False):
        """pthread_join: returns the thread's value (``light`` as in spawn)."""
        machine = self.machine
        cost = machine.cost
        if light:
            self.charge(2 * cost.lock_op)
        else:
            self.charge(cost.thread_join + machine.contention_penalty())
        machine._threads_alive -= 1
        _, opened = machine.trace.cut(self.uid, label="join")
        machine.trace.edge(handle.end_seg, opened)
        return handle.value

    # -- synchronization ----------------------------------------------------

    def barrier(self):
        """Arrive at a barrier (cost only; logical barrier semantics are
        provided by the workloads' phase structure)."""
        self.charge(self.machine.cost.lock_op * 2)


class _Joinable:
    __slots__ = ("tid", "end_seg", "value")

    def __init__(self, tid, end_seg, value):
        self.tid = tid
        self.end_seg = end_seg
        self.value = value


class LinuxMachine:
    """One simulated Linux box with ``ncpus`` cores."""

    def __init__(self, cost=None, ncpus=None, seed=None):
        self.cost = cost or CostModel()
        self.ncpus = ncpus if ncpus is not None else self.cost.ncpus
        self.rng = DeterministicRandom(
            seed if seed is not None else self.cost.seed
        )
        self.mem = AddressSpace()
        self.trace = Trace()
        self._threads_alive = 1
        self._tid = 0

    def _next_tid(self):
        self._tid += 1
        return f"t{self._tid}"

    def contention_penalty(self):
        """Serialized thread-system cost growing with occupied cores [54]."""
        active = min(self._threads_alive, self.ncpus)
        return self.cost.runqueue_penalty * active

    def _jitter_segment(self, uid):
        """Dilate the open segment by the seeded schedule jitter."""
        sid, cycles = self.trace.current(uid), self.trace.segments.cycles
        cycles[sid] = int(self.rng.jitter(cycles[sid], self.cost.jitter))

    def run(self, main, args=()):
        """Run ``main(lt, *args)`` as the initial thread."""
        self.trace.begin("main", label="main")
        lt = LinuxThread(self, "main")
        value = main(lt, *args)
        self._jitter_segment("main")
        self.trace.finish()
        return LinuxResult(self, value)
