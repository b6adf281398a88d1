"""Common parallel API so each workload is written exactly once.

The memory/compute surface (``work``, ``read``/``write``, typed loads,
array transfers) is identical on both backends by construction (the
:class:`~repro.kernel.guest.Guest` and
:class:`~repro.baseline.threadsim.LinuxThread` share it).  This module
adds the two parallel constructs the benchmarks need:

* ``fork_join(body, args_list)`` — run one child per argument tuple and
  collect their return values;
* ``parallel_rounds(nworkers, nrounds, body)`` — barrier-style phases:
  every worker runs ``body(api, tid, round)`` once per round, with all
  workers' shared-memory writes visible to everyone at the next round.

On Determinator these map to private-workspace thread fork/join and
barrier cycles (Snap/Merge); on the baseline to pthread create/join and
cheap barrier arrivals (workers re-dispatched per round, charged at
barrier cost rather than thread-creation cost).
"""

from repro.runtime.threads import ThreadGroup, barrier_arrive


class DetApi:
    """Determinator backend: private workspace threads (§4.4)."""

    kind = "determinator"

    def __init__(self, g):
        self.h = g
        self._spawn_tg = None
        self._spawn_seq = 0
        self._fork_joins = 0
        # Delegate the common memory/compute surface.
        for name in ("work", "alloc_work", "read", "write", "load", "store",
                     "array_read", "array_write", "charge"):
            setattr(self, name, getattr(g, name))

    def fork_join(self, body, args_list):
        """One private-workspace child per args tuple; merge at joins.
        Each call forks into fresh child slots, 64 past the last
        call's."""
        tg = ThreadGroup(self.h, base=0x100 + 64 * self._fork_joins)
        self._fork_joins += 1
        for tid, args in enumerate(args_list):
            tg.fork(_det_worker, (body, tid, tuple(args)))
        return tg.join_all()

    def spawn(self, body, args):
        """Start one child asynchronously; the caller keeps computing and
        must :meth:`join` the returned handle (tree-recursive workloads)."""
        if self._spawn_tg is None:
            self._spawn_tg = ThreadGroup(self.h, base=0x4000)
        seq = self._spawn_seq
        self._spawn_seq += 1
        return self._spawn_tg.fork(_det_worker, (body, seq, tuple(args)))

    def join(self, handle):
        """Join a spawned child, merging its shared-memory changes."""
        return self._spawn_tg.join(handle)

    def parallel_rounds(self, nworkers, nrounds, body):
        """Barrier phases via merge + re-snapshot cycles (§4.4)."""
        tg = ThreadGroup(self.h)
        for tid in range(nworkers):
            tg.fork(_det_round_worker, (body, tid, nrounds))
        return tg.run_barrier_rounds(max_rounds=nrounds + 1)


def _det_worker(g, body, tid, args):
    return body(DetApi(g), tid, *args)


def _det_round_worker(g, body, tid, nrounds):
    api = DetApi(g)
    value = None
    for round_ in range(nrounds):
        value = body(api, tid, round_)
        if round_ < nrounds - 1:
            barrier_arrive(g)
    return value


class LinuxApi:
    """Baseline backend: direct shared memory, pthreads costs."""

    kind = "linux"

    def __init__(self, lt):
        self.h = lt
        self._spawn_seq = 0
        for name in ("work", "alloc_work", "read", "write", "load", "store",
                     "array_read", "array_write", "charge"):
            setattr(self, name, getattr(lt, name))

    def fork_join(self, body, args_list):
        handles = [
            self.h.spawn(_linux_worker, (body, tid, tuple(args)))
            for tid, args in enumerate(args_list)
        ]
        return [self.h.join(handle) for handle in handles]

    def spawn(self, body, args):
        """pthread_create analogue of :meth:`DetApi.spawn`."""
        seq = self._spawn_seq
        self._spawn_seq += 1
        return self.h.spawn(_linux_worker, (body, seq, tuple(args)))

    def join(self, handle):
        return self.h.join(handle)

    def parallel_rounds(self, nworkers, nrounds, body):
        """Per-round dispatch charged at barrier cost (pthread_barrier),
        not thread-creation cost."""
        results = [None] * nworkers
        for round_ in range(nrounds):
            handles = [
                self.h.spawn(_linux_worker, (body, tid, (round_,)), light=True)
                for tid in range(nworkers)
            ]
            for tid, handle in enumerate(handles):
                results[tid] = self.h.join(handle, light=True)
        return results


def _linux_worker(lt, body, tid, args):
    return body(LinuxApi(lt), tid, *args)
