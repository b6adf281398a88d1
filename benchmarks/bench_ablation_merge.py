"""Ablation: merge conflict-handling strictness (the merge: DESIGN.md §2).

Strict mode (the paper's choice) flags a conflict whenever a byte
changed on both sides, even to the same value; lenient mode tolerates
identical concurrent writes; override mode (used by the deterministic
legacy scheduler) silences detection entirely.  This quantifies how much
detection work each mode performs on a write-heavy fork/join workload.
"""

from repro.common.errors import MergeConflictError
from repro.kernel import Machine
from repro.mem.layout import SHARED_BASE
from repro.runtime.threads import thread_fork, thread_join


def _workload(nthreads, writes_per_thread, overlap):
    """Threads write mostly-private slots; ``overlap`` adds same-value
    writes to a common location."""
    def worker(g, tid):
        base = SHARED_BASE + tid * 0x2000
        for i in range(writes_per_thread):
            g.store(base + 8 * i, tid * 1000 + i)
        if overlap:
            g.store(SHARED_BASE, 0xDEAD)   # same value from every thread
        return tid

    def main(g):
        conflicts = 0
        for tid in range(nthreads):
            thread_fork(g, tid + 1, worker, (tid,))
        for tid in range(nthreads):
            try:
                thread_join(g, tid + 1)
            except MergeConflictError:
                conflicts += 1
        return conflicts

    return main


def test_ablation_merge_modes():
    def run_all():
        results = {}
        for mode in ("strict", "lenient", "override"):
            with Machine(merge_mode=mode) as machine:
                result = machine.run(_workload(8, 64, overlap=True))
                results[mode] = {
                    "conflicts": result.r0,
                    "cycles": result.total_cycles(),
                }
        return results

    results = run_all()
    print()
    print("Merge-mode ablation (8 threads, same-value overlapping write):")
    for mode, stats in results.items():
        print(f"  {mode:10s} conflicts={stats['conflicts']} "
              f"cycles={stats['cycles']:,}")
    # Strict flags every joined thread after the first; lenient and
    # override accept identical values.
    assert results["strict"]["conflicts"] == 7
    assert results["lenient"]["conflicts"] == 0
    assert results["override"]["conflicts"] == 0
