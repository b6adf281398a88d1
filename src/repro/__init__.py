"""repro — a Python reproduction of **Determinator**:
Aviram, Weng, Hu & Ford, *Efficient System-Enforced Deterministic
Parallelism*, OSDI 2010.

The package rebuilds the paper's entire stack:

* :mod:`repro.mem` — simulated paged virtual memory: copy-on-write
  frames, snapshots, and the byte-granularity Merge with write/write
  conflict detection.
* :mod:`repro.kernel` — the three-syscall kernel (Put/Get/Ret with the
  full Table 2 option set), the space hierarchy, instruction limits,
  devices, and cross-node space migration.
* :mod:`repro.runtime` — the user-level runtime: Unix-style processes
  with a replicated, version-reconciled file system; private-workspace
  shared-memory threads; the deterministic legacy-pthreads scheduler;
  a parallel make.
* :mod:`repro.timing` — the deterministic virtual-time model all
  performance results come from.
* :mod:`repro.baseline` — the nondeterministic Linux/pthreads and
  distributed-memory comparison systems.
* :mod:`repro.bench` — the seven paper benchmarks and a generator for
  every figure and table in the evaluation.

Quickstart::

    from repro import Machine
    from repro.runtime.threads import thread_fork, thread_join
    from repro.mem.layout import SHARED_BASE

    def worker(g, i):
        g.store(SHARED_BASE + 8 * i, i * i)

    def main(g):
        for i in range(4):
            thread_fork(g, i + 1, worker, (i,))
        for i in range(4):
            thread_join(g, i + 1)
        return [g.load(SHARED_BASE + 8 * i) for i in range(4)]

    with Machine() as machine:
        result = machine.run(main)
        print(result.r0)                  # [0, 1, 4, 9] — every run
        print(result.makespan(ncpus=4))   # deterministic virtual time
"""

import importlib

from repro.common.errors import (
    BackendError,
    DeadlockError,
    FileConflictError,
    FileSystemError,
    KernelError,
    MergeConflictError,
    ReproError,
    RuntimeApiError,
    WireError,
)
from repro.kernel import Machine, MachineResult, Trap, child_ref
from repro.cluster.serving import ServingResult, serve_trace
from repro.cluster.spec import ClusterSpec
from repro.timing import CostModel

__version__ = "1.0.0"

#: Public names whose module loads on first use (PEP 562): a simulated
#: run never imports the real-process backend (DESIGN §9, "Start-up").
_LAZY = {name: "repro.cluster.backend"
         for name in ("RealRunResult", "run_backend")}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    return getattr(importlib.import_module(_LAZY[name]), name)

__all__ = [
    "Machine",
    "MachineResult",
    "Trap",
    "child_ref",
    "ClusterSpec",
    "serve_trace",
    "ServingResult",
    "RealRunResult",
    "run_backend",
    "CostModel",
    "ReproError",
    "KernelError",
    "BackendError",
    "WireError",
    "MergeConflictError",
    "RuntimeApiError",
    "FileSystemError",
    "FileConflictError",
    "DeadlockError",
    "__version__",
]
