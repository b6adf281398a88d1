"""Benchmarks and figure regeneration (paper §6).

* :mod:`repro.bench.api` — a thin parallel-programming surface the
  workloads are written against once and executed on both Determinator
  (private workspace threads / deterministic scheduler) and the Linux
  baseline (direct shared memory).
* :mod:`repro.bench.workloads` — md5, matmult, qsort, blackscholes, fft,
  lu (contiguous and non-contiguous), reimplementing each benchmark's
  communication/synchronization pattern with real computation where
  cheap enough to verify results.
* :mod:`repro.bench.cluster_workloads` — md5-circuit, md5-tree and
  matmult-tree across cluster nodes via space migration (§6.3).
* :mod:`repro.bench.harness` — single-call runners returning virtual
  makespans.
* :mod:`repro.bench.figures` — one generator per paper figure/table.
"""

from repro.bench.harness import run_determinator, run_linux

__all__ = ["run_determinator", "run_linux"]
