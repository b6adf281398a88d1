"""Nondeterministic baseline systems the paper compares against.

Import the module you use; the package loads neither.

* :mod:`repro.baseline.threadsim` — "pthreads on Ubuntu Linux": threads
  share one address space with no isolation costs; thread creation and
  joining pay a serialized thread-system cost that grows with core count
  (the runqueue/futex contention the paper suspects behind md5's poor
  Linux scaling [54]); segment timings carry seeded jitter, because real
  schedules are never exactly repeatable.

* :mod:`repro.baseline.distsim` — distributed-memory Linux equivalents
  for Figure 12: remote-shell-style workers (md5) and explicit TCP data
  shipping (matmult) over the same network model the cluster uses.
"""
