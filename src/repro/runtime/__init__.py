"""Determinator's user-level runtime (paper §4).

Everything in this package is *guest code*: it runs inside spaces and
uses only the :class:`repro.kernel.guest.Guest` API, exactly as the real
runtime is unprivileged user-space code.  Kernel bugs excepted, nothing
here can break the kernel's determinism guarantee (§1).

Modules (import the one you use; the package loads none of them):

* :mod:`repro.runtime.fs` — the logically shared file system kept as a
  replica in every process image, with file versioning, reconciliation,
  append-only console/log merging and conflict flags (§4.2, §4.3).
* :mod:`repro.runtime.process` — fork/exec/wait with process-local PIDs
  and deterministic ``wait()`` (§4.1), plus hierarchical console I/O.
* :mod:`repro.runtime.threads` — shared-memory threads in the private
  workspace model via kernel Snap/Merge; fork/join and barriers (§4.4).
* :mod:`repro.runtime.dsched` — the deterministic scheduler emulating
  nondeterministic legacy pthreads with instruction-limit quanta and
  mutex-ownership stealing (§4.5).
* :mod:`repro.runtime.make` — a miniature parallel ``make`` used to
  reproduce the Figure 4 scheduling scenarios.
* :mod:`repro.runtime.shell` — a Unix-style shell on the process
  runtime (§5).
* :mod:`repro.runtime.checkpoint` — checkpoint/rollback of space
  subtrees via the kernel's Tree option.
"""
