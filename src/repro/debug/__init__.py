"""Time-travel debugging over finished runs (``python -m repro.debug``).

Determinism makes a finished :class:`~repro.kernel.machine.Machine` a
*complete* debugging artifact: the trace holds every scheduling event,
the freezer holds every checkpoint, and — because re-execution is
bit-identical — any cycle of the run can be revisited by replaying up
to it.  This package is the inspector over all of that:

* :class:`~repro.debug.inspector.Inspector` — open a finished/trapped
  run; walk the space tree symbolically, print per-space backtraces,
  reconstruct per-link wire state at any cycle, diff checkpoints at
  page granularity, and ``goto(N)`` — replay to cycle N and inspect
  there (asserted bit-identical against the original trace).
* :mod:`~repro.debug.model` — frozen images (deep, COW-free copies) of
  spaces and machines; page-granular diffs over ``(serial,
  generation)`` content tags with batched ndarray byte compares.
* :mod:`~repro.debug.scenarios` — built-in re-runnable recipes (the
  ``--scenario`` CLI flag): the checkpoint/rollback workload and a
  retransmission-exhaustion trap.
* :mod:`~repro.debug.render` — deterministic text rendering shared by
  the CLI and the examples.

See ``docs/debugging.md`` for the guided tour.
"""

from repro.debug.inspector import (BacktraceFrame, GotoResult, Inspector,
                                   TrapEvent)
from repro.debug.model import (MachineImage, PageDelta, SpaceDiff,
                               SpaceImage, diff_pages,
                               first_difference, freeze_machine)
from repro.debug.scenarios import SCENARIOS, get_scenario

__all__ = [
    "BacktraceFrame",
    "GotoResult",
    "Inspector",
    "MachineImage",
    "PageDelta",
    "SCENARIOS",
    "SpaceDiff",
    "SpaceImage",
    "TrapEvent",
    "diff_pages",
    "first_difference",
    "freeze_machine",
    "get_scenario",
]
