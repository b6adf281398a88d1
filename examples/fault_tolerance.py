#!/usr/bin/env python
"""Fault tolerance from determinism: checkpoint, crash, roll back, replay.

The paper's opening claim: "Determinism is the foundation of replay
debugging, fault tolerance, and accountability mechanisms."  This
example makes it concrete with the debugger's ``fault-tolerance``
scenario (``repro.debug.scenarios``):

1. a long computation runs in a child space, parking at epoch
   boundaries; the supervisor checkpoints the child's whole subtree
   every epoch (one Tree-copy; copy-on-write, so cheap);
2. a fault is injected mid-run (a poisoned input page -> guest
   exception, reliably trapped like division by zero);
3. the supervisor rolls back to the last good checkpoint — which
   predates the poisoned input — and replays;
4. deterministic execution reaches exactly the answer the fault-free
   run would have produced.

The post-mortem is done with the time-travel debugger: the finished
machine is opened with an :class:`~repro.debug.Inspector`, which
summarises the run, backtraces the crashed space, diffs the checkpoints
either side of the crash at page granularity, and replays to the crash
cycle to inspect the trapped state in place (``docs/debugging.md`` is
the guided tour).

Run:  python examples/fault_tolerance.py
"""

from repro.debug import Inspector, render
from repro.debug.scenarios import INJECT_AT_EPOCH, fault_tolerance

if __name__ == "__main__":
    insp = Inspector.from_recipe(fault_tolerance)
    try:
        print(insp.result.console.decode(), end="")

        # The finished machine is a complete debugging artifact; the
        # inspector reads the trap, the checkpoints, and the trace out
        # of it instead of us hand-rolling prints.
        print()
        print("== post-mortem: summary ==")
        print("\n".join(render.format_summary(insp)))

        crash = insp.traps()[0]
        print()
        print(f"== backtrace of {crash.uid} (crashed at cycle "
              f"{crash.cycle}) ==")
        print("\n".join(render.format_backtrace(insp, crash.uid, limit=4)))

        # Page-granular diff of the checkpoints either side of the
        # crash: epoch-4 predates it, epoch-5 was saved after rollback
        # and replay.  Exactly one page differs — the progress
        # page advanced one clean epoch; the poison left no trace in
        # any checkpoint because the crash preempted its save.
        before = f"epoch-{INJECT_AT_EPOCH - 1}"
        after = f"epoch-{INJECT_AT_EPOCH}"
        print()
        print(f"== checkpoint diff: {before} -> {after} ==")
        print("\n".join(render.format_diff(insp.diff(before, after),
                                           before, after)))

        # Time travel: replay deterministically to the crash cycle and
        # inspect the trapped state in place (bit-identity asserted
        # against the original trace).
        print()
        print(f"== goto cycle {crash.cycle}: the machine at the "
              f"moment of the crash ==")
        print("\n".join(render.format_goto(insp.goto(crash.cycle))))

        print()
        print("exit status:", insp.result.r0)
    finally:
        insp.machine.close()
