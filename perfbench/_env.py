"""Process environment of a benchmark run: import path and CPU pinning.

Stdlib only, and imported before numpy: OpenBLAS sizes its thread pool
from the affinity mask it finds at load time.
"""

import contextlib
import os
import sys
from pathlib import Path

#: Root of the checkout (the directory that holds ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent


def ensure_paths():
    """Make ``perfbench`` and the program under ``src/`` importable."""
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


@contextlib.contextmanager
def pinned():
    """Run the body on one CPU; yields ``(cpu, allowed)``: that CPU's
    number (None where the platform cannot pin) and the mask found.

    Guest threads pass a single baton, so they never run in parallel
    anyway — but on a small VM the kernel may place them on different
    vCPUs, and then every hand-off costs a cross-CPU wake-up.  Measured
    on the 2-vCPU reference box: the same ``Condition`` ping-pong takes
    8 us per round trip when both threads share a CPU and 70 us when
    they do not, and which regime a process is in flips between runs
    (README, "Noise").  Pinning removes the second regime.  Child
    processes inherit the mask.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield None, ()
        return
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:         # a sandbox that forbids it: run unpinned
        yield None, allowed
        return
    try:
        yield cpu, allowed
    finally:
        os.sched_setaffinity(0, allowed)
