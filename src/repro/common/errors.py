"""Exception hierarchy for the Determinator reproduction.

Two distinct families exist:

* *Host errors* (bugs in code using the library): subclasses of
  :class:`ReproError`, raised and propagated like normal Python exceptions.

* *Guest traps*: conditions that, on real Determinator, would stop a space
  and return a trap code to its parent (illegal access, merge conflict,
  instruction-limit expiry).  Inside guest code these are raised as
  exceptions; the kernel converts uncaught ones into a stopped space with
  a trap code, exactly as processor traps cause an implicit Ret (§3.2).
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# --------------------------------------------------------------------------
# Memory subsystem
# --------------------------------------------------------------------------

class MemoryError_(ReproError):
    """Base class for simulated-memory errors.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class PageFaultError(MemoryError_):
    """Access to an unmapped virtual address."""

    def __init__(self, addr, message=""):
        self.addr = addr
        super().__init__(message or f"page fault at {addr:#010x}")


class PermissionFault(MemoryError_):
    """Access violating the page permissions set via the Perm option."""

    def __init__(self, addr, needed, message=""):
        self.addr = addr
        self.needed = needed
        super().__init__(
            message or f"permission fault at {addr:#010x} (needed {needed})"
        )


class MergeConflictError(MemoryError_):
    """A byte changed in both parent and child since the reference snapshot.

    The paper treats this "as a programming error like an illegal memory
    access or divide-by-zero" (§3.2): the kernel raises it during a
    Get/Merge, and it surfaces in the *parent* space.
    """

    def __init__(self, addr, message=""):
        self.addr = addr
        super().__init__(
            message or f"write/write conflict at byte {addr:#010x}"
        )


# --------------------------------------------------------------------------
# Kernel
# --------------------------------------------------------------------------

class KernelError(ReproError):
    """Misuse of the kernel API detected by the simulated kernel."""


class BadChildError(KernelError):
    """A syscall referenced an invalid child number."""


class NetworkLossError(KernelError):
    """A cluster message exhausted its retransmission budget.

    Raised by the transport when a hop's deterministic loss schedule
    drops every copy of a message through ``cost.retx_limit`` retries —
    the link is effectively dead.  Deterministic like everything else:
    a given (schedule, program) pair either always raises or never
    does.
    """


class BackendError(KernelError):
    """The real-process backend (``ClusterSpec(backend="real")``) failed
    outside the simulated semantics: an incompatible spec, a worker
    process that died or hung mid-protocol, or a wire-level failure.

    The simulated state is never half-mutated by one of these — the
    coordinator aborts before adoption — but the run's results are
    gone, so the error propagates to the caller instead of falling
    back silently.
    """


class WireError(BackendError):
    """A malformed, truncated, corrupted, or timed-out frame on the real
    socket wire (``repro.cluster.realnet``).  Always raised as a typed
    error within the channel deadline — never a hang, never a raw
    ``struct``/``pickle``/``socket`` exception."""


class GuestKilled(BaseException):
    """Injected into a guest thread to unwind it when its space is destroyed.

    Derives from :class:`BaseException` so ordinary ``except Exception``
    handlers inside guest code cannot swallow it.
    """


# --------------------------------------------------------------------------
# User-level runtime
# --------------------------------------------------------------------------

class RuntimeApiError(ReproError):
    """Misuse of the user-level runtime (process/thread/file APIs)."""


class FileSystemError(RuntimeApiError):
    """Error from the user-level shared file system."""


class FileConflictError(FileSystemError):
    """Attempt to open a file whose conflict flag is set (§4.2)."""

    def __init__(self, name, message=""):
        self.name = name
        super().__init__(message or f"file {name!r} is marked conflicted")


class DeadlockError(RuntimeApiError):
    """The deterministic scheduler detected that no thread can make progress."""


# --------------------------------------------------------------------------
# Post-mortem debugger
# --------------------------------------------------------------------------

class DebugApiError(ReproError):
    """Misuse of the post-mortem inspector (repro.debug)."""


class ReplayDivergence(ReproError):
    """A deterministic re-execution produced a different trace than the
    original run — by construction impossible unless the program or the
    machine configuration changed between the runs, so the debugger
    refuses to present state from the divergent replay."""
