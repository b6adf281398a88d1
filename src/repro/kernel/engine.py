"""Guest execution engine: a host thread per *live guest stack*, exactly
one runnable at a time.

Real Determinator runs user code natively and regains control via traps.
We run guest Python functions on host threads and pass a single
*execution baton* between the kernel driver and guest threads: a guest
runs only between ``resume_and_wait`` and its next ``park``, so the
simulated system is single-threaded in effect and every scheduling
decision is made explicitly by the simulated kernel.  That, plus the
shared-nothing memory model, is what makes execution deterministic
(the Kahn-network argument of paper §3.2).

Host threads (not generators) are used because a space must be resumable
from arbitrarily deep inside guest code — e.g. when an instruction limit
preempts a thread in the middle of the deterministic scheduler's quantum
(§4.5) — which requires capturing the whole Python stack.  A space owns
a thread only while it has such a stack: from its first resume until its
entry function returns or traps.  The thread then goes back to the
engine's idle pool, and a restarted space takes whichever worker is free
(DESIGN.md §9, "Host cost").
"""

import threading

from repro.common.errors import (
    GuestKilled,
    MergeConflictError,
    PageFaultError,
    PermissionFault,
)
from repro.kernel.space import SpaceState
from repro.kernel.traps import Trap


class _Worker:
    """One engine-owned host thread and its baton: a pair of locks, both
    held except at the instant of a hand-off.  Releasing ``go`` lets the
    thread run, releasing ``back`` returns control to the kernel side.
    Between contexts the thread idles on ``go`` in the engine's pool."""

    def __init__(self, index):
        self.ctx = None
        self.go = threading.Lock()
        self.back = threading.Lock()
        self.go.acquire()
        self.back.acquire()
        self.thread = threading.Thread(
            target=self._loop, name=f"guest-{index}", daemon=True
        )
        self.thread.start()

    def _loop(self):
        while True:
            self.go.acquire()   # idle until bound to a context
            ctx = self.ctx
            if ctx is None:     # retired by Engine.shutdown
                return
            ctx._main()


class GuestContext:
    """One live guest stack: a space's entry function running on a
    borrowed worker thread, from its first resume until it unwinds."""

    def __init__(self, engine, space, make_guest):
        self.engine = engine
        self.space = space
        self._make_guest = make_guest
        self._worker = worker = engine._take_worker()
        self._go = worker.go
        self._back = worker.back
        engine._live[self] = None
        worker.ctx = self
        self._go.release()      # the worker enters _main ...
        self._back.acquire()    # ... and parks, awaiting the first resume

    # -- kernel side --------------------------------------------------------

    def resume_and_wait(self):
        """Hand the baton to the guest; return when it parks or unwinds."""
        self._go.release()
        self._back.acquire()

    def kill(self):
        """Unwind the guest stack (machine shutdown / space destruction)."""
        self.space.killed = True
        self._go.release()
        self._back.acquire()

    # -- guest side -----------------------------------------------------------

    def park(self):
        """Give the baton back to the kernel; return on next resume."""
        self._back.release()
        self._go.acquire()
        if self.space.killed:
            raise GuestKilled()

    def _die(self):
        """The stack is gone: unbind from the space, return the worker to
        the idle pool, and give the baton back for the last time.  The
        pool is touched only by the baton holder, so it needs no lock."""
        engine = self.engine
        self.space.ctx = None
        del engine._live[self]
        if self._worker is not None:
            engine._idle.append(self._worker)
        self._back.release()

    def _record_stop(self, trap, info="", state=SpaceState.STOPPED):
        """Record why the space stopped."""
        space = self.space
        # "A space has a home node, to which the space migrates when
        # interacting with its parent on a Ret or trap" (§3.3).
        if space.cur_node != space.home_node:
            self.engine.machine.kernel.migrate(space, space.home_node)
        space.trap = trap
        space.trap_info = info
        space.state = state
        # Close the current trace segment so the parent's wake-up can
        # depend on it; reopen for a potential resumption.
        trace = self.engine.machine.trace
        if trace.is_open(space.uid):
            trace.cut(space.uid, label=trap.name.lower())

    def _stop(self, trap, info=""):
        """Stop mid-stack (Ret, instruction limit): record why and park
        until the parent resumes the space."""
        self._record_stop(trap, info)
        self.park()

    # -- worker thread --------------------------------------------------------

    def _main(self):
        """Run the entry function once.  Exit and fault traps leave no
        stack to come back to, so they release the thread; a parent that
        restarts the space (exec, or resuming a trapped child from its
        entry) gets a fresh context."""
        try:
            self.park()  # wait for the first resume
            space = self.space
            try:
                guest = self._make_guest(space)
                entry = self.engine.machine.resolve_entry(space)
                args = space.regs["args"] or ()
                result = entry(guest, *args)
                if result is not None:
                    space.regs["r0"] = result
                self._record_stop(Trap.EXIT, state=SpaceState.EXITED)
            except MergeConflictError as exc:
                self._record_stop(Trap.CONFLICT, str(exc))
            except PermissionFault as exc:
                self._record_stop(Trap.PERM_FAULT, str(exc))
            except PageFaultError as exc:
                self._record_stop(Trap.PAGE_FAULT, str(exc))
            except GuestKilled:
                raise
            except BaseException as exc:  # noqa: BLE001 - trap semantics
                self._record_stop(Trap.EXC, f"{type(exc).__name__}: {exc}")
        except GuestKilled:
            pass
        except BaseException:
            self._worker = None   # this thread dies with the error: not reusable
            raise
        finally:
            self._die()


class Engine:
    """Owns the guest contexts and worker threads of one machine."""

    def __init__(self, machine):
        self.machine = machine
        #: Contexts with a live guest stack, oldest first.
        self._live = {}
        #: Workers not bound to any context.
        self._idle = []
        self._workers_started = 0

    def _take_worker(self):
        if self._idle:
            return self._idle.pop()
        self._workers_started += 1
        return _Worker(self._workers_started)

    def run_until_stopped(self, space):
        """Run ``space`` until it parks (Ret, trap, limit, or exit).

        May be called from the machine driver thread *or* from inside a
        guest thread performing a rendezvous: in both cases the caller
        holds the baton and blocks until the target gives it back.
        """
        if space.state is not SpaceState.READY:
            return
        space.started = True
        ctx = space.ctx
        if ctx is None:
            ctx = space.ctx = GuestContext(self, space, self.machine.make_guest)
        ctx.resume_and_wait()

    def after_fork(self):
        """In a forked child only the forking thread exists: forget every
        context and pooled worker, whose threads do not."""
        self._live = {}
        self._idle = []

    def shutdown(self):
        """Unwind every live guest stack, then retire the worker threads
        in one pass (idempotent)."""
        for ctx in list(self._live):
            ctx.kill()
        idle, self._idle = self._idle, []
        for worker in idle:
            worker.ctx = None
            worker.go.release()
        for worker in idle:
            worker.thread.join()
