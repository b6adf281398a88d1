"""Unix-style processes: fork / exec / wait / console I/O (paper §4.1, §4.3).

A *process* is a space running under this runtime with a full file-system
replica in its image.  The runtime provides:

* ``fork(fn, *args)`` — one Put call copies the parent's image into a
  child space and starts it.  PIDs come from a process-local counter, so
  "one process's PIDs are unrelated to, and may numerically conflict
  with, PIDs in other processes" (§4.1).
* ``waitpid(pid)`` — synchronizes with a child's Ret, services its I/O
  requests transparently, reconciles file systems, and returns its exit
  status.
* ``wait()`` — waits for "the earliest-forked child whose status was not
  yet collected": the deterministic replacement for Unix's
  first-to-finish wait (§4.1, Figure 4).
* ``exec(name, args)`` — replaces the program while carrying over the
  file system and PID state (§4.1).
* ``read_console``/``write_console`` — console I/O as file-system
  synchronization: output accumulates in the process's console-out file
  and propagates toward the root at sync points; input requests flow up
  the hierarchy via Ret until a process with I/O privileges (the root)
  asks the kernel's device (§4.3).

Divergence from the paper, documented in DESIGN.md: ``fork`` takes the
child's entry function (spawn semantics) because a Python guest cannot
return twice from the same call.
"""

from repro.common.errors import RuntimeApiError
from repro.kernel.traps import Trap
from repro.mem.layout import FS_BASE, SCRATCH_BASE, SHARED_BASE, SHARED_END
from repro.runtime import fs as fslib
from repro.runtime.fs import (
    CONSOLE_IN,
    CONSOLE_OUT,
    F_EOF,
    FileSystem,
    IMAGE_SIZE,
    NFILES,
    O_RDONLY,
    O_WRONLY,
    reconcile,
)

#: Ret status codes the runtime uses to talk to the parent runtime.
ST_IO_REQUEST = 0x7F01     # blocked reading console input
ST_SYNC = 0x7F02           # fsync: reconcile me and resume
ST_TIME = 0x7F03           # gettimeofday: parent supplies a timestamp

#: Child-number base for process children (leaves low numbers for the
#: application's own raw spaces).
_PROC_SLOT_BASE = 0x400

#: Where a child's image is staged inside the parent during reconciliation.
_CHILD_IMG = SCRATCH_BASE + 0x200_0000
#: Where fork stages the child's fresh superblock/base pages.
_STAGE = SCRATCH_BASE

#: Full image size, page aligned.
_IMAGE_BYTES = (IMAGE_SIZE + 0xFFF) & ~0xFFF


class _ExecImage(Exception):
    """Internal control-flow signal implementing exec().

    The argument vector is stored as ``argv`` because ``Exception.args``
    is reserved by the built-in exception machinery.
    """

    def __init__(self, name, argv):
        super().__init__(name)
        self.name = name
        self.argv = argv


class ProcessRuntime:
    """Per-process user-level runtime state (all persistent state lives in
    the simulated image, so it survives fork and exec)."""

    def __init__(self, g, fresh=False):
        self.g = g
        self.fs = FileSystem(g)
        if fresh:
            self.fs.format()
            self.fs.init_fd_table()
            # Conventional descriptors 0 (stdin) and 1 (stdout).
            self.fs.open(CONSOLE_IN, O_RDONLY)
            self.fs.open(CONSOLE_OUT, O_WRONLY)

    # -- properties ---------------------------------------------------------

    @property
    def is_root(self):
        """True when this process holds I/O privileges (the root)."""
        return self.g.space.io_privilege

    # -- fork ---------------------------------------------------------------

    def _slot(self, pid):
        return _PROC_SLOT_BASE + pid

    def fork(self, fn, *args):
        """Fork a child process running ``fn(rt, *args)``; returns its PID."""
        g = self.g
        sbu = self.fs._u32
        pid = sbu(fslib.SB_NEXT_PID)
        self.fs._set_u32(fslib.SB_NEXT_PID, pid + 1)
        slot = self._slot(pid)

        # One Put copies the entire parent image (shared region + file
        # system) into the child, copy-on-write (§4.1 "only one Put").
        g.put(
            slot,
            copy=[
                (SHARED_BASE, SHARED_END - SHARED_BASE),
                (FS_BASE, _IMAGE_BYTES),
            ],
        )

        # Stage the child's private superblock page (fresh PID namespace,
        # empty fork log) and base tables (versions/sizes as of this fork).
        stage = FileSystem(g, base=_STAGE)
        g.zero_range(_STAGE, 0x3000)
        stage._set_u32(fslib.SB_MAGIC, fslib.MAGIC)
        stage._set_u32(fslib.SB_NEXT_PID, 1)
        stage._set_u32(fslib.SB_FORK_COUNT, 0)
        stage._set_u32(fslib.SB_OUT_PUSHED, 0)
        for idx in range(NFILES):
            ver = self.fs.inode_version(idx)
            if ver or self.fs.inode_flags(idx):
                stage.set_base(idx, ver, self.fs.inode_size(idx))
        g.put(
            slot,
            copy=[
                (_STAGE + fslib.SB_OFF, FS_BASE + fslib.SB_OFF, 0x1000),
                (_STAGE + fslib.BASE_OFF, FS_BASE + fslib.BASE_OFF, 0x1000),
            ],
        )

        # Record the fork order (drives deterministic wait()).
        count = sbu(fslib.SB_FORK_COUNT)
        if count >= fslib.SB_FORK_LOG_MAX:
            raise RuntimeApiError("fork log full")
        g.store(FS_BASE + fslib.SB_FORK_LOG + 2 * count, pid, size=2)
        self.fs._set_u32(fslib.SB_FORK_COUNT, count + 1)

        g.put(slot, regs={"entry": _process_entry, "args": (fn, args)}, start=True)
        return pid

    # -- wait ---------------------------------------------------------------

    def waitpid(self, pid):
        """Wait for ``pid``, servicing its I/O requests; returns its status.

        Raises :class:`RuntimeApiError` if the child stopped on a fault.
        """
        g = self.g
        slot = self._slot(pid)
        while True:
            view = g.get(slot, regs=True)
            trap = view["trap"]
            if trap is Trap.EXIT:
                self._sync_child(slot, resume=False)
                self._collect(pid)
                return view["r0"]
            if trap is Trap.RET and view["status"] == ST_IO_REQUEST:
                self._sync_child(slot, resume=True, need_input=True)
                continue
            if trap is Trap.RET and view["status"] == ST_SYNC:
                self._sync_child(slot, resume=True)
                continue
            if trap is Trap.RET and view["status"] == ST_TIME:
                # Supply (or synthesize) a timestamp: this is the §2.1
                # interception point — override provide_time() to log,
                # replay, or fake time for a whole process subtree.
                g.put(slot, regs={"r1": self.provide_time()}, start=True)
                continue
            if trap is Trap.RET:
                # Plain exit via ret(status).
                self._sync_child(slot, resume=False)
                self._collect(pid)
                return view["status"]
            raise RuntimeApiError(
                f"child {pid} stopped on {trap.name}: {view['trap_info']}"
            )

    def wait(self):
        """Deterministic wait(): collect the earliest-forked pending child.

        Returns ``(pid, status)``.  This is the §4.1 semantics that gives
        'make -j2' the non-optimal-but-deterministic schedule of Fig. 4(d).
        """
        count = self.fs._u32(fslib.SB_FORK_COUNT)
        for i in range(count):
            pid = self.g.load(FS_BASE + fslib.SB_FORK_LOG + 2 * i, 2)
            if pid != 0xFFFF:
                return pid, self.waitpid(pid)
        raise RuntimeApiError("no children to wait for")

    def _collect(self, pid):
        count = self.fs._u32(fslib.SB_FORK_COUNT)
        for i in range(count):
            addr = FS_BASE + fslib.SB_FORK_LOG + 2 * i
            if self.g.load(addr, 2) == pid:
                self.g.store(addr, 0xFFFF, size=2)
                return

    # -- reconciliation ------------------------------------------------------

    def _sync_child(self, slot, resume, need_input=False):
        """Pull a stopped child's file system, reconcile, optionally push
        the merged image back and restart the child."""
        g = self.g
        g.get(slot, copy=(FS_BASE, _CHILD_IMG, _IMAGE_BYTES))
        child_fs = FileSystem(g, base=_CHILD_IMG)
        reconcile(self.fs, child_fs)
        if self.is_root:
            self.flush_console()
        if need_input:
            self._provide_input()
            # Propagate the fresh input into the child's image.
            reconcile(self.fs, child_fs)
        if resume:
            g.put(slot, copy=(_CHILD_IMG, FS_BASE, _IMAGE_BYTES))
            g.put(slot, start=True)

    def _provide_input(self):
        """Obtain new console input: from the device if we are the root,
        else by forwarding the request to our own parent (§4.3)."""
        g = self.g
        if self.is_root:
            data = g.console_read()
            idx = self.fs.lookup(CONSOLE_IN)
            if data:
                size = self.fs.inode_size(idx)
                self.fs.write_data(idx, size, data)
                self.fs.set_inode(idx, size=size + len(data))
                self.fs._bump_version(idx)
            else:
                flags = self.fs.inode_flags(idx)
                self.fs.set_inode(idx, flags=flags | F_EOF)
                self.fs._bump_version(idx)
        else:
            g.ret(status=ST_IO_REQUEST)
            # Parent has reconciled new input into our image; continue.

    # -- console I/O (libc layer) ------------------------------------------------

    def read_console(self, n=4096):
        """Read standard input (fd 0).

        On the real console this blocks via the hierarchy until data or
        EOF (§4.3); when fd 0 has been redirected (dup2) to a regular
        file, end of file is immediate EOF, as on Unix."""
        from repro.runtime.fs import F_CONSOLE_IN
        while True:
            data = self.fs.read(0, n)
            if data:
                return data
            inode = self.fs._fd_fields(0)[0]
            flags = self.fs.inode_flags(inode)
            if not flags & F_CONSOLE_IN or flags & F_EOF:
                return b""
            self._provide_input()

    def write_console(self, data):
        """Write to the console output file; the root pushes to the device
        immediately, others at the next synchronization point (§4.3)."""
        self.fs.write(1, data)
        if self.is_root:
            self.flush_console()

    def flush_console(self):
        """Root only: push unpushed console-out bytes to the kernel device."""
        if not self.is_root:
            return
        idx = self.fs.lookup(CONSOLE_OUT)
        size = self.fs.inode_size(idx)
        pushed = self.fs._u32(fslib.SB_OUT_PUSHED)
        if size > pushed:
            self.g.console_write(self.fs.read_data(idx, pushed, size - pushed))
            self.fs._set_u32(fslib.SB_OUT_PUSHED, size)

    def time(self):
        """gettimeofday(): an explicit nondeterministic input (§2.1).

        The root asks the kernel's clock device; everyone else asks its
        parent via Ret, so any supervising process can log, replay or
        synthesize the timestamps its subtree observes."""
        g = self.g
        if self.is_root:
            return g.time_now()
        g.ret(status=ST_TIME)
        return g.reg("r1")

    def provide_time(self):
        """Hook: the timestamp handed to a requesting child.  Subclass
        and override to intercept a subtree's notion of time."""
        return self.time()

    def fsync(self):
        """Request immediate output propagation toward the root (§4.3)."""
        if self.is_root:
            self.flush_console()
        else:
            self.g.ret(status=ST_SYNC)

    # -- exec -----------------------------------------------------------------------

    def exec(self, program_name, args=()):
        """Replace this process's program, keeping FS and PID state (§4.1).

        ``program_name`` must be registered with the machine (the
        program registry stands in for binaries on disk).  Never returns.
        """
        raise _ExecImage(program_name, tuple(args))


def _run_body(rt, fn, args):
    """Run a process body, handling exec chains.

    Returns the body's raw return value (the exit status by convention,
    but callers may transport arbitrary results through r0)."""
    while True:
        try:
            return fn(rt, *args)
        except _ExecImage as image:
            # Discard the old program's working memory; keep FS + PIDs.
            rt.g.zero_range(SHARED_BASE, SHARED_END - SHARED_BASE)
            fn = rt.g.machine.programs.get(image.name)
            if fn is None:
                raise RuntimeApiError(f"exec: no program {image.name!r}") from None
            args = image.argv


def _process_entry(g, fn, args):
    """Entry point of every forked process."""
    rt = ProcessRuntime(g)
    return _run_body(rt, fn, args)


def unix_root(fn, *args):
    """Wrap ``fn(rt, *args)`` as a machine root program with a formatted
    file system — the 'init' process.

    >>> from repro.kernel import Machine
    >>> def init(rt):
    ...     rt.write_console(b"hi\\n")
    >>> with Machine() as m:                      # doctest: +SKIP
    ...     m.run(unix_root(init))
    """
    def main(g):
        rt = ProcessRuntime(g, fresh=True)
        status = _run_body(rt, fn, args)
        rt.flush_console()
        return status

    return main
