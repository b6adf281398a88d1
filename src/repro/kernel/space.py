"""Spaces: the kernel's only execution abstraction (paper §3.1).

A space holds CPU register state for a single control flow plus a private
virtual address space.  It can interact only with its immediate parent
and children, cannot outlive its parent, and has a private namespace of
child numbers managed entirely by user code.
"""

import enum

from repro.common.errors import KernelError
from repro.kernel.traps import Trap
from repro.mem.addrspace import AddressSpace

#: Register names every space carries.  ``entry``/``args`` stand in for
#: the instruction pointer + argument registers (a child starts at a named
#: function entry — see DESIGN.md on this divergence); ``r0``–``r7`` are
#: general-purpose value registers parents and children exchange; ``status``
#: is the conventional exit/status register.
REG_NAMES = ("entry", "args", "status", "r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7")


def fresh_regs():
    """A zeroed register file."""
    regs = {name: 0 for name in REG_NAMES}
    regs["entry"] = None
    regs["args"] = ()
    return regs


class SpaceState(enum.Enum):
    """Lifecycle of a space."""

    #: Created but never started.
    IDLE = "idle"
    #: Started and runnable (will execute when the kernel schedules it).
    READY = "ready"
    #: Stopped by Ret or a trap; parent may inspect and resume it.
    STOPPED = "stopped"
    #: Entry function returned; restartable with a fresh entry.
    EXITED = "exited"


class Space:
    """One node in the space hierarchy."""

    def __init__(self, machine, parent, uid, home_node=0):
        self.machine = machine
        self.parent = parent
        #: This space's number in ``parent.children`` (None until
        #: attached, and for the root): recorded so teardown and
        #: ``slot_path`` never search the parent's table.
        self.slot = None
        #: Stable identifier, used as the trace context id.
        self.uid = uid
        self.addrspace = AddressSpace(allocator=machine.frames)
        #: Child-number -> Space.  Numbers are chosen by user code (§2.4).
        self.children = {}
        self.regs = fresh_regs()
        #: Reference snapshot installed by the Snap option, used by Merge.
        self.snapshot = None
        self.state = SpaceState.IDLE
        self.trap = Trap.NONE
        #: Human-readable detail for fault traps (exception text).
        self.trap_info = ""
        #: Remaining instruction budget, or None for unlimited.
        self.insn_limit = None
        #: Node where this space was created; it returns here to meet its
        #: parent (§3.3).
        self.home_node = home_node
        #: Node where the space currently executes.
        self.cur_node = home_node
        #: node -> dirty-ledger clock when this space last left that
        #: node.  Migration back ships only pages written since (the
        #: ledger-driven delta); nodes never visited need a full
        #: tag-filtered walk instead.
        self.visit_tokens = {}
        #: True only for the root space (and spaces explicitly delegated
        #: I/O privileges): may invoke device pseudo-calls.
        self.io_privilege = False
        #: Set when the machine is shutting down; unwinds the guest thread.
        self.killed = False
        #: True once the engine has run this space, however it stopped.
        self.started = False
        #: Guest execution context while the space has a live guest
        #: stack (bound by the engine, cleared when the stack unwinds).
        self.ctx = None

    # -- hierarchy ---------------------------------------------------------

    @property
    def is_root(self):
        return self.parent is None

    def child(self, num):
        """The child space at ``num``, or None."""
        return self.children.get(num)

    def attach(self, num, child):
        """Enter ``child`` (created with this space as parent) in the
        child table at ``num`` — the table's only writer."""
        child.slot = num
        self.children[num] = child

    def depth(self):
        """Distance from the root space."""
        d, s = 0, self
        while s.parent is not None:
            d, s = d + 1, s.parent
        return d

    def walk(self):
        """Yield this space and all descendants, depth-first."""
        yield self
        for num in sorted(self.children):
            yield from self.children[num].walk()

    def slot_path(self):
        """Child numbers from the root down to this space (``[]`` for
        the root) — the address a parent chain uses to reach it, and the
        symbolic name the debugger prints next to the uid."""
        path, space = [], self
        while space.parent is not None:
            if space.parent.children.get(space.slot) is not space:
                raise KernelError(
                    f"space {self.uid} detached from parent {space.parent.uid}")
            path.append(space.slot)
            space = space.parent
        path.reverse()
        return path

    # -- state -------------------------------------------------------------

    def is_stopped(self):
        """True if a parent may safely inspect/modify this space."""
        return self.state in (SpaceState.IDLE, SpaceState.STOPPED, SpaceState.EXITED)

    def set_regs(self, updates):
        """Apply a Put/Regs update (validated against the register file)."""
        for name, value in updates.items():
            if name not in self.regs:
                raise KernelError(f"unknown register {name!r}")
            self.regs[name] = value

    def reg_view(self):
        """Copy of the register file plus stop metadata (for Get/Regs)."""
        view = dict(self.regs)
        view["trap"] = self.trap
        view["trap_info"] = self.trap_info
        return view

    def destroy(self):
        """Tear down this space and every descendant (unwind live guest
        stacks, release memory and snapshots)."""
        # Detach the whole table first: each child then finds nothing
        # of itself to remove, so a fan-out of n tears down in O(n).
        children, self.children = self.children, {}
        for child in children.values():
            child.destroy()
        self.killed = True
        if self.ctx is not None:
            self.ctx.kill()
            self.ctx = None
        if self.snapshot is not None:
            self.snapshot.release()
            self.snapshot = None
        self.addrspace.drop_all()
        parent = self.parent
        if parent is not None and parent.children.get(self.slot) is self:
            del parent.children[self.slot]

    def __repr__(self):
        return (
            f"<Space {self.uid} {self.state.value} trap={self.trap.name} "
            f"node={self.cur_node} children={len(self.children)}>"
        )
