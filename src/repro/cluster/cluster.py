"""Cross-node fork and join: the one Put/Get pair cluster programs use."""

from repro.kernel.traps import Trap
from repro.runtime.threads import ThreadFault


def fork_child(g, ref, share, entry, args):
    """Start ``entry(g, *args)`` in child ``ref`` (a ``child_ref``
    naming its node) with a snapshot of the ``(addr, size)`` share: one
    Put with Copy + Snap + Start, after COW-mapping the program image.
    The caller migrates to the child's node to do it (§3.3).  Returns
    ``ref``."""
    addr, size = share
    g.kcharge(g.cost.fork_image_pages * g.cost.page_map)
    g.put(ref, regs={"entry": entry, "args": tuple(args)},
          copy=(addr, size), snap=(addr, size), start=True)
    return ref


def join_child(g, ref):
    """Get with Merge from child ``ref``; returns its r0.

    A child that stopped on a fault trap — its entry raised, or the
    way home exhausted its retransmissions — raises
    :class:`~repro.runtime.threads.ThreadFault` here, as ``thread_join``
    does, so a fault never reads as a value."""
    g.kcharge(g.cost.fork_image_pages * g.cost.page_scan)
    view = g.get(ref, regs=True, merge=True)
    trap = view["trap"]
    if trap not in (Trap.EXIT, Trap.RET):
        raise ThreadFault(ref, trap, view["trap_info"])
    return view["r0"]
