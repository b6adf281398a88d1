"""Checkpoint/rollback of space subtrees via the kernel Tree option.

The paper's introduction motivates determinism as "the foundation of
replay debugging, fault tolerance and accountability": if execution is
deterministic, a checkpoint plus the input log *is* the recovery story.
This module provides that mechanism as user-level runtime code:

* a **freezer** child space whose own children hold frozen copies of
  computation subtrees (registers + memory + descendants, all
  copy-on-write, so checkpoints are cheap);
* ``save(slot, tag)`` — Tree-copy the caller's child into the freezer;
* ``restore(slot, tag)`` — Tree-copy a frozen image back over the child;
* combined with instruction limits, this quantizes a computation into
  checkpointable epochs (see ``examples/fault_tolerance.py``).

Because execution is deterministic, re-running from a restored
checkpoint reproduces the original execution exactly — including any
crash — unless the supervisor changes the subtree's inputs first.

**Restartability convention.**  Real Determinator freezes the CPU
register state mid-instruction; our register file holds function-entry
continuations (DESIGN.md), so a *restored* space restarts at its entry.
Checkpointable computations must therefore keep their progress in
simulated memory — which is exactly the state the freezer preserves —
and derive their position from it on entry (the standard
checkpoint-restart loop structure).  Spaces parked by instruction limits
that are *not* restored resume in place as usual.
"""

from repro.common.errors import RuntimeApiError

#: Child slot that hosts the freezer space.
FREEZER_SLOT = 0xF000

#: Freezer-space register that mirrors the tag -> child-number map.  The
#: freezer is pure storage (never started, never Tree-copied), so its
#: register file is free metadata space; the mirror makes a finished
#: machine's checkpoints enumerable *post mortem* (``repro.debug``)
#: without access to the live :class:`Checkpointer`.  Written host-side
#: — like :meth:`Checkpointer.drop`'s direct ``destroy()`` — so keeping
#: the directory costs no virtual time.
TAG_REGISTER = "r7"


class Checkpointer:
    """Manage frozen images of one space's children.

    Used from guest code::

        ckpt = Checkpointer(g)
        g.put(1, regs={...}, start=True, limit=QUANTUM)
        g.get(1, regs=True)              # child parked at the limit
        ckpt.save(1, "epoch-0")          # freeze it
        ...
        ckpt.restore(1, "epoch-0")       # roll back
        g.put(1, start=True, limit=QUANTUM)
    """

    def __init__(self, g):
        self.g = g
        #: tag -> freezer-child number.
        self._tags = {}
        self._next = 1
        #: tag -> pages the child dirtied since its previous save (None
        #: for a first save, or one after its address space was replaced).
        #: This is the incremental-checkpoint size a delta-encoded
        #: freezer would ship (DESIGN.md).
        self.delta_pages = {}
        #: child_slot -> dirty-ledger token at the last save.
        self._save_tokens = {}
        # Materialize the freezer space (never started; pure storage).
        g.put(FREEZER_SLOT)
        self._publish_tags()

    def _publish_tags(self):
        """Mirror the tag directory into the freezer space's
        :data:`TAG_REGISTER` (host-side; see the constant's docstring)."""
        freezer = self.g.space.children.get(FREEZER_SLOT)
        if freezer is not None:
            freezer.regs[TAG_REGISTER] = dict(self._tags)

    def _record_delta(self, child_slot, tag):
        """Record the dirty delta since the previous save of this slot."""
        child = self.g.space.children.get(child_slot)
        if child is None:
            return None
        aspace = child.addrspace
        prev = self._save_tokens.get(child_slot)
        delta = None
        # Tokens are bare clock values: only honor one minted by this
        # very address space (a Tree-copy or restore installs a fresh
        # clone with a fresh clock, making old tokens meaningless).
        if prev is not None and prev[0] is aspace:
            delta = len(aspace.dirty_since(prev[1]))
            # The ledger walk that sizes the delta.
            self.g.kcharge(delta * self.g.cost.page_track)
        self._save_tokens[child_slot] = (aspace, aspace.dirty_token())
        self.delta_pages[tag] = delta
        return delta

    def save(self, child_slot, tag):
        """Freeze the subtree at ``child_slot`` under ``tag``.

        The child must be stopped (Ret, trap, instruction limit, or
        exit); overwrites any previous checkpoint with the same tag.
        Records the dirty-page delta since the previous save of the same
        slot in :attr:`delta_pages`.
        """
        tagno = self._tags.get(tag)
        if tagno is None:
            tagno = self._next
            self._next += 1
        self.g.put(FREEZER_SLOT, tree=(child_slot, tagno))
        # Bookkeeping only after the Tree-copy succeeded: a failed save
        # (e.g. the child still running) must not advance the token or
        # record a delta for a checkpoint that never existed.
        self._record_delta(child_slot, tag)
        self._tags[tag] = tagno
        self._publish_tags()
        return tag

    def restore(self, child_slot, tag):
        """Replace ``child_slot``'s subtree with the frozen image."""
        tagno = self._tags.get(tag)
        if tagno is None:
            raise RuntimeApiError(f"no checkpoint tagged {tag!r}")
        self.g.get(FREEZER_SLOT, tree=(tagno, child_slot))
        # The restored child is a fresh clone with a fresh write clock;
        # the old token would misread as "nothing dirty".  Drop it so
        # the next save of this slot is a full one.
        self._save_tokens.pop(child_slot, None)

    def drop(self, tag):
        """Discard a checkpoint (frees its copy-on-write references)."""
        tagno = self._tags.pop(tag, None)
        if tagno is None:
            raise RuntimeApiError(f"no checkpoint tagged {tag!r}")
        freezer = self.g.space.children.get(FREEZER_SLOT)
        frozen = freezer.children.get(tagno) if freezer else None
        if frozen is not None:
            frozen.destroy()
        self._publish_tags()

    def tags(self):
        """Currently saved checkpoint tags, in save order."""
        return sorted(self._tags, key=self._tags.get)


# -- post-mortem enumeration (the debugger's entry points) -----------------

def find_freezers(root):
    """Every (owner_space, freezer_space) pair under ``root``.

    A freezer is recognized by its :data:`TAG_REGISTER` directory (a
    dict), which :class:`Checkpointer` maintains from construction on —
    so an empty freezer is still found.  Walk order is deterministic
    (depth-first, children by number).
    """
    out = []
    for space in root.walk():
        for num in sorted(space.children):
            child = space.children[num]
            if isinstance(child.regs.get(TAG_REGISTER), dict):
                out.append((space, child))
    return out


def checkpoint_tags(freezer):
    """Tags saved in ``freezer``, in save order (tagno order)."""
    directory = freezer.regs.get(TAG_REGISTER)
    if not isinstance(directory, dict):
        raise RuntimeApiError(
            f"space {freezer.uid} carries no checkpoint directory")
    return sorted(directory, key=directory.get)


def frozen_image(freezer, tag):
    """The frozen :class:`~repro.kernel.space.Space` saved under ``tag``."""
    directory = freezer.regs.get(TAG_REGISTER)
    tagno = directory.get(tag) if isinstance(directory, dict) else None
    frozen = freezer.children.get(tagno) if tagno is not None else None
    if frozen is None:
        raise RuntimeApiError(f"no checkpoint tagged {tag!r}")
    return frozen

