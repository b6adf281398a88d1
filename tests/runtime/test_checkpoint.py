"""Checkpoint/rollback tests (Tree option, deterministic replay)."""


from repro.kernel import Machine, Trap
from repro.runtime.checkpoint import Checkpointer

A = 0x10_0000


def run(main, **kwargs):
    with Machine(**kwargs) as m:
        result = m.run(main)
    assert result.trap.name in ("EXIT", "RET"), result.trap_info
    return result


def _phased_counter(g, phases):
    """Increment a counter once per phase, parking between phases.

    Progress lives in simulated memory (the checkpoint-restart loop
    convention), so a restored image resumes where its memory says."""
    while True:
        count = g.load(A)
        if count >= phases:
            g.ret(status=0)
            continue
        g.store(A, count + 1)
        g.ret(status=1)


def test_save_restore_roundtrip():
    def main(g):
        g.put(1, regs={"entry": _phased_counter, "args": (5,)}, start=True)
        ckpt = Checkpointer(g)
        g.get(1)                        # phase 1 done, counter = 1
        ckpt.save(1, "after-1")
        for _ in range(2):              # run to counter = 3
            g.put(1, start=True)
            g.get(1)
        g.get(1, copy=(A & ~0xFFF, 0x1000))
        at_three = g.load(A)
        ckpt.restore(1, "after-1")
        g.get(1, copy=(A & ~0xFFF, 0x1000))
        restored = g.load(A)
        return (at_three, restored)

    assert run(main).r0 == (3, 1)


def test_replay_from_checkpoint_is_identical():
    def main(g):
        g.put(1, regs={"entry": _phased_counter, "args": (6,)}, start=True)
        ckpt = Checkpointer(g)
        g.get(1)
        ckpt.save(1, "base")

        def drive_to_completion():
            while True:
                view = g.get(1, regs=True)
                if view["status"] == 0:
                    g.get(1, copy=(A & ~0xFFF, 0x1000))
                    return g.load(A)
                g.put(1, start=True)

        first = drive_to_completion()
        ckpt.restore(1, "base")
        second = drive_to_completion()
        return (first, second)

    first, second = run(main).r0
    assert first == second == 6


def test_restore_unknown_tag_errors():
    def main(g):
        ckpt = Checkpointer(g)
        try:
            ckpt.restore(1, "ghost")
        except Exception as exc:
            return type(exc).__name__

    assert run(main).r0 == "RuntimeApiError"


def test_drop_releases_checkpoint():
    def main(g):
        g.put(1, regs={"entry": _phased_counter, "args": (2,)}, start=True)
        ckpt = Checkpointer(g)
        g.get(1)
        ckpt.save(1, "t")
        assert ckpt.tags() == ["t"]
        ckpt.drop("t")
        return ckpt.tags()

    assert run(main).r0 == []


def test_checkpoint_includes_descendants():
    """A Tree checkpoint freezes the whole subtree, grandchildren too."""
    def leafling(g):
        g.write(A, b"leaf-state")
        g.ret()

    def middle(g, phases):
        g.put(7, regs={"entry": leafling}, start=True)
        g.get(7)
        for _ in range(phases):
            g.ret(status=1)
        g.ret(status=0)

    def main(g):
        g.put(1, regs={"entry": middle, "args": (3,)}, start=True)
        ckpt = Checkpointer(g)
        g.get(1)
        ckpt.save(1, "full")
        # Destroy the live grandchild, then restore and inspect it.
        g.space.children[1].children[7].destroy()
        ckpt.restore(1, "full")
        grandchild = g.space.children[1].children[7]
        return bytes(grandchild.addrspace.read(A, 10))

    assert run(main).r0 == b"leaf-state"


def test_rollback_after_injected_crash():
    """The fault-tolerance story: crash, roll back, replay past the bug
    after fixing the input."""
    POISON = A + 0x100

    def fragile(g, phases):
        while True:
            if g.load(POISON):
                raise RuntimeError("hit poisoned input")
            count = g.load(A)
            if count >= phases:
                g.ret(status=0)
                continue
            g.store(A, count + 1)
            g.ret(status=1)

    def main(g):
        g.put(1, regs={"entry": fragile, "args": (4,)}, start=True)
        ckpt = Checkpointer(g)
        g.get(1)
        ckpt.save(1, "safe")
        # Poison the child's input: the next phase crashes.
        g.store(POISON, 1)
        g.put(1, copy=(A & ~0xFFF, 0x1000), start=True)
        crashed = g.get(1, regs=True)["trap"]
        # Recover: restore the checkpoint (pre-poison memory) and re-run.
        ckpt.restore(1, "safe")
        while True:
            g.put(1, start=True)
            view = g.get(1, regs=True)
            if view["status"] == 0:
                break
        g.get(1, copy=(A & ~0xFFF, 0x1000))
        return (crashed, g.load(A))

    crashed, final = run(main).r0
    assert crashed is Trap.EXC
    assert final == 4


def test_delta_accounting_tracks_dirty_pages_between_saves():
    def main(g):
        g.put(1, regs={"entry": _phased_counter, "args": (5,)}, start=True)
        ckpt = Checkpointer(g)
        g.get(1)                        # counter = 1
        ckpt.save(1, "e0")
        g.put(1, start=True)
        g.get(1)                        # counter = 2 (one page dirtied)
        ckpt.save(1, "e1")
        return (ckpt.delta_pages["e0"], ckpt.delta_pages["e1"])

    first, second = run(main).r0
    assert first is None                # first save of the slot: full
    assert second == 1                  # exactly the counter's page


def test_delta_accounting_resets_after_restore():
    """Regression: restore() installs a fresh clone with a fresh write
    clock, so the pre-restore token must be dropped — the next save is
    a full one, not a bogus zero-page delta."""
    def main(g):
        g.put(1, regs={"entry": _phased_counter, "args": (5,)}, start=True)
        ckpt = Checkpointer(g)
        g.get(1)
        ckpt.save(1, "e0")
        g.put(1, start=True)
        g.get(1)
        ckpt.save(1, "e1")
        ckpt.restore(1, "e0")
        g.put(1, start=True)
        g.get(1)                        # restored child dirties its page
        ckpt.save(1, "e2")
        return repr(ckpt.delta_pages["e2"])

    assert run(main).r0 == "None"


def test_failed_save_leaves_delta_bookkeeping_intact():
    """Regression: a save that fails (child still running) must not
    advance the delta token or record a delta for a checkpoint that was
    never taken."""
    from repro.common.errors import KernelError

    def main(g):
        g.put(1, regs={"entry": _phased_counter, "args": (5,)}, start=True)
        ckpt = Checkpointer(g)
        g.get(1)                        # counter = 1
        ckpt.save(1, "e0")
        g.put(1, start=True)            # child READY again
        try:
            ckpt.save(1, "bad")         # Tree-copy of a running space
        except KernelError:
            pass
        g.get(1)                        # counter = 2
        ckpt.save(1, "e1")
        return ("bad" in ckpt.delta_pages, ckpt.delta_pages["e1"])

    bad_recorded, delta = run(main).r0
    assert not bad_recorded
    assert delta == 1
