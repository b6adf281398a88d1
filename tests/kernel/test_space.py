"""Space hierarchy unit tests."""

import pytest

from repro.common.errors import KernelError
from repro.kernel import Machine
from repro.kernel.space import SpaceState, fresh_regs
from repro.kernel.traps import Trap as TrapEnum


def test_fresh_regs_layout():
    regs = fresh_regs()
    assert regs["entry"] is None
    assert regs["args"] == ()
    for name in ("r0", "r1", "r7", "status"):
        assert regs[name] == 0


def test_trap_is_fault_classification():
    assert TrapEnum.EXC.is_fault()
    assert TrapEnum.PAGE_FAULT.is_fault()
    assert TrapEnum.PERM_FAULT.is_fault()
    assert TrapEnum.CONFLICT.is_fault()
    assert not TrapEnum.RET.is_fault()
    assert not TrapEnum.EXIT.is_fault()
    assert not TrapEnum.INSN_LIMIT.is_fault()


def test_hierarchy_depth_and_walk():
    def leaf(g):
        return 0

    def mid(g):
        g.put(1, regs={"entry": leaf}, start=True)
        g.put(2, regs={"entry": leaf}, start=True)
        g.get(1)
        g.get(2)
        depths = [s.depth() for s in g.space.walk()]
        return (g.space.depth(), sorted(depths))

    def main(g):
        g.put(5, regs={"entry": mid}, start=True)
        return g.get(5, regs=True)["r0"]

    with Machine() as m:
        result = m.run(main)
    assert result.r0 == (1, [1, 2, 2])


def test_set_regs_validates_names():
    machine = Machine()
    space = machine.new_space(None)
    with pytest.raises(KernelError):
        space.set_regs({"bogus": 1})
    space.set_regs({"r0": 5})
    assert space.regs["r0"] == 5
    machine.close()


def test_reg_view_includes_trap_metadata():
    machine = Machine()
    space = machine.new_space(None)
    space.trap = TrapEnum.EXC
    space.trap_info = "oops"
    view = space.reg_view()
    assert view["trap"] is TrapEnum.EXC
    assert view["trap_info"] == "oops"
    # The view is a copy.
    view["r0"] = 99
    assert space.regs["r0"] == 0
    machine.close()


def test_destroy_unlinks_from_parent_and_releases_memory():
    def child(g):
        g.write(0x10_0000, b"data")
        g.ret()

    def main(g):
        g.put(1, regs={"entry": child}, start=True)
        g.get(1)
        target = g.space.children[1]
        target.destroy()
        return (1 in g.space.children, target.addrspace.mapped_page_count())

    with Machine() as m:
        result = m.run(main)
    assert result.r0 == (False, 0)


def test_is_stopped_states():
    machine = Machine()
    space = machine.new_space(None)
    assert space.is_stopped()          # IDLE
    space.state = SpaceState.READY
    assert not space.is_stopped()
    space.state = SpaceState.STOPPED
    assert space.is_stopped()
    space.state = SpaceState.EXITED
    assert space.is_stopped()
    machine.close()


def test_repr_is_informative():
    machine = Machine()
    space = machine.new_space(None)
    text = repr(space)
    assert "idle" in text and space.uid in text
    machine.close()


def test_slot_path_follows_recorded_slots_and_detects_detachment():
    def leaf(g):
        return 0

    def mid(g):
        g.put(9, regs={"entry": leaf}, start=True)
        g.get(9)
        return 0

    def main(g):
        g.put(7, regs={"entry": mid}, start=True)
        g.get(7)
        g.put(3, tree=(7, 4))      # Tree-copy child 7 into child 3's slot 4
        return 0

    with Machine() as m:
        m.run(main)
        root = m.root
        assert root.slot_path() == []
        assert root.children[7].children[9].slot_path() == [7, 9]
        clone = root.children[3].children[4]
        assert clone.slot == 4 and clone.children[9].slot_path() == [3, 4, 9]
        # A stale handle to a replaced space names no address any more.
        stale = root.children[7].children[9]
        del root.children[7].children[9]
        with pytest.raises(KernelError, match="detached"):
            stale.slot_path()
