"""Guest-engine tests: baton passing, restarts, teardown."""

import threading

from repro.kernel import Machine, Trap, child_ref
from repro.kernel.kernel import Kernel
from repro.kernel.space import SpaceState


def run(main, **kwargs):
    with Machine(**kwargs) as m:
        result = m.run(main)
    assert result.trap.name in ("EXIT", "RET"), result.trap_info
    return result


def test_exited_space_restartable_with_new_entry():
    def first(g):
        return "first"

    def second(g):
        return "second"

    def main(g):
        g.put(1, regs={"entry": first}, start=True)
        a = g.get(1, regs=True)["r0"]
        g.put(1, regs={"entry": second}, start=True)
        b = g.get(1, regs=True)["r0"]
        return (a, b)

    assert run(main).r0 == ("first", "second")


def test_exited_space_restart_reruns_same_entry():
    def counter(g):
        # Each (re)start runs the entry fresh.
        return g.load(0x10_0000, 8) + 1

    def main(g):
        g.put(1, regs={"entry": counter}, start=True)
        first = g.get(1, regs=True)["r0"]
        g.put(1, start=True)
        second = g.get(1, regs=True)["r0"]
        return (first, second)

    assert run(main).r0 == (1, 1)


def test_machine_close_kills_parked_guests():
    machine = Machine()

    def child(g):
        g.ret()        # parks forever; nobody resumes
        return 0

    def main(g):
        g.put(1, regs={"entry": child}, start=True)
        g.get(1)       # rendezvous with the ret
        return 0

    machine.run(main)
    before = threading.active_count()
    machine.close()
    machine.close()    # idempotent
    # Guest threads unwind after kill.
    assert threading.active_count() <= before


def test_many_machines_no_thread_leak():
    def main(g):
        for i in range(4):
            g.put(i, regs={"entry": lambda g: 0}, start=True)
        for i in range(4):
            g.get(i)
        return 0

    baseline = threading.active_count()
    for _ in range(10):
        with Machine() as machine:
            machine.run(main)
    assert threading.active_count() <= baseline + 2


def test_deep_nesting_rendezvous():
    DEPTH = 12

    def nested(g, remaining):
        if remaining == 0:
            return 1
        g.put(1, regs={"entry": nested, "args": (remaining - 1,)}, start=True)
        return g.get(1, regs=True)["r0"] + 1

    def main(g):
        g.put(1, regs={"entry": nested, "args": (DEPTH,)}, start=True)
        return g.get(1, regs=True)["r0"]

    assert run(main).r0 == DEPTH + 1


def test_wide_fanout():
    def child(g, i):
        g.work(10)
        return i

    def main(g):
        n = 60
        for i in range(n):
            g.put(i, regs={"entry": child, "args": (i,)}, start=True)
        return sum(g.get(i, regs=True)["r0"] for i in range(n))

    assert run(main).r0 == sum(range(60))


def test_unjoined_children_drained_for_timing():
    def child(g):
        g.work(1_000_000)

    def main(g):
        g.put(1, regs={"entry": child}, start=True)
        return 0   # exit without joining

    with Machine() as machine:
        result = machine.run(main)
        # The drain ran the orphan; its work is in the trace.
        assert result.total_cycles() >= 1_000_000
        orphan = machine.root.children[1]
        assert orphan.state is SpaceState.EXITED


def test_child_fault_does_not_kill_parent():
    def bad(g):
        return 1 // 0

    def main(g):
        g.put(1, regs={"entry": bad}, start=True)
        view = g.get(1, regs=True)
        return (view["trap"], "parent alive")

    trap, msg = run(main).r0
    assert trap is Trap.EXC
    assert msg == "parent alive"


def test_guest_state_preserved_across_park_resume():
    """Local Python state survives Ret parking (full-stack continuation)."""
    def child(g):
        local_list = [1, 2]
        g.ret(status=1)
        local_list.append(3)
        g.set_reg("r0", sum(local_list))
        g.ret(status=2)

    def main(g):
        g.put(1, regs={"entry": child}, start=True)
        g.get(1)
        g.put(1, start=True)
        return g.get(1, regs=True)["r0"]

    assert run(main).r0 == 6


def _wander_home(g, entries):
    # Out to node 1 with a grandchild, then home on the way to the stop.
    entries.append(g.uid)
    ref = child_ref(1, node=1)
    g.put(ref, regs={"entry": lambda g2: None}, start=True)
    g.get(ref)
    return 7


def test_a_failed_way_home_traps_the_space_once(monkeypatch):
    # The kernel raises on the child's migration home (a host error, not
    # a lost message): the child stops on an EXC trap naming it, and
    # its entry ran exactly once — never left READY for the parent's
    # next rendezvous to run from its entry again.
    migrate = Kernel.migrate

    def failing_home(kernel, space, target):
        if space.parent is not None and target == space.home_node:
            raise RuntimeError("no way home")
        return migrate(kernel, space, target)

    monkeypatch.setattr(Kernel, "migrate", failing_home)
    entries, views = [], []

    def main(g):
        g.put(1, regs={"entry": _wander_home, "args": (entries,)},
              start=True)
        views.append(g.get(1, regs=True))
        views.append(g.get(1, regs=True))   # a second rendezvous

    outcome = []
    runner = threading.Thread(
        target=lambda: outcome.append(run(main, nnodes=2)), daemon=True)
    runner.start()
    runner.join(60)
    assert not runner.is_alive(), "the run hung"
    assert outcome, "the run raised (traceback above)"
    assert len(entries) == 1
    for view in views:
        assert view["trap"] is Trap.EXC
        assert view["trap_info"] == "RuntimeError: no way home"
