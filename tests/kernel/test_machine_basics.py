"""Basic Machine / root-space behaviour."""

import pytest

from repro.common.errors import KernelError
from repro.kernel import Machine, Trap


def test_root_runs_and_returns_value():
    def main(g):
        return 42

    with Machine() as m:
        result = m.run(main)
    assert result.trap is Trap.EXIT
    assert result.r0 == 42


def test_console_output_collected():
    def main(g):
        g.console_write(b"hello ")
        g.console_write("world")
        return 0

    with Machine() as m:
        result = m.run(main)
    assert result.console == b"hello world"


def test_console_input_scripted():
    def main(g):
        data = g.console_read(5)
        g.console_write(data.upper())

    with Machine(console_input=b"abcde-rest") as m:
        result = m.run(main)
    assert result.console == b"ABCDE"


def test_time_device_scripted_then_ramp():
    seen = []

    def main(g):
        for _ in range(4):
            seen.append(g.time_now())

    with Machine(time_script=[100, 200]) as m:
        m.run(main)
    assert seen[:2] == [100, 200]
    assert seen[2] < seen[3]


def test_nonroot_cannot_touch_devices():
    def child(g):
        g.console_write(b"nope")

    def main(g):
        g.put(1, regs={"entry": child}, start=True)
        view = g.get(1, regs=True)
        return view["trap"]

    with Machine() as m:
        result = m.run(main)
    assert result.r0 is Trap.EXC
    assert result.console == b""


def test_grant_io_delegates_device_access():
    def child(g):
        g.console_write(b"delegated")

    def main(g):
        g.put(1, regs={"entry": child}, start=True, grant_io=True)
        g.get(1)

    with Machine() as m:
        result = m.run(main)
    assert result.console == b"delegated"


def test_uncaught_exception_becomes_exc_trap():
    def main(g):
        raise ValueError("boom")

    with Machine() as m:
        result = m.run(main)
    assert result.trap is Trap.EXC
    assert "boom" in result.trap_info


def test_machine_single_use():
    with Machine() as m:
        m.run(lambda g: 0)
        with pytest.raises(KernelError):
            m.run(lambda g: 0)


def test_status_register_via_ret():
    def main(g):
        g.ret(status=7)

    with Machine() as m:
        result = m.run(main)
    assert result.trap is Trap.RET
    assert result.status == 7


def test_debug_log_records_space_and_order():
    def child(g):
        g.debug("from child")

    def main(g):
        g.debug("before")
        g.put(1, regs={"entry": child}, start=True)
        g.get(1)
        g.debug("after")

    with Machine() as m:
        result = m.run(main)
    assert [line.split("] ")[1] for line in result.debug] == [
        "before",
        "from child",
        "after",
    ]


def test_work_accumulates_virtual_time():
    def main(g):
        g.work(12345)

    with Machine() as m:
        result = m.run(main)
    assert result.total_cycles() >= 12345


def test_string_entry_resolved_from_registry():
    def main(g):
        return "ran"

    with Machine(programs={"main": main}) as m:
        result = m.run("main")
    assert result.r0 == "ran"


def test_unknown_program_name_traps():
    with Machine() as m:
        result = m.run("missing")
    assert result.trap is Trap.EXC


def test_root_segment_opens_on_its_home_node():
    # The root's work is scheduled on the node placement gave it, not
    # on physical node 0, under any table that moves virtual node 0.
    def main(g):
        g.work(1000)
        return 0

    with Machine(nnodes=4) as m:
        m.placement = [1, 2, 3, 0]
        result = m.run(main)
        assert m.root.home_node == 1
    assert result.trace.segments.node == [1, 1]
