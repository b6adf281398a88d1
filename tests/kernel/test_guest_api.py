"""Guest API unit tests: typed memory access, arrays, charging."""

import numpy as np
import pytest

from repro.kernel import Machine
from repro.mem.layout import SHARED_BASE

A = 0x20_0000


def run(main, **kwargs):
    with Machine(**kwargs) as m:
        result = m.run(main)
    assert result.trap.name in ("EXIT", "RET"), result.trap_info
    return result


def test_load_store_sizes():
    def main(g):
        g.store(A, 0x1234, size=2)
        g.store(A + 8, 0xDEADBEEF, size=4)
        g.store(A + 16, 1 << 60, size=8)
        return (g.load(A, 2), g.load(A + 8, 4), g.load(A + 16, 8))

    assert run(main).r0 == (0x1234, 0xDEADBEEF, 1 << 60)


def test_store_negative_signed_roundtrip():
    def main(g):
        g.store(A, -12345, size=8)
        return g.load(A, 8, signed=True)

    assert run(main).r0 == -12345


def test_float64_roundtrip():
    def main(g):
        g.store_f64(A, 3.14159)
        return g.load_f64(A)

    assert run(main).r0 == pytest.approx(3.14159)


def test_array_read_write_roundtrip():
    def main(g):
        data = np.arange(100, dtype=np.int64)
        g.array_write(A, data)
        back = g.array_read(A, np.int64, 100)
        return bool((back == data).all())

    assert run(main).r0 is True


def test_array_read_returns_private_copy():
    def main(g):
        g.array_write(A, np.zeros(8, dtype=np.int64))
        arr = g.array_read(A, np.int64, 8)
        arr[0] = 99                      # must not touch simulated memory
        return g.load(A, 8)

    assert run(main).r0 == 0


def test_array_read_is_writable_and_leaves_the_frames_alone():
    def main(g):
        g.array_write(A, np.arange(1024, dtype=np.int64))      # two pages
        aspace = g.space.addrspace
        frames = [aspace.frame(vpn) for vpn in aspace.mapped_vpns()]
        before = [(f, f.generation, bytes(f.data)) for f in frames]
        one_page = g.array_read(A + 8, np.int64, 4)
        two_pages = g.array_read(A + 8, np.int64, 1000)
        for arr in (one_page, two_pages):
            assert arr.flags.writeable and arr[0] == 1
            arr[:] = -1
        after = [(f, f.generation, bytes(f.data))
                 for f in (aspace.frame(vpn) for vpn in aspace.mapped_vpns())]
        return after == before and g.load(A + 8, 8) == 1

    assert run(main).r0 is True


def test_array_read_unaligned_over_a_hole():
    page = 4096

    def main(g):
        g.array_write(A, np.full(3 * page, 7, dtype=np.uint8))
        g.zero_range(A + page, page)                     # unmap the middle
        got = g.array_read(A + 5, np.uint8, 3 * page - 10)
        want = np.full(3 * page, 7, dtype=np.uint8)
        want[page:2 * page] = 0
        exact = g.array_read(A + page - 16, np.int64, 2)  # ends on a boundary
        return (bool((got == want[5:-5]).all()), exact.tolist(),
                g.space.addrspace.mapped_page_count())

    assert run(main).r0 == (True, [0x0707070707070707] * 2, 2)


def test_array_read_perm_fault_names_the_first_unreadable_page():
    page = 4096

    def child(g):
        g.array_read(A + 24, np.uint8, 3 * page)

    def main(g):
        g.array_write(A, np.ones(4 * page, dtype=np.uint8))
        g.put(1, regs={"entry": child}, copy=(A, 4 * page), start=True,
              perm=(A + 2 * page, page, 0))
        view = g.get(1, regs=True)
        return view["trap"].name, view["trap_info"]

    name, info = run(main).r0
    assert name == "PERM_FAULT"
    assert f"{A + 2 * page:#010x}" in info and "read" in info


def test_mapped_context_manager_writes_back():
    def main(g):
        g.array_write(A, np.arange(16, dtype=np.int32))
        with g.mapped(A, np.int32, 16) as arr:
            arr *= 2
        return int(g.array_read(A, np.int32, 16).sum())

    assert run(main).r0 == 2 * sum(range(16))


def test_view_is_zero_copy():
    def main(g):
        g.write(A, bytes(range(64)))
        view = g.view(A, 64, np.uint8)
        g.write(A, b"\xab")
        return int(view[0])

    assert run(main).r0 == 0xAB


def test_a_child_cannot_write_its_parents_frame_through_a_view():
    """A view of a page still shared copy-on-write with the parent is
    read-only: the store raises, and the parent's byte is unchanged."""
    def child(g):
        view = g.view(SHARED_BASE, 8)
        try:
            view[0] = 99
        except ValueError:
            return "refused"
        return "wrote"

    def main(g):
        g.write(SHARED_BASE, b"a" * 8)
        g.put(1, regs={"entry": child}, copy=(SHARED_BASE, 0x1000),
              start=True)
        return g.get(1, regs=True)["r0"], g.read(SHARED_BASE, 1)

    assert run(main).r0 == ("refused", b"a")


def test_zero_range_clears_own_memory():
    def main(g):
        g.write(A, b"junk-data" * 100)
        g.zero_range(A & ~0xFFF, 0x1000)
        return g.read(A, 9)

    assert run(main).r0 == bytes(9)


def test_work_and_alloc_work_charge_equally_on_determinator():
    def main_work(g):
        g.work(100_000)

    def main_alloc(g):
        g.alloc_work(100_000)

    with Machine() as m1:
        t1 = m1.run(main_work).total_cycles()
    with Machine() as m2:
        t2 = m2.run(main_alloc).total_cycles()
    assert t1 == t2


def test_memory_ops_charge_cycles():
    def main(g):
        g.write(A, b"x" * 4096)
        g.read(A, 4096)

    result = run(main)
    assert result.total_cycles() > 2 * (4096 >> 4)


def test_reg_read_write():
    def main(g):
        g.set_reg("r3", 777)
        return g.reg("r3")

    assert run(main).r0 == 777


def test_unknown_register_rejected():
    def main(g):
        try:
            g.set_reg("r99", 1)
        except Exception as exc:
            return type(exc).__name__

    assert run(main).r0 == "KernelError"


def test_console_write_accepts_str_and_bytes():
    def main(g):
        g.console_write("text ")
        g.console_write(b"bytes")

    assert run(main).console == b"text bytes"


def test_reads_see_only_causally_prior_writes():
    """The model's core read guarantee, at the raw API level."""
    def child(g):
        return g.load(A, 8)

    def main(g):
        g.store(A, 1)
        g.put(1, regs={"entry": child}, copy=(A & ~0xFFF, 0x1000), start=True)
        g.store(A, 2)           # after the fork: child must not see it
        return g.get(1, regs=True)["r0"]

    assert run(main).r0 == 1


def test_write_charges_and_moves_the_bytes_of_a_wide_buffer():
    """``g.write`` of a non-byte buffer is the same operation as a write
    of its bytes: same memory, same charge (it used to count elements)."""
    wide = np.arange(1, 513, dtype=np.int64)            # 512 items, one page

    def main_wide(g):
        g.write(A, wide)
        return g.read(A, wide.nbytes)

    def main_bytes(g):
        g.write(A, wide.tobytes())
        return g.read(A, wide.nbytes)

    got, want = run(main_wide), run(main_bytes)
    assert got.r0 == want.r0 == wide.tobytes()
    assert got.total_cycles() == want.total_cycles()
