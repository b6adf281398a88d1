"""Put/Get/Ret semantics: options from the paper's Tables 1 and 2."""


import pytest

from repro.common.errors import MergeConflictError
from repro.kernel import Machine, Trap
from repro.mem import PAGE_SIZE, PERM_NONE, PERM_R, MergeStats

ADDR = 0x10_0000


def run(main, **kwargs):
    with Machine(**kwargs) as m:
        return m.run(main)


# ---------------------------------------------------------------------------
# Copy / Zero / Regs
# ---------------------------------------------------------------------------

def test_put_copy_moves_memory_into_child():
    def child(g):
        return g.read(ADDR, 5)

    def main(g):
        g.write(ADDR, b"hello")
        g.put(1, regs={"entry": child}, copy=(ADDR, PAGE_SIZE), start=True)
        return g.get(1, regs=True)["r0"]

    assert run(main).r0 == b"hello"


def test_get_copy_pulls_child_memory():
    def child(g):
        g.write(ADDR, b"result")

    def main(g):
        g.put(1, regs={"entry": child}, start=True)
        g.get(1, copy=(ADDR, PAGE_SIZE))
        return g.read(ADDR, 6)

    assert run(main).r0 == b"result"


def test_copy_with_distinct_src_dst():
    def main(g):
        g.write(ADDR, b"xyz")
        g.put(1, copy=(ADDR, ADDR + 0x1000, PAGE_SIZE))
        g.get(1, copy=(ADDR + 0x1000, ADDR + 0x2000, PAGE_SIZE))
        return g.read(ADDR + 0x2000, 3)

    assert run(main).r0 == b"xyz"


def test_put_zero_clears_child_range():
    def child(g):
        return g.read(ADDR, 4)

    def main(g):
        g.write(ADDR, b"junk")
        g.put(1, copy=(ADDR, PAGE_SIZE))
        g.put(1, regs={"entry": child}, zero=(ADDR, PAGE_SIZE), start=True)
        return g.get(1, regs=True)["r0"]

    assert run(main).r0 == bytes(4)


def test_put_regs_and_child_args():
    def child(g, a, b):
        return a + b

    def main(g):
        g.put(3, regs={"entry": child, "args": (20, 22)}, start=True)
        return g.get(3, regs=True)["r0"]

    assert run(main).r0 == 42


def test_child_sets_result_registers():
    def child(g):
        g.set_reg("r1", 111)
        g.ret(status=5)

    def main(g):
        g.put(1, regs={"entry": child}, start=True)
        view = g.get(1, regs=True)
        return (view["status"], view["r1"], view["trap"])

    result = run(main)
    assert result.r0 == (5, 111, Trap.RET)


def test_get_creates_empty_child():
    def main(g):
        view = g.get(9, regs=True)
        return view["trap"]

    assert run(main).r0 is Trap.NONE


# ---------------------------------------------------------------------------
# Rendezvous / Ret / resume
# ---------------------------------------------------------------------------

def test_ret_then_resume_continues_after_ret():
    log = []

    def child(g):
        log.append("phase1")
        g.ret(status=1)
        log.append("phase2")
        g.ret(status=2)

    def main(g):
        g.put(1, regs={"entry": child}, start=True)
        s1 = g.get(1, regs=True)["status"]
        g.put(1, start=True)
        s2 = g.get(1, regs=True)["status"]
        return (s1, s2)

    assert run(main).r0 == (1, 2)
    assert log == ["phase1", "phase2"]


def test_parent_passes_data_across_ret_boundary():
    def child(g):
        g.ret(status=0)                  # wait for input
        value = g.load(ADDR, 4)
        g.set_reg("r0", value * 2)
        g.ret(status=1)

    def main(g):
        g.put(1, regs={"entry": child}, start=True)
        g.get(1)                          # rendezvous with the first ret
        g.write(ADDR, (21).to_bytes(4, "little"))
        g.put(1, copy=(ADDR, PAGE_SIZE), start=True)
        return g.get(1, regs=True)["r0"]

    assert run(main).r0 == 42


def test_nested_hierarchy_three_levels():
    def grandchild(g):
        return 7

    def child(g):
        g.put(1, regs={"entry": grandchild}, start=True)
        return g.get(1, regs=True)["r0"] * 6

    def main(g):
        g.put(1, regs={"entry": child}, start=True)
        return g.get(1, regs=True)["r0"]

    assert run(main).r0 == 42


def test_many_children_fork_join():
    def child(g, i):
        return i * i

    def main(g):
        for i in range(10):
            g.put(i, regs={"entry": child, "args": (i,)}, start=True)
        return sum(g.get(i, regs=True)["r0"] for i in range(10))

    assert run(main).r0 == sum(i * i for i in range(10))


# ---------------------------------------------------------------------------
# Snap / Merge
# ---------------------------------------------------------------------------

def test_snap_merge_roundtrip():
    def child(g):
        g.store(ADDR + 8, 99, size=4)

    def main(g):
        g.store(ADDR, 1, size=4)
        g.put(
            1,
            regs={"entry": child},
            copy=(ADDR, PAGE_SIZE),
            snap=(ADDR, PAGE_SIZE),
            start=True,
        )
        g.store(ADDR + 16, 2, size=4)     # parent's own concurrent write
        g.get(1, merge=True)
        return (g.load(ADDR, 4), g.load(ADDR + 8, 4), g.load(ADDR + 16, 4))

    assert run(main).r0 == (1, 99, 2)


def test_merge_conflict_raises_in_parent():
    def child(g):
        g.store(ADDR, 2, size=4)

    def main(g):
        g.put(
            1,
            regs={"entry": child},
            copy=(ADDR, PAGE_SIZE),
            snap=(ADDR, PAGE_SIZE),
            start=True,
        )
        g.store(ADDR, 3, size=4)          # same bytes as the child
        try:
            g.get(1, merge=True)
        except MergeConflictError:
            return "conflict"
        return "merged"

    assert run(main).r0 == "conflict"


def test_uncaught_conflict_traps_parent():
    def child(g):
        g.store(ADDR, 2, size=4)

    def main(g):
        g.put(
            1,
            regs={"entry": child},
            copy=(ADDR, PAGE_SIZE),
            snap=(ADDR, PAGE_SIZE),
            start=True,
        )
        g.store(ADDR, 3, size=4)
        g.get(1, merge=True)

    assert run(main).trap is Trap.CONFLICT


def test_merging_a_child_that_wrote_nothing_changes_nothing():
    """The Merge of a child that only read since its Snap logs a
    MergeStats equal to a fresh one and leaves the parent's dirty-ledger
    clock where it was."""
    def child(g):
        return g.read(ADDR, 1)

    def main(g):
        g.write(ADDR, b"x")
        g.put(1, regs={"entry": child}, copy=(ADDR, PAGE_SIZE),
              snap=(ADDR, PAGE_SIZE), start=True)
        ledger = g.space.addrspace
        before = ledger.dirty_token()
        g.get(1, merge=True)
        return before, ledger.dirty_token()

    with Machine() as m:
        before, after = m.run(main).r0
        logged = list(m.merge_stats_total)
    assert after == before
    fresh = MergeStats()
    fresh.written_vpns = ()     # the kernel consumes the list it logs
    assert logged == [fresh]


def test_merge_without_snap_is_kernel_error():
    def main(g):
        g.put(1)
        try:
            g.get(1, merge=True)
        except Exception as exc:
            return type(exc).__name__

    assert run(main).r0 == "KernelError"


@pytest.mark.parametrize("call, option", [
    ("put", {"copy": [ADDR, PAGE_SIZE]}),
    ("put", {"zero": [ADDR, PAGE_SIZE]}),
    ("put", {"copy": ((ADDR, PAGE_SIZE), (ADDR + PAGE_SIZE, PAGE_SIZE))}),
    ("put", {"copy": (ADDR, "4096")}),
    ("put", {"copy": ADDR}),
    ("put", {"perm": (ADDR, PAGE_SIZE)}),
    ("put", {"snap": (ADDR,)}),
    ("put", {"snap": (float(ADDR), float(PAGE_SIZE))}),
    ("put", {"tree": (1,)}),
    ("put", {"regs": {"r0": 7, "bogus": 1}}),
    ("get", {"copy": [ADDR, PAGE_SIZE]}),
    ("get", {"zero": "bad"}),
    ("get", {"perm": (ADDR, PAGE_SIZE)}),
    ("get", {"merge": (ADDR,)}),
    ("get", {"tree": (1,)}),
], ids=lambda value: value if isinstance(value, str) else repr(value))
def test_a_malformed_option_is_refused_naming_it(call, option):
    """A Put/Get option of the wrong shape is refused with a
    KernelError that names it — never a TypeError or ValueError from
    deep inside the kernel — and before the call changes anything: a
    valid Copy beside it maps no page in the caller or the child, and
    no register of either changes."""
    (name, value), = option.items()
    options = {"copy": (ADDR, ADDR + PAGE_SIZE, PAGE_SIZE), **option}

    def main(g):
        g.write(ADDR, b"x")
        g.put(1, copy=(ADDR, PAGE_SIZE), snap=(ADDR, PAGE_SIZE))
        spaces = (g.space, g.space.children[1])

        def state():
            return [(space.addrspace.mapped_vpns(), space.snapshot,
                     space.snapshot and dict(space.snapshot._frames),
                     dict(space.regs))
                    for space in spaces]

        before = state()
        try:
            getattr(g, call)(1, **options)
        except Exception as exc:
            return type(exc).__name__, str(exc), state() == before
        return None

    kind, message, unchanged = run(main).r0
    assert kind == "KernelError"
    assert f"bad {name} option" in message
    assert unchanged


def test_swap_example_two_threads():
    """Paper §2.2: 'x = y' and 'y = x' concurrently always swap."""
    X, Y = ADDR, ADDR + 8

    def assign(g, dst, src):
        g.store(dst, g.load(src, 4), size=4)

    def main(g):
        g.store(X, 7, size=4)
        g.store(Y, 9, size=4)
        for i, (dst, src) in enumerate([(X, Y), (Y, X)]):
            g.put(
                i,
                regs={"entry": assign, "args": (dst, src)},
                copy=(ADDR, PAGE_SIZE),
                snap=(ADDR, PAGE_SIZE),
                start=True,
            )
        for i in range(2):
            g.get(i, merge=True)
        return (g.load(X, 4), g.load(Y, 4))

    assert run(main).r0 == (9, 7)


def test_lenient_merge_mode_machine_flag():
    def child(g):
        g.store(ADDR, 5, size=4)

    def main(g):
        g.put(
            1,
            regs={"entry": child},
            copy=(ADDR, PAGE_SIZE),
            snap=(ADDR, PAGE_SIZE),
            start=True,
        )
        g.store(ADDR, 5, size=4)          # identical value
        g.get(1, merge=True)
        return g.load(ADDR, 4)

    assert run(main, merge_mode="lenient").r0 == 5
    assert run(main).trap is Trap.CONFLICT


# ---------------------------------------------------------------------------
# Perm / Tree
# ---------------------------------------------------------------------------

def test_perm_none_faults_child():
    def child(g):
        return g.read(ADDR, 1)

    def main(g):
        g.write(ADDR, b"x")
        g.put(1, regs={"entry": child}, copy=(ADDR, PAGE_SIZE), start=True,
              perm=(ADDR, PAGE_SIZE, PERM_NONE))
        return g.get(1, regs=True)["trap"]

    assert run(main).r0 is Trap.PERM_FAULT


def test_perm_readonly_blocks_writes():
    def child(g):
        g.write(ADDR, b"y")

    def main(g):
        g.write(ADDR, b"x")
        g.put(1, regs={"entry": child}, copy=(ADDR, PAGE_SIZE), start=True,
              perm=(ADDR, PAGE_SIZE, PERM_R))
        return g.get(1, regs=True)["trap"]

    assert run(main).r0 is Trap.PERM_FAULT


def test_tree_copy_duplicates_subtree():
    def worker(g):
        g.write(ADDR, b"worker-state")
        g.ret(status=0)

    def main(g):
        # Build child 1 with state, then Tree-copy it down into child 2's
        # namespace and back up as our child 3.
        g.put(1, regs={"entry": worker}, start=True)
        g.get(1)
        g.put(2, tree=(1, 5))             # our child 1 -> child 2's child 5
        g.get(2, tree=(5, 3))             # child 2's child 5 -> our child 3
        g.get(3, copy=(ADDR, ADDR + 0x1000, PAGE_SIZE))
        return g.read(ADDR + 0x1000, 12)

    assert run(main).r0 == b"worker-state"


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def _chaotic_program(g):
    """Forks children whose host-thread interleaving could vary; output
    must not."""
    def child(g, i):
        g.work(100 * (i + 1))
        g.set_reg("r0", i * 3)
        g.ret()

    for i in range(6):
        g.put(i, regs={"entry": child, "args": (i,)}, start=True)
    total = 0
    for i in range(6):
        total += g.get(i, regs=True)["r0"]
    g.console_write(f"total={total}\n")
    return total


def test_repeated_runs_identical():
    results = []
    for _ in range(3):
        with Machine() as m:
            r = m.run(_chaotic_program)
            results.append((r.r0, r.console, r.total_cycles()))
    assert results[0] == results[1] == results[2]


def test_makespan_deterministic_and_scales():
    with Machine() as m:
        r = m.run(_chaotic_program)
        t1 = r.makespan(ncpus=1)
        t4 = r.makespan(ncpus=4)
    assert t4 <= t1
    with Machine() as m2:
        assert m2.run(_chaotic_program).makespan(ncpus=4) == t4
