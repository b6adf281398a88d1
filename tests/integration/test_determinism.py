"""End-to-end determinism: the §6.1 experience, as executable checks.

"We find that a deterministic programming model simplifies debugging ...
since user-space bugs are always reproducible."  These tests run whole
stacks — processes + files + threads + scheduler + cluster — several
times and demand bit-identical results, traces, and *failures*.
"""


from repro.common.errors import MergeConflictError
from repro.debug import first_difference, freeze_machine
from repro.kernel import Machine, child_ref
from repro.mem.layout import SHARED_BASE
from repro.runtime.dsched import det_pthreads_run
from repro.runtime.make import Make, MakeRule
from repro.runtime.process import unix_root
from repro.runtime.shell import Shell
from repro.runtime.threads import ThreadGroup


def run_many(main, times=3, **kwargs):
    """Run ``main`` ``times`` times and return the first MachineResult:
    every run must freeze to the same image — the space tree down to
    page bytes, the trace, console, counters and ledgers."""
    results, images = [], []
    for _ in range(times):
        with Machine(**kwargs) as machine:
            results.append(machine.run(main))
            images.append(freeze_machine(machine))
    for image in images[1:]:
        assert first_difference(image, images[0]) is None, \
            "nondeterminism detected"
    return results[0]


# ---------------------------------------------------------------------------
# Whole-stack scenarios
# ---------------------------------------------------------------------------

def test_mixed_threads_and_work_deterministic():
    def worker(g, i):
        g.work(137 * (i + 1))
        g.store(SHARED_BASE + 8 * i, i * i)
        return i

    def main(g):
        tg = ThreadGroup(g)
        for i in range(7):
            tg.fork(worker, (i,))
        values = tg.join_all()
        g.console_write(repr(values).encode())
        return sum(values)

    assert run_many(main).r0 == sum(range(7))


def test_process_build_pipeline_deterministic():
    def init(rt):
        rules = [
            MakeRule("a.o", duration=40_000),
            MakeRule("b.o", duration=10_000),
            MakeRule("bin", deps=("a.o", "b.o"), duration=5_000),
        ]
        Make(rt, rules).build("bin", jobs=2)
        shell = Shell(rt)
        shell.run_script("ls > listing\ncat listing")
        return 0

    console = run_many(unix_root(init)).console
    assert b"a.o" in console and b"bin" in console


def test_legacy_scheduler_racy_program_repeatable():
    def racer(dt, value):
        for _ in range(5):
            dt.g.store(SHARED_BASE, value)       # deliberate race
            dt.g.work(999)
        return dt.g.load(SHARED_BASE)

    def main(g):
        results = det_pthreads_run(
            g, [(racer, (1,)), (racer, (2,))], quantum=2_500
        )
        return (tuple(results), g.load(SHARED_BASE))

    run_many(main)


def test_cluster_run_deterministic():
    def worker(g, i):
        g.work(50_000)
        return i * 7

    def main(g):
        for i in range(4):
            g.put(child_ref(1, node=i), regs={"entry": worker, "args": (i,)},
                  start=True)
        return sum(g.get(child_ref(1, node=i), regs=True)["r0"]
                   for i in range(4))

    assert run_many(main, nnodes=4).r0 == 7 * sum(range(4))


# ---------------------------------------------------------------------------
# Failure injection: bugs are reproducible too
# ---------------------------------------------------------------------------

def test_injected_exception_reproducible_at_same_point():
    def flaky(g, i):
        g.work(100 * i)
        if i == 3:
            raise RuntimeError(f"injected bug in worker {i}")
        return i

    def main(g):
        tg = ThreadGroup(g)
        for i in range(6):
            tg.fork(flaky, (i,))
        outcomes = []
        for i in range(6):
            try:
                outcomes.append(("ok", tg.join(i)))
            except Exception as exc:
                outcomes.append(("fault", str(exc)[:40]))
        return tuple(outcomes)

    outcomes = run_many(main).r0
    assert outcomes[3][0] == "fault"
    assert all(kind == "ok" for kind, _ in outcomes[:3] + outcomes[4:])


def test_injected_conflict_reproducible():
    def writer(g, value):
        g.store(SHARED_BASE + 0x100, value)

    def main(g):
        tg = ThreadGroup(g)
        tg.fork(writer, (1,))
        tg.fork(writer, (2,))
        tg.join(0)
        try:
            tg.join(1)
            return "merged"
        except MergeConflictError as err:
            return ("conflict", err.addr)

    assert run_many(main).r0 == ("conflict", SHARED_BASE + 0x100)


def test_fault_in_deep_process_tree_reproducible():
    def leaf(rt):
        raise ValueError("leaf exploded")

    def mid(rt):
        try:
            pid = rt.fork(leaf)
            rt.waitpid(pid)
            return 0
        except Exception:
            return 13

    def init(rt):
        pid = rt.fork(mid)
        return rt.waitpid(pid)

    assert run_many(unix_root(init)).r0 == 13


def test_debug_log_reflects_true_order_consistently():
    def child(g, i):
        g.debug(f"child {i}")
        return 0

    def main(g):
        for i in range(4):
            g.put(i, regs={"entry": child, "args": (i,)}, start=True)
        for i in range(4):
            g.get(i)
        return 0

    assert len(run_many(main).debug) == 4


def test_different_inputs_different_outputs_same_structure():
    """Determinism is w.r.t. inputs: vary the input, output follows."""
    def main(g):
        data = g.console_read(10)
        g.console_write(data[::-1])
        return 0

    def run_with(text):
        with Machine(console_input=text) as machine:
            return machine.run(main).console

    assert run_with(b"abc") == b"cba"
    assert run_with(b"xyz") == b"zyx"
    assert run_with(b"abc") == b"cba"   # and still repeatable
