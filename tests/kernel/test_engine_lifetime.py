"""Host-cost invariants of the guest engine (DESIGN.md §9, "Host cost").

A space holds a host thread only while it has a live guest stack, so
the thread count follows the nesting depth of a run, not its size;
placement and teardown touch a bounded number of table entries per
child.  The size-independence is asserted on counts (threads, table
scans), never on wall-clock.
"""

import hashlib
import sys
import threading

import pytest

import repro
from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.common.errors import GuestKilled
from repro.kernel import Machine, Trap
from repro.kernel.engine import GuestContext
from repro.mem import PAGE_SIZE, VA_SIZE

ADDR = 0x10_0000


def guest_threads():
    return [t for t in threading.enumerate() if t.name.startswith("guest-")]


@pytest.fixture
def peak_threads(monkeypatch):
    """Highest ``threading.active_count()`` seen at any context start,
    i.e. sampled *during* the run at its moments of deepest nesting."""
    peak = [0]
    start = GuestContext.__init__

    def counting_start(ctx, *args, **kwargs):
        start(ctx, *args, **kwargs)
        peak[0] = max(peak[0], threading.active_count())

    monkeypatch.setattr(GuestContext, "__init__", counting_start)
    return peak


# -- (a) thread count follows nesting depth, not run size ------------------

def test_serving_holds_a_constant_number_of_threads(peak_threads):
    base = threading.active_count()
    result = repro.serve_trace(4, spec=repro.ClusterSpec(), requests=500,
                               mean_gap=960_000, seed=3)
    assert len(result.values) == 500
    # root + dispatcher + one request at a time, whatever the trace length
    assert peak_threads[0] <= base + 4
    assert threading.active_count() <= base
    assert not guest_threads()


def test_circuit_holds_a_constant_number_of_threads(peak_threads):
    base = threading.active_count()
    cw.run_cluster(cw.md5_circuit_main(3), 512)
    # root + one node worker at a time, however long the circuit
    assert peak_threads[0] <= base + 4
    assert threading.active_count() <= base
    assert not guest_threads()


# -- (b) a released thread is invisible to the space -----------------------

def trace_digest(machine):
    trace = machine.trace
    digest = hashlib.sha256()
    digest.update(repr([(s.id, s.uid, s.node, s.cycles, s.label, s.closed)
                        for s in trace.segments]).encode())
    digest.update(repr(trace.edges).encode())
    return digest.hexdigest()


def restart_program(log):
    """Child 1 exits and is exec'd with a new entry; child 2 traps EXC,
    child 3 traps PAGE_FAULT, and each is resumed once its parent has
    repaired the cause.  ``log`` records the child's context between
    runs (None once the stack is gone) and the host threads used."""
    def first(g):
        log.append(threading.current_thread())
        g.work(1_000)
        return "first"

    def second(g):
        log.append(threading.current_thread())
        g.work(2_000)
        return "second"

    def divider(g):
        g.work(500)
        return 100 // g.load(ADDR, 4)

    def reader(g):
        g.work(700)
        return g.load(g.load(ADDR, 8), 4)   # follows a pointer

    def main(g):
        out = []
        g.put(1, regs={"entry": first}, start=True)
        out.append(g.get(1, regs=True)["r0"])
        log.append(g.space.children[1].ctx)
        g.put(1, regs={"entry": second}, start=True)
        out.append(g.get(1, regs=True)["r0"])

        g.store(ADDR, 0, size=4)
        g.put(2, regs={"entry": divider}, copy=(ADDR, PAGE_SIZE), start=True)
        out.append(g.get(2, regs=True)["trap"])
        log.append(g.space.children[2].ctx)
        g.store(ADDR, 4, size=4)
        g.put(2, copy=(ADDR, PAGE_SIZE), start=True)
        out.append(g.get(2, regs=True)["r0"])

        g.store(ADDR, VA_SIZE, size=8)      # dangling: past the last page
        g.put(3, regs={"entry": reader}, copy=(ADDR, PAGE_SIZE), start=True)
        out.append(g.get(3, regs=True)["trap"])
        log.append(g.space.children[3].ctx)
        g.store(ADDR, ADDR + 8, size=8)
        g.store(ADDR + 8, 77, size=4)
        g.put(3, copy=(ADDR, PAGE_SIZE), start=True)
        out.append(g.get(3, regs=True)["r0"])
        return out

    return main


#: Trace of ``restart_program`` recorded at the last thread-per-space
#: commit: releasing the thread at exit/trap must not move a cycle.
RESTART_TRACE = \
    "a0b7a82e99c18be7d05b52315db91ef79e5b744c9326f31564873919bc684021"


def test_restart_after_exit_and_trap_runs_on_a_fresh_context():
    log = []
    with Machine() as machine:
        result = machine.run(restart_program(log))
        assert result.trap is Trap.EXIT, result.trap_info
        assert result.r0 == ["first", "second", Trap.EXC, 25,
                             Trap.PAGE_FAULT, 77]
        thread_first, ctx_exited, thread_second, ctx_exc, ctx_fault = log
        # No stack, no context: the thread went back to the pool ...
        assert ctx_exited is None and ctx_exc is None and ctx_fault is None
        # ... and the restarted space took the same worker out of it.
        assert thread_first is thread_second
        assert trace_digest(machine) == RESTART_TRACE


# -- (c) stacks parked mid-function are unwound by close() ------------------

def test_close_unwinds_ret_and_limit_parked_stacks():
    unwound = []

    def parks_on_ret(g):
        try:
            g.ret(status=1)
        except GuestKilled:
            unwound.append("ret")
            raise

    def parks_on_limit(g):
        try:
            while True:
                g.work(1_000)
        except GuestKilled:
            unwound.append("limit")
            raise

    def main(g):
        g.put(1, regs={"entry": parks_on_ret}, start=True)
        g.put(2, regs={"entry": parks_on_limit}, start=True, limit=5_000)
        g.put(3, regs={"entry": lambda g3: 0}, start=True)
        return [g.get(n, regs=True)["trap"] for n in (1, 2, 3)]

    machine = Machine()
    result = machine.run(main)
    assert result.r0 == [Trap.RET, Trap.INSN_LIMIT, Trap.EXIT]
    children = machine.root.children
    # Only the two mid-stack spaces still own a context (and a thread).
    assert [children[n].ctx is not None for n in (1, 2, 3)] \
        == [True, True, False]
    assert machine.root.ctx is None
    assert unwound == []
    machine.close()
    assert unwound == ["ret", "limit"]
    assert not guest_threads()


# -- (d) bounded table work per child --------------------------------------

class ScanCountingDict(dict):
    """A dict that counts whole-table traversals."""

    scans = 0

    def values(self):
        self.scans += 1
        return super().values()

    def items(self):
        self.scans += 1
        return super().items()

    def keys(self):
        self.scans += 1
        return super().keys()

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


FANOUT = 4096


def test_destroy_never_searches_the_parent_table():
    def main(g):
        for num in range(FANOUT):
            g.put(num)          # creates the child, nothing else
        return 0

    machine = Machine()
    machine.run(main)
    root = machine.root
    assert len(root.children) == FANOUT
    table = root.children = ScanCountingDict(root.children)
    # One child on its own (the Tree-copy replacement path) ...
    for num in range(16):
        root.children[num].destroy()
    assert table.scans == 0
    assert len(table) == FANOUT - 16 and 0 not in table
    # ... and the whole fan-out at close: one pass over the table.
    machine.close()
    assert table.scans <= 2
    assert root.children == {}


@pytest.mark.parametrize("placement", ["round_robin", "locality", "identity"])
def test_place_never_scans_the_node_map(placement):
    with Machine(nnodes=FANOUT,
                 spec=ClusterSpec(topology="fat_tree",
                                  placement=placement)) as machine:
        node_map = machine.node_map = ScanCountingDict()
        topo = machine.topology
        racks_built = [0]
        build = topo.racks

        def counting_racks():
            racks_built[0] += 1
            return build()

        topo.racks = counting_racks
        placed = [machine.place(vnode) for vnode in range(FANOUT)]
        assert node_map.scans == 0
        assert sorted(placed) == list(range(FANOUT))
        if placement == "round_robin":
            # the stripe order is derived from the racks once
            assert racks_built[0] <= 1


# -- the baton under a hostile interpreter schedule ------------------------

def test_handoffs_survive_a_tiny_switch_interval():
    """The two sides of a hand-off overlap for a few bytecodes after each
    lock release.  Force a thread switch in every such window: pooled
    workers must still run each space exactly once per resume, in order."""
    def child(g, k):
        g.work(100)
        g.ret(status=k)             # parks mid-stack, keeps its worker
        g.work(100)
        return k

    def main(g):
        order = []
        for k in range(200):
            g.put(k, regs={"entry": child, "args": (k,)}, start=True)
        for k in range(200):
            order.append(g.get(k, regs=True)["status"])
            g.put(k, start=True)
        for k in range(200):
            order.append(g.get(k, regs=True)["r0"])
            g.put(k, regs={"entry": lambda g2: -1, "args": ()}, start=True)  # exec
        return order + [g.get(k, regs=True)["r0"] for k in range(200)]

    def run():
        with Machine() as machine:
            result = machine.run(main)
            assert result.trap is Trap.EXIT, result.trap_info
            return result.r0, trace_digest(machine)

    expected = run()
    assert expected[0] == 2 * list(range(200)) + [-1] * 200
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run() == expected
    finally:
        sys.setswitchinterval(interval)
    assert not guest_threads()
