"""Cluster distribution tests: space migration, demand paging, caching (§3.3)."""

import pytest

from repro import ClusterSpec
from repro.common.errors import KernelError
from repro.kernel import Machine, child_ref
from repro.mem import PAGE_SIZE
from repro.timing.model import CostModel

ADDR = 0x10_0000


def test_child_ref_encoding():
    assert child_ref(5) == 5
    assert child_ref(5, node=0) == (1 << 16) | 5
    assert child_ref(7, node=3) == (4 << 16) | 7
    with pytest.raises(ValueError):
        child_ref(1 << 16)


def test_migration_produces_correct_results():
    """Work distributed across nodes computes the same values."""
    def worker(g, i):
        return i * i

    def main(g):
        n = 4
        for i in range(n):
            g.put(child_ref(i, node=i % 2), regs={"entry": worker, "args": (i,)},
                  start=True)
        return sum(g.get(child_ref(i, node=i % 2), regs=True)["r0"]
                   for i in range(n))

    with Machine(nnodes=2) as m:
        result = m.run(main)
    assert result.r0 == 0 + 1 + 4 + 9


def test_nonexistent_node_rejected():
    def main(g):
        try:
            g.put(child_ref(0, node=9), start=False)
        except KernelError:
            return "bad-node"

    with Machine(nnodes=2) as m:
        assert m.run(main).r0 == "bad-node"


def test_a_frame_mapped_at_two_vpns_is_fetched_once():
    """One frame at two adjacent vpns, read across both from another
    node, crosses the wire once: the node's cache learns its tag at the
    first vpn, so the second is a hit."""
    dst = ADDR + 16 * PAGE_SIZE

    def child(g):
        g.write(ADDR, b"f" * PAGE_SIZE)

    def main(g):
        g.put(1, regs={"entry": child}, start=True)
        g.get(1, copy=[(ADDR, dst, PAGE_SIZE),
                       (ADDR, dst + PAGE_SIZE, PAGE_SIZE)])
        g.put(child_ref(2, node=1))         # the caller moves to node 1
        machine = g.kernel.machine
        before = machine.pages_fetched
        data = g.read(dst, 2 * PAGE_SIZE)
        return data == b"f" * (2 * PAGE_SIZE), machine.pages_fetched - before

    with Machine(nnodes=2, spec=ClusterSpec(ship_mode="demand")) as m:
        assert m.run(main).r0 == (True, 1)


def test_single_node_has_no_fetch_accounting():
    def main(g):
        g.write(ADDR, b"x" * PAGE_SIZE)
        g.read(ADDR, PAGE_SIZE)

    with Machine(nnodes=1) as m:
        m.run(main)
        assert m.pages_fetched == 0


def test_cross_node_copy_fetches_pages():
    """Copying parent data to a child on another node ships the pages."""
    def worker(g):
        return g.read(ADDR, 8)

    def main(g):
        g.write(ADDR, b"payload!" + b"\x00" * (2 * PAGE_SIZE - 8))
        ref = child_ref(1, node=1)
        g.put(ref, regs={"entry": worker}, copy=(ADDR, 2 * PAGE_SIZE), start=True)
        return g.get(ref, regs=True)["r0"]

    with Machine(nnodes=2) as m:
        result = m.run(main)
        assert result.r0 == b"payload!"
        assert m.pages_fetched >= 2


def test_read_only_pages_cached_across_revisits():
    """Second visit to a node reuses cached unchanged pages (§3.3)."""
    def worker(g):
        return 0

    def main(g):
        g.write(ADDR, b"r" * PAGE_SIZE)   # read-only "program text"
        for round_ in range(3):
            ref = child_ref(1 + round_, node=1)
            g.put(ref, regs={"entry": worker}, copy=(ADDR, PAGE_SIZE), start=True)
            g.get(ref, regs=True)

    with Machine(nnodes=2) as m:
        m.run(main)
        # One fetch for the page, not three.
        assert m.pages_fetched == 1


def test_written_pages_refetched_after_change():
    def worker(g):
        return 0

    def main(g):
        for round_ in range(3):
            # Interacting with a home-node child migrates us home, where
            # we produce this round's fresh data.
            g.get(0x50, regs=True)
            g.write(ADDR, bytes([round_ + 1]) * PAGE_SIZE)  # changes every round
            ref = child_ref(1 + round_, node=1)
            g.put(ref, regs={"entry": worker}, copy=(ADDR, PAGE_SIZE), start=True)
            g.get(ref, regs=True)

    with Machine(nnodes=2) as m:
        m.run(main)
        # Each round's changed page must cross the wire again.
        assert m.pages_fetched == 3


def test_read_view_demand_zero_is_locally_cached():
    """Regression: a read-only view that demand-zeroes a page creates
    the frame locally — the next access must not be billed as a remote
    fetch of data that never crossed the wire."""
    def main(g):
        g.view(ADDR, 8)          # unmapped -> demand-zero frame
        g.read(ADDR, 8)

    with Machine(nnodes=2) as m:
        m.run(main)
        assert m.pages_fetched == 0


def test_merged_pages_cached_at_merging_node():
    """Merge mutates parent frames in place; the merging node must not
    be charged a fetch for pages it just produced."""
    from repro.mem.layout import SHARED_BASE
    from repro.runtime.threads import thread_fork, thread_join

    def main(g):
        g.write(SHARED_BASE, b"a" * PAGE_SIZE)
        g.write(SHARED_BASE + PAGE_SIZE, b"b" * PAGE_SIZE)

        def worker(g2):
            g2.store(SHARED_BASE, 123)        # page 0: adoption
            g2.store(SHARED_BASE + PAGE_SIZE, 5)

        thread_fork(g, 1, worker)
        g.store(SHARED_BASE + PAGE_SIZE + 8, 9)   # page 1: both dirty
        thread_join(g, 1)
        before = g.machine.pages_fetched
        g.read(SHARED_BASE, 2 * PAGE_SIZE)
        return g.machine.pages_fetched - before

    with Machine(nnodes=2) as m:
        assert m.run(main).r0 == 0


def test_freshened_parent_page_ships_exactly_once():
    """A parent page freshened on another node crosses the wire exactly
    once: it rides the parent's next migration as the ledger-driven
    delta, and reading it at the merging node is then free."""
    from repro.mem.layout import SHARED_BASE
    from repro.kernel.kernel import child_ref as ref

    def worker(g):
        g.store(SHARED_BASE, 7)           # dirties page 0 only
        return 0

    def main(g):
        g.write(SHARED_BASE, b"a" * PAGE_SIZE)
        g.write(SHARED_BASE + PAGE_SIZE, b"b" * PAGE_SIZE)
        child = ref(1, node=1)
        g.put(child, regs={"entry": worker},
              copy=(SHARED_BASE, 2 * PAGE_SIZE),
              snap=(SHARED_BASE, 2 * PAGE_SIZE), start=True)
        g.get(0x50, regs=True)            # migrate home (node 0)
        # Freshen page 1 at node 0: its new tag lives only there.
        g.write(SHARED_BASE + PAGE_SIZE, b"c" * PAGE_SIZE)
        before = g.machine.pages_fetched
        g.get(child, regs=True, merge=True)   # migrate + merge on node 1
        shipped = g.machine.pages_fetched - before
        g.read(SHARED_BASE + PAGE_SIZE, 8)    # reading page 1 on node 1
        reread = g.machine.pages_fetched - before - shipped
        return (shipped, reread)

    with Machine(nnodes=2) as m:
        assert m.run(main).r0 == (1, 0)


def test_migration_charges_latency_in_makespan():
    def worker(g):
        g.work(1000)

    def main(g):
        ref = child_ref(1, node=1)
        g.put(ref, regs={"entry": worker}, start=True)
        g.get(ref, regs=True)

    with Machine(nnodes=2) as m2:
        remote = m2.run(main).makespan(ncpus=1)

    def main_local(g):
        g.put(1, regs={"entry": worker}, start=True)
        g.get(1, regs=True)

    with Machine(nnodes=1) as m1:
        local = m1.run(main_local).makespan(ncpus=1)
    cost = CostModel()
    assert remote >= local + 2 * cost.net_latency  # out and back


def test_parallelism_across_nodes_in_makespan():
    """Independent work on two nodes overlaps in virtual time."""
    def worker(g):
        g.work(10_000_000)

    def main(g):
        for node in (0, 1):
            g.put(child_ref(node, node=node),
                  regs={"entry": worker}, start=True)
        for node in (0, 1):
            g.get(child_ref(node, node=node), regs=True)

    with Machine(nnodes=2) as m:
        result = m.run(main)
        two_nodes = result.makespan(ncpus=1)
    # Uniprocessor nodes: the two workers overlap; makespan well under
    # the 20M serial sum plus overheads.
    assert two_nodes < 10_000_000 * 2
    assert two_nodes >= 10_000_000


def test_tcp_mode_adds_small_overhead():
    """TCP-like framing costs < 2% (paper §6.3)."""
    def worker(g):
        data = g.read(ADDR, 64 * PAGE_SIZE)
        g.work(50_000_000)
        return len(data)

    def main(g):
        ref = child_ref(1, node=1)
        g.write(ADDR, b"m" * (64 * PAGE_SIZE))
        g.put(ref, regs={"entry": worker}, copy=(ADDR, 64 * PAGE_SIZE), start=True)
        return g.get(ref, regs=True)["r0"]

    def run(tcp):
        with Machine(nnodes=2, spec=ClusterSpec(tcp_mode=tcp)) as m:
            return m.run(main).makespan(ncpus=1)

    plain, tcp = run(False), run(True)
    assert tcp > plain
    assert (tcp - plain) / plain < 0.02


def test_home_node_return_on_ret():
    """A space migrated for child interaction returns home at Ret (§3.3)."""
    def worker(g):
        return g.space.cur_node

    def main(g):
        ref = child_ref(1, node=1)
        g.put(ref, regs={"entry": worker}, start=True)
        remote = g.get(ref, regs=True)["r0"]
        # After interacting remotely, our next home-node interaction
        # migrates us back.
        g.put(2, regs={"entry": worker}, start=True)
        home = g.get(2, regs=True)["r0"]
        return (remote, home)

    with Machine(nnodes=2) as m:
        assert m.run(main).r0 == (1, 0)
