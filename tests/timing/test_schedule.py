"""Unit tests for the deterministic list scheduler."""

import pytest

from repro.kernel.machine import Machine
from repro.timing import CostModel, Trace, schedule


def linear_chain(lengths):
    tr = Trace()
    tr.begin("a")
    for i, n in enumerate(lengths):
        tr.charge("a", n)
        if i < len(lengths) - 1:
            tr.cut("a")
    tr.finish()
    return tr


def fork_join(widths, child_len, parent_pre=10, parent_post=10):
    """Parent does pre work, forks ``widths`` children, joins all."""
    tr = Trace()
    tr.begin("p")
    tr.charge("p", parent_pre)
    children = []
    for i in range(widths):
        closed, _ = tr.cut("p")
        seg = tr.begin(f"c{i}")
        tr.edge(closed, seg)
        tr.charge(f"c{i}", child_len)
        children.append(tr.end(f"c{i}"))
    for seg in children:
        closed, opened = tr.cut("p")
        tr.edge(seg, opened)
    tr.charge("p", parent_post)
    tr.finish()
    return tr


def test_empty_trace():
    assert schedule(Trace()).makespan == 0


def test_serial_chain_makespan_is_sum():
    tr = linear_chain([10, 20, 30])
    assert schedule(tr, ncpus=4).makespan == 60


def test_fork_join_parallelism():
    tr = fork_join(4, child_len=100, parent_pre=0, parent_post=0)
    serial = schedule(tr, ncpus=1).makespan
    parallel = schedule(tr, ncpus=4).makespan
    assert serial == 400
    assert parallel == 100


def test_speedup_bounded_by_cpus():
    tr = fork_join(8, child_len=50)
    t1 = schedule(tr, ncpus=1).makespan
    t2 = schedule(tr, ncpus=2).makespan
    assert t1 / t2 <= 2.0 + 1e-9


def test_edge_latency_delays_consumer():
    tr = Trace()
    a = tr.begin("a")
    tr.charge("a", 10)
    tr.end("a")
    b = tr.begin("b")
    tr.charge("b", 5)
    tr.edge(a, b, latency=1000)
    tr.end("b")
    result = schedule(tr, ncpus=2)
    assert result.makespan == 10 + 1000 + 5


def test_per_node_cpu_pools():
    """Two nodes with 1 CPU each run their local work in parallel."""
    tr = Trace()
    tr.begin("a", node=0)
    tr.charge("a", 100)
    tr.begin("b", node=1)
    tr.charge("b", 100)
    tr.finish()
    assert schedule(tr, ncpus=1).makespan == 100
    # Forced onto a single node -> serialized.
    tr2 = Trace()
    tr2.begin("a", node=0)
    tr2.charge("a", 100)
    tr2.begin("b", node=0)
    tr2.charge("b", 100)
    tr2.finish()
    assert schedule(tr2, ncpus=1).makespan == 200


def test_deterministic_ties():
    tr = fork_join(6, child_len=33)
    r1 = schedule(tr, ncpus=3)
    r2 = schedule(tr, ncpus=3)
    assert r1.makespan == r2.makespan
    assert r1.start == r2.start


def test_utilization_and_busy():
    tr = fork_join(4, child_len=100, parent_pre=0, parent_post=0)
    result = schedule(tr, ncpus=4)
    assert result.busy == 400
    assert 0 < result.utilization <= 1.0


def test_cycle_detection():
    tr = Trace()
    a = tr.begin("a")
    tr.end("a")
    b = tr.begin("b")
    tr.end("b")
    tr.edge(a, b)
    tr.edge(b, a)
    with pytest.raises(ValueError):
        schedule(tr)


@pytest.mark.parametrize("ncpus", [0, -1])
def test_cpu_count_below_one_is_refused_by_name(ncpus):
    # An acyclic trace: the refusal names the CPU count, not the trace.
    with pytest.raises(ValueError, match="ncpus must be an int >= 1"):
        schedule(linear_chain([10, 20]), ncpus=ncpus)
    with Machine() as machine:
        result = machine.run(lambda g: 7)
        with pytest.raises(ValueError, match="ncpus must be an int >= 1"):
            result.makespan(ncpus=ncpus)


@pytest.mark.parametrize("ncpus", [1.5, 2.0, True, False, "2"])
def test_a_cpu_count_that_is_not_an_int_is_refused(ncpus):
    # Three 100-cycle segments on one node: taken as a count, 1.5 CPUs
    # would run them two at a time (makespan 200) and report a CPU count
    # of 1.5, and True would run them on one.  Only an int counts CPUs,
    # and a bool is not one — the rule CostModel applies to its ncpus.
    tr = Trace()
    for uid in "abc":
        tr.begin(uid)
        tr.charge(uid, 100)
    tr.finish()
    with pytest.raises(ValueError, match=r"ncpus must be an int >= 1, got "):
        schedule(tr, ncpus=ncpus)
    with pytest.raises(ValueError, match="ncpus must be an int >= 1"):
        CostModel(ncpus=ncpus)
    with Machine() as machine:
        result = machine.run(lambda g: 7, ncpus=ncpus)
        with pytest.raises(ValueError, match="ncpus must be an int >= 1"):
            result.makespan()
    assert schedule(tr, ncpus=2).makespan == 200
    assert schedule(tr, ncpus=1).makespan == 300


def test_finish_times_monotone_along_edges():
    tr = fork_join(3, child_len=40)
    result = schedule(tr, ncpus=2)
    for src, dst, latency in tr.edges:
        assert result.start[dst] >= result.finish[src] + latency
