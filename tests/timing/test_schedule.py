"""Unit tests for the deterministic list scheduler."""

import pytest

from repro.timing import Trace, schedule
from repro.timing.schedule import critical_path


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


def test_critical_path_bound():
    tr = fork_join(4, child_len=100, parent_pre=20, parent_post=30)
    cp = critical_path(tr)
    assert cp == 150
    assert schedule(tr, ncpus=2).makespan >= cp


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


def test_finish_times_monotone_along_edges():
    tr = fork_join(3, child_len=40)
    result = schedule(tr, ncpus=2)
    for src, dst, latency in tr.edges:
        assert result.start[dst] >= result.finish[src] + latency
