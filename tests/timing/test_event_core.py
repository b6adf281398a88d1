"""Bit-identity of the event-driven scheduler core vs the list oracle.

``schedule()`` has one implementation, the discrete-event core; the
policy written the obvious way lives beside this file in
``list_oracle.py``.  Every field of the two results must match exactly
on every trace, and so must every link transfer's interval in grant
order — the view :class:`~repro.timing.timeline.Timeline` gives the
debugger.  These tests drive both over real workload traces (the
cluster workloads across fabrics, ship modes, lossy links and node
counts up to 1 024) and over synthetic traces that exercise link
contention, stall attribution, grant ordering and the error paths.
"""

import inspect
import random

import pytest
from list_oracle import TRANSFER_FIELDS, schedule_list

from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.debug import Inspector
from repro.debug.scenarios import fault_tolerance, retx_trap
from repro.timing import Trace
from repro.timing.schedule import schedule
from repro.timing.timeline import Timeline


def event_fields(trace, **kwargs):
    """Every observable of the event core's schedule, dict-normalized:
    the ScheduleResult fields plus the Timeline's transfer intervals."""
    result = schedule(trace, **kwargs)
    timeline = Timeline(trace, result)
    assert timeline.makespan == result.makespan
    assert timeline.start == result.start
    assert timeline.finish == result.finish
    return {
        "makespan": result.makespan,
        "busy": result.busy,
        "start": dict(result.start),
        "finish": dict(result.finish),
        "cpu_count": result.cpu_count,
        "link_busy": dict(result.link_busy),
        "class_busy": dict(result.class_busy),
        "stall_cycles": dict(result.stall_cycles),
        "transfers": [tuple(getattr(t, name) for name in TRANSFER_FIELDS)
                      for t in timeline.transfers],
    }


def assert_matches_oracle(trace, **kwargs):
    event = event_fields(trace, **kwargs)
    assert event == schedule_list(trace, **kwargs)._asdict()
    return event


# -- real workload traces -------------------------------------------------

WORKLOADS = [
    ("md5_tree", cw.md5_tree_main(3)),
    ("matmult_tree", cw.matmult_tree_main(32)),
]
TOPOLOGIES = [None, "two_tier:2", "fat_tree:2"]
SHIP_MODES = ["delta", "full", "demand"]


@pytest.mark.parametrize("topology", TOPOLOGIES,
                         ids=["flat", "two_tier", "fat_tree"])
@pytest.mark.parametrize("workload", [w for w, _ in WORKLOADS])
def test_workload_traces_identical_across_fabrics(workload, topology):
    builder = dict(WORKLOADS)[workload]
    _, machine, _ = cw.run_cluster(builder, 4,
                                   spec=ClusterSpec(topology=topology))
    fields = assert_matches_oracle(machine.trace, ncpus=1)
    assert fields["makespan"] > 0


@pytest.mark.parametrize("ship_mode", SHIP_MODES)
def test_workload_traces_identical_across_ship_modes(ship_mode):
    spec = ClusterSpec(topology="fat_tree:2", ship_mode=ship_mode)
    _, machine, _ = cw.run_cluster(cw.matmult_tree_main(32), 4, spec=spec)
    assert_matches_oracle(machine.trace, ncpus=1)


def test_workload_trace_identical_with_loss():
    # Retransmissions add extra link transfers; both sides must charge
    # them to the same links, classes and stall kinds.
    spec = ClusterSpec(topology="two_tier:2", loss=0.05)
    _, machine, _ = cw.run_cluster(cw.matmult_tree_main(32), 4, spec=spec)
    fields = assert_matches_oracle(machine.trace, ncpus=1)
    assert fields["link_busy"]


@pytest.mark.parametrize("ncpus", [1, 2, 10**9])
def test_workload_trace_identical_across_cpu_counts(ncpus):
    _, machine, _ = cw.run_cluster(cw.md5_tree_main(3), 4)
    assert_matches_oracle(machine.trace, ncpus=ncpus)


@pytest.mark.parametrize("nodes", [64, 256, 1024])
def test_circuit_identical_at_scale(nodes):
    # The shape the nightly sweep scales up: one sibling per node over
    # a routed fat tree, thousands of transfers contending for uplinks.
    _, machine, _ = cw.run_cluster(cw.md5_circuit_main(3), nodes,
                                   spec=ClusterSpec(topology="fat_tree:4"))
    fields = assert_matches_oracle(machine.trace, ncpus=1)
    assert len(fields["transfers"]) == len(machine.trace.transfers)


@pytest.mark.parametrize("recipe", [fault_tolerance, retx_trap],
                         ids=["ft", "retx"])
def test_timeline_matches_oracle(recipe):
    # The debugger's scenarios, scheduled the way the inspector does.
    insp = Inspector.from_recipe(recipe)
    try:
        assert_matches_oracle(insp.trace, ncpus=insp.ncpus)
    finally:
        insp.machine.close()


# -- synthetic traces -----------------------------------------------------

def random_trace(rng, ncontexts=6, ncuts=8):
    """A random closed DAG with plain edges and contended link edges."""
    tr = Trace()
    closed = []
    for c in range(ncontexts):
        tr.begin(f"c{c}", node=c % 3)
        tr.charge(f"c{c}", rng.randrange(1, 50))
    for _ in range(ncuts):
        uid = f"c{rng.randrange(ncontexts)}"
        seg, _ = tr.cut(uid)
        tr.charge(uid, rng.randrange(1, 50))
        closed.append(seg)
        if closed and rng.random() < 0.7:
            src = rng.choice(closed)
            dst = tr._open[uid]
            if src.id < dst.id:
                if rng.random() < 0.5:
                    tr.edge(src, dst, latency=rng.randrange(0, 20))
                else:
                    tr.link_edge(src, dst, link=(src.node, dst.node),
                                 busy=rng.randrange(0, 30),
                                 latency=rng.randrange(0, 10),
                                 cls="rack" if rng.random() < 0.5 else "core",
                                 kind=rng.choice(["fetch", "migrate", None]))
    tr.finish()
    return tr


@pytest.mark.parametrize("seed", range(8))
def test_random_traces_identical(seed):
    rng = random.Random(seed)
    tr = random_trace(rng)
    for ncpus in (1, 2, 4, 10**9):
        assert_matches_oracle(tr, ncpus=ncpus)


def fan_in_trace(nsources, busy, cycles=10):
    """``nsources`` contexts on their own nodes, all finishing in the
    same cycle, each sending one transfer over the *same* link to one
    sink on node 0."""
    tr = Trace()
    tr.begin("sink", node=0)
    tr.charge("sink", 1)
    gate, _ = tr.cut("sink")
    for i in range(nsources):
        tr.begin(f"s{i}", node=1 + i)
        tr.charge(f"s{i}", cycles)
        done, _ = tr.cut(f"s{i}")
        tr.link_edge(done, tr._open["sink"], link="uplink", busy=busy,
                     latency=3, cls="core", kind="fetch")
    tr.edge(gate, tr._open["sink"])
    tr.finish()
    return tr


def test_same_cycle_sources_take_one_link_in_dispatch_order():
    tr = fan_in_trace(nsources=5, busy=7)
    fields = assert_matches_oracle(tr, ncpus=1)
    grants = fields["transfers"]
    # All five finish at cycle 10; the link serves them back to back in
    # the order the sources were dispatched (segment-id order here).
    assert [t[3] for t in grants] == [10, 17, 24, 31, 38]
    assert [t[0] for t in grants] == sorted(t[0] for t in grants)
    assert fields["link_busy"] == {"uplink": 35}


def test_zero_busy_transfers_share_a_grant_cycle():
    # A transfer that serializes for zero cycles still wins (and
    # instantly releases) its link: every grant lands on the same
    # cycle, none occupies the link, all are in flight for the latency.
    tr = fan_in_trace(nsources=4, busy=0)
    fields = assert_matches_oracle(tr, ncpus=1)
    assert [(t[3], t[4], t[5]) for t in fields["transfers"]] == \
        [(10, 10, 13)] * 4
    timeline = Timeline(tr, schedule(tr))
    assert len(timeline.in_flight_at(10)) == 4
    assert timeline.link_busy_until(13) == {"uplink": 0}


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_multi_cpu_node_grant_order_follows_finish_order(cpus):
    # Six unequal senders share ONE node: the CPU count decides when
    # each gets to run, hence when it finishes, hence the grant order.
    tr = Trace()
    tr.begin("sink", node=1)
    for i, cycles in enumerate([9, 4, 7, 4, 1, 6]):
        tr.begin(f"s{i}", node=0)
        tr.charge(f"s{i}", cycles)
        done, _ = tr.cut(f"s{i}")
        tr.link_edge(done, tr._open["sink"], link=(0, 1), busy=5,
                     latency=2, cls="rack",
                     kind="migrate" if i % 2 else None)
    tr.finish()
    fields = assert_matches_oracle(tr, ncpus=cpus)
    finish = fields["finish"]
    order = [t[0] for t in fields["transfers"]]
    assert [finish[s] for s in order] == sorted(finish[s] for s in order)
    assert fields["cpu_count"] == 2 * cpus


def test_empty_trace_identical():
    fields = assert_matches_oracle(Trace())
    assert fields["transfers"] == []


def test_plan_cache_reuse_stays_identical():
    # Replaying the same trace repeatedly (the sweep/CI pattern) reuses
    # the compiled plan; results — grants included — must not drift.
    tr = random_trace(random.Random(99))
    first = assert_matches_oracle(tr, ncpus=2)
    for _ in range(3):
        assert event_fields(tr, ncpus=2) == first


@pytest.mark.parametrize("engine", ["event", "list"])
def test_cycle_detection_identical(engine):
    tr = Trace()
    tr.begin("a")
    tr.charge("a", 5)
    s0, s1 = tr.cut("a")
    tr.charge("a", 5)
    tr.finish()
    tr.edge(s1, s0)  # back edge: s1 -> s0 while s0 -> s1 already exists
    with pytest.raises(ValueError, match="cycle or dangling"):
        {"event": schedule, "list": schedule_list}[engine](tr)


def test_schedule_has_no_engine_selector():
    # One policy, one implementation: nothing to select.
    assert list(inspect.signature(schedule).parameters) == [
        "trace", "ncpus"]
