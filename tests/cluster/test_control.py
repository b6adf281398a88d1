"""Deterministic adaptive control plane: determinism, oracles, policies.

The controller closes the knob feedback loop at quantum boundaries from
telemetry windows that are a pure function of simulated state, so:

* same-seed reruns must reproduce decisions, traces, memory images, and
  makespans bit-identically;
* ``control=None`` must stay byte-identical to a machine that never
  heard of the control plane;
* across fabrics and loss rates, adaptive must compute identical values
  and never lose to the best static knob setting (the oracle the
  ablation gates at full size — exercised here on small workloads).

The policy unit tests drive ``Controller`` directly with fabricated
telemetry windows, checking the AIMD transitions (churn collapse, fleet
ratchet, growth holdoff, the depth-1 floor), the RFC 6298 timeout
arithmetic with its physics floor and static ceiling, and the placement
policy's persistence and dominance guards.
"""

import hashlib

import pytest

from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.cluster import Controller, NetworkStats, resolve_control
from repro.cluster.control import DEPTH_CAP
from repro.cluster.transport import NodeStats, TelemetryWindow
from repro.kernel import Machine

NODES = 4

#: Small build of the phase-skewed workload (bench runs it full-size):
#: phase A churns the prefetch queues, phase B rewards deep streaming.
SKEWED = dict(n=128, rounds=8, width=8, work=10_000)


def _skewed():
    return cw.matmult_skewed_main(**SKEWED)


def _image(space):
    digest = hashlib.sha256()
    aspace = space.addrspace
    for vpn in aspace.mapped_vpns():
        digest.update(vpn.to_bytes(8, "little"))
        digest.update(aspace.frame(vpn).data)
    return digest.hexdigest()


def _run(control=None, loss=None, depth=0, workload=None):
    makespan, machine, value = cw.run_cluster(
        workload or cw.matmult_tree_main(64), NODES,
        spec=ClusterSpec(ship_mode="demand", topology="two_tier:2",
                         prefetch_depth=depth, loss=loss, control=control))
    return makespan, machine, value


# -- determinism -----------------------------------------------------------

def test_same_seed_reruns_bit_identical():
    """Two identical adaptive runs reproduce every observable: value,
    memory image, makespan, the decision log, and the trace's decision
    records."""
    runs = []
    for _ in range(2):
        makespan, machine, value = _run(control="adaptive",
                                        loss={"drop": 0.02, "seed": 7},
                                        workload=_skewed())
        runs.append((value, _image(machine.root), makespan,
                     tuple(machine.control.log),
                     tuple(machine.trace.decisions)))
        assert machine.control.log, "controller made no decisions"
    assert runs[0] == runs[1]


def test_control_none_is_inert():
    """A machine with ``control=None`` carries no controller state and
    matches a plain static run exactly."""
    base = _run(depth=16)
    off = _run(control=None, depth=16)
    assert base[0] == off[0]
    assert base[2] == off[2]
    assert _image(base[1].root) == _image(off[1].root)
    assert off[1].control is None
    assert off[1].trace.decisions == []


def test_decisions_anchored_on_trace():
    """Every decision lands on the trace (same count as the log) and is
    anchored at a real segment of the deciding rendezvous."""
    _, machine, _ = _run(control="adaptive", workload=_skewed())
    decisions = machine.trace.decisions
    assert len(decisions) == len(machine.control.log)
    assert decisions, "expected at least one adaptive decision"
    seg_ids = {segment.id for segment in machine.trace.segments}
    assert all(seg_id in seg_ids for seg_id, *_ in decisions)


# -- adaptive-vs-static oracle (small; the ablation runs it full-size) -----

@pytest.mark.parametrize("topology", ["flat", "two_tier:2", "fat_tree:2"])
@pytest.mark.parametrize("loss", [None, 0.01, 0.05])
def test_adaptive_oracle(topology, loss):
    """Identical values everywhere; adaptive makespan never worse than
    the best static depth."""
    values = set()
    best = None
    for depth in (0, 4, 16):
        makespan, machine, value = cw.run_cluster(
            cw.matmult_tree_main(64), NODES,
            spec=ClusterSpec(ship_mode="demand", topology=topology,
                             prefetch_depth=depth, loss=loss))
        values.add(value)
        best = makespan if best is None else min(best, makespan)
    makespan, machine, value = cw.run_cluster(
        cw.matmult_tree_main(64), NODES,
        spec=ClusterSpec(ship_mode="demand", topology=topology, loss=loss,
                         control="adaptive"))
    values.add(value)
    assert len(values) == 1
    assert makespan <= best


def test_skewed_workload_adaptive_beats_statics():
    """The churn workload's acceptance property at test scale: adaptive
    strictly beats every static depth (full grid in the ablation)."""
    statics = []
    values = set()
    for depth in (0, 8, 32):
        makespan, _, value = cw.run_cluster(
            _skewed(), NODES,
            spec=ClusterSpec(ship_mode="demand", topology="two_tier:2",
                             prefetch_depth=depth))
        statics.append(makespan)
        values.add(value)
    makespan, machine, value = cw.run_cluster(
        _skewed(), NODES,
        spec=ClusterSpec(ship_mode="demand", topology="two_tier:2",
                         control="adaptive"))
    values.add(value)
    assert len(values) == 1
    assert all(makespan < static for static in statics), \
        (makespan, statics)
    # The signature trajectory: one early churn collapse off the boot
    # depth, later demand-driven growth for the streaming phase.
    log = machine.control.log
    assert any("prefetch" in line and "-> 1" in line for line in log), log


# -- resolve_control -------------------------------------------------------

def test_resolve_control_specs():
    assert resolve_control(None) is None
    ctrl = resolve_control("adaptive")
    assert isinstance(ctrl, Controller)
    assert ctrl.policies == Controller.POLICIES
    custom = resolve_control({"policies": ("prefetch",)})
    assert custom.policies == ("prefetch",)
    assert custom.depth_for(0) == DEPTH_CAP // 2
    assert resolve_control(custom) is custom
    with pytest.raises(ValueError):
        resolve_control("aggressive")
    with pytest.raises(ValueError):
        resolve_control({"policies": ("prefetch", "voodoo")})
    for gone in ("interval", "depth0"):   # not options (any more)
        with pytest.raises(TypeError):
            resolve_control({gone: 2})
    with pytest.raises(ValueError):
        resolve_control(42)


# -- policy unit tests (fabricated windows) --------------------------------

def _window(index, node_rows, route_samples=None, pair_bytes=None):
    nodes = {}
    for node, overrides in node_rows.items():
        row = dict.fromkeys(NodeStats.FIELDS, 0)
        row.update(overrides)
        nodes[node] = row
    return TelemetryWindow(index, nodes, route_samples or {},
                           pair_bytes or {})


@pytest.fixture
def machine():
    with Machine(nnodes=NODES,
                 spec=ClusterSpec(ship_mode="demand", topology="two_tier:2",
                                  control=Controller())) as m:
        yield m


def _decide(machine, window):
    machine.control._decide_prefetch(machine, window, None)


def test_churn_collapse_and_fleet_ratchet(machine):
    """A churn-dominated window collapses the node to observed demand
    and ratchets every node's depth down with it (the SPMD lesson)."""
    ctrl = machine.control
    assert ctrl.depth_for(0) == 32
    _decide(machine, _window(0, {0: {"prefetch_issued": 24,
                                     "prefetch_used": 24,
                                     "prefetch_refresh": 16}}))
    assert ctrl.depth_for(0) == 1
    # Fleet ratchet: nodes that never reported telemetry are pinned
    # too, and a later demand jump on one node cannot resurrect them
    # through the boot default.
    assert all(ctrl.depth_for(n) == 1 for n in range(NODES))
    assert ctrl._boot == 1
    _decide(machine, _window(1, {2: {"pulled": 40}}))
    assert ctrl.depth_for(2) == 1, "growth must hold after a collapse"


def test_growth_hold_then_slow_start(machine):
    """After a collapse, growth stays armed only behind ``growth_hold``
    strictly-clean windows; then demand jumps depth to the burst."""
    ctrl = machine.control
    _decide(machine, _window(0, {0: {"prefetch_issued": 8,
                                     "prefetch_used": 8,
                                     "prefetch_refresh": 8}}))
    assert ctrl.depth_for(0) == 1
    # Two clean windows drain the holdoff (no growth yet)...
    _decide(machine, _window(1, {0: {"pulled": 40}}))
    _decide(machine, _window(2, {0: {"pulled": 40}}))
    assert ctrl.depth_for(0) == 1
    # ...and the next demand burst jumps straight to its size.
    _decide(machine, _window(3, {0: {"pulled": 40}}))
    assert ctrl.depth_for(0) == 40
    assert ctrl._boot == 40, "demand jumps ratchet the boot depth up"


def test_waste_halves_with_floor(machine):
    """Stale/aged waste halves depth multiplicatively but never below
    1: a zero queue would observe nothing and oscillate."""
    ctrl = machine.control
    for index in range(8):
        _decide(machine, _window(index, {0: {"prefetch_issued": 4,
                                             "prefetch_stale": 4}}))
    assert ctrl.depth_for(0) == 1


def test_dirty_windows_keep_growth_held(machine):
    """Windows still showing stale waste neither drain the holdoff nor
    clear the churn flag — only strictly-clean windows re-arm jumps."""
    ctrl = machine.control
    _decide(machine, _window(0, {0: {"prefetch_issued": 8,
                                     "prefetch_used": 8,
                                     "prefetch_refresh": 8}}))
    for index in range(1, 6):
        _decide(machine, _window(index, {0: {"pulled": 8,
                                             "prefetch_issued": 1,
                                             "prefetch_stale": 1}}))
    assert ctrl.depth_for(0) == 1


def test_retx_timeout_floor_and_ceiling():
    """SRTT timeouts respect both clamps: never below twice the route
    transit, never above the static ``cost.retx_timeout``."""
    with Machine(nnodes=NODES,
                 spec=ClusterSpec(ship_mode="demand", topology="two_tier:2",
                                  loss={"drop": 0.02, "seed": 1},
                                  control="adaptive")) as machine:
        ctrl = machine.control
        cost = machine.cost
        rack = 2 * machine.topology.route_latency(cost, 0, 1)
        # A fast rack route converges below the static timer but stops
        # at the physics floor.
        for index in range(40):
            ctrl._decide_retx(machine, _window(
                index, {}, route_samples={(0, 1): [rack // 2] * 4}), None)
        assert rack <= ctrl.timeouts[(0, 1)] < cost.retx_timeout
        # A slow cross-rack route can only ever match the static timer.
        ctrl._decide_retx(machine, _window(
            99, {}, route_samples={(0, 2): [cost.retx_timeout * 4]}), None)
        assert ctrl.timeouts[(0, 2)] == cost.retx_timeout
        assert machine.retx_timeout_for(0, 1) == ctrl.timeouts[(0, 1)]
        assert machine.retx_timeout_for(1, 0) == ctrl.timeouts[(0, 1)]


def test_placement_needs_persistence_and_dominance(machine):
    """One dominant window is not enough (phases rotate hot pairs), a
    non-dominant top pair is never enough; two consecutive dominant
    windows trigger exactly one swap and keep the map a bijection."""
    machine.run(lambda g: 0)  # materialize a root space for _swap_nodes
    ctrl = machine.control
    for node in range(1, NODES):    # the root's run bound node 0
        machine.bind_node(node, node)
    hot = {(0, 2): 1 << 20, (1, 3): 1 << 14}
    ctrl._decide_placement(machine, _window(0, {}, pair_bytes=dict(hot)),
                           None, machine.root)
    assert ctrl.moves == 0, "first dominant window must only arm"
    # An SPMD-balanced window (no 2x dominance) resets the candidate.
    flat = {(0, 2): 1 << 20, (0, 3): 1 << 20}
    ctrl._decide_placement(machine, _window(1, {}, pair_bytes=flat),
                           None, machine.root)
    ctrl._decide_placement(machine, _window(2, {}, pair_bytes=dict(hot)),
                           None, machine.root)
    assert ctrl.moves == 0
    ctrl._decide_placement(machine, _window(3, {}, pair_bytes=dict(hot)),
                           None, machine.root)
    assert ctrl.moves == 1
    assert sorted(machine.node_map.values()) == list(range(NODES))


# -- NetworkStats.window() -------------------------------------------------

def test_network_stats_window_snapshot_resets():
    """window() drains the running telemetry window: a second snapshot
    is empty with a bumped serial, and the cumulative counters are
    untouched."""
    _, machine, _ = _run(depth=8)
    stats = NetworkStats(machine)
    pulled_before = machine.transport.pages_pulled
    first = stats.window()
    assert first.nodes, "whole run should have telemetry"
    assert sum(row["pulled"] for row in first.nodes.values()) \
        == pulled_before
    second = stats.window()
    assert second.index == first.index + 1
    assert not second.nodes
    assert machine.transport.pages_pulled == pulled_before
