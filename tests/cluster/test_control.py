"""Deterministic adaptive prefetch depth: determinism, oracles, policy.

Under ``prefetch_depth="adaptive"`` the controller closes the depth
feedback loop at quantum boundaries from telemetry windows that are a
pure function of simulated state, so:

* same-seed reruns must reproduce decisions, traces, memory images, and
  makespans bit-identically;
* a static depth builds no controller at all;
* across fabrics and loss rates, adaptive must compute identical values
  and never lose to the best static depth (the oracle the ablation
  gates at full size — exercised here on small workloads).

The policy unit tests drive ``Controller`` directly with fabricated
telemetry windows, checking the policy's transitions (demand jump,
halving to the depth-1 floor, churn collapse, fleet collapse, growth
hold).
"""

import hashlib
import re
from pathlib import Path

import pytest

from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.cluster import control
from repro.cluster.control import DEPTH_CAP, Controller
from repro.cluster.transport import NodeStats
from repro.kernel import Machine

NODES = 4

#: Small build of the phase-skewed workload (bench runs it full-size):
#: phase A churns the prefetch queues, phase B rewards deep streaming.
SKEWED = dict(n=128, work=10_000)


def _skewed():
    return cw.matmult_skewed_main(**SKEWED)


def _image(space):
    digest = hashlib.sha256()
    aspace = space.addrspace
    for vpn in aspace.mapped_vpns():
        digest.update(vpn.to_bytes(8, "little"))
        digest.update(aspace.frame(vpn).data)
    return digest.hexdigest()


def _run(depth=0, loss=None, workload=None):
    makespan, machine, value = cw.run_cluster(
        workload or cw.matmult_tree_main(64), NODES,
        spec=ClusterSpec(ship_mode="demand", topology="two_tier:2",
                         prefetch_depth=depth, loss=loss))
    return makespan, machine, value


# -- determinism -----------------------------------------------------------

def test_same_seed_reruns_bit_identical():
    """Two identical adaptive runs reproduce every observable: value,
    memory image, makespan and the decision log."""
    runs = []
    for _ in range(2):
        makespan, machine, value = _run(depth="adaptive",
                                        loss={"drop": 0.02, "seed": 7},
                                        workload=_skewed())
        runs.append((value, _image(machine.root), makespan,
                     tuple(machine.control.log)))
        assert machine.control.log, "controller made no decisions"
    assert runs[0] == runs[1]


def test_control_none_is_inert():
    """A static depth carries no controller: every node reads the
    spec's one depth, and a rerun matches it exactly."""
    base = _run(depth=16)
    again = _run(depth=16)
    assert base[0] == again[0]
    assert base[2] == again[2]
    assert _image(base[1].root) == _image(again[1].root)
    assert again[1].control is None
    assert {again[1].prefetch_depth_for(node)
            for node in range(NODES)} == {16}


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
                         prefetch_depth="adaptive"))
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
                         prefetch_depth="adaptive"))
    values.add(value)
    assert len(values) == 1
    assert all(makespan < static for static in statics), \
        (makespan, statics)
    # The signature trajectory: one early churn collapse off the boot
    # depth, later demand-driven growth for the streaming phase.
    log = machine.control.log
    assert any("prefetch" in line and "-> 1" in line for line in log), log


# -- the spec value --------------------------------------------------------

def test_adaptive_is_a_prefetch_depth():
    """``"adaptive"`` is a value of ``prefetch_depth``: each machine
    builds its own fresh controller from it, and any other non-int form
    is refused naming the field; ``control=`` is no spec keyword."""
    spec = ClusterSpec(prefetch_depth="adaptive")
    with Machine(nnodes=NODES, spec=spec) as a, \
            Machine(nnodes=NODES, spec=spec) as b:
        assert isinstance(a.control, Controller)
        assert a.control is not b.control               # fresh per machine
        assert a.prefetch_depth_for(0) == DEPTH_CAP // 2
    for bad in ("Adaptive", "auto", True, -1, 1.5, Controller()):
        with pytest.raises(ValueError, match="prefetch_depth"):
            ClusterSpec(prefetch_depth=bad)
    with pytest.raises(TypeError, match="control"):
        ClusterSpec(control="adaptive")


# -- policy unit tests (fabricated windows) --------------------------------

def _window(node_rows):
    """node -> a window row: every counter zero but ``node_rows``'."""
    zero = dict.fromkeys(NodeStats.FIELDS, 0)
    return {node: {**zero, **overrides}
            for node, overrides in node_rows.items()}


@pytest.fixture
def machine():
    with Machine(nnodes=NODES,
                 spec=ClusterSpec(ship_mode="demand", topology="two_tier:2",
                                  prefetch_depth="adaptive")) as m:
        yield m


def _decide(machine, window):
    machine.control._decide_prefetch(machine, window)


def test_churn_collapse_and_fleet_ratchet(machine):
    """A churn-dominated window collapses the node to observed demand
    and takes every node's depth down with it (the SPMD lesson)."""
    ctrl = machine.control
    assert ctrl.depth_for(0) == 32
    _decide(machine, _window({0: {"prefetch_issued": 24,
                                "prefetch_used": 24,
                                "prefetch_refresh": 16}}))
    assert ctrl.depth_for(0) == 1
    # Fleet collapse: nodes that never reported telemetry follow
    # through the boot depth, and every node's growth is held.
    assert all(ctrl.depth_for(n) == 1 for n in range(NODES))
    assert ctrl._boot == 1
    _decide(machine, _window({2: {"pulled": 40}}))
    assert ctrl.depth_for(2) == 1, "growth must hold after a collapse"


def test_growth_hold_then_slow_start(machine):
    """After a collapse, growth stays armed only behind ``growth_hold``
    strictly-clean windows; then demand jumps depth to the burst."""
    ctrl = machine.control
    _decide(machine, _window({0: {"prefetch_issued": 8,
                                "prefetch_used": 8,
                                "prefetch_refresh": 8}}))
    assert ctrl.depth_for(0) == 1
    # Two clean windows drain the holdoff (no growth yet)...
    _decide(machine, _window({0: {"pulled": 40}}))
    _decide(machine, _window({0: {"pulled": 40}}))
    assert ctrl.depth_for(0) == 1
    # ...and the next demand burst jumps straight to its size.
    _decide(machine, _window({0: {"pulled": 40}}))
    assert ctrl.depth_for(0) == 40
    assert ctrl._boot == 1, "a jump never raises the boot depth"


@pytest.mark.parametrize("row, depth", [
    ({"prefetch_stale": 1}, 32),        # one wasted frame is tolerated
    ({"prefetch_stale": 2}, 16),        # two halve the depth
    ({"prefetch_used": 16, "prefetch_stale": 2}, 32),   # used // 8
    ({"prefetch_used": 16, "prefetch_stale": 3}, 16),
    ({"prefetch_stale": 2, "prefetch_refresh": 1, "pulled": 3}, 16),
    ({"prefetch_stale": 1, "prefetch_refresh": 1, "pulled": 3}, 3),
    ({"pulled": 31}, 32),               # stalls below the depth: hold
    ({"pulled": 32}, 64),               # a burst of the depth doubles it
], ids=str)
def test_one_window_from_the_boot_depth(machine, row, depth):
    """Each rule's threshold, on a node's first window: waste beyond
    ``max(1, used // WASTE_TOLERANCE)`` halves, churn at least as
    large as the stale count collapses to demand, and demand at least
    the depth jumps — no hold is armed before a first shrink."""
    _decide(machine, _window({0: row}))
    assert machine.control.depth_for(0) == depth


def test_waste_halves_with_floor(machine):
    """Stale waste halves depth multiplicatively but never below
    1: a zero queue would observe nothing and oscillate."""
    ctrl = machine.control
    for _ in range(8):
        _decide(machine, _window({0: {"prefetch_issued": 4,
                                      "prefetch_stale": 4}}))
    assert ctrl.depth_for(0) == 1


def test_dirty_windows_keep_growth_held(machine):
    """Windows still showing stale waste do not drain the holdoff —
    only strictly-clean windows re-arm jumps."""
    ctrl = machine.control
    _decide(machine, _window({0: {"prefetch_issued": 8,
                                "prefetch_used": 8,
                                "prefetch_refresh": 8}}))
    for _ in range(5):
        _decide(machine, _window({0: {"pulled": 8,
                                      "prefetch_issued": 1,
                                      "prefetch_stale": 1}}))
    assert ctrl.depth_for(0) == 1


# -- docs/knobs.md ---------------------------------------------------------

KNOBS = Path(__file__).resolve().parents[2] / "docs" / "knobs.md"


def _documented_constants(text):
    """``{name: value}`` of the guide's "Fixed policy constants"
    bullets (``* `NAME` = 64 — ...``; a ``KiB`` unit multiplies)."""
    section = text.split("Fixed policy constants", 1)[1].split("\n## ")[0]
    found = {}
    for name, number, kib in re.findall(
            r"^\* `(\w+)` = ([\d.]+)( KiB)?", section, re.M):
        value = float(number) if "." in number else int(number)
        found[name] = value * 1024 if kib else value
    return found


def test_knobs_doc_matches_the_control_module():
    """docs/knobs.md lists the controller's fixed constants: they must
    be what cluster/control.py holds, by name and value."""
    constants = {name: value for name, value in vars(control).items()
                 if name.isupper() and type(value) in (int, float)}
    assert _documented_constants(KNOBS.read_text()) == constants
