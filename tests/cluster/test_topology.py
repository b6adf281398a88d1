"""Routed-fabric invariants: route symmetry, per-traversed-link byte
conservation, oversubscription showing up as occupancy, and placement
policies relocating traffic without changing results."""

import pytest

from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.cluster import (
    Controller,
    FatTreeTopology,
    FlatTopology,
    NetworkStats,
    TwoTierTopology,
    resolve_placement,
    resolve_topology,
)
from repro.common.errors import KernelError
from repro.kernel import Machine, child_ref
from repro.mem import PAGE_SIZE
from repro.timing.schedule import schedule

ADDR = 0x10_0000

PRESETS = [
    FlatTopology(8),
    TwoTierTopology(8, rack_size=2),
    TwoTierTopology(8, rack_size=4),
    FatTreeTopology(8, rack_size=2),
    FatTreeTopology(8, rack_size=4),
]


def ship_work(nnodes, data_pages=8, work=100_000):
    """One worker per node; the data rides fork copies + merges back."""
    def worker(g):
        g.work(work)
        return int(g.read(ADDR, 1)[0])

    def main(g):
        g.write(ADDR, b"\x07" * (data_pages * PAGE_SIZE))
        refs = []
        for node in range(nnodes):
            ref = child_ref(1, node=node)
            g.put(ref, regs={"entry": worker},
                  copy=(ADDR, data_pages * PAGE_SIZE), start=True)
            refs.append(ref)
        return sum(g.get(ref, regs=True)["r0"] for ref in refs)

    return main


def matmult(nnodes, n=64, **knobs):
    with Machine(nnodes=nnodes, spec=ClusterSpec(**knobs)) as m:
        result = m.run(lambda g: cw.matmult_tree(g, nnodes, n, seed=7))
        return result, m


# -- routing ---------------------------------------------------------------

def test_routes_are_symmetric():
    """The reverse route is the same path, link-reversed, hop-reversed."""
    for topo in PRESETS:
        for src in range(topo.nnodes):
            for dst in range(topo.nnodes):
                forward = topo.route(src, dst)
                back = topo.route(dst, src)
                assert back == tuple((b, a) for a, b in reversed(forward)), \
                    (topo, src, dst)


def test_flat_routes_are_single_direct_hops():
    topo = FlatTopology(4)
    assert topo.route(0, 3) == ((0, 3),)
    assert topo.route(2, 2) == ()
    assert topo.link_class((0, 3)).byte_factor == 1.0


def test_switched_routes_go_through_switches():
    topo = TwoTierTopology(8, rack_size=2)
    # Intra-rack: two rack-class hops through the ToR switch.
    assert topo.route(0, 1) == ((0, "rack0"), ("rack0", 1))
    # Cross-rack: four hops, the middle two core-class.
    route = topo.route(0, 5)
    assert route == ((0, "rack0"), ("rack0", "core"),
                     ("core", "rack2"), ("rack2", 5))
    classes = [topo.link_class(link).name for link in route]
    assert classes == ["rack", "core", "core", "rack"]


def test_two_tier_cross_rack_latency_exceeds_intra():
    from repro.timing.model import CostModel
    cost = CostModel()
    topo = TwoTierTopology(8, rack_size=2)
    intra = topo.route_latency(cost, 0, 1)
    cross = topo.route_latency(cost, 0, 5)
    # Intra-rack equals the flat fabric's one-hop latency by design.
    assert intra == cost.net_latency
    assert cross == 3 * cost.net_latency


def test_fat_tree_spreads_spines_deterministically():
    topo = FatTreeTopology(8, rack_size=2)
    spines = {topo.route(src, dst)[1][1]
              for src in range(8) for dst in range(8)
              if topo.rack_of(src) != topo.rack_of(dst)}
    assert len(spines) > 1          # load spreads over several spines
    assert topo.route(0, 5) == topo.route(0, 5)   # and is stable


def test_resolve_topology_specs():
    assert isinstance(resolve_topology(None, 4), FlatTopology)
    topo = resolve_topology("two_tier:2", 8)
    assert isinstance(topo, TwoTierTopology) and topo.rack_size == 2
    built = resolve_topology(lambda n: FatTreeTopology(n, rack_size=2), 8)
    assert isinstance(built, FatTreeTopology)
    with pytest.raises(ValueError, match="unknown topology"):
        resolve_topology("torus", 8)
    with pytest.raises(ValueError, match="built for"):
        resolve_topology(FlatTopology(4), 8)


# -- conservation over routes ----------------------------------------------

def test_bytes_conserved_per_traversed_link():
    """Every physical link of every route — switch links included —
    delivers exactly the bytes it sent."""
    with Machine(nnodes=8, spec=ClusterSpec(topology="two_tier:2")) as m:
        m.run(ship_work(8))
        switch_links = [link for link in m.transport.links
                        if any(isinstance(end, str) for end in link)]
        assert switch_links, "expected traffic through switches"
        for link, stats in m.transport.links.items():
            assert stats.bytes_sent == stats.bytes_received, link
        assert m.transport.conservation_ok()


def test_hops_exceed_messages_on_switched_fabric():
    """A routed message traverses every link of its path."""
    with Machine(nnodes=4, spec=ClusterSpec(topology="two_tier:2")) as m:
        m.run(ship_work(4))
        t = m.transport
        assert t.hops > t.messages
        assert sum(s.messages for s in t.links.values()) == t.hops


# -- semantics -------------------------------------------------------------

def test_identical_results_across_topologies_and_policies():
    reference = None
    for topo in (None, "two_tier:2", "fat_tree:2"):
        for policy in ("identity", "round_robin", "locality"):
            result, _ = matmult(4, topology=topo, placement=policy)
            if reference is None:
                reference = result.r0
            assert result.r0 == reference, (topo, policy)


# -- oversubscription ------------------------------------------------------

def test_cross_rack_links_hotter_than_rack_links_on_matmult():
    """The oversubscribed core links carry the aggregated cross-rack
    flow at a bandwidth penalty: their occupancy strictly exceeds any
    rack-local link's."""
    _, m = matmult(4, topology="two_tier:2")
    by_cls = {}
    for stats in m.transport.links.values():
        by_cls.setdefault(stats.cls, []).append(stats.busy_cycles)
    assert "core" in by_cls and "rack" in by_cls
    assert max(by_cls["core"]) > max(by_cls["rack"])


def test_oversubscription_slows_two_tier_vs_fat_tree():
    """Same routes, same bytes — only the core bandwidth differs."""
    two_tier, m2 = matmult(4, topology="two_tier:2")
    fat, mf = matmult(4, topology="fat_tree:2")
    assert m2.transport.bytes_total == mf.transport.bytes_total
    assert two_tier.makespan(ncpus=1) > fat.makespan(ncpus=1)


def test_schedule_reports_per_class_occupancy():
    result, _ = matmult(4, topology="two_tier:2")
    sched = schedule(result.trace, ncpus=1)
    assert sched.class_busy.get("core", 0) > 0
    assert sched.class_busy.get("rack", 0) > 0
    assert sum(sched.class_busy.values()) == sum(sched.link_busy.values())


# -- placement -------------------------------------------------------------

def test_round_robin_stripes_racks_and_locality_packs():
    def touch_all(nnodes):
        def main(g):
            for node in range(nnodes):
                g.put(child_ref(1, node=node), regs={"entry": lambda g2: 0},
                      start=True)
            for node in range(nnodes):
                g.get(child_ref(1, node=node), regs=True)
            return 0
        return main

    with Machine(nnodes=4,
                 spec=ClusterSpec(topology="two_tier:2",
                                  placement="round_robin")) as m:
        m.run(touch_all(4))
        # Virtual 0,1 stripe across racks {0,1} and {2,3}.
        assert m.node_map == {0: 0, 1: 2, 2: 1, 3: 3}
    with Machine(nnodes=4,
                 spec=ClusterSpec(topology="two_tier:2",
                                  placement="locality")) as m:
        m.run(touch_all(4))
        # Contiguous virtual blocks share racks.
        assert m.node_map == {0: 0, 1: 1, 2: 2, 3: 3}


def test_locality_reduces_cross_rack_bytes_on_matmult():
    _, rr = matmult(4, topology="two_tier:2", placement="round_robin")
    _, loc = matmult(4, topology="two_tier:2", placement="locality")
    rr_core = NetworkStats(rr).class_bytes("core")
    loc_core = NetworkStats(loc).class_bytes("core")
    assert loc_core < rr_core
    assert rr.transport.conservation_ok()
    assert loc.transport.conservation_ok()


def test_placement_is_sticky_and_bijective():
    with Machine(nnodes=4,
                 spec=ClusterSpec(topology="two_tier:2",
                                  placement="locality")) as m:
        m.run(ship_work(4))
        assert sorted(m.node_map.values()) == sorted(m.node_map)
        before = dict(m.node_map)
        assert m.place(2) == before[2]      # sticky on re-query
        assert m.node_map == before


def test_placement_must_return_unused_node():
    class Broken:
        name = "broken"

        def assign(self, machine, caller, vnode):
            return 0

    def main(g):
        g.put(child_ref(1, node=1), regs={"entry": lambda g2: 0}, start=True)
        return 0

    with Machine(nnodes=2,
                 spec=ClusterSpec(
                     placement=resolve_placement("identity"))) as ok:
        ok.run(main)
    broken = Machine(nnodes=2)
    broken.placement = Broken()
    with broken:
        result = broken.run(main)
        assert result.trap.name == "EXC"
        assert "reused" in result.trap_info


# The placement policies as first written: every call rebuilds the rack
# lists, the stripe order and the used set from scratch.  The machine
# keeps those between calls now; the assignments must not move.

def _striped_reference(topo):
    racks = topo.racks()
    order = []
    for slot in range(max(len(rack) for rack in racks)):
        for rack in racks:
            if slot < len(rack):
                order.append(rack[slot])
    return order


def _reference_assign(policy, topo, node_map, vnode):
    if policy == "identity":
        return vnode
    if policy == "round_robin":
        return _striped_reference(topo)[vnode]
    used = set(node_map.values())       # locality: first free home slot
    return next(node for node in topo.racks()[topo.rack_of(vnode)]
                if node not in used)


@pytest.mark.parametrize("policy", ["round_robin", "locality", "identity"])
@pytest.mark.parametrize("topology,nnodes", [
    ("flat", 8), ("two_tier:4", 8), ("fat_tree:4", 8),
    ("two_tier:4", 10), ("fat_tree:4", 10), ("fat_tree:3", 7),
], ids=["flat", "two_tier", "fat_tree", "two_tier-ragged",
        "fat_tree-ragged", "fat_tree-ragged3"])
def test_placement_matches_the_per_call_definition(topology, nnodes, policy):
    # First-use order is the program's: scramble it so locality sees
    # home racks fill out of order.
    order = [(3 * v + 3) % nnodes for v in range(nnodes)]
    assert sorted(order) == list(range(nnodes))
    with Machine(nnodes=nnodes,
                 spec=ClusterSpec(topology=topology, placement=policy)) as m:
        reference = {}
        for vnode in order:
            reference[vnode] = _reference_assign(
                policy, resolve_topology(topology, nnodes), reference, vnode)
            assert m.place(vnode) == reference[vnode]
        assert m.node_map == reference
        assert m.node_owner == {phys: v for v, phys in reference.items()}
        assert sorted(m.node_owner) == list(range(nnodes))


class _Scripted:
    """A placement policy that answers from a script."""

    name = "scripted"

    def __init__(self, answers):
        self.answers = answers

    def assign(self, machine, caller, vnode):
        return self.answers[vnode]


@pytest.mark.parametrize("answer,complaint", [
    (1, "reused"), (4, "returned"), (-1, "returned"),
], ids=["reused", "past-the-end", "negative"])
def test_bad_policy_refused_after_control_plane_swap(answer, complaint):
    with Machine(nnodes=4,
                 spec=ClusterSpec(topology="two_tier:2",
                                  placement="identity")) as m:
        m.run(ship_work(3))
        assert m.node_map == {0: 0, 1: 1, 2: 2}
        Controller()._swap_nodes(m, 1, 2, None)
        assert m.node_map == {0: 0, 1: 2, 2: 1}
        assert m.node_owner == {0: 0, 2: 1, 1: 2}
        m.placement = _Scripted({3: answer})
        with pytest.raises(KernelError, match=complaint):
            m.place(3)
        assert 3 not in m.node_map and len(m.node_owner) == 3
        # Swapping with a free node moves the binding and frees the old one.
        Controller()._swap_nodes(m, 2, 3, None)
        assert m.node_map == {0: 0, 1: 3, 2: 1}
        m.placement = _Scripted({3: 2})
        assert m.place(3) == 2
        assert sorted(m.node_owner) == sorted(m.node_map) == [0, 1, 2, 3]


def test_default_flat_round_robin_is_identity():
    """The default fabric+policy keep pre-topology behavior: workers
    land on the physical node their virtual number names."""
    def main(g):
        for node in range(4):
            g.put(child_ref(1, node=node),
                  regs={"entry": lambda g2: g2.space.cur_node}, start=True)
        return [g.get(child_ref(1, node=node), regs=True)["r0"]
                for node in range(4)]

    with Machine(nnodes=4) as m:
        assert m.run(main).r0 == [0, 1, 2, 3]


def test_bad_specs_rejected():
    with pytest.raises(ValueError, match="placement"):
        Machine(nnodes=2, spec=ClusterSpec(placement="nearest"))
    with pytest.raises(ValueError, match="topology"):
        Machine(nnodes=2, spec=ClusterSpec(topology="ring"))
    with pytest.raises(ValueError):
        resolve_placement(42)


def test_virtual_node_validation_still_applies():
    def main(g):
        try:
            g.put(child_ref(0, node=9), start=False)
        except KernelError:
            return "bad-node"

    with Machine(nnodes=2, spec=ClusterSpec(topology="two_tier:2")) as m:
        assert m.run(main).r0 == "bad-node"
