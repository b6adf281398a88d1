"""Deterministic fault injection: replay, conservation, and cost-only
oracles.

The loss schedule decides whether to drop each copy per ``(link,
message serial, attempt)`` as a pure function of the seed, so faults
must replay bit-identically: two runs under one seed drop the same
copies of the same messages on the same links.  And faults are *cost-only*: under any
schedule, every workload's computed value and final memory image must
equal the zero-loss run's — only wire traffic and timing may move.
Conservation extends to ``delivered + dropped == sent`` per physical
link.
"""

import hashlib
import re
from types import SimpleNamespace

import pytest

from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.cluster import LossSchedule, MsgType, NetworkStats, resolve_loss
from repro.common.errors import NetworkLossError
from repro.kernel import Machine
from repro.mem import PAGE_SIZE, Page
from repro.timing.schedule import schedule

NODES = 4
TOPOLOGY = "two_tier:2"


def _memory_image(machine):
    """Digest of the root's full memory image (vpn-ordered frame bytes)."""
    digest = hashlib.sha256()
    aspace = machine.root.addrspace
    for vpn in aspace.mapped_vpns():
        digest.update(vpn.to_bytes(8, "little"))
        digest.update(aspace.frame(vpn).data)
    return digest.hexdigest()


def _run(loss=None, **config):
    config.setdefault("topology", TOPOLOGY)
    makespan, machine, value = cw.run_cluster(
        cw.matmult_tree_main(64), NODES,
        spec=ClusterSpec(loss=loss, **config))
    assert machine.transport.conservation_ok()
    return makespan, machine, value


# -- the schedule itself ----------------------------------------------------

def test_decide_is_a_pure_function():
    """No generator state: any (link, serial, attempt) query returns
    the same outcome however often and in whatever order it is asked."""
    sched = LossSchedule(drop=0.3, seed=42)
    probes = [((0, 1), 7, 0), (("rack0", "core"), 7, 0), ((0, 1), 7, 1),
              ((1, 0), 7, 0), ((0, 1), 8, 0)]
    first = [sched.drops(*p) for p in reversed(probes)][::-1]
    again = [LossSchedule(drop=0.3, seed=42).drops(*p) for p in probes]
    assert first == again
    outcomes = set(first) | {sched.drops((0, 1), s) for s in range(200)}
    assert outcomes == {False, True}  # 30% over 200 serials must hit


def test_schedules_nest_across_rates():
    """Raising the drop rate only adds drops (same seed): every message
    dropped at 0.1% is dropped at 1%."""
    low = LossSchedule(drop=0.001, seed=9)
    high = LossSchedule(drop=0.01, seed=9)
    for serial in range(5000):
        if low.drops((0, 1), serial):
            assert high.drops((0, 1), serial)


def test_rate_validation_and_resolve():
    with pytest.raises(ValueError):
        LossSchedule(drop=1.5)
    with pytest.raises(ValueError):
        LossSchedule(drop=-0.1)
    with pytest.raises(ValueError):
        resolve_loss(True)
    with pytest.raises(ValueError):
        resolve_loss("lossy")
    assert resolve_loss(None) is None
    assert resolve_loss(0.25).drop == 0.25
    assert resolve_loss({"drop": 0.1, "seed": 3}).seed == 3
    sched = LossSchedule(drop=0.1)
    assert resolve_loss(sched) is sched


# -- bit-identical replay ---------------------------------------------------

def test_same_seed_replays_bit_identically():
    """Two runs under one schedule: identical retransmit tables, wire
    stats, makespans, values, and memory images."""
    runs = [_run(loss={"drop": 0.05, "seed": 7}) for _ in range(2)]
    (mk_a, m_a, v_a), (mk_b, m_b, v_b) = runs
    assert (mk_a, v_a) == (mk_b, v_b)
    assert _memory_image(m_a) == _memory_image(m_b)
    stats_a, stats_b = NetworkStats(m_a), NetworkStats(m_b)
    assert stats_a.retx_table() == stats_b.retx_table()
    assert stats_a.summary() == stats_b.summary()
    assert stats_a.retx_msgs > 0  # 5% over a real run must fault


def test_different_seeds_move_only_the_wire():
    """A different seed faults different messages — values and memory
    images never move, the retransmit ledger does."""
    mk_a, m_a, v_a = _run(loss={"drop": 0.05, "seed": 1})
    mk_b, m_b, v_b = _run(loss={"drop": 0.05, "seed": 2})
    mk_0, m_0, v_0 = _run()
    assert v_a == v_b == v_0
    images = {_memory_image(m) for m in (m_a, m_b, m_0)}
    assert len(images) == 1
    table_a, table_b = (NetworkStats(m).retx_table() for m in (m_a, m_b))
    assert table_a != table_b


def test_zero_loss_schedule_is_bit_identical_to_no_schedule():
    """LossSchedule with zero rates must reproduce the pre-fault
    transport exactly — same makespan, wire bytes, link tables, and no
    retransmit activity."""
    mk_none, m_none, v_none = _run(loss=None)
    mk_zero, m_zero, v_zero = _run(loss=LossSchedule())
    assert (mk_none, v_none) == (mk_zero, v_zero)
    assert _memory_image(m_none) == _memory_image(m_zero)
    stats_none, stats_zero = NetworkStats(m_none), NetworkStats(m_zero)
    assert stats_none.wire_bytes == stats_zero.wire_bytes
    assert stats_none.link_table() == stats_zero.link_table()
    assert stats_zero.retx_msgs == stats_zero.dropped_msgs == 0
    assert stats_zero.retx_table().startswith("(no link ever")
    assert stats_none.loss is None and stats_zero.loss is not None


# -- loss is cost-only over every protocol path -----------------------------

@pytest.mark.parametrize("config", [
    {},                                                   # eager delta
    {"ship_mode": "full"},                                # naive ship
    {"ship_mode": "demand"},                              # stop-and-wait
    {"ship_mode": "demand", "prefetch_depth": 16},        # pipelined
    {"ship_mode": "demand", "prefetch_depth": 16,
     "compression": True},                                # + compression
], ids=["delta", "full", "demand", "prefetch", "prefetch+comp"])
def test_loss_is_cost_only_on_every_path(config):
    """Memory-image oracle: demand, prefetch, and compression paths all
    survive a lossy fabric with identical computed state."""
    mk_clean, m_clean, v_clean = _run(**config)
    mk_lossy, m_lossy, v_lossy = _run(
        loss={"drop": 0.03, "seed": 5},
        **config)
    assert v_lossy == v_clean
    assert _memory_image(m_lossy) == _memory_image(m_clean)
    assert mk_lossy >= mk_clean  # faults only ever add constraint


def test_md5_values_survive_loss():
    """The other cluster workload family, same oracle."""
    _, m_clean, v_clean = cw.run_cluster(cw.md5_tree_main(3), NODES,
                                         spec=ClusterSpec(topology=TOPOLOGY))
    _, m_lossy, v_lossy = cw.run_cluster(cw.md5_tree_main(3), NODES,
                                         spec=ClusterSpec(topology=TOPOLOGY,
                                                          loss=0.05))
    assert v_lossy == v_clean
    assert _memory_image(m_lossy) == _memory_image(m_clean)
    assert m_lossy.transport.conservation_ok()


# -- accounting -------------------------------------------------------------

def test_conservation_delivered_plus_dropped_equals_sent():
    """Per physical link: every sent byte is either delivered or
    dropped — no byte vanishes unaccounted."""
    _, machine, _ = _run(loss={"drop": 0.05, "seed": 11})
    transport = machine.transport
    assert transport.drops > 0
    assert any(s.dropped_bytes for s in transport.links.values())
    for stats in transport.links.values():
        assert stats.bytes_sent == stats.bytes_received + stats.dropped_bytes
    assert transport.retx_bytes == sum(
        s.retx_bytes for s in transport.links.values())


def test_retx_stall_reported_and_monotone_in_rate():
    """Retransmit waits surface as kind="retx" stall cycles, and nested
    schedules make retransmit bytes monotone in the drop rate."""
    retx_bytes = []
    for rate in (0.0, 0.01, 0.05):
        mk, machine, _ = _run(loss={"drop": rate, "seed": 13},
                              ship_mode="demand")
        retx_bytes.append(machine.transport.retx_bytes)
        stalls = schedule(machine.trace, ncpus=1).stall_cycles
        if rate == 0.0:
            assert "retx" not in stalls
        elif machine.transport.retx_wait:
            assert stalls.get("retx", 0) > 0
    assert retx_bytes[0] == 0
    assert retx_bytes[0] <= retx_bytes[1] <= retx_bytes[2]
    assert retx_bytes[2] > 0


def test_retry_exhaustion_raises_deterministically():
    """A dead link (drop=1.0) exhausts cost.retx_limit retries and
    stops the migrating space with a NetworkLossError trap."""
    with pytest.raises(RuntimeError, match=(
            r"NetworkLossError: MIGRATE msg 0 on link \(0, 1\): "
            r"all 8 retransmissions dropped")):
        cw.run_cluster(cw.md5_circuit_main(3), 2, spec=ClusterSpec(loss=1.0))
    # Raised directly when the transport is driven outside a guest.
    machine = Machine(nnodes=2, spec=ClusterSpec(loss=1.0))
    with pytest.raises(NetworkLossError, match=(
            r"ACK msg 0 on link \(0, 1\): all 8 retransmissions dropped")):
        machine.transport._leg(
            0, 1, [(MsgType.ACK.name, 0, 64, False)], 64)


class DeadLink(LossSchedule):
    """Every copy on one directed link is dropped, nothing else is."""

    def __init__(self, link):
        super().__init__(drop=1.0)
        self.link = link

    def drops(self, link, serial, attempt=0):
        return link == self.link


@pytest.mark.parametrize("dead, hops_before", [
    ((0, "rack0"), 0), (("rack0", "core"), 1), (("rack1", 3), 3)])
def test_retry_exhaustion_is_a_defined_state(dead, hops_before):
    """After the abort the rows still conserve (``sent == received +
    dropped`` on every link): the links before the dead one carried and
    delivered the whole leg, the dead one dropped every copy of the
    leg's first message, and nothing was sent beyond it.  The serials
    of the whole exchange were handed out before the walk (DESIGN §5)."""
    machine = Machine(nnodes=4, spec=ClusterSpec(topology=TOPOLOGY,
                                                 loss=DeadLink(dead)))
    transport = machine.transport
    frames = [Page(bytes([n]) * PAGE_SIZE) for n in range(3)]
    with pytest.raises(NetworkLossError, match=(
            rf"MIGRATE msg 0 on link {re.escape(str(dead))}: "
            rf"all 8 retransmissions dropped")):
        transport.migrate(SimpleNamespace(uid="space"), 0, 3, frames)
    assert transport.conservation_ok()
    route = machine.topology.route(0, 3)
    assert list(transport.links) == list(route[:hops_before + 1])
    cost = machine.cost
    leg_bytes = cost.migrate_bytes + 3 * (PAGE_SIZE + cost.page_hdr)
    for link in route[:hops_before]:
        row = transport.links[link]
        assert (row.messages, row.bytes_sent, row.bytes_received,
                row.dropped_msgs) == (2, leg_bytes, leg_bytes, 0)
        assert row.by_type == {"MIGRATE": 1, "PAGE_BATCH": 1}
    row = transport.links[dead]
    copies = cost.retx_limit + 1
    assert (row.messages, row.dropped_msgs, row.retx_msgs,
            row.bytes_received) == (copies, copies, copies - 1, 0)
    assert row.bytes_sent == row.dropped_bytes == copies * cost.migrate_bytes
    assert row.by_type == {"MIGRATE": copies}
    # MIGRATE, one PAGE_BATCH and the ACK were numbered up front.
    assert transport.messages == 3
    assert machine.trace.transfers == []
