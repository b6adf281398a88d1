"""Deterministic fault injection: replay, conservation, and cost-only
oracles.

The loss schedule decides whether to drop each copy per ``(link,
sending space, message number, attempt)`` as a pure function of the
seed, so faults must replay bit-identically: two runs under one seed
drop the same copies of the same messages on the same links, whatever
other spaces sent in between.  And faults are *cost-only*: under any
schedule, every workload's computed value and final memory image must
equal the zero-loss run's — only wire traffic and timing may move.
Conservation extends to ``delivered + dropped == sent`` per physical
link.
"""

import faulthandler
import hashlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.cluster import MsgType, NetworkStats
from repro.cluster import faults
from repro.cluster.faults import (LossSchedule, RetxBill, resolve_loss,
                                  sender_key)
from repro.common.detrandom import DeterministicRandom
from repro.common.errors import NetworkLossError
from repro.kernel import Machine, Trap, child_ref
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


class Sender:
    """A space as the transport sees one: a uid, a slot path and its
    own message count."""

    def __init__(self, path=(), uid="space"):
        self.uid = uid
        self.path = list(path)
        self.messages = 0

    def slot_path(self):
        return list(self.path)


def _run(loss=None, **config):
    config.setdefault("topology", TOPOLOGY)
    makespan, machine, value = cw.run_cluster(
        cw.matmult_tree_main(64), NODES,
        spec=ClusterSpec(loss=loss, **config))
    assert machine.transport.conservation_ok()
    return makespan, machine, value


# -- the schedule itself ----------------------------------------------------

def test_decide_is_a_pure_function():
    """No generator state: any (link, sender, number, attempt) query
    returns the same outcome however often and in whatever order it is
    asked."""
    sched = LossSchedule(drop=0.3, seed=42)
    key = sender_key([1])
    probes = [((0, 1), key, 7, 0), (("rack0", "core"), key, 7, 0),
              ((0, 1), key, 7, 1), ((1, 0), key, 7, 0), ((0, 1), key, 8, 0),
              ((0, 1), sender_key([2]), 7, 0)]
    first = [sched.drops(*p) for p in reversed(probes)][::-1]
    again = [LossSchedule(drop=0.3, seed=42).drops(*p) for p in probes]
    assert first == again
    outcomes = set(first) | {sched.drops((0, 1), key, n) for n in range(200)}
    assert outcomes == {False, True}  # 30% over 200 numbers must hit


def test_a_draw_pins_every_byte_of_its_key():
    """Known values: the fold of the seed, the link's endpoints, the
    sender's slot path, the message number and the attempt, each byte
    of which a draw must depend on."""
    assert sender_key([]) == faults._FNV_OFFSET
    assert sender_key([1, 65538]) == 0x53ADFC3651BAA69F
    assert sender_key([1, 2]) != sender_key([2, 1])
    assert sender_key([0]) != sender_key([])
    sched = LossSchedule(drop=0.5, seed=-3)
    key = sender_key([1, 65538])
    assert sched.draw((0, "core"), key, 5, 2) == 0.4692773869990927
    draws = {sched.draw((0, "core"), key, 5, 2),
             sched.draw(("core", 0), key, 5, 2),
             sched.draw((0, "core"), sender_key([1]), 5, 2),
             sched.draw((0, "core"), key, 6, 2),
             sched.draw((0, "core"), key, 5, 3),
             LossSchedule(drop=0.5, seed=3).draw((0, "core"), key, 5, 2),
             sched.draw((0, 0), key, 5, 2),
             sched.draw((0, "0"), key, 5, 2)}
    assert len(draws) == 8


def test_a_drop_keys_on_the_sending_space_not_on_what_others_sent():
    """A space's exchanges draw the same drops whether or not another
    space sent first: each message is numbered from its own space's
    count, so no draw reads host order."""
    def drops_of_b(sent_first):
        machine = Machine(nnodes=4, spec=ClusterSpec(topology=TOPOLOGY,
                                                     loss=0.3))
        transport = machine.transport
        frames = [Page(bytes([n]) * PAGE_SIZE) for n in range(3)]
        a, b = Sender([1], "a"), Sender([2], "b")
        for _ in range(sent_first):
            transport.migrate(a, 0, 3, frames)
        before = {link: row.dropped_msgs
                  for link, row in transport.links.items()}
        for _ in range(4):
            transport.migrate(b, 0, 3, frames)
        assert b.messages == 4 * 3
        return {link: row.dropped_msgs - before.get(link, 0)
                for link, row in transport.links.items()
                if row.dropped_msgs != before.get(link, 0)}

    alone = drops_of_b(0)
    assert alone
    assert drops_of_b(5) == alone


def test_a_copy_drops_when_its_draw_lies_below_the_rate():
    """The drop band is ``[0, rate)``: a draw equal to the rate gets
    through."""
    key = sender_key([1])
    draw = LossSchedule(drop=0.5, seed=1).draw((0, 1), key, 4)
    assert not LossSchedule(drop=draw, seed=1).drops((0, 1), key, 4)
    assert LossSchedule(drop=min(1.0, draw * 1.000001), seed=1).drops(
        (0, 1), key, 4)


def test_a_retx_bill_is_empty_until_charged():
    """A bill is true once it holds an occupancy or a wait, and only
    then does the transport draw its retransmission edges."""
    bill = RetxBill([1, 2])
    assert not bill and bill.wait == 0 and bill.usage == {}
    assert (bill.path, bill.key) == ([1, 2], sender_key([1, 2]))
    bill.wait = 1
    assert bill
    bill = RetxBill([])
    bill.usage[(0, 1)] = 3
    assert bill


def test_schedules_nest_across_rates():
    """Raising the drop rate only adds drops (same seed): every message
    dropped at 0.1% is dropped at 1%."""
    low = LossSchedule(drop=0.001, seed=9)
    high = LossSchedule(drop=0.01, seed=9)
    key = sender_key([3])
    for number in range(5000):
        if low.drops((0, 1), key, number):
            assert high.drops((0, 1), key, number)


def test_rate_validation_and_resolve():
    with pytest.raises(ValueError):
        LossSchedule(drop=1.5)
    with pytest.raises(ValueError):
        LossSchedule(drop=-0.1)
    with pytest.raises(ValueError):
        resolve_loss(True)
    with pytest.raises(ValueError):
        resolve_loss("lossy")
    with pytest.raises(ValueError, match="loss"):
        resolve_loss(LossSchedule(drop=0.1))
    assert resolve_loss(None) is None
    assert resolve_loss(0.25).drop == 0.25
    assert resolve_loss({"drop": 0.1, "seed": 3}).seed == 3


@pytest.mark.parametrize("loss", [
    {"drop": 0.1, "seed": 1.5},         # once an EXC AttributeError
    {"drop": 0.1, "seed": "7"},         # likewise
    {"drop": 0.1, "seed": 2**64},       # once an OverflowError
    {"drop": 0.1, "seed": 2**63},
    {"drop": 0.1, "seed": -2**63 - 1},
    {"drop": 0.1, "seed": True},        # once ran silently as seed 1
    {"drop": True},                     # once dropped every copy
    {"drop": False, "seed": 3},
])
def test_a_bad_loss_spec_is_refused_at_construction(loss):
    with pytest.raises(ValueError, match="loss"):
        ClusterSpec(loss=loss)
    with pytest.raises(ValueError, match="loss"):
        LossSchedule(**loss)


def test_the_seed_range_is_signed_64_bits():
    for seed in (-2**63, -1, 0, 2**63 - 1):
        ClusterSpec(loss={"drop": 0.1, "seed": seed})
        LossSchedule(drop=0.1, seed=seed).draw((0, 1), 0, 0)


def _folded_draw(seed, link, sender, number, attempt):
    """A draw folded from scratch, byte by byte, with no memo."""
    state = faults._fold(faults._FNV_OFFSET,
                         seed.to_bytes(8, "little", signed=True))
    for end in link:
        state = faults._fold(state, faults._endpoint_bytes(end))
    state = faults._fold(state, sender.to_bytes(8, "little"))
    state = faults._fold(state, number.to_bytes(8, "little"))
    state = faults._fold(state, attempt.to_bytes(4, "little"))
    return DeterministicRandom(state).uniform()


endpoints = st.one_of(st.integers(-2**63, 2**63 - 1),
                      st.sampled_from(["core", "rack0", "0", ""]))
probes = st.lists(st.tuples(st.tuples(endpoints, endpoints),
                            st.integers(0, 2**64 - 1),
                            st.integers(0, 2**64 - 1),
                            st.integers(0, 2**32 - 1)),
                  min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(st.integers(-2**63, 2**63 - 1), probes, st.randoms())
def test_memoised_draws_equal_a_fresh_fold_in_any_order(seed, probes, rnd):
    """One schedule's per-link memo never changes a draw: queried in a
    shuffled order, twice over, every draw equals the from-scratch
    fold."""
    sched = LossSchedule(drop=0.5, seed=seed)
    asked = probes + probes
    rnd.shuffle(asked)
    for link, sender, number, attempt in asked:
        assert sched.draw(link, sender, number, attempt) == \
            _folded_draw(seed, link, sender, number, attempt)
    assert set(sched._prefix) == {link for link, _, _, _ in probes}
    assert set(sched._keyed) == {(link, sender)
                                 for link, sender, _, _ in probes}


#: Message numbers and attempts at their byte edges: no byte, one, the
#: first two-byte value, every byte set.
EDGE_NUMBERS = (0, 1, 255, 256, 65535, 65536, 2**56 - 1, 2**56, 2**64 - 1)
EDGE_ATTEMPTS = (0, 1, 255, 256, 2**24, 2**32 - 1)
LINKS = ((0, 1), (3, 0), (0, "core"), ("rack0", "core"), (-1, 2**63 - 1))


def test_a_draw_at_every_byte_edge_is_the_bytewise_fold():
    """Every edge number and attempt, on node links and switch links,
    through a cold and a warm memo: the draw folds the bytes
    ``to_bytes`` would, its zero high bytes included."""
    key = sender_key([4, 1])
    warm = LossSchedule(drop=0.5, seed=-7)
    for link in LINKS:
        for number in EDGE_NUMBERS:
            for attempt in EDGE_ATTEMPTS:
                wanted = _folded_draw(-7, link, key, number, attempt)
                assert LossSchedule(drop=0.5, seed=-7).draw(
                    link, key, number, attempt) == wanted
                assert warm.draw(link, key, number, attempt) == wanted


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(-2**63, 2**63 - 1), st.tuples(endpoints, endpoints),
       st.integers(0, 2**64 - 1),
       st.one_of(st.sampled_from(EDGE_NUMBERS), st.integers(0, 2**64 - 1)),
       st.one_of(st.sampled_from(EDGE_ATTEMPTS), st.integers(0, 2**32 - 1),
                 st.integers(0, 2**16)))
def test_a_draw_is_the_bytewise_fold_of_its_key(seed, link, sender, number,
                                                attempt):
    sched = LossSchedule(drop=0.5, seed=seed)
    wanted = _folded_draw(seed, link, sender, number, attempt)
    assert sched.draw(link, sender, number, attempt) == wanted
    assert sched.draw(link, sender, number, attempt) == wanted
    assert sched.drops(link, sender, number, attempt) == (wanted < 0.5)


@pytest.mark.parametrize("sender,number,attempt", [
    (-1, 0, 0), (2**64, 0, 0),
    (0, -1, 0), (0, 2**64, 0),
    (0, 0, -1), (0, 0, 2**32),
])
def test_a_key_part_out_of_its_width_is_refused(sender, number, attempt):
    """As ``to_bytes`` refuses it, so does a draw — with a warm memo
    too — and the schedule memoises nothing for a refused sender."""
    sched = LossSchedule(drop=0.5, seed=1)
    with pytest.raises(OverflowError):
        _folded_draw(1, (0, 1), sender, number, attempt)
    for _ in range(2):
        with pytest.raises(OverflowError):
            sched.draw((0, 1), sender, number, attempt)
    assert len(sched._keyed) == (0 <= sender < 2**64)


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
    """A zero drop rate *is* the lossless fabric: every spelling of it
    resolves to no schedule at all, so the run is the pre-fault
    transport exactly — same makespan, wire bytes, link tables, and no
    retransmit activity."""
    for zero in (0, 0.0, {"drop": 0}, {"drop": 0.0, "seed": 5}):
        assert resolve_loss(zero) is None, zero
    mk_none, m_none, v_none = _run(loss=None)
    mk_zero, m_zero, v_zero = _run(loss=0.0)
    assert m_zero.loss is None
    assert (mk_none, v_none) == (mk_zero, v_zero)
    assert _memory_image(m_none) == _memory_image(m_zero)
    stats_none, stats_zero = NetworkStats(m_none), NetworkStats(m_zero)
    assert stats_none.wire_bytes == stats_zero.wire_bytes
    assert stats_none.link_table() == stats_zero.link_table()
    assert stats_zero.retx_msgs == stats_zero.dropped_msgs == 0
    assert stats_zero.retx_table().startswith("(no link ever")
    assert stats_none.loss is None and stats_zero.loss is None


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
            r"NetworkLossError: MIGRATE msg 0 of space \[\] on link "
            r"\(0, 1\): all 8 retransmissions dropped")):
        cw.run_cluster(cw.md5_circuit_main(3), 2, spec=ClusterSpec(loss=1.0))
    # Raised directly when the transport is driven outside a guest: the
    # error names the sending space's slot path and its own number.
    machine = Machine(nnodes=2, spec=ClusterSpec(loss=1.0))
    with pytest.raises(NetworkLossError, match=(
            r"PAGE_REQ msg 5 of space \[1, 65538\] on link \(0, 1\): "
            r"all 8 retransmissions dropped")):
        machine.transport._leg(
            0, 1, [(MsgType.PAGE_REQ.name, 5, 64, True)], 64,
            faults=RetxBill([1, 65538]))


class DeadLink(LossSchedule):
    """Every copy on one directed link is dropped, nothing else is."""

    def __init__(self, link):
        super().__init__(drop=1.0)
        self.link = link

    def drops(self, link, sender, number, attempt=0):
        return link == self.link


@pytest.mark.parametrize("dead, hops_before", [
    ((0, "rack0"), 0), (("rack0", "core"), 1), (("rack1", 3), 3)])
def test_retry_exhaustion_is_a_defined_state(dead, hops_before):
    """After the abort the rows still conserve (``sent == received +
    dropped`` on every link): the links before the dead one carried and
    delivered the whole leg, the dead one dropped every copy of the
    leg's first message, and nothing was sent beyond it.  The numbers
    of the whole exchange were handed out before the walk (DESIGN §5)."""
    machine = Machine(nnodes=4, spec=ClusterSpec(topology=TOPOLOGY,
                                                 loss=1.0))
    machine.loss = DeadLink(dead)
    transport = machine.transport
    space = Sender([2])
    frames = [Page(bytes([n]) * PAGE_SIZE) for n in range(3)]
    with pytest.raises(NetworkLossError, match=(
            rf"MIGRATE msg 0 of space \[2\] on link {re.escape(str(dead))}: "
            rf"all 8 retransmissions dropped")):
        transport.migrate(space, 0, 3, frames)
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
    assert space.messages == transport.messages == 3
    assert len(machine.trace.transfers) == 0
    # A hop is a first copy serialized: the ones the leg reached.
    assert transport.hops == 2 * hops_before + 1 == sum(
        row.messages - row.retx_msgs for row in transport.links.values())


@pytest.mark.parametrize("dead, hops_before", [
    ((0, "rack0"), 0), (("rack0", "core"), 1), (("rack1", 3), 3)])
def test_an_exhausted_ack_dies_on_its_hop(dead, hops_before):
    """An ACK's faults delay nobody, so one whose every copy drops
    raises nothing: the links before the dead one delivered it, the
    dead one counts its dropped copies and delivers nothing, and no
    link beyond it sees the ACK."""
    machine = Machine(nnodes=4, spec=ClusterSpec(topology=TOPOLOGY,
                                                 loss=1.0))
    machine.loss = DeadLink(dead)
    transport = machine.transport
    ack = machine.cost.msg_ctrl
    transport._leg(0, 3, [(MsgType.ACK.name, 5, ack, False)], ack,
                   faults=RetxBill([2]))
    assert transport.conservation_ok()
    route = machine.topology.route(0, 3)
    assert list(transport.links) == list(route[:hops_before + 1])
    assert transport.hops == hops_before + 1 == sum(
        row.messages - row.retx_msgs for row in transport.links.values())
    for link in route[:hops_before]:
        row = transport.links[link]
        assert (row.messages, row.bytes_received, row.dropped_msgs) \
            == (1, ack, 0)
    row = transport.links[dead]
    copies = machine.cost.retx_limit + 1
    assert (row.messages, row.dropped_msgs, row.bytes_received) \
        == (copies, copies, 0)
    assert transport.retx_wait == 0


class FailingLink(DeadLink):
    """DeadLink for its first ``copies`` copies only, then healed."""

    def __init__(self, link, copies):
        super().__init__(link)
        self.copies = copies

    def drops(self, link, sender, number, attempt=0):
        if link != self.link or not self.copies:
            return False
        self.copies -= 1
        return True


@pytest.mark.parametrize("stop", ["exit", "ret"])
def test_a_failed_way_home_is_the_spaces_fault(stop):
    """A space that left its home node migrates back when it stops
    (§3.3).  If that migration exhausts its retransmissions the stop is
    still recorded — as the space's EXC fault, which its parent's join
    reads — no guest thread dies, and a Ret's stack is not resumable.
    The link drops enough copies to fail two tries: a second try on the
    way home is the bug."""
    after_ret = []

    def wanderer(g):
        g.put(child_ref(1, node=2), regs={"entry": lambda g2: None},
              start=True)                     # migrates node 1 -> 2
        g.get(child_ref(1, node=2))
        copies = 2 * (g.cost.retx_limit + 1)
        g.machine.loss = FailingLink((2, 1), copies)   # the way home dies
        if stop == "ret":
            g.ret()
            after_ret.append(True)
        return 7

    def main(g):
        ref = child_ref(1, node=1)
        g.put(ref, regs={"entry": wanderer}, start=True)
        view = g.get(ref, regs=True)
        return view["trap"], view["trap_info"], view["r0"]

    # A stop left unrecorded hangs the machine's drain: end the process
    # with every thread's stack instead.
    faulthandler.dump_traceback_later(30, exit=True)
    try:
        with Machine(nnodes=3) as machine:
            trap, info, _ = machine.run(main).check().value
            child = machine.root.children[child_ref(1, node=1)]
            assert child.ctx is None
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert trap is Trap.EXC
    # The space's own third message: MIGRATE and ACK went out first.
    assert info.startswith("NetworkLossError: MIGRATE msg 2 of space "
                           f"[{child_ref(1, node=1)}] ")
    assert "on link (2, 1): all 8 retransmissions dropped" in info
    assert after_ret == []
