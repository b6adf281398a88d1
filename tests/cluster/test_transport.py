"""Transport invariants: conservation, delta vs full-ship, batching,
and configuration plumbing through the cluster sweep helpers."""

import pytest

from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.cluster import MsgType, NetworkStats, sweep_nodes
from repro.cluster.transport import (
    LinkStats,
    NodeStats,
    PairStats,
    PrefetchExchange,
    TelemetryWindow,
    Transport,
)
from repro.kernel import Machine, child_ref
from repro.mem import PAGE_SIZE

ADDR = 0x10_0000


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


def run(nnodes, **knobs):
    with Machine(nnodes=nnodes, spec=ClusterSpec(**knobs)) as m:
        result = m.run(ship_work(nnodes))
        return result, m


# -- conservation ----------------------------------------------------------

def test_bytes_conserved_per_link():
    """Lossless links: every link delivers exactly the bytes it sent."""
    _, m = run(4)
    assert m.transport.links, "expected cross-node traffic"
    for link, stats in m.transport.links.items():
        assert stats.bytes_sent == stats.bytes_received, link
    assert m.transport.conservation_ok()


def test_page_totals_conserved():
    """Pages counted globally == pages recorded on the links, and the
    shipped/pulled split sums to the machine's wire-page total."""
    _, m = run(4)
    t = m.transport
    link_pages = sum(s.pages for s in t.links.values())
    assert link_pages == t.pages_shipped + t.pages_pulled
    assert m.pages_fetched == t.pages_shipped + t.pages_pulled
    assert m.pages_fetched > 0


# -- delta-ship vs full-ship oracle ---------------------------------------

def test_delta_ship_matches_full_ship_oracle():
    """Identical computed values, strictly fewer pages on the wire."""
    delta_result, delta_m = run(4, ship_mode="delta")
    full_result, full_m = run(4, ship_mode="full")
    assert delta_result.r0 == full_result.r0
    assert delta_m.pages_fetched < full_m.pages_fetched
    assert delta_m.transport.busy_total < full_m.transport.busy_total


def test_full_ship_reships_unchanged_pages():
    """The naive protocol pays for revisits; delta migration proves the
    pages unchanged from the ledger and ships nothing."""
    def main(g):
        g.write(ADDR, b"x" * PAGE_SIZE)
        for round_ in range(3):
            g.get(0x50, regs=True)                      # home (node 0)
            g.get(child_ref(1 + round_, node=1), regs=True)  # node 1
        return 0

    def pages(ship_mode):
        with Machine(nnodes=2, spec=ClusterSpec(ship_mode=ship_mode)) as m:
            m.run(main)
            return m.transport.pages_shipped

    assert pages("full") >= 3 * pages("delta")
    assert pages("delta") == 1     # the page crosses once, ever


# -- batching --------------------------------------------------------------

def test_batching_reduces_messages_not_pages():
    """msg_batch=1 degenerates to one message per page; the default
    coalesces — same pages, fewer messages, fewer wire cycles."""
    from repro.timing.model import CostModel

    _, batched = run(2)
    _, single = run(2, cost=CostModel(msg_batch=1))
    assert batched.pages_fetched == single.pages_fetched
    assert batched.transport.batches < single.transport.batches
    assert batched.transport.messages < single.transport.messages
    assert batched.transport.busy_total < single.transport.busy_total


def test_batch_sizes_partition():
    t = Transport(Machine(nnodes=2))
    cap = t.machine.cost.msg_batch
    sizes = t._batch_sizes(2 * cap + 3)
    assert sum(sizes) == 2 * cap + 3
    assert max(sizes) <= cap
    assert t._batch_sizes(0) == []


def test_message_type_accounting():
    _, m = run(2)
    by_type = {}
    for stats in m.transport.links.values():
        for name, count in stats.by_type.items():
            by_type[name] = by_type.get(name, 0) + count
    assert by_type.get(MsgType.MIGRATE.name, 0) == m.transport.migrations
    assert by_type.get(MsgType.PAGE_BATCH.name, 0) == m.transport.batches
    # Every MIGRATE and every PAGE_REQ exchange is acknowledged.
    assert by_type.get(MsgType.ACK.name, 0) > 0


def test_ledger_declarations_cover_every_counter():
    """Sharded runs hand back exactly the three ledgers' FIELDS and
    Transport.SCALARS: a counter missing from its one declaration would
    be silently dropped from a worker's delta."""
    assert set(LinkStats().as_dict()) == \
        set(LinkStats.FIELDS) | {"cls", "by_type"}
    assert set(NodeStats().as_dict()) == set(NodeStats.FIELDS)
    assert set(PairStats().as_dict()) == set(PairStats.FIELDS) == {"bytes"}
    with Machine(nnodes=2) as m:
        counters = {name for name, value in vars(m.transport).items()
                    if not name.startswith("_") and type(value) is int}
        assert vars(NetworkStats(m)) == {"machine": m}
    assert counters - {"window_index"} == set(Transport.SCALARS)
    # Kept once, shown by count.
    assert len(Transport.SCALARS) == 7 and len(NodeStats.FIELDS) == 6
    assert len(TelemetryWindow.__slots__) == 4
    assert len(PrefetchExchange.__slots__) == 7


#: Every total the transport derives, and the LinkStats field it sums.
DERIVED_TOTALS = {
    "bytes_total": "bytes_sent", "busy_total": "busy_cycles",
    "raw_total": "raw_bytes", "comp_total": "comp_bytes",
    "drops": "dropped_msgs", "dropped_bytes": "dropped_bytes",
    "retx_msgs": "retx_msgs", "retx_bytes": "retx_bytes",
}


def _totals(machine):
    t = machine.transport
    return {name: getattr(t, name) for name in DERIVED_TOTALS}


def test_derived_totals_are_link_sums_on_a_lossy_fabric():
    """The totals are kept once, on the links: under loss on a routed
    fabric each reads exactly its link sum, none is a constructor
    attribute a sharded delta could drop."""
    _, m = run(4, topology="two_tier:2", loss={"drop": 0.1, "seed": 3})
    t = m.transport
    for total, field in DERIVED_TOTALS.items():
        assert getattr(t, total) == sum(
            getattr(s, field) for s in t.links.values()) > 0, total
        assert total not in vars(t) and total not in Transport.SCALARS
    assert m.pages_fetched == t.pages_shipped + t.pages_pulled \
        + t.pages_prefetched
    assert "pages_fetched" not in vars(m)


def test_derived_totals_survive_sharded_adoption():
    """Workers hand back link ledgers only; the parent's totals still
    match the serial run's."""
    from repro.bench import cluster_workloads as cw

    # (Module-level guest functions: a hand-back pickles the subtree.)
    spec = ClusterSpec(topology="two_tier:2", compression=True)
    _, serial, _ = cw.run_cluster(cw.md5_circuit_main(2), 4, spec)
    _, sharded, _ = cw.run_cluster(cw.md5_circuit_main(2), 4,
                                   spec.with_(shard_workers=2))
    assert sharded.shard.adopted == 4 and not sharded.shard.fallbacks
    assert _totals(sharded) == _totals(serial)
    assert sharded.pages_fetched == serial.pages_fetched > 0


# -- telemetry windows: the difference of two marks -------------------------

#: The page totals the transport derives from its node rows.
NODE_TOTALS = {
    "pages_pulled": "pulled", "pages_prefetched": "prefetch_issued",
    "prefetch_used": "prefetch_used", "prefetch_stale": "prefetch_stale",
}


def test_a_window_is_what_the_ledgers_moved_since_the_last_take():
    """Cumulative rows, differenced: each take answers what moved since
    the one before, the totals are sums over the rows and no take
    disturbs them."""
    with Machine(nnodes=4) as m:
        t = m.transport
        t.node(2).pulled += 3
        t.node(0).prefetch_issued += 8
        t.pair((0, 2)).bytes += 100
        first = t.take_window()
        assert list(first.nodes) == [0, 2], "rows come in key order"
        assert first.nodes[2] == dict(dict.fromkeys(NodeStats.FIELDS, 0),
                                      pulled=3)
        assert first.pair_bytes == {(0, 2): 100}
        t.node(2).pulled += 1
        t.node(0).prefetch_used += 5
        t.pair((2, 0)).bytes += 7
        second = t.take_window()
        assert second.index == first.index + 1
        assert second.nodes[2]["pulled"] == 1
        assert second.nodes[0]["prefetch_issued"] == 0
        assert second.nodes[0]["prefetch_used"] == 5
        assert second.pair_bytes == {(2, 0): 7}
        assert (t.pages_pulled, t.pages_prefetched, t.prefetch_used) \
            == (4, 8, 5)
        assert not set(NODE_TOTALS) & (set(vars(t)) | set(Transport.SCALARS))


def test_a_node_has_a_window_row_iff_a_counter_of_it_moved():
    """``Controller._decide_prefetch`` drains a node's growth hold on
    any row it sees, so looking a row up must not put it (all zero) in
    the window — here, and in a later window the row sat still in."""
    with Machine(nnodes=4) as m:
        t = m.transport
        t.node(0)                       # looked up, never moved
        t.node(1).pulled += 2
        t.pair((0, 1))
        window = t.take_window()
        assert set(window.nodes) == {1} and window.pair_bytes == {}
        t.node(1)
        assert t.take_window().nodes == {}


@pytest.fixture
def windows_taken(monkeypatch):
    """Every TelemetryWindow any transport hands out (the controller's
    input, one per quantum)."""
    taken = []
    take = Transport.take_window
    monkeypatch.setattr(
        Transport, "take_window",
        lambda self: taken.append(take(self)) or taken[-1])
    return taken


def test_adaptive_run_windows_have_moved_rows_and_route_samples(
        windows_taken):
    """On a real adaptive, lossy run: no window carries an all-zero
    row, the rows add up to the run's totals, and the SRTT policy still
    gets its route samples (BENCH_adaptive.json pins that they are the
    same ones)."""
    _, m, _ = cw.run_cluster(
        cw.matmult_tree_main(64), 4,
        ClusterSpec(ship_mode="demand", topology="two_tier:2",
                    loss={"drop": 0.02, "seed": 7}, control="adaptive"))
    assert len(windows_taken) == m.control.windows_seen > 0
    m.transport.take_window()       # what moved after the last quantum
    rows = [row for window in windows_taken
            for row in window.nodes.values()]
    assert rows and all(any(row.values()) for row in rows)
    for total, field in NODE_TOTALS.items():
        assert sum(row[field] for row in rows) \
            == getattr(m.transport, total), total
    assert any(window.route_samples for window in windows_taken)
    assert m.control.timeouts, "the SRTT policy saw them"


def test_no_route_samples_without_a_controller():
    """Route samples are an order-dependent capped list only the SRTT
    policy reads (and no hand-back could replay): a ``control=None``
    run takes none, lossy and prefetching or not."""
    _, m, _ = cw.run_cluster(
        cw.matmult_tree_main(64), 4,
        ClusterSpec(ship_mode="demand", topology="two_tier:2",
                    prefetch_depth=8, loss={"drop": 0.02, "seed": 7}))
    assert m.transport.route_samples == {}
    window = m.transport.take_window()
    assert window.route_samples == {} and window.nodes and window.pair_bytes
    for total, field in NODE_TOTALS.items():
        assert getattr(m.transport, total) == sum(
            row[field] for row in window.nodes.values()), total


# -- sweep_nodes plumbing --------------------------------------------------

def _stable_builder(nnodes):
    """A program whose value is node-count independent."""
    def main(g):
        total = 0
        for node in range(nnodes):
            ref = child_ref(1, node=node)
            g.put(ref, regs={"entry": lambda g2: 21, "args": ()}, start=True)
            total += g.get(ref, regs=True)["r0"]
        return total // nnodes

    return main


def test_sweep_nodes_tcp_mode_changes_wire_costs():
    """Regression: sweep_nodes used to drop tcp_mode on the floor."""
    plain = sweep_nodes(_stable_builder, node_counts=(2,))
    tcp = sweep_nodes(_stable_builder, node_counts=(2,),
                      spec=ClusterSpec(tcp_mode=True))
    plain_wire = plain[2][1].network.wire_cycles
    tcp_wire = tcp[2][1].network.wire_cycles
    assert tcp_wire > plain_wire
    assert plain[2][1].value == tcp[2][1].value


def test_sweep_nodes_plumbs_ship_mode_and_tracking():
    full = sweep_nodes(_stable_builder, node_counts=(1, 2, 4),
                       spec=ClusterSpec(ship_mode="full"))
    delta = sweep_nodes(_stable_builder, node_counts=(1, 2, 4))
    for nodes in (1, 2, 4):
        # Semantic transparency holds in every configuration.
        assert full[nodes][1].value == delta[nodes][1].value
        assert full[nodes][1].machine.spec.ship_mode == "full"


def test_bad_ship_mode_rejected():
    with pytest.raises(ValueError, match="ship_mode"):
        Machine(spec=ClusterSpec(ship_mode="lazy"))
