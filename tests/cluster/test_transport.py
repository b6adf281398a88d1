"""Transport invariants: conservation, delta vs full-ship, batching,
and configuration plumbing through the cluster sweep helpers."""

import pytest

from repro import ClusterSpec
from repro.cluster import MsgType, sweep_nodes
from repro.cluster.transport import LinkStats, Transport
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
    """Sharded runs hand back exactly LinkStats.FIELDS and
    Transport.SCALARS: a counter missing from its one declaration would
    be silently dropped from a worker's delta."""
    assert set(LinkStats().as_dict()) == \
        set(LinkStats.FIELDS) | {"cls", "by_type"}
    with Machine(nnodes=2) as m:
        counters = {name for name, value in vars(m.transport).items()
                    if not name.startswith("_") and type(value) is int}
    assert counters - {"window_index"} == set(Transport.SCALARS)


#: Every total the transport derives, and the LinkStats field it sums.
DERIVED_TOTALS = {
    "bytes_total": "bytes_sent", "busy_total": "busy_cycles",
    "raw_total": "raw_bytes", "comp_total": "comp_bytes",
    "drops": "dropped_msgs", "dropped_bytes": "dropped_bytes",
    "retx_msgs": "retx_msgs", "retx_bytes": "retx_bytes",
    "dups": "dup_msgs", "reorders": "reorder_msgs",
}


def _totals(machine):
    t = machine.transport
    return {name: getattr(t, name) for name in DERIVED_TOTALS}


def test_derived_totals_are_link_sums_on_a_lossy_fabric():
    """The totals are kept once, on the links: under drop + dup +
    reorder on a routed fabric each reads exactly its link sum, none is
    a constructor attribute a sharded delta could drop, and the
    telemetry window counts the same drops/retransmits, once."""
    _, m = run(4, topology="two_tier:2",
               loss={"drop": 0.1, "dup": 0.05, "reorder": 0.05, "seed": 3})
    t = m.transport
    for total, field in DERIVED_TOTALS.items():
        assert getattr(t, total) == sum(
            getattr(s, field) for s in t.links.values()) > 0, total
        assert total not in vars(t) and total not in Transport.SCALARS
    assert m.pages_fetched == t.pages_shipped + t.pages_pulled \
        + t.pages_prefetched
    assert "pages_fetched" not in vars(m)
    window = t.take_window()
    assert (window.drops, window.retx_msgs) == (t.drops, t.retx_msgs)
    window = t.take_window()
    assert (window.drops, window.retx_msgs) == (0, 0)


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
        assert full[nodes][1].machine.ship_mode == "full"


def test_bad_ship_mode_rejected():
    with pytest.raises(ValueError, match="ship_mode"):
        Machine(spec=ClusterSpec(ship_mode="lazy"))
