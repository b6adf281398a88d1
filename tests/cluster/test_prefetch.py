"""Pipelined demand paging + wire compression: oracles and invariants.

The async fetch queues and the PAGE_BATCH codec are cost-only
mechanisms: across every ``prefetch_depth`` and compression setting the
computed values and final memory images must be bit-identical, the
per-link byte-conservation invariant must hold, and compressed payload
bytes must never exceed raw payload bytes on any link.
"""

import hashlib

import pytest

from skewed_workload import VALUE, skewed_main
from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.cluster import NetworkStats, Transport
from repro.kernel import Machine, child_ref
from repro.mem import PAGE_SIZE
from repro.timing.schedule import schedule

DEPTHS = (0, 1, 4, 16)
NODES = 4


def _memory_image(space):
    """Digest of a space's full memory image (vpn-ordered frame bytes)."""
    digest = hashlib.sha256()
    aspace = space.addrspace
    for vpn in aspace.mapped_vpns():
        digest.update(vpn.to_bytes(8, "little"))
        digest.update(aspace.frame(vpn).data)
    return digest.hexdigest()


def _run_oracle(entry_builder, **knobs):
    """Run a cluster program, returning (value, root memory image,
    machine stats snapshot) with the machine still open."""
    machine = Machine(nnodes=NODES, spec=ClusterSpec(**knobs))
    with machine:
        result = machine.run(lambda g: entry_builder(g, NODES))
        assert result.trap.name in ("EXIT", "RET"), result.trap_info
        return result.r0, _memory_image(machine.root), machine


# -- stop-and-wait vs pipelined oracle -------------------------------------

@pytest.mark.parametrize("workload,builder", [
    ("matmult-tree", lambda: cw.matmult_tree_main(64)),
    ("md5-tree", lambda: cw.md5_tree_main(3)),
])
def test_depth_oracle_identical_results(workload, builder):
    """Identical digests and memory images across prefetch depths, on
    the demand-paging protocol where prefetching actually fires."""
    reference = None
    for depth in DEPTHS:
        value, image, machine = _run_oracle(
            builder(), ship_mode="demand", prefetch_depth=depth,
            topology="two_tier:2")
        assert machine.transport.conservation_ok(), (workload, depth)
        if reference is None:
            reference = (value, image)
        assert (value, image) == reference, (workload, depth)
        if depth == 0:
            assert machine.transport.pages_prefetched == 0


def test_depth_oracle_with_compression():
    """Compression composes with any depth without touching results."""
    reference = None
    for depth in (0, 16):
        for compression in (False, True):
            value, image, machine = _run_oracle(
                cw.matmult_tree_main(64), ship_mode="demand",
                prefetch_depth=depth, compression=compression)
            if reference is None:
                reference = (value, image)
            assert (value, image) == reference, (depth, compression)


def test_purged_queue_entries_move_no_result(monkeypatch):
    """The skewed workload rewrites its whole ring every round, so the
    predictor finds queued entries superseded and drops them before each
    refill (``Transport.purge_superseded``): depth 4 purges, and still
    computes depth 0's value and memory image."""
    purged = []
    purge = Transport.purge_superseded

    def counting(self, space, node):
        purged.append(purge(self, space, node))
        return purged[-1]

    monkeypatch.setattr(Transport, "purge_superseded", counting)
    runs = {depth: _run_oracle(skewed_main, ship_mode="demand",
                               prefetch_depth=depth, topology="two_tier:2")
            for depth in (0, 4)}
    assert runs[0][:2] == runs[4][:2]
    assert runs[4][0] == VALUE
    assert sum(purged) == runs[4][2].transport.prefetch_stale == 80
    assert runs[0][2].transport.prefetch_stale == 0


def test_eager_and_demand_modes_agree():
    """ship_mode is cost-only: delta, full, and demand paging all
    compute the same value and memory image."""
    images = {
        mode: _run_oracle(cw.matmult_tree_main(64), ship_mode=mode)[:2]
        for mode in ("delta", "full", "demand")
    }
    assert len(set(images.values())) == 1


# -- pipelining cuts demand stall ------------------------------------------

def _demand_stall(machine):
    sched = schedule(machine.trace, ncpus=1)
    return (sched.stall_cycles.get("fetch", 0)
            + sched.stall_cycles.get("prefetch", 0))


def test_prefetch_strictly_cuts_demand_stall():
    _, _, stopwait = _run_oracle(cw.matmult_tree_main(64),
                                 ship_mode="demand", topology="two_tier:2")
    _, _, pipelined = _run_oracle(cw.matmult_tree_main(64),
                                  ship_mode="demand", prefetch_depth=32,
                                  topology="two_tier:2")
    assert _demand_stall(pipelined) < _demand_stall(stopwait)
    # The queue served real demand: most prefetched pages were used.
    t = pipelined.transport
    assert t.prefetch_used > 0
    assert t.pages_pulled < stopwait.transport.pages_pulled


def test_queue_depth_bounded():
    """A space's in-flight prefetched frames at a node never exceed the
    configured depth, however many spaces speculate there."""
    seen = {}       # (slot path, node) -> most frames queued at once
    machine = Machine(nnodes=NODES,
                      spec=ClusterSpec(ship_mode="demand", prefetch_depth=4,
                                       topology="two_tier:2"))
    transport = machine.transport
    original = transport.prefetch

    def spy(space, origin, node, frames):
        original(space, origin, node, frames)
        key = (tuple(space.slot_path()), node)
        seen[key] = max(seen.get(key, 0), len(space.inflight[node]))

    transport.prefetch = spy
    with machine:
        machine.run(lambda g: cw.matmult_tree(g, NODES, 64, 7))
    assert 0 < max(seen.values()) <= 4
    # The bound is per space: several speculate at one node.
    assert len({node for _, node in seen}) < len(seen)


def _visit_and_exit(g):
    """Visit node 3 with an idle grandchild: the migration queues this
    space's pages there, and nothing ever demands them."""
    ref = child_ref(1, node=3)
    g.put(ref)
    g.get(ref)


def _destroy_main(g, nnodes):
    g.write(0x10_0000, b"\x07" * (6 * PAGE_SIZE))
    g.put(1, regs={"entry": _visit_and_exit},
          copy=(0x10_0000, 6 * PAGE_SIZE), start=True)
    g.get(1)
    g.put(2, tree=(1, 1))       # child 1's copy as child 2's child 1
    g.get(2, tree=(1, 1))       # ... and back: the original is destroyed
    g.work(1_000)
    return 0


def test_a_destroyed_space_sinks_its_queue_first():
    """A space destroyed mid-run (replaced by a Tree copy) takes its
    queue with it, so the kernel sinks the queue first: its exchanges
    reach the trace as ``prefetch-unused`` sinks at the destroy, not
    never."""
    _, _, machine = _run_oracle(_destroy_main, ship_mode="demand",
                                prefetch_depth=8)
    trace = machine.trace
    sinks = [sid for sid, uid, *_ in trace.segments
             if uid == "~prefetch-unused/1@3"]
    assert sinks
    kinds = {kind for dst, kind in zip(trace.transfers.dst,
                                       trace.transfers.kind)
             if dst in sinks}
    assert kinds == {"prefetch-unused"}
    # Sunk mid-run: the root went on computing after it.
    root = machine.root.uid
    assert max(sinks) < max(sid for sid, uid, *_ in trace.segments
                            if uid == root)


# -- page accounting -------------------------------------------------------

def test_prefetched_pages_counted_separately():
    """Link page totals split into shipped + pulled + prefetched, and
    prefetched-but-unused pages are reported, never folded into the
    demand-pull count."""
    _, _, machine = _run_oracle(cw.matmult_tree_main(64),
                                ship_mode="demand", prefetch_depth=16)
    t = machine.transport
    assert t.pages_prefetched > 0
    stats = NetworkStats(machine)
    assert stats.pages_fetched == (t.pages_shipped + t.pages_pulled
                                   + t.pages_prefetched)
    assert stats.prefetch_unused == t.pages_prefetched - t.prefetch_used
    assert stats.prefetch_unused >= 0
    # The human-readable views name the split.
    assert "prefetched" in stats.summary()
    assert "pf" in repr(t) and "used" in repr(t)


def test_bad_prefetch_depth_rejected():
    with pytest.raises(ValueError, match="prefetch_depth"):
        Machine(spec=ClusterSpec(prefetch_depth=-1))


def test_bad_ship_mode_still_rejected():
    with pytest.raises(ValueError, match="ship_mode"):
        Machine(spec=ClusterSpec(ship_mode="lazy"))


# -- compression conservation ----------------------------------------------

def test_compressed_never_exceeds_raw_per_link():
    """The per-link compression ledger: comp_bytes <= raw_bytes on
    every traversed link, raw == pages * PAGE_SIZE, and the totals
    strictly shrink for matmult's compressible matrices."""
    _, _, machine = _run_oracle(cw.matmult_tree_main(64),
                                ship_mode="demand", compression=True,
                                topology="two_tier:2")
    t = machine.transport
    assert t.links
    for link, stats in t.links.items():
        assert stats.comp_bytes <= stats.raw_bytes, link
        assert stats.raw_bytes == stats.pages * PAGE_SIZE, link
    assert t.comp_total < t.raw_total
    assert t.conservation_ok()
    net = NetworkStats(machine)
    assert net.compression_ratio() < 1.0
    assert "saved" in net.compression_table()


def test_compression_off_ships_payload_verbatim():
    _, _, machine = _run_oracle(cw.matmult_tree_main(64),
                                ship_mode="demand")
    t = machine.transport
    assert t.comp_total == t.raw_total > 0
    assert t.codec_cycles == 0
    assert NetworkStats(machine).compression_ratio() == 1.0


def test_compression_cuts_wire_bytes_and_cycles():
    _, _, plain = _run_oracle(cw.matmult_tree_main(64), ship_mode="demand")
    _, _, comp = _run_oracle(cw.matmult_tree_main(64), ship_mode="demand",
                             compression=True)
    assert comp.transport.bytes_total < plain.transport.bytes_total
    assert comp.transport.busy_total < plain.transport.busy_total
    assert comp.transport.codec_cycles > 0


# -- sweep plumbing --------------------------------------------------------

def test_sweep_nodes_plumbs_prefetch_and_compression():
    def main(g, nnodes):
        g.write(0x10_0000, b"\x05" * (4 * PAGE_SIZE))
        total = 0
        for node in range(nnodes):
            ref = child_ref(1, node=node)
            g.put(ref, regs={"entry": lambda g2: int(g2.read(0x10_0000, 1)[0])},
                  copy=(0x10_0000, 4 * PAGE_SIZE), start=True)
            total += g.get(ref, regs=True)["r0"]
        return total // nnodes

    plain = cw.sweep_nodes(main, node_counts=(2, 4),
                           spec=ClusterSpec(ship_mode="demand"))
    tuned = cw.sweep_nodes(main, node_counts=(2, 4),
                           spec=ClusterSpec(ship_mode="demand",
                                            prefetch_depth=8,
                                            compression=True))
    for nodes in (2, 4):
        _, plain_machine, plain_value = plain[nodes]
        _, tuned_machine, tuned_value = tuned[nodes]
        assert plain_value == tuned_value
        assert tuned_machine.spec.prefetch_depth == 8
        assert tuned_machine.spec.compression
        assert (NetworkStats(tuned_machine).comp_bytes
                <= NetworkStats(plain_machine).raw_bytes)
