"""Pipelined demand paging + wire compression: oracles and invariants.

The async fetch queues and the PAGE_BATCH codec are cost-only
mechanisms: across every ``prefetch_depth`` and compression setting the
computed values and final memory images must be bit-identical, the
per-link byte-conservation invariant must hold, and compressed payload
bytes must never exceed raw payload bytes on any link.
"""

import hashlib

import pytest

from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.cluster import NetworkStats
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
    """In-flight prefetched frames never exceed the configured depth."""
    class Probe(Machine):
        max_seen = 0

    machine = Probe(nnodes=NODES,
                    spec=ClusterSpec(ship_mode="demand", prefetch_depth=4,
                                     topology="two_tier:2"))
    transport = machine.transport
    original = transport.prefetch

    def spy(space, origin, node, frames):
        original(space, origin, node, frames)
        Probe.max_seen = max(Probe.max_seen,
                             transport.queue_len(node))

    transport.prefetch = spy
    with machine:
        machine.run(lambda g: cw.matmult_tree(g, NODES, 64, 7))
    assert 0 < Probe.max_seen <= 4


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
    from repro.cluster import sweep_nodes

    def builder(nnodes):
        def main(g):
            g.write(0x10_0000, b"\x05" * (4 * PAGE_SIZE))
            total = 0
            for node in range(nnodes):
                ref = child_ref(1, node=node)
                g.put(ref, regs={"entry": lambda g2: int(g2.read(0x10_0000, 1)[0])},
                      copy=(0x10_0000, 4 * PAGE_SIZE), start=True)
                total += g.get(ref, regs=True)["r0"]
            return total // nnodes
        return main

    plain = sweep_nodes(builder, node_counts=(2, 4),
                        spec=ClusterSpec(ship_mode="demand"))
    tuned = sweep_nodes(builder, node_counts=(2, 4),
                        spec=ClusterSpec(ship_mode="demand", prefetch_depth=8,
                                         compression=True))
    for nodes in (2, 4):
        assert plain[nodes][1].value == tuned[nodes][1].value
        assert tuned[nodes][1].machine.spec.prefetch_depth == 8
        assert tuned[nodes][1].machine.spec.compression
        assert (tuned[nodes][1].network.comp_bytes
                <= plain[nodes][1].network.raw_bytes)
