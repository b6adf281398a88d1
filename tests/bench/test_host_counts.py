"""Exact host-work ratchets: baton hand-offs to guest threads and worker
starts on small serving and circuit runs, the codec sizer's calls and
pages, the loss draws and the prefetch-queue claims on small
compressed, lossy matmult trees, the dirty-ledger entries a small
barrier program reads, the real-wire frames of a small serving
run's hand-backs, and the wire bytes of a large serving iteration,
counted from outside the program by
``benchmarks/host_counts.py``.
A change that adds a hand-off per space or a sizer call per page fails
here instead of hiding in timing noise (DESIGN.md §9, "Host cost")."""

import gc
import json
import os
import subprocess
import sys
import types

import pytest

import repro
from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.bench import harness
from repro.bench.workloads import lu
from repro.cluster import compress, realnet
from repro.cluster.faults import LossSchedule
from repro.cluster.transport import Transport
from repro.kernel import engine
from repro.kernel.space import Space
from repro.mem import AddressSpace

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                    "benchmarks"))
import host_counts  # noqa: E402
from host_counts import counting  # noqa: E402


def test_a_short_lived_request_costs_one_handoff():
    with counting() as counts:
        result = repro.serve_trace(4, requests=375, mean_gap=960_000, seed=1)
    assert len(result.values) == 375
    # one resume of the root and of each request, plus the two idle
    # workers retired at close
    assert counts.handoffs == 378
    assert len(counts.workers) == 2


def test_a_circuit_node_costs_one_handoff():
    with counting() as counts:
        cw.run_cluster(cw.md5_circuit_main(3), 256,
                       spec=ClusterSpec(topology="fat_tree"))
    # one resume of the root and of each node worker, plus the two
    # retirements
    assert counts.handoffs == 259
    assert len(counts.workers) == 2


def test_a_page_batch_load_is_sized_in_one_call():
    with counting() as counts:
        _, machine, _ = cw.run_cluster(
            cw.matmult_tree_main(128), 4,
            spec=ClusterSpec(topology="two_tier:2", ship_mode="demand",
                             prefetch_depth=32, compression=True,
                             loss=0.01))
    assert machine.pages_fetched == 128
    # 48 fresh content tags (the rest are cached), sized in one call
    # per PAGE_BATCH load that carries any
    assert (counts.sizer_calls, counts.sizer_pages) == (5, 48)
    assert counts.loss_draws == 171


def test_a_demand_miss_claims_only_a_queued_frame():
    """``stream_mm``'s shape at its small size: a miss asks its space's
    prefetch queue for the node only for a serial the queue holds (992
    claims when every miss asked; 296 while siblings shared one queue
    per node, so a space lost budget to a sibling's entries)."""
    with counting() as counts:
        _, machine, _ = cw.run_cluster(
            cw.matmult_tree_main(256, seed=1), 8,
            spec=ClusterSpec(topology="two_tier", ship_mode="demand",
                             prefetch_depth=32, compression=True,
                             loss=0.01))
    assert machine.pages_fetched == 1088
    assert counts.inflight_claims == 320


def test_a_barrier_round_reads_each_threads_writes_twice():
    with counting() as counts:
        result = harness.run_determinator(
            lu, lu.default_params(4, n=64, contiguous=False, seed=1))
    assert result.value[0]      # the factorisation verified
    # Each round's Merge reads what a thread wrote since its Snap, and
    # the re-Put that resumes it reads the same writes once more —
    # never the marks its own Copy made (256 entries when the re-Snap
    # walked the ledger after the Copy).
    assert counts.ledger_entries == 160


@pytest.mark.skipif(not hasattr(os, "fork")
                    or not realnet.localhost_available(),
                    reason="the real backend needs os.fork and localhost "
                           "sockets")
def test_a_worker_link_carries_one_migrate_each_way():
    """``real_serve``'s small shape: 12 requests queue three deep on four
    workers.  A worker's link to the parent carries its hello and one
    MIGRATE for its whole queue, plus a PAGE_BATCH per 32 frames its
    runs created or wrote (a request creates none); its wire ledger is
    reported once, after the hand-back, outside the totals it reports.
    The parent's link carries one MIGRATE offering the whole queue and
    the share's eight pages once, in one PAGE_BATCH."""
    result = repro.serve_trace(4, spec=ClusterSpec(backend="real"),
                               requests=12, mean_gap=960_000, seed=1)
    shard = result.machine.shard
    assert shard.forked == shard.adopted == 12 and shard.processes == 4
    up = {src: entry for (src, dst), entry in shard.wire_links.items()
          if dst == realnet.COORD}
    down = {dst: entry for (src, dst), entry in shard.wire_links.items()
            if src == realnet.COORD}
    assert sorted(up) == sorted(down) == [0, 1, 2, 3]
    for entry in up.values():
        assert (entry["frames"], entry["pages"]) == (2, 0)
    for entry in down.values():
        assert (entry["frames"], entry["pages"]) == (2, 8)
    assert shard.wire_conservation_ok()
    counted = host_counts.wire_counts(result.machine)
    assert counted == {
        "wire_frames": 16,
        "wire_bytes": sum(e["bytes"] for e in shard.wire_links.values()),
        "addrspace_unshipped": 12}
    assert host_counts.wire_counts(None) == {
        "wire_frames": None, "wire_bytes": None, "addrspace_unshipped": None}


def _large_counts(workload):
    """``benchmarks/host_counts.py``'s line for one ``large`` seed-1
    iteration of ``workload``, from a fresh interpreter: what is
    imported lazily mid-run must not depend on which tests ran first."""
    root = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
    out = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "host_counts.py"),
         workload, "1"], cwd=root, check=True, capture_output=True,
        text=True, timeout=300)
    return json.loads(out.stdout)


#: The interpreter the exact wire bytes below were measured on: they
#: count its pickles.
MEASURED_ON = (3, 11)


def test_a_space_that_never_prefetches_allocates_no_queue(monkeypatch):
    """``Space.inflight`` is created by a space's first prefetch: no
    space of a serving run or of a demand run at depth 0 makes one
    (``serve_open``'s large iteration took 61 gen-0 collections rather
    than 56 while every space made an empty queue)."""
    made = []
    init = Space.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Space, "__init__", recording)
    repro.serve_trace(4, requests=40, mean_gap=960_000, seed=1)
    assert len(made) == 41
    assert all(space.inflight is None for space in made)
    for depth in (0, 32):
        made.clear()
        cw.run_cluster(cw.matmult_tree_main(64), 4,
                       spec=ClusterSpec(topology="two_tier:2",
                                        ship_mode="demand",
                                        prefetch_depth=depth))
        queued = [space for space in made if space.inflight is not None]
        assert bool(queued) == bool(depth)


@pytest.mark.skipif(not hasattr(os, "fork")
                    or not realnet.localhost_available(),
                    reason="the real backend needs os.fork and localhost "
                           "sockets")
def test_a_request_that_only_reads_hands_back_no_address_space():
    """``real_serve``'s large iteration: every request is adopted with
    no address space shipped back, on the same 16 frames (252,812
    bytes while every hand-back shipped its whole space)."""
    counts = _large_counts("real_serve")
    assert (counts["wire_frames"], counts["addrspace_unshipped"]) == \
        (16, 100)
    if sys.version_info[:2] == MEASURED_ON:
        assert counts["wire_bytes"] == 182_612


def test_counting_puts_the_engine_back():
    start = engine._Worker.__init__
    sizer, draw = compress.wire_sizes, LossSchedule.draw
    take_inflight = Transport.take_inflight
    dirty_since = AddressSpace.dirty_since
    callbacks = list(gc.callbacks)
    with counting() as counts:
        with repro.Machine() as machine:
            machine.run(lambda g: 0)
    assert counts.handoffs == 2    # the root's run and its retirement
    assert engine._Worker.__init__ is start
    assert (compress.wire_sizes, LossSchedule.draw) == (sizer, draw)
    assert Transport.take_inflight is take_inflight
    assert AddressSpace.dirty_since is dirty_since
    assert gc.callbacks == callbacks


def test_an_iteration_the_oracle_rejects_is_not_counted(monkeypatch):
    def judge(case, raw):
        return types.SimpleNamespace(ops=4, failed=1, reason="bad sum")

    workload = types.SimpleNamespace(
        unavailable=None, judge=judge,
        case=lambda size, seed: types.SimpleNamespace(args={}),
        run=lambda args: None)
    workloads = types.ModuleType("perfbench.workloads")
    workloads.WORKLOADS = {"fake": workload}
    monkeypatch.setitem(sys.modules, "perfbench.workloads", workloads)
    with pytest.raises(RuntimeError, match=r"1 of 4 .*bad sum"):
        host_counts.count("fake", 1)
    # an iteration every op of which passes is counted
    workload.judge = lambda case, raw: types.SimpleNamespace(
        ops=4, failed=0, reason="")
    got = host_counts.count("fake", 1)
    assert (got["handoffs_per_op"], got["workers_started"]) == (0.0, 0)
