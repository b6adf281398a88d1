"""Bit-identity of sharded host execution vs the serial engine.

``ClusterSpec(shard_workers=N)`` forks sibling subtrees into worker host
processes at rendezvous points and adopts their deltas (see
repro.kernel.shard).  The sharded run must be indistinguishable from
the serial one in every observable: computed values, and the frozen
image (``repro.debug.freeze_machine``) of everything else — the full
trace, every memory image (data, refcounts, frame serials, generations),
the frame/uid counters, page-cache and origin bookkeeping, console
output, the merge log and every transport ledger.
"""

import ast
import inspect
import multiprocessing
import os
import pickle
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro import ClusterSpec, Machine
from repro.bench import cluster_workloads as cw
from repro.cluster import realnet
from repro.cluster.backend import image_digest, run_backend, run_machine
from repro.cluster.transport import Transport
from repro.debug import SpaceImage, first_difference, freeze_machine
from repro.debug.model import PageImage
from repro.kernel import child_ref, ledgers
from repro.kernel.shard import (
    _handed_tables,
    _image,
    _left_alone,
    fork_refusal,
)
from repro.kernel.space import Space
from repro.timing.trace import Trace
from repro.mem.addrspace import AddressSpace
from repro.mem.layout import SHARED_BASE
from repro.mem.page import PAGE_SIZE, FrameAllocator, Page
from repro.mem.snapshot import Snapshot

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "cluster"))
from skewed_workload import skewed_main  # noqa: E402

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="sharding requires os.fork")


def assert_identical(run, oracle):
    """Two finished runs (``run_backend`` results) are the same run:
    value, makespan, and the image frozen before close — the space tree
    with every page's bytes, tag and refcount, plus everything the run
    moved on the machine (``repro.kernel.ledgers.whole_run``)."""
    assert (run.value, run.makespan) == (oracle.value, oracle.makespan)
    assert first_difference(run.image, oracle.image) is None
    assert run.image == oracle.image
    assert image_digest(run.image) == image_digest(oracle.image)


def run_pair(builder, nnodes, workers=4, sharded=None, **knobs):
    """``builder`` serially and sharded: both results, the two asserted
    identical, and the sharded machine's coordinator."""
    spec = ClusterSpec(**knobs)
    serial = run_backend(builder, nnodes, spec=spec)
    result = run_backend(
        builder, nnodes,
        spec=spec.with_(**(sharded or {"shard_workers": workers})))
    # Every worker is joined before its result is even looked at.
    assert multiprocessing.active_children() == []
    shard = result.machine.shard
    assert sum(shard.fallback_reasons.values()) == shard.fallbacks
    assert_identical(result, serial)
    return serial, result, shard


@pytest.mark.parametrize("workload,builder", [
    ("md5_circuit", cw.md5_circuit_main(3)),
    ("md5_tree", cw.md5_tree_main(3)),
    ("matmult_tree", cw.matmult_tree_main(64)),
], ids=["md5_circuit", "md5_tree", "matmult_tree"])
def test_sharded_run_bit_identical(workload, builder):
    serial, sharded, shard = run_pair(builder, 4)
    assert shard.forked > 0
    assert shard.adopted == shard.forked
    assert shard.fallbacks == 0


def test_sharded_run_bit_identical_on_fat_tree():
    # The flagship sweep shape: a wide circuit of siblings, one worker
    # wave per shard_workers batch, on a routed fabric.
    serial, sharded, shard = run_pair(
        cw.md5_circuit_main(3), 8, workers=3, topology="fat_tree:2")
    assert shard.adopted == shard.forked == 8


#: Fewer workers than siblings, so a worker runs a queue of subtrees:
#: two pipe workers, and the real wire with one process for the whole
#: fan-out.
QUEUED = [
    pytest.param({"shard_workers": 2}, id="pipe-2"),
    pytest.param({"backend": "real", "shard_workers": 1}, id="real-1",
                 marks=pytest.mark.skipif(
                     not realnet.localhost_available(),
                     reason="the real backend needs localhost sockets")),
]

def _compressible(g, k):
    # One new frame whose encoded size depends on k, shipped by this
    # space's own migration to the node of the child it joins.
    g.write(SHARED_BASE, bytes(range(1, 200)) * k)
    ref = child_ref(1, node=1)
    g.put(ref, regs={"entry": _square, "args": (k,)}, start=True)
    return g.get(ref, regs=True)["r0"]


def _compressible_main(g, nnodes):
    # Subtrees of one queue number their new frames alike, so the
    # transport's per-tag wire-size memo must not outlive the subtree
    # that filled it.
    for k in (1, 2, 3, 4):
        g.put(k, regs={"entry": _compressible, "args": (k,)}, start=True)
    return [g.get(k, regs=True)["r0"] for k in (1, 2, 3, 4)]


def _leaf(g):
    g.work(1_000)


def _visit_node_2(g, k):
    """Visit node 2: the migration queues this space's pages there.
    Forked, child 1 then moves on to node 3, rewrites its one page
    there (it holds it alone: in place) and comes back: the refill
    purges the stale entry and sinks its exchange inside the worker.
    Child 2 lets go of its page 3 while the entry is queued."""
    ref = child_ref(1, node=2)
    g.put(ref)
    if k == 1:
        g.put(child_ref(1, node=3))
        g.write(SHARED_BASE, b"forked")
        g.put(ref)
    if k == 2:
        g.zero_range(SHARED_BASE + 3 * PAGE_SIZE, PAGE_SIZE)
    g.get(ref)
    return k


def _revisit_node_2(g, k):
    """Run inline after the adoption: child 1 rewrites its page in
    place again (the root has rewritten child 2's old page 3 in place
    too); the visit's refill then purges the entries gone stale — as
    in the serial run, only if the adopted queue holds the live
    frames."""
    if k == 1:
        g.write(SHARED_BASE, b"in place")
    return _visit_node_2(g, 0)


def _requeue_main(g, nnodes):
    for k in range(4):
        g.write(SHARED_BASE + k * PAGE_SIZE, bytes([k + 1]) * 8)
    for k, pages in ((1, 1), (2, 4)):
        g.put(k, regs={"entry": _visit_node_2, "args": (k,)},
              copy=(SHARED_BASE, pages * PAGE_SIZE))
        # Break away from page 0: the child just given it holds it alone.
        g.write(SHARED_BASE, bytes([k]) * 8)
    for k in (1, 2):
        g.put(k, start=True)
    for k in (1, 2):
        g.get(k)
    g.write(SHARED_BASE + 3 * PAGE_SIZE, b"rewritten")
    for k in (1, 2):
        g.put(k, regs={"entry": _revisit_node_2, "args": (k,)},
              start=True)
    return [g.get(k, regs=True)["r0"] for k in (1, 2)]


def _wanderer(g, k):
    # Out to node 1 and back: over a fabric this lossy, some space's
    # migration exhausts its retransmissions and it traps EXC.
    ref = child_ref(1, node=1)
    g.put(ref, regs={"entry": _leaf}, start=True)
    g.get(ref)
    return k


def _lossy_wanderers_main(g, nnodes):
    for k in (1, 2, 3):
        g.put(k, regs={"entry": _wanderer, "args": (k,)}, start=True)
    views = [g.get(k, regs=True) for k in (1, 2, 3)]
    return [(view["trap"].name, view["trap_info"]) for view in views]


#: A schedule under which wanderer 2 traps on its way out and the
#: others get through.
EXHAUSTING = {"drop": 0.9, "seed": 2015}

#: Every bit-identity case above: (builder, nodes, spec knobs).  Drops
#: key on the sending space, so lossy runs fork like lossless ones; the
#: default seed drops none of matmult's 33 link copies at 5 %, so its
#: cell names one that does.
IDENTITY_CASES = {
    "md5_circuit": (cw.md5_circuit_main(3), 4, {}),
    "md5_tree": (cw.md5_tree_main(3), 4, {}),
    "matmult_tree": (cw.matmult_tree_main(64), 4, {}),
    "fat_tree": (cw.md5_circuit_main(3), 8, {"topology": "fat_tree:2"}),
    "full_ship": (cw.md5_tree_main(3), 4, {"ship_mode": "full"}),
    "demand_fat_tree": (cw.md5_circuit_main(3), 8,
                        {"topology": "fat_tree:2", "ship_mode": "demand"}),
    "demand_matmult": (cw.matmult_tree_main(64), 4, {"ship_mode": "demand"}),
    "compressed": (_compressible_main, 4, {"compression": True}),
    "lossy_fat_tree": (cw.md5_circuit_main(3), 8,
                       {"topology": "fat_tree:2", "loss": 0.2}),
    "lossy_matmult": (cw.matmult_tree_main(64), 4,
                      {"loss": {"drop": 0.05, "seed": 2008}}),
    "retry_exhausted": (_lossy_wanderers_main, 2, {"loss": EXHAUSTING}),
    # Each space's own prefetch queue travels with its subtree: queued
    # exchanges, their anchors and their frames are adopted in the
    # parent's numbering, and the skewed program purges 80 of them.
    "prefetch_matmult": (cw.matmult_tree_main(64), 4,
                         {"ship_mode": "demand", "prefetch_depth": 8}),
    "prefetch_md5_circuit": (cw.md5_circuit_main(3), 4,
                             {"ship_mode": "demand", "prefetch_depth": 4}),
    "prefetch_skewed": (skewed_main, 4,
                        {"ship_mode": "demand", "prefetch_depth": 4,
                         "topology": "two_tier:2"}),
    "prefetch_requeued": (_requeue_main, 4,
                          {"ship_mode": "demand", "prefetch_depth": 8}),
}


@pytest.mark.parametrize("coordinator", QUEUED)
@pytest.mark.parametrize("case", IDENTITY_CASES)
def test_queued_workers_bit_identical(case, coordinator):
    # The delta a subtree produces must not depend on what its worker
    # ran before it: a queue of subtrees on one process reproduces the
    # serial run exactly as a process per subtree does.
    builder, nnodes, knobs = IDENTITY_CASES[case]
    serial, sharded, shard = run_pair(builder, nnodes, sharded=coordinator,
                                      **knobs)
    assert shard.adopted == shard.forked > 0
    assert shard.fallbacks == 0
    assert 0 < shard.processes <= shard.forked
    if case == "fat_tree":      # one fork point, eight siblings
        assert shard.processes == coordinator["shard_workers"]
    if "loss" in knobs:
        assert sum(row["dropped_msgs"]
                   for row in serial.image.links.values()) > 0


def test_shard_disabled_below_two_workers():
    _, machine, _ = cw.run_cluster(cw.md5_tree_main(2), 2,
                                   spec=ClusterSpec(shard_workers=1))
    assert machine.shard is None


def test_a_retry_exhausted_child_traps_alike_everywhere():
    # The trap names the sending space's slot path and its own message
    # number, so it reads the same whoever ran the subtree.
    builder, nnodes, knobs = IDENTITY_CASES["retry_exhausted"]
    serial, _, _ = run_pair(builder, nnodes, **knobs)
    assert [trap for trap, _ in serial.value] == ["EXIT", "EXC", "EXIT"]
    assert serial.value[1][1].startswith(
        "NetworkLossError: MIGRATE msg 0 of space [2] on link (0, 1): ")


def test_an_exhausted_ack_traps_nobody():
    # An ACK is fire-and-forget: when every copy of one drops, it dies
    # on that hop and its sender goes on.  Over these schedules many
    # migrations still exhaust and trap their space, and every run
    # still conserves its bytes per link.
    traps = []
    for seed in range(2010, 2030):
        _, machine, value = cw.run_cluster(
            _lossy_wanderers_main, 2,
            ClusterSpec(loss={**EXHAUSTING, "seed": seed}))
        assert machine.transport.conservation_ok(), seed
        traps += [info for trap, info in value if trap == "EXC"]
    assert len(traps) == 38
    assert all(info.startswith("NetworkLossError: MIGRATE ")
               for info in traps), traps


def test_open_gate_records_no_refusal():
    # On a POSIX host the one gate is open, whatever the spec.
    assert fork_refusal() is None
    _, _, shard = run_pair(cw.md5_tree_main(3), 4)
    assert shard.forked > 0 and shard.refused is None


def test_a_zero_drop_rate_keeps_the_gate_open():
    # A fabric that drops nothing is the lossless fabric.
    with Machine(nnodes=4, spec=ClusterSpec(loss=0.0)) as plain:
        assert plain.loss is None


def test_full_ship_mode_shards_and_matches():
    serial, sharded, shard = run_pair(cw.md5_tree_main(3), 4,
                                      ship_mode="full")
    assert shard.adopted > 0


# -- the engine's worker pool and the fork ---------------------------------

def _square(g, k):
    g.work(10_000)
    return k * k


def _fork(g, num, k):
    g.put(num, regs={"entry": _square, "args": (k,)}, start=True)


def _join(g, num):
    return g.get(num, regs=True)["r0"]


def run_pair_bounded(builder, nnodes, seconds=60):
    """``run_pair`` on a helper thread, failing instead of hanging: a
    forked worker that hands a space to a thread it does not have
    blocks forever, so does its collector, and so would closing the
    machine from here."""
    result = []
    runner = threading.Thread(
        target=lambda: result.append(run_pair(builder, nnodes)), daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), f"sharded run hung for {seconds} s"
    assert result, "sharded run raised (traceback above)"
    return result[0]


def test_fork_after_the_pool_has_idle_threads():
    # Child 1 is the only READY sibling at its join, so it runs inline
    # and leaves its host thread idle in the engine's pool.  The three
    # forked next inherit that pool entry without its thread: a worker
    # that took it would never come back.
    def main(g, nnodes):
        _fork(g, 1, 1)
        total = _join(g, 1)
        for num in (2, 3, 4):
            _fork(g, num, num)
        return total + sum(_join(g, num) for num in (2, 3, 4))

    serial, sharded, shard = run_pair_bounded(main, 2)
    assert shard.forked == shard.adopted == 3
    assert sharded.value == 1 + 4 + 9 + 16


def test_restarted_sibling_is_not_taken_for_never_run():
    # Child 1 has exited and been restarted: it holds no thread, like a
    # space that never ran, but its earlier run is part of the parent's
    # state, so it must run inline while 2 and 3 are forked.
    def main(g, nnodes):
        _fork(g, 1, 5)
        first = _join(g, 1)
        g.put(1, regs={"args": (6,)}, start=True)
        _fork(g, 2, 2)
        _fork(g, 3, 3)
        return [first] + [_join(g, num) for num in (1, 2, 3)]

    serial, sharded, shard = run_pair_bounded(main, 2)
    assert sharded.value == [25, 36, 4, 9]
    assert shard.forked == shard.adopted == 2


# -- fallbacks say why -----------------------------------------------------

def _reads_the_clock(g, k):
    g.machine.dev_time()        # behind the API's back: only root may
    return k


def test_worker_refusal_is_a_reasoned_fallback():
    # A subtree that advanced a cursor device cannot be replayed from a
    # delta: its worker refuses, it runs inline, and the run says why.
    def main(g, nnodes):
        for num, entry in ((1, _square), (2, _reads_the_clock), (3, _square)):
            g.put(num, regs={"entry": entry, "args": (num,)}, start=True)
        return [_join(g, num) for num in (1, 2, 3)]

    serial, sharded, shard = run_pair(main, 2)
    assert sharded.value == [1, 2, 9]
    assert shard.forked == 3 and shard.adopted == 2
    assert shard.fallback_reasons == {"cursor device read": 1}


def _scribbles(g, k):
    g.write(SHARED_BASE, bytes([k]) * 8)
    return k


def test_failed_validation_is_a_reasoned_fallback():
    # Both children write the page they share with the parent.  Child
    # 1's adoption drops a reference to the frame child 2's worker
    # replaced copy-on-write; whether that write would still have
    # copied is no longer what the worker saw, so child 2 runs inline.
    def main(g, nnodes):
        g.write(SHARED_BASE, b"parent")
        for num in (1, 2):
            g.put(num, regs={"entry": _scribbles, "args": (num,)},
                  copy=(SHARED_BASE, PAGE_SIZE), start=True)
        return [_join(g, num) for num in (1, 2)]

    serial, sharded, shard = run_pair(main, 2)
    assert shard.forked == 2 and shard.adopted == 1
    assert shard.fallback_reasons == {"refcount dropped": 1}


CROSSING = (SHARED_BASE, 4 * PAGE_SIZE)


def _crossing_reader(g):
    return sum(g.read(*CROSSING))


def _crossing_child(g):
    ref = child_ref(1, node=3)
    g.put(ref, regs={"entry": _crossing_reader}, copy=CROSSING, start=True)
    return g.get(ref, regs=True)["r0"]


def _crossing_main(g, nnodes):
    """Two sibling subtrees cross on one node: each child takes the
    root's pages to its own node and hands them on to a grandchild on
    node 3.  Whichever subtree gets there second finds them in node 3's
    tag cache."""
    for k in range(4):
        g.write(SHARED_BASE + k * PAGE_SIZE, bytes([k + 1]) * PAGE_SIZE)
    refs = [child_ref(k, node=k) for k in (1, 2)]
    for ref in refs:
        g.put(ref, regs={"entry": _crossing_child}, copy=CROSSING,
              start=True)
    return [g.get(ref, regs=True)["r0"] for ref in refs]


@pytest.mark.parametrize("coordinator", QUEUED)
@pytest.mark.parametrize("ship_mode", ["delta", "demand"])
def test_crossing_subtrees_adopt_only_what_the_serial_run_paid(
        ship_mode, coordinator):
    # The second subtree's worker paid to bring the pages to node 3;
    # the serial run finds them cached there by the first.  Adoption
    # sees the parent's cache hold those tags and runs it inline.
    serial, sharded, shard = run_pair(_crossing_main, 4, sharded=coordinator,
                                      ship_mode=ship_mode)
    assert serial.value == [sum(range(1, 5)) * PAGE_SIZE] * 2
    assert shard.adopted == shard.forked - 1
    assert shard.fallback_reasons == {"node cache moved": 1}


# -- the reuse oracle ------------------------------------------------------

SCRATCH = SHARED_BASE + 4 * PAGE_SIZE


def _hostile_leaf(g, k):
    g.debug(f"leaf {k}")
    g.write(SCRATCH, bytes([k]) * 8)
    return k


def _hostile(g, k, page, vnodes, parks):
    """Dirties everything a worker's rewind must undo before the next
    sibling of its queue starts: console and debug output, first-use
    placements, nested migrates (node cache, frame origins, link
    ledgers), Merges, a COW break of a frame shared with exactly one
    other sibling, and (``parks``) a stack left parked by Ret."""
    g.console_write(f"child {k}\n")
    g.debug(f"child {k}")
    for vnode in vnodes:
        ref = child_ref(1, node=vnode)
        g.put(ref, regs={"entry": _hostile_leaf, "args": (k,)},
              copy=(SCRATCH, PAGE_SIZE), snap=(SCRATCH, PAGE_SIZE),
              start=True)
        g.get(ref, merge=True)
    g.write(page, bytes([k]) * 8)
    if parks:
        g.ret(status=k)
        raise AssertionError("never resumed")
    return k


def _hostile_program(g, parks):
    # Two workers run the queues (1, 3) and (2, 4).  Each queue's two
    # children are the only holders of one frame (fork-time refs == 2:
    # the parent's rewrite breaks its own reference away), and the
    # first of a queue does everything the second does and more.
    pages = {1: SHARED_BASE, 2: SHARED_BASE + PAGE_SIZE}
    for page in pages.values():
        g.write(page, b"parent")
    for num, vnodes in ((1, (2, 1)), (2, (3, 1)), (3, (2,)), (4, (3,))):
        page = pages[2 - num % 2]
        g.put(num, regs={"entry": _hostile,
                         "args": (num, page, vnodes, parks)},
              copy=(page, PAGE_SIZE), grant_io=True)
    for page in pages.values():
        g.write(page, b"rewritten")
    for num in (1, 2, 3, 4):
        g.put(num, start=True)
    out = []
    for num in (1, 2, 3, 4):
        page = pages[2 - num % 2]
        regs = g.get(num, regs=True, copy=(page, PAGE_SIZE))
        out.append((regs["status"] or regs["r0"], regs["trap"].name,
                    bytes(g.read(page, 8))))
    return out


def _hostile_main(g, nnodes):
    return _hostile_program(g, parks=False)


def _parked_main(g, nnodes):
    return _hostile_program(g, parks=True)


def run_hostile(workers, main=_hostile_main):
    """The hostile ``main`` on ``workers`` pipe workers: its result,
    and each sibling's hand-back payload as the parent received it."""
    payloads = {}

    def configure(machine):
        shard = machine.shard
        recv, run = shard._recv_deltas, shard._run_worker

        def recording(link, queue, index):
            for sibling, payload in zip(queue, recv(link, queue, index)):
                payloads[sibling.uid] = pickle.dumps(payload)
                yield payload

        def no_stack_of_an_earlier_sibling(caller, sibling, marks):
            # Runs inside the worker; a failure here is a dead worker,
            # i.e. a "worker died" fallback below.
            engine = machine.engine
            # (The worker's own thread is the forking guest thread.)
            pooled = {worker.thread for worker in engine._idle}
            pooled.add(threading.current_thread())
            assert not engine._live
            assert all(thread in pooled for thread in threading.enumerate()
                       if thread.name.startswith("guest-"))
            return run(caller, sibling, marks)

        shard._recv_deltas = recording
        shard._run_worker = no_stack_of_an_earlier_sibling

    machine = Machine(nnodes=4, spec=ClusterSpec(shard_workers=workers))
    configure(machine)
    result = run_machine(machine, main)
    assert multiprocessing.active_children() == []
    return result, payloads


def test_a_hostile_predecessor_does_not_change_the_next_delta():
    serial = run_backend(_hostile_main, 4)
    assert [entry[:2] for entry in serial.value] == \
        [(k, "EXIT") for k in (1, 2, 3, 4)]
    fresh, fresh_payloads = run_hostile(workers=4)
    queued, queued_payloads = run_hostile(workers=2)
    # Children 3 and 4 run second on their workers, after 1 and 2.  A
    # fresh worker sees the shared frame at refs == 2 and copies; so
    # must the queued one (its predecessor's break left refs == 1) —
    # and then both are turned down at the parent alike, where the
    # predecessor's adoption really has dropped that reference.
    assert [entry[2] for entry in serial.value] == \
        [bytes([k]) * 8 for k in (1, 2, 3, 4)]
    for result, nprocs in ((fresh, 4), (queued, 2)):
        stats = result.shard_stats
        assert stats["processes"] == nprocs
        assert stats["forked"] == 4 and stats["adopted"] == 2
        assert stats["fallback_reasons"] == {"refcount dropped": 2}
        assert_identical(result, serial)
    assert sorted(queued_payloads) == ["s2", "s3", "s4", "s5"]
    assert queued_payloads == fresh_payloads


def test_a_parked_predecessor_is_refused_and_unwound():
    # The same program, every child left parked by Ret: no hand-back
    # carries a stack to resume, so each worker refuses all four runs —
    # and still unwinds each parked stack before the next sibling of
    # its queue starts (``no_stack_of_an_earlier_sibling``, else a
    # "worker died" fallback).
    serial = run_backend(_parked_main, 4)
    assert serial.value == [(k, "RET", bytes([k]) * 8) for k in (1, 2, 3, 4)]
    for workers in (4, 2):
        result, payloads = run_hostile(workers, _parked_main)
        stats = result.shard_stats
        assert stats["processes"] == workers
        assert stats["forked"] == 4 and stats["adopted"] == 0
        assert stats["fallback_reasons"] == {"guest stack parked": 4}
        assert sorted(payloads) == ["s2", "s3", "s4", "s5"]
        assert_identical(result, serial)


def _rets_then_exits(g, k):
    g.ret()
    return k


def _resumed_main(g, nnodes):
    for num in (1, 2):
        g.put(num, regs={"entry": _rets_then_exits, "args": (num,)},
              start=True)
    out = []
    for resume in (False, True):
        for num in (1, 2):
            if resume:
                g.put(num, start=True)
        for num in (1, 2):
            regs = g.get(num, regs=True)
            out.append((regs["r0"], regs["trap"].name))
    return out


@pytest.mark.parametrize("coordinator", [
    pytest.param({"shard_workers": 2}, id="pipe-2"),
    pytest.param({"backend": "real"}, id="real",
                 marks=pytest.mark.skipif(
                     not realnet.localhost_available(),
                     reason="needs localhost sockets")),
])
def test_a_sibling_resumed_mid_stack_finishes_its_stack(coordinator):
    # Both children park in Ret and are resumed: each must return from
    # the Ret it parked in, not start over from its entry.
    serial, sharded, shard = run_pair(_resumed_main, 1, sharded=coordinator)
    assert serial.value == [(0, "RET"), (0, "RET"), (1, "EXIT"), (2, "EXIT")]
    assert shard.forked == 2 and shard.adopted == 0
    assert shard.fallback_reasons == {"guest stack parked": 2}


def test_a_refused_run_is_rewound_too():
    # The clock reader runs first on its worker; the cursor it moved
    # must not make the worker refuse the sibling queued behind it.
    def main(g, nnodes):
        for num, entry in ((1, _reads_the_clock), (2, _square), (3, _square)):
            g.put(num, regs={"entry": entry, "args": (num,)}, start=True)
        return [_join(g, num) for num in (1, 2, 3)]

    serial, sharded, shard = run_pair(main, 2, workers=2)
    assert sharded.value == [1, 4, 9]
    assert shard.processes == 2
    assert shard.forked == 3 and shard.adopted == 2
    assert shard.fallback_reasons == {"cursor device read": 1}


def test_a_hand_back_carries_only_the_ledgers_its_run_moved():
    # An md5 circuit node's subtree numbers no space or frame, sends no
    # message and prints nothing: its hand-back carries the trace
    # ledgers alone, and adopting it moves no other ledger of the
    # parent (whose own run moved most of them before the fork).
    keyed = {ledger.key: ledger for ledger in ledgers.LEDGERS
             if ledger.key is not None}
    handed = []

    def configure(machine):
        shard = machine.shard
        adopt = shard._adopt

        def watched(child, payload, snap):
            absent = [ledger for key, ledger in keyed.items()
                      if key not in payload]
            marks = [ledger.mark(machine) for ledger in absent]
            reason = adopt(child, payload, snap)
            handed.append(sorted(key for key in payload if key in keyed))
            assert all(payload[key] for key in handed[-1])
            assert [ledger.key for ledger, mark in zip(absent, marks)
                    if ledger.delta(machine, mark)] == []
            return reason

        shard._adopt = watched

    builder = cw.md5_circuit_main(2)
    machine = Machine(nnodes=4, spec=ClusterSpec(shard_workers=2))
    configure(machine)
    result = run_machine(machine, builder)
    assert result.shard_stats["adopted"] == 4
    assert handed == [["charged", "cum", "edges", "last", "open",
                       "segments"]] * 4
    assert_identical(result, run_backend(builder, 4))


SHARED = (SHARED_BASE, 4 * PAGE_SIZE)


def _only_reads(g, k):
    return sum(g.read(*SHARED)) + k


def _writes_page(g, k):
    g.write(SHARED_BASE + k * PAGE_SIZE, b"written")
    return k


def _read_write_main(g, nnodes):
    g.write(SHARED_BASE, bytes(range(256)) * (SHARED[1] // 256))
    for num, entry in ((1, _only_reads), (2, _writes_page)):
        g.put(num, regs={"entry": entry, "args": (num,)}, copy=SHARED,
              start=True)
    return [_join(g, num) for num in (1, 2)]


@pytest.mark.parametrize("coordinator", QUEUED)
def test_a_hand_back_is_the_diff_from_the_fork_time_image(coordinator):
    # Child 1 only reads the region it was given: its hand-back holds
    # no slot table, and the parent keeps its own address space.
    # Child 2 writes one page of it: its address space ships, and the
    # only frames in it that are not the fork-time ones are the one
    # page it wrote (on the real wire, the one page that crosses).
    handed = {}

    def configure(machine):
        shard = machine.shard
        adopt = shard._adopt

        def watched(child, payload, snap):
            spaces = payload["spaces"]
            own = child.addrspace
            handed[child.uid] = (
                sorted(spaces[child.uid]),
                {vpn for table in _handed_tables(spaces)
                 for vpn, page in table.items()
                 if snap.get(page.serial, (None, None, -1))[2]
                 != page.generation})
            reason = adopt(child, payload, snap)
            handed[child.uid] += (child.addrspace is own,)
            return reason

        shard._adopt = watched

    machine = Machine(nnodes=2, spec=ClusterSpec(**coordinator))
    configure(machine)
    result = run_machine(machine, _read_write_main)
    assert_identical(result, run_backend(_read_write_main, 2))
    stats = result.shard_stats
    assert stats["adopted"] == 2 and stats["addrspace_unshipped"] == 1
    written = SHARED_BASE // PAGE_SIZE + 2
    assert handed == {
        "s2": (["regs", "started", "state", "trap"], set(), True),
        "s3": (["addrspace", "regs", "started", "state", "trap"],
               {written}, False),
    }
    if coordinator.get("backend") == "real":
        assert result.wire[(0, realnet.COORD)]["pages"] == 1


def _equal_but_not_it(g, kind, box):
    # r0 is 0 at the fork: each of these returns a value ``==`` to it
    # that is not it, or changes a register's object in place.
    if kind == "list":
        box.append(kind)
        return None
    return {"int64": np.int64(0), "bool": False, "float": 0.0,
            "array": np.zeros(2)}[kind]


EQUAL_KINDS = ("int64", "bool", "float", "array", "list")


def _equal_main(g, nnodes):
    for num, kind in enumerate(EQUAL_KINDS, 1):
        box = [] if kind == "list" else ()
        g.put(num, regs={"entry": _equal_but_not_it, "args": (kind, box)},
              start=True)
    out = []
    for num in range(1, len(EQUAL_KINDS) + 1):
        regs = g.get(num, regs=True)
        out.append((type(regs["r0"]).__name__, regs["args"][1]))
    return out


@pytest.mark.parametrize("coordinator", QUEUED)
def test_a_register_equal_to_its_fork_time_value_is_still_handed_back(
        coordinator):
    # A field the run left alone stays the parent's own object, so
    # "left alone" is identity, never ``==``: 0 at the fork and
    # ``np.int64(0)``, ``False`` or ``0.0`` after compare equal, and an
    # array does not compare at all.  A list in a register the run
    # appended to is the fork-time object still: a register file
    # holding anything a run can change in place always ships.
    serial = run_machine(Machine(nnodes=2), _equal_main)
    assert serial.value == [("int64", ()), ("bool", ()), ("float", ()),
                            ("ndarray", ()), ("int", ["list"])]
    machine = Machine(nnodes=2, spec=ClusterSpec(**coordinator))
    result = run_machine(machine, _equal_main)
    assert result.value == serial.value
    assert result.shard_stats["adopted"] == len(EQUAL_KINDS)
    assert result.shard_stats["fallbacks"] == 0


#: What ``kernel/shard.py``'s fork-time image holds an address space
#: and a snapshot to when it decides whether a run left one in place.
IMAGED = {
    AddressSpace: {"_pages", "_perms", "_dirty", "_clock", "counters"},
    Snapshot: {"_frames", "_token"},
}
#: Their other attributes, with the reason no run's change to one can
#: go unshipped.
NOT_IMAGED = {
    AddressSpace: {"allocator": "the machine's frame allocator: stripped "
                                "for the hand-back, the parent's own after"},
    Snapshot: {"_source": "its space's address space, which the parent "
                          "re-points it at on adoption",
               "addr": "fixed at capture; a re-Snap is a new snapshot",
               "size": "fixed at capture; a re-Snap is a new snapshot"},
}


def _imaged_object(cls):
    if cls is AddressSpace:
        return AddressSpace()
    return Snapshot(0, PAGE_SIZE, {}, source=None, token=0)


def test_whatever_marks_an_address_space_moved_is_in_its_image():
    # A field added to AddressSpace or Snapshot is either in the image
    # a run's hand-back is diffed from, or says why it need not be:
    # otherwise a run that moves only that field ships nothing.
    for cls, imaged in IMAGED.items():
        excused = NOT_IMAGED[cls]
        assert all(reason.strip() for reason in excused.values())
        assert not imaged & set(excused)
        assert imaged | set(excused) == _assigned_by_init(cls), cls.__name__
        obj = _imaged_object(cls)
        assert _left_alone(obj, _image(obj))
        for attr in sorted(imaged):
            obj = _imaged_object(cls)
            image = _image(obj)
            value = getattr(obj, attr)
            if isinstance(value, dict):
                value[1 << 20] = object()
            elif isinstance(value, int):
                setattr(obj, attr, value + 1)
            else:
                value.cow_breaks += 1
            assert not _left_alone(obj, image), (cls.__name__, attr)


# -- the declaration is complete -------------------------------------------

def test_node_rows_ride_the_hand_back_like_the_link_ones():
    # Delta shipping leaves a shardable subtree nothing to demand-pull,
    # so no workload above moves a node row inside a worker: move the
    # rows by hand through the four steps of the one row kind.  What a
    # run moved is handed back as differences, rewound (a row the run
    # created is gone again), and adopted through the transport's
    # accessors — so the parent's totals and node table include it.
    rows = [ledger for ledger in ledgers.LEDGERS
            if isinstance(ledger, ledgers.Rows)]
    assert [ledger.key for ledger in rows] == ["links", "nodes"]
    with Machine(nnodes=2) as worker, Machine(nnodes=2) as parent:
        for machine in (worker, parent):    # the fork-time state
            machine.transport.node(1).pulled += 5
        marks = [ledger.mark(worker) for ledger in rows]
        worker.transport.node(1).pulled += 3
        worker.transport.node(0).prefetch_stale += 1
        worker.transport.link((0, 1)).messages += 1
        deltas = [ledger.delta(worker, mark)
                  for ledger, mark in zip(rows, marks)]
        for ledger, mark, delta in zip(rows, marks, deltas):
            ledger.rewind(worker, mark, delta)
            ledger.adopt(parent, delta, None)
        assert worker.transport.nodes[1].pulled == 5
        assert set(worker.transport.nodes) == {1}
        assert not worker.transport.links
        assert parent.transport.pages_pulled == 8
        assert parent.transport.link((0, 1)).messages == 1
        assert deltas[1][1]["pulled"] == 3
        assert deltas[1][0]["prefetch_stale"] == 1
        assert {node: row.as_dict()
                for node, row in parent.transport.nodes.items()} == {
            1: dict(deltas[1][1], pulled=8), 0: deltas[1][0]}


def _assigned_by_init(cls):
    init = ast.parse(textwrap.dedent(inspect.getsource(cls.__init__)))
    return {
        node.attr for node in ast.walk(init)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"}


def test_every_machine_global_is_replayed_or_says_why_not():
    # A field added to one of the constructors is either moved by a
    # declared ledger (marked, handed back, rewound, adopted) or named
    # with the reason it needs none of that: Trace._cum, added after
    # the delta was designed, sat in neither for two PRs.
    owners = {"": Machine, "trace": Trace, "transport": Transport,
              "frames": FrameAllocator}
    for owner, cls in owners.items():
        moved = set()
        for ledger in ledgers.LEDGERS:
            if ledger.owner == owner:
                attr = ledger.attr or cls.SCALARS
                moved.update((attr,) if isinstance(attr, str) else attr)
        excused = ledgers.NOT_REPLAYED.get(cls.__name__, {})
        assert all(reason.strip() for reason in excused.values())
        assert not moved & set(excused)
        assert moved | set(excused) == _assigned_by_init(cls), cls.__name__
    # Likewise a Space: what a hand-back may have changed is spliced
    # onto the parent's object by name, the rest says why not.
    spliced = set(ledgers.SPLICED)
    kept = ledgers.NOT_REPLAYED["Space"]
    assert len(spliced) == len(ledgers.SPLICED)
    assert all(reason.strip() for reason in kept.values())
    assert not spliced & set(kept)
    assert spliced | set(kept) == _assigned_by_init(Space)


def test_whatever_a_run_may_move_is_in_the_image_or_says_why_not():
    # The same declaration, read the second time: a ledger is handed
    # back under a key — and then an image holds it, whole — or says
    # why the parent (and so the image) never sees it; a Space attribute
    # a run may change is frozen by an image field or excused there.
    keyed = [ledger for ledger in ledgers.LEDGERS if ledger.key is not None]
    for ledger in ledgers.LEDGERS:
        assert (ledger.key is None) == bool((ledger.local or "").strip()), \
            (ledger.owner, ledger.attr)
    with Machine(nnodes=2) as machine:
        machine.run(cw.md5_tree_main(2), (2,))
        image = freeze_machine(machine)
    assert sorted((owner, key) for owner, rows in image.run.items()
                  for key in rows) == \
        sorted((ledger.owner or "machine", ledger.key) for ledger in keyed)
    assert type(image).__slots__ == ("root", "run")
    frozen = set(SpaceImage.COPIED) | {
        attr for attr, _freeze in SpaceImage.DERIVED.values()}
    excused = SpaceImage.EXCUSED
    assert SpaceImage.__slots__ == SpaceImage.FIELDS
    assert len(set(SpaceImage.FIELDS)) == len(SpaceImage.FIELDS)
    assert all(reason.strip() for reason in excused.values())
    assert not frozen & set(excused)
    assert set(excused) <= set(ledgers.SPLICED) <= frozen | set(excused)
    assert frozen <= _assigned_by_init(Space)
    # ... down to the frame: a Page is its tag, its refcount and its
    # bytes; an image adds the mapping's permission.
    assert set(Page.__slots__) == {"serial", "generation", "refs", "data"}
    assert PageImage.__slots__ == ("tag", "perm", "refs", "data")
