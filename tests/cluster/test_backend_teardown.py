"""The worker-fault matrix, over both shard coordinators.

One worker of a run dies, wedges, or cannot be started — on its only
sibling, or in the middle of a queue of them.  The pipe coordinator
(``shard_workers=N``) must run that sibling and the rest of the
worker's queue inline, say why on ``fallback_reasons``, and still
produce the serial run bit for bit; the real backend must surface a
typed :class:`BackendError`.  Either way the run is bounded by the
coordinator's deadline and leaves no child process behind."""

import hashlib
import multiprocessing
import os
import random
import socket
import sys
import time

import pytest

from repro import ClusterSpec, Machine
from repro.bench import cluster_workloads as cw
from repro.cluster import realnet
from repro.cluster.backend import run_backend, run_machine
from repro.cluster.realnet import localhost_available
from repro.cluster.transport import MsgType
from repro.common.errors import BackendError
from repro.mem.layout import SHARED_BASE
from repro.mem.page import PAGE_SIZE

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "kernel"))
from test_shard import assert_identical  # noqa: E402

pytestmark = [
    pytest.mark.skipif(not hasattr(os, "fork"),
                       reason="real backend needs os.fork"),
    pytest.mark.skipif(not localhost_available(),
                       reason="localhost TCP sockets unavailable"),
]

REAL = {"backend": "real"}
PIPE = {"shard_workers": 4}

#: (coordinator, worker-side fault point).  Death while the parent
#: pushes the queue's forward migration, death after the queue's
#: hand-back MIGRATE but before its page batches, and death or a hang
#: after those batches but before the wire-ledger report are points of
#: the real wire's protocol only; death and a hang just before a
#: sibling's hand-back (on the real wire: before any of the queue's
#: hand-back is sent) exist on both links.
CELLS = [
    pytest.param(REAL, "die-before-install", id="die-before-install"),
    pytest.param(REAL, "die-before-handback", id="die-before-handback"),
    pytest.param(REAL, "die-mid-handback", id="die-mid-handback"),
    pytest.param(REAL, "hang-before-handback", id="hang-before-handback"),
    pytest.param(REAL, "die-before-report", id="die-before-report"),
    pytest.param(REAL, "hang-before-report", id="hang-before-report"),
    pytest.param(PIPE, "die-before-handback", id="pipe-die-before-handback"),
    pytest.param(PIPE, "hang-before-handback",
                 id="pipe-hang-before-handback"),
]

#: What the pipe coordinator records for each fault.
REASONS = {"die-before-handback": "worker died",
           "hang-before-handback": "worker timed out"}


def assert_no_leaked_children(grace=10.0):
    deadline = time.monotonic() + grace
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


#: One builder for every run: the entry closure lands in the root's
#: registers, and image equality compares it by identity.
MD5_CIRCUIT = cw.md5_circuit_main(2)


def run(knobs, configure=None, nnodes=4, builder=MD5_CIRCUIT):
    """The md5 circuit (or ``builder``) on ``nnodes`` nodes under
    ``knobs``: one fork point, a sibling subtree per node.
    ``configure(machine)`` runs before the workload (deadlines, fault
    injection)."""
    machine = Machine(nnodes=nnodes, spec=ClusterSpec(**knobs))
    if configure is not None:
        configure(machine)
    return run_machine(machine, builder)


@pytest.mark.parametrize("knobs,fault", CELLS)
def test_worker_death_is_typed_bounded_and_leakless(knobs, fault):
    # A hang is only ever noticed by the deadline, so it runs on a short
    # one; death closes the link and surfaces at once under any.
    deadline = 0.3 if fault.startswith("hang") else 10.0

    def configure(machine):
        shard = machine.shard
        shard.deadline = deadline
        spawn = shard._spawn

        def fault_the_first_worker(caller, queue):
            # A worker inherits the coordinator as it is at its fork.
            shard.fault_inject = fault if shard._next_index == 0 else None
            return spawn(caller, queue)

        shard._spawn = fault_the_first_worker

    start = time.monotonic()
    if knobs == REAL:
        with pytest.raises(BackendError, match="real backend aborted"):
            run(knobs, configure)
    else:
        result = run(knobs, configure)
        stats = result.shard_stats
        assert stats["forked"] == 4 and stats["adopted"] == 3
        assert stats["fallbacks"] == 1
        assert stats["fallback_reasons"] == {REASONS[fault]: 1}
        assert_identical(result, run({}))
    # Bounded: the deadline plus join/teardown slack, far below the 60s
    # default a hang would consume.
    assert time.monotonic() - start < deadline + 30.0
    assert_no_leaked_children()


@pytest.mark.parametrize("fault", REASONS)
@pytest.mark.parametrize("knobs", [REAL, PIPE], ids=["real", "pipe"])
def test_worker_lost_mid_queue_costs_the_rest_of_its_queue(knobs, fault):
    # Six sibling subtrees (s2..s7) on two workers: queues (s2, s4, s6)
    # and (s3, s5, s7).  The first worker is lost on its *second*
    # sibling, after handing s2 back.
    deadline = 0.3 if fault.startswith("hang") else 10.0
    shards = []

    def configure(machine):
        shard = machine.shard
        shards.append(shard)
        shard.deadline = deadline
        run = shard._run_worker

        def fault_the_second_sibling(caller, sibling, marks):
            # Runs inside the worker, whose coordinator is its own copy.
            if sibling.uid == "s4":
                shard.fault_inject = fault
            return run(caller, sibling, marks)

        shard._run_worker = fault_the_second_sibling

    start = time.monotonic()
    if knobs == REAL:
        with pytest.raises(BackendError, match="real backend aborted"):
            run({**REAL, "shard_workers": 2}, configure, nnodes=6)
    else:
        result = run({"shard_workers": 2}, configure, nnodes=6)
        # One deadline for the whole lost queue, not one per sibling.
        assert time.monotonic() - start < 2 * deadline
        stats = result.shard_stats
        # s2 and the whole second queue are adopted; s4 and the s6
        # behind it run inline for the one reason, answered at once.
        assert stats["processes"] == 2
        assert stats["forked"] == 6 and stats["adopted"] == 4
        assert stats["fallback_reasons"] == {REASONS[fault]: 2}
        assert_identical(result, run({}, nnodes=6))
    assert time.monotonic() - start < deadline + 30.0
    shard, = shards
    assert shard.snapshots == {} and shard.pending == {}
    assert shard._procs == {} and shard._links == {}
    assert_no_leaked_children()


@pytest.mark.parametrize("knobs", [REAL, PIPE], ids=["real", "pipe"])
def test_failed_spawn_leaves_no_worker_and_no_snapshot(knobs):
    # The second spawn of the wave fails: the worker already started
    # must not outlive the wave, and nothing may stay parked on the
    # coordinator.
    shards = []

    def configure(machine):
        shard = machine.shard
        shards.append(shard)
        open_link = shard._open_link

        def out_of_processes(index):
            if index == 1:
                raise OSError("injected: cannot start worker 1")
            return open_link(index)

        shard._open_link = out_of_processes

    if knobs == REAL:
        with pytest.raises(BackendError, match="real backend aborted: "
                                               "worker start failed"):
            run(knobs, configure)
    else:
        result = run(knobs, configure)
        assert result.shard_stats["fallback_reasons"] == \
            {"worker start failed": 4}
        assert result.shard_stats["adopted"] == 0
        assert_identical(result, run({}))
    shard, = shards
    assert shard.snapshots == {} and shard.pending == {}
    assert shard._procs == {} and shard._links == {}
    assert_no_leaked_children()


def test_a_push_the_worker_refuses_is_typed_bounded_and_leakless():
    # The first worker's push is a page short — its MIGRATE announces
    # one page fewer than its queue's offer names, and its batch leaves
    # that page out — so the worker refuses it and dies, and the run
    # aborts well within the deadline instead of waiting for a
    # hand-back that never comes.
    def configure(machine):
        shard = machine.shard
        shard.deadline = 10.0
        push_queue = shard._push_queue

        def one_page_short(chan, queue, index):
            if index == 0:
                send = chan.send

                def short(mtype, src, dst, obj):
                    if mtype is MsgType.MIGRATE:
                        obj = {**obj, "npages": obj["npages"] - 1}
                    elif mtype is MsgType.PAGE_BATCH:
                        obj = obj[1:]
                    send(mtype, src, dst, obj)

                chan.send = short
            return push_queue(chan, queue, index)

        shard._push_queue = one_page_short

    start = time.monotonic()
    with pytest.raises(BackendError, match="real backend aborted"):
        run(REAL, configure)
    assert time.monotonic() - start < 10.0
    assert_no_leaked_children()


def test_a_real_worker_that_hangs_mid_queue_aborts_within_the_deadline():
    # The first of two workers hands nothing back until its queue ends,
    # and it wedges on its second subtree: the parent's one wait for
    # that queue's hand-back runs out after one deadline.
    deadline = 1.0
    waits = []

    def configure(machine):
        shard = machine.shard
        shard.deadline = deadline
        run_worker, recv_deltas = shard._run_worker, shard._recv_deltas

        def hang_on_the_second_sibling(caller, sibling, marks):
            if sibling.uid == "s4":
                shard.fault_inject = "hang-before-handback"
            return run_worker(caller, sibling, marks)

        def timed(chan, queue, index):
            start = time.monotonic()
            try:
                yield from recv_deltas(chan, queue, index)
            finally:
                waits.append((index, time.monotonic() - start))

        shard._run_worker = hang_on_the_second_sibling
        shard._recv_deltas = timed

    with pytest.raises(BackendError, match="real backend aborted: worker 0 "
                                           r"\(s2\): receive timed out"):
        run({**REAL, "shard_workers": 2}, configure, nnodes=6)
    (index, waited), = waits
    assert index == 0 and deadline <= waited < deadline + 2.0
    assert_no_leaked_children()


#: Rows of distinct, incompressible bytes a flood child starts from.
FLOOD_PAGES = 16


def _flood_child(g, k):
    # Rewrites every page it was handed: its hand-back ships them all.
    data = bytes(g.read(SHARED_BASE, FLOOD_PAGES * PAGE_SIZE))
    g.write(SHARED_BASE, bytes(byte ^ k for byte in data))
    return hashlib.sha256(data).digest()[0]


def _flood_main(g, nnodes):
    # Four children, each handed its own pages: on two workers, each
    # queue of two pushes 16 pages forward and hands 16 back.
    for k in (1, 2, 3, 4):
        g.write(SHARED_BASE, random.Random(k).randbytes(
            FLOOD_PAGES * PAGE_SIZE))
        g.put(k, regs={"entry": _flood_child, "args": (k,)},
              copy=(SHARED_BASE, FLOOD_PAGES * PAGE_SIZE), start=True)
    # Leave the last child sole holder of its pages, like the others.
    g.write(SHARED_BASE, bytes(FLOOD_PAGES * PAGE_SIZE))
    out = []
    for k in (1, 2, 3, 4):
        regs = g.get(k, regs=True, copy=(SHARED_BASE, FLOOD_PAGES * PAGE_SIZE))
        out.append((regs["r0"], hashlib.sha256(bytes(
            g.read(SHARED_BASE, FLOOD_PAGES * PAGE_SIZE))).hexdigest()))
    return out


#: Bytes asked of the kernel for each socket buffer of the flood cell.
SMALL_BUFFER = 16384


def test_a_queue_larger_than_the_socket_buffers_does_not_deadlock(
        monkeypatch):
    # Every real-wire socket gets buffers a fraction of the size of a
    # queue's push and of its one hand-back, so either blocks its
    # sender until the other end reads.  The parent pushes every queue
    # before it collects any, and reads each hand-back whole: the run
    # still finishes within a short deadline, the same run as serial.
    channel_init = realnet.Channel.__init__

    def small_buffers(chan, sock, deadline=realnet.DEFAULT_DEADLINE):
        for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
            sock.setsockopt(socket.SOL_SOCKET, option, SMALL_BUFFER)
        channel_init(chan, sock, deadline)

    monkeypatch.setattr(realnet.Channel, "__init__", small_buffers)
    deadline = 5.0
    start = time.monotonic()
    real = run({**REAL, "shard_workers": 2},
               lambda machine: setattr(machine.shard, "deadline", deadline),
               builder=_flood_main)
    assert time.monotonic() - start < deadline
    assert_no_leaked_children()
    with socket.socket() as probe:
        for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
            probe.setsockopt(socket.SOL_SOCKET, option, SMALL_BUFFER)
        buffered = sum(probe.getsockopt(socket.SOL_SOCKET, option)
                       for option in (socket.SO_SNDBUF, socket.SO_RCVBUF))
    stats = real.shard_stats
    assert stats["processes"] == 2
    assert stats["forked"] == stats["adopted"] == 4
    # Both directions of both links outgrow what the buffers hold.
    assert len(real.wire) == 4
    assert all(entry["bytes"] > buffered for entry in real.wire.values())
    assert real.wire_ok
    assert_identical(real, run({}, builder=_flood_main))
    assert [value[0] for value in real.value] == [
        hashlib.sha256(random.Random(k).randbytes(
            FLOOD_PAGES * PAGE_SIZE)).digest()[0] for k in (1, 2, 3, 4)]


def test_clean_run_leaves_no_children():
    result = run_backend(cw.md5_circuit_main(2), 2,
                         spec=ClusterSpec(**REAL))
    assert result.value is not None
    assert_no_leaked_children()
