"""The worker-fault matrix, over both shard coordinators.

One worker of a run dies, wedges, or cannot be started — on its only
sibling, or in the middle of a queue of them.  The pipe coordinator
(``shard_workers=N``) must run that sibling and the rest of the
worker's queue inline, say why on ``fallback_reasons``, and still
produce the serial run bit for bit; the real backend must surface a
typed :class:`BackendError`.  Either way the run is bounded by the
coordinator's deadline and leaves no child process behind."""

import multiprocessing
import os
import sys
import time

import pytest

from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.cluster.backend import run_backend, run_real
from repro.cluster.realnet import localhost_available
from repro.common.errors import BackendError

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
#: serves the forward page exchange and death after the hand-back
#: header but before its page batches are points of the real wire's
#: protocol only; death and a hang just before the hand-back exist on
#: both links.
CELLS = [
    pytest.param(REAL, "die-before-install", id="die-before-install"),
    pytest.param(REAL, "die-before-handback", id="die-before-handback"),
    pytest.param(REAL, "die-mid-handback", id="die-mid-handback"),
    pytest.param(REAL, "hang-before-handback", id="hang-before-handback"),
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


def run(knobs, configure=None, nnodes=4):
    """The md5 circuit on ``nnodes`` nodes under ``knobs``: one fork
    point, a sibling subtree per node."""
    return run_backend(MD5_CIRCUIT, nnodes, spec=ClusterSpec(**knobs),
                       configure=configure)


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


def test_clean_run_leaves_no_children():
    result = run_real(cw.md5_circuit_main(2), 2)
    assert result.value is not None
    assert_no_leaked_children()
