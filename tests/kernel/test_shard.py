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
import textwrap
import threading

import pytest

from repro import ClusterSpec, Machine
from repro.bench import cluster_workloads as cw
from repro.cluster import realnet
from repro.cluster.backend import image_digest, run_backend
from repro.cluster.transport import Transport
from repro.common.errors import BackendError
from repro.debug import SpaceImage, first_difference, freeze_machine
from repro.debug.model import PageImage
from repro.kernel import child_ref, ledgers
from repro.kernel.shard import fork_refusal
from repro.kernel.space import Space
from repro.timing.trace import Trace
from repro.mem.layout import SHARED_BASE
from repro.mem.page import PAGE_SIZE, FrameAllocator, Page

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


#: Every bit-identity case above: (builder, nodes, spec knobs).
IDENTITY_CASES = {
    "md5_circuit": (cw.md5_circuit_main(3), 4, {}),
    "md5_tree": (cw.md5_tree_main(3), 4, {}),
    "matmult_tree": (cw.matmult_tree_main(64), 4, {}),
    "fat_tree": (cw.md5_circuit_main(3), 8, {"topology": "fat_tree:2"}),
    "full_ship": (cw.md5_tree_main(3), 4, {"ship_mode": "full"}),
    "compressed": (_compressible_main, 4, {"compression": True}),
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


def test_shard_disabled_below_two_workers():
    _, machine, _ = cw.run_cluster(cw.md5_tree_main(2), 2,
                                   spec=ClusterSpec(shard_workers=1))
    assert machine.shard is None


#: The one gate table (``shard.fork_refusal``): knobs -> a fragment of
#: the reason both coordinators give.
GATED = {
    "loss": ({"loss": 0.05}, "loss schedules"),
    "demand_paging": ({"ship_mode": "demand"}, "ship_mode='demand'"),
    "prefetch": ({"prefetch_depth": 2}, "prefetch_depth > 0"),
    "control": ({"control": "adaptive"}, "adaptive control plane"),
    "locality_placement": (
        {"placement": "locality", "topology": "two_tier:2"},
        "replayable placement"),
}


@pytest.mark.parametrize("gate", GATED)
def test_gated_configs_stay_serial_and_identical(gate):
    # Configurations whose results cannot be replayed from a worker
    # delta (fault schedules keyed on global message serials, stats-fed
    # placement, cross-subtree prefetch hints) must not fork — must
    # still produce the serial answer — and must say why.
    knobs, reason = GATED[gate]
    serial, sharded, shard = run_pair(cw.matmult_tree_main(32), 4, **knobs)
    assert shard.forked == 0
    # The one transport table no ledger carries (fork_refusal gates off
    # the controller that fills it).
    assert sharded.machine.transport.route_samples == \
        serial.machine.transport.route_samples
    assert shard.refused.startswith("shard_workers=4 ")
    assert reason in shard.refused


@pytest.mark.skipif(not realnet.localhost_available(),
                    reason="the real backend needs localhost sockets")
@pytest.mark.parametrize("gate", GATED)
def test_real_backend_refuses_what_the_shard_gate_refuses(gate):
    # Same table, other consumer: where the pipe coordinator falls back
    # to serial, the real backend refuses the machine outright, in the
    # same words.
    knobs, reason = GATED[gate]
    spec = ClusterSpec(**knobs)
    with Machine(nnodes=4, spec=spec) as plain:
        why = fork_refusal(plain)
    assert reason in why
    with pytest.raises(BackendError) as refusal:
        Machine(nnodes=4, spec=spec.with_(backend="real"))
    assert str(refusal.value) == f'backend="real" {why}'


def test_open_gate_records_no_refusal():
    with Machine(nnodes=4) as plain:
        assert fork_refusal(plain) is None
    _, _, shard = run_pair(cw.md5_tree_main(3), 4)
    assert shard.forked > 0 and shard.refused is None


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


# -- the reuse oracle ------------------------------------------------------

SCRATCH = SHARED_BASE + 4 * PAGE_SIZE


def _hostile_leaf(g, k):
    g.debug(f"leaf {k}")
    g.write(SCRATCH, bytes([k]) * 8)
    return k


def _hostile(g, k, page, vnodes):
    """Dirties everything a worker's rewind must undo before the next
    sibling of its queue starts: console and debug output, first-use
    placements, nested migrates (node cache, frame origins, link
    ledgers), Merges, a COW break of a frame shared with exactly one
    other sibling, and a stack left parked by Ret."""
    g.console_write(f"child {k}\n")
    g.debug(f"child {k}")
    for vnode in vnodes:
        ref = child_ref(1, node=vnode)
        g.put(ref, regs={"entry": _hostile_leaf, "args": (k,)},
              copy=(SCRATCH, PAGE_SIZE), snap=(SCRATCH, PAGE_SIZE),
              start=True)
        g.get(ref, merge=True)
    g.write(page, bytes([k]) * 8)
    g.ret(status=k)
    raise AssertionError("never resumed")


def _hostile_main(g, nnodes):
    # Two workers run the queues (1, 3) and (2, 4).  Each queue's two
    # children are the only holders of one frame (fork-time refs == 2:
    # the parent's rewrite breaks its own reference away), and the
    # first of a queue does everything the second does and more.
    pages = {1: SHARED_BASE, 2: SHARED_BASE + PAGE_SIZE}
    for page in pages.values():
        g.write(page, b"parent")
    for num, vnodes in ((1, (2, 1)), (2, (3, 1)), (3, (2,)), (4, (3,))):
        page = pages[2 - num % 2]
        g.put(num, regs={"entry": _hostile, "args": (num, page, vnodes)},
              copy=(page, PAGE_SIZE), grant_io=True)
    for page in pages.values():
        g.write(page, b"rewritten")
    for num in (1, 2, 3, 4):
        g.put(num, start=True)
    out = []
    for num in (1, 2, 3, 4):
        page = pages[2 - num % 2]
        regs = g.get(num, regs=True, copy=(page, PAGE_SIZE))
        out.append((regs["status"], regs["trap"].name,
                    bytes(g.read(page, 8))))
    return out


def run_hostile(workers):
    """The hostile program on ``workers`` pipe workers: its result, and
    each sibling's hand-back payload as the parent received it."""
    payloads = {}

    def configure(machine):
        shard = machine.shard
        recv, run = shard._recv_delta, shard._run_worker

        def recording(link, sibling, index):
            payload = recv(link, sibling, index)
            payloads[sibling.uid] = pickle.dumps(payload)
            return payload

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

        shard._recv_delta = recording
        shard._run_worker = no_stack_of_an_earlier_sibling

    result = run_backend(_hostile_main, 4,
                         spec=ClusterSpec(shard_workers=workers),
                         configure=configure)
    assert multiprocessing.active_children() == []
    return result, payloads


def test_a_hostile_predecessor_does_not_change_the_next_delta():
    serial = run_backend(_hostile_main, 4)
    assert [entry[:2] for entry in serial.value] == \
        [(k, "RET") for k in (1, 2, 3, 4)]
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


# -- the declaration is complete -------------------------------------------

def test_node_and_pair_rows_ride_the_hand_back_like_the_link_ones():
    # Delta shipping leaves a shardable subtree nothing to demand-pull,
    # so no workload above moves a node row inside a worker: move the
    # rows by hand through the four steps of the one row kind.  What a
    # run moved is handed back as differences, rewound (a row the run
    # created is gone again), and adopted through the transport's
    # accessors — which is what puts it in the parent's next window.
    rows = [ledger for ledger in ledgers.LEDGERS
            if isinstance(ledger, ledgers.Rows)]
    assert [ledger.key for ledger in rows] == ["links", "nodes", "pairs"]
    with Machine(nnodes=2) as worker, Machine(nnodes=2) as parent:
        for machine in (worker, parent):    # the fork-time state
            machine.transport.node(1).pulled += 5
        parent.transport.take_window()
        marks = [ledger.mark(worker) for ledger in rows]
        worker.transport.node(1).pulled += 3
        worker.transport.node(0).prefetch_stale += 1
        worker.transport.pair((0, 1)).bytes += 64
        worker.transport.link((0, 1)).messages += 1
        deltas = [ledger.delta(worker, mark)
                  for ledger, mark in zip(rows, marks)]
        for ledger, mark, delta in zip(rows, marks, deltas):
            ledger.rewind(worker, mark, delta)
            ledger.adopt(parent, delta, None)
        assert worker.transport.nodes[1].pulled == 5
        assert set(worker.transport.nodes) == {1}
        assert not worker.transport.pairs and not worker.transport.links
        assert parent.transport.pages_pulled == 8
        assert parent.transport.link((0, 1)).messages == 1
        window = parent.transport.take_window()
        assert (window.nodes, window.pair_bytes) == (deltas[1],
                                                     {(0, 1): 64})
        assert window.nodes[1]["pulled"] == 3
        assert window.nodes[0]["prefetch_stale"] == 1


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
