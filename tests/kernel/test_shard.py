"""Bit-identity of sharded host execution vs the serial engine.

``ClusterSpec(shard_workers=N)`` forks sibling subtrees into worker host
processes at rendezvous points and adopts their deltas (see
repro.kernel.shard).  The sharded run must be indistinguishable from
the serial one in every observable: computed values, the full trace,
every memory image (data, refcounts, frame serials, generations), the
frame/uid counters, page-cache and origin bookkeeping, console output
and every transport/link statistic.
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
from repro.cluster.backend import run_backend
from repro.cluster.network import NetworkStats
from repro.cluster.transport import Transport
from repro.common.errors import BackendError
from repro.kernel import child_ref, shard as shard_module
from repro.kernel.shard import fork_refusal
from repro.kernel.space import Space
from repro.timing.trace import Trace
from repro.mem.layout import SHARED_BASE
from repro.mem.page import PAGE_SIZE

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="sharding requires os.fork")


def fingerprint(machine, value, makespan):
    """Every observable of a finished machine, shard-independent iff
    the sharded run was bit-identical to the serial one."""
    trace = machine.trace
    memory = []
    for sp in machine.root.walk():
        pages = sorted(
            (vpn, bytes(page.data), page.refs, page.serial, page.generation)
            for vpn, page in sp.addrspace._pages.items())
        memory.append((sp.uid, sp.state.name, sp.cur_node, pages))
    net = NetworkStats(machine)
    return {
        "value": value,
        "makespan": makespan,
        "segments": [(s.id, s.uid, s.node, s.cycles, s.label, s.closed)
                     for s in trace.segments],
        "edges": trace.edges,
        "transfers": trace.transfers,
        "console": bytes(machine.console_output),
        "debug": list(machine.debug_lines),
        "next_serial": machine.frames._next_serial,
        "frames_allocated": machine.frames.frames_allocated,
        "uid_counter": machine._uid_counter,
        "pages_fetched": machine.pages_fetched,
        "node_cache": {n: dict(c) for n, c in machine.node_cache.items()},
        "frame_origin": dict(machine.frame_origin),
        "charged": {uid: trace.charged(uid)
                    for uid in {seg.uid for seg in trace.segments}},
        "node_map": dict(machine.node_map),
        "memory": memory,
        "per_link": net.per_link,
        "per_class": net.per_class,
        "pages_shipped": net.pages_shipped,
        "bytes_moved": net.bytes_moved,
        "messages": net.messages,
        "hops": net.hops,
        "migrations": net.migrations,
        "nodes": {node: row.as_dict()
                  for node, row in machine.transport.nodes.items()},
        "pairs": {pair: row.as_dict()
                  for pair, row in machine.transport.pairs.items()},
        "route_samples": machine.transport.route_samples,
    }


def run_pair(builder, nnodes, workers=4, sharded=None, **knobs):
    spec = ClusterSpec(**knobs)
    serial_mk, serial_m, serial_v = cw.run_cluster(builder, nnodes, spec=spec)
    shard_mk, shard_m, shard_v = cw.run_cluster(
        builder, nnodes,
        spec=spec.with_(**(sharded or {"shard_workers": workers})))
    # Every worker is joined before its result is even looked at.
    assert multiprocessing.active_children() == []
    assert sum(shard_m.shard.fallback_reasons.values()) == \
        shard_m.shard.fallbacks
    return (fingerprint(serial_m, serial_v, serial_mk),
            fingerprint(shard_m, shard_v, shard_mk),
            shard_m.shard)


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
    assert sharded == serial


def test_sharded_run_bit_identical_on_fat_tree():
    # The flagship sweep shape: a wide circuit of siblings, one worker
    # wave per shard_workers batch, on a routed fabric.
    serial, sharded, shard = run_pair(
        cw.md5_circuit_main(3), 8, workers=3, topology="fat_tree:2")
    assert shard.adopted == shard.forked == 8
    assert sharded == serial


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
    assert sharded == serial


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
    assert sharded == serial
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
    assert sharded == serial


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
    assert sharded["value"] == 1 + 4 + 9 + 16
    assert sharded == serial


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
    assert sharded["value"] == [25, 36, 4, 9]
    assert shard.forked == shard.adopted == 2
    assert sharded == serial


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
    assert sharded["value"] == [1, 2, 9]
    assert shard.forked == 3 and shard.adopted == 2
    assert shard.fallback_reasons == {"cursor device read": 1}
    assert sharded == serial


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
    assert sharded == serial


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
        assert fingerprint(result.machine, result.value, result.makespan) \
            == fingerprint(serial.machine, serial.value, serial.makespan)
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
    assert sharded["value"] == [1, 4, 9]
    assert shard.processes == 2
    assert shard.forked == 3 and shard.adopted == 2
    assert shard.fallback_reasons == {"cursor device read": 1}
    assert sharded == serial


# -- the declaration is complete -------------------------------------------

def test_node_and_pair_rows_ride_the_hand_back_like_the_link_ones():
    # Delta shipping leaves a shardable subtree nothing to demand-pull,
    # so no workload above moves a node row inside a worker: move the
    # rows by hand through the four steps of the one row kind.  What a
    # run moved is handed back as differences, rewound (a row the run
    # created is gone again), and adopted through the transport's
    # accessors — which is what puts it in the parent's next window.
    rows = [ledger for ledger in shard_module._LEDGERS
            if isinstance(ledger, shard_module._Rows)]
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
    # A field added to one of the three constructors is either moved
    # by a declared ledger (marked, handed back, rewound, adopted) or
    # named with the reason it needs none of that: Trace._cum, added
    # after the delta was designed, sat in neither for two PRs.
    owners = {"": Machine, "trace": Trace, "transport": Transport}
    for owner, cls in owners.items():
        ledgers = set()
        for ledger in shard_module._LEDGERS:
            if ledger.owner == owner:
                attr = ledger.attr or cls.SCALARS
                ledgers.update((attr,) if isinstance(attr, str) else attr)
        excused = shard_module._NOT_REPLAYED[cls.__name__]
        assert all(reason.strip() for reason in excused.values())
        assert not ledgers & set(excused)
        assert ledgers | set(excused) == _assigned_by_init(cls), cls.__name__
    # Likewise a Space: what a hand-back may have changed is spliced
    # onto the parent's object by name, the rest says why not.
    spliced = set(shard_module._SPLICED)
    kept = shard_module._NOT_REPLAYED["Space"]
    assert len(spliced) == len(shard_module._SPLICED)
    assert all(reason.strip() for reason in kept.values())
    assert not spliced & set(kept)
    assert spliced | set(kept) == _assigned_by_init(Space)
