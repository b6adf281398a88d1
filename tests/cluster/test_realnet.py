"""Wire codec robustness: every transport message type round-trips
through the real socket serializer, and every malformation — truncated
frame, corrupted header, bad pickle, inconsistent page sizes, timeout,
mid-frame close — surfaces as a typed :class:`WireError`, never a hang
or a raw struct/pickle/socket exception."""

import os
import socket
import struct
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import serving
from repro.cluster import realnet
from repro.cluster.compress import SCHEME_RAW, decode_page, encode_page
from repro.cluster.realnet import Channel, MAGIC, encode_frame
from repro.cluster.serving import serve_trace
from repro.cluster.spec import ClusterSpec
from repro.cluster.transport import MsgType
from repro.common.errors import BackendError, WireError
from repro.kernel.machine import Machine
from repro.mem.page import PAGE_SIZE, Page


def channel_pair(deadline=5.0):
    left, right = socket.socketpair()
    return Channel(left, deadline), Channel(right, deadline)


def roundtrip(mtype, obj):
    """Send one frame through a real socket pair and receive it."""
    a, b = channel_pair()
    try:
        a.send(mtype, 0, realnet.COORD, obj)
        got_type, src, dst, got = b.recv()
    finally:
        a.close()
        b.close()
    assert got_type is mtype and src == 0 and dst == realnet.COORD
    return got


# -- round trips (hypothesis over frame contents) ---------------------------

control_payloads = st.dictionaries(
    st.text(max_size=8),
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.text(max_size=16), st.binary(max_size=64)),
    max_size=6)

serials = st.integers(min_value=0, max_value=2**64 - 1)

page_bodies = st.one_of(
    st.just(bytes(PAGE_SIZE)),                              # zero page
    st.binary(min_size=0, max_size=24).map(                 # RLE-friendly
        lambda head: head.ljust(PAGE_SIZE, b"\x00")),
    st.binary(min_size=PAGE_SIZE, max_size=PAGE_SIZE),      # raw
)


@settings(max_examples=25, deadline=None)
@given(control_payloads)
def test_migrate_roundtrip(payload):
    assert roundtrip(MsgType.MIGRATE, payload) == payload


@settings(max_examples=25, deadline=None)
@given(control_payloads)
def test_ack_roundtrip(payload):
    assert roundtrip(MsgType.ACK, payload) == payload


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(serials, serials, page_bodies), max_size=6))
def test_page_batch_roundtrip_compressed(frames):
    # Through the shared codec: zero / RLE / raw schemes all cross.
    sent = [(serial, gen, *encode_page(data))
            for serial, gen, data in frames]
    got = roundtrip(MsgType.PAGE_BATCH, sent)
    assert len(got) == len(frames)
    for (serial, gen, data), (g_serial, g_gen, g_scheme, g_payload) \
            in zip(frames, got):
        assert (g_serial, g_gen) == (serial, gen)
        assert decode_page(g_scheme, bytes(g_payload)) == data


def test_page_batch_roundtrip_raw_scheme():
    body = bytes(range(256)) * (PAGE_SIZE // 256)
    got = roundtrip(MsgType.PAGE_BATCH, [(7, 3, SCHEME_RAW, body)])
    assert got == [(7, 3, SCHEME_RAW, body)]


def test_ledgers_conserve_across_the_pair():
    a, b = channel_pair()
    try:
        a.send(MsgType.ACK, 1, realnet.COORD, {"n": 1})
        a.send(MsgType.PAGE_BATCH, 1, realnet.COORD,
               [(4, 1, SCHEME_RAW, bytes(PAGE_SIZE))])
        b.recv()
        b.recv()
    finally:
        a.close()
        b.close()
    key = (1, realnet.COORD)
    assert a.sent[key] == b.received[key]
    assert a.sent[key]["frames"] == 2 and a.sent[key]["pages"] == 1


# -- malformed frames -------------------------------------------------------

def _recv_from_bytes(raw, deadline=2.0):
    """Feed raw bytes to a Channel and close the sender."""
    left, right = socket.socketpair()
    chan = Channel(right, deadline)
    try:
        if raw:
            left.sendall(raw)
        left.close()
        return chan.recv()
    finally:
        chan.close()


def test_truncated_header_is_typed_error():
    with pytest.raises(WireError, match="closed mid-frame"):
        _recv_from_bytes(b"DET\x01\x01")


def test_truncated_payload_is_typed_error():
    frame = encode_frame(MsgType.ACK, 0, 1, {"x": 1})
    with pytest.raises(WireError, match="closed mid-frame"):
        _recv_from_bytes(frame[:-3])


def test_bad_magic_is_typed_error():
    frame = bytearray(encode_frame(MsgType.ACK, 0, 1, {}))
    frame[:4] = b"NOPE"
    with pytest.raises(WireError, match="magic"):
        _recv_from_bytes(bytes(frame))


def test_bad_version_is_typed_error():
    frame = bytearray(encode_frame(MsgType.ACK, 0, 1, {}))
    frame[4] = 99
    with pytest.raises(WireError, match="version"):
        _recv_from_bytes(bytes(frame))


def test_unknown_type_code_is_typed_error():
    frame = bytearray(encode_frame(MsgType.ACK, 0, 1, {}))
    frame[5] = 250
    with pytest.raises(WireError, match="type code"):
        _recv_from_bytes(bytes(frame))


def test_oversized_length_is_typed_error_not_allocation():
    head = struct.Struct("!4sBBiiI").pack(
        MAGIC, realnet.VERSION, 3, 0, 1, realnet.MAX_PAYLOAD + 1)
    with pytest.raises(WireError, match="MAX_PAYLOAD"):
        _recv_from_bytes(head)


def test_corrupt_pickle_is_typed_error():
    good = encode_frame(MsgType.MIGRATE, 0, 1, {"k": "v"})
    corrupted = good[:-4] + b"\xff\xff\xff\xff"
    with pytest.raises(WireError, match="corrupt MIGRATE"):
        _recv_from_bytes(corrupted)


def test_page_batch_trailing_bytes_is_typed_error():
    payload = realnet.encode_payload(
        MsgType.PAGE_BATCH, [(1, 1, SCHEME_RAW, bytes(PAGE_SIZE))])
    with pytest.raises(WireError, match="trailing"):
        realnet.decode_payload(MsgType.PAGE_BATCH, payload + b"\x00")


def test_page_batch_unknown_scheme_is_typed_error():
    payload = bytearray(realnet.encode_payload(
        MsgType.PAGE_BATCH, [(1, 1, SCHEME_RAW, bytes(PAGE_SIZE))]))
    payload[4 + 16] = 77        # the scheme byte of the first page
    with pytest.raises(WireError, match="scheme code"):
        realnet.decode_payload(MsgType.PAGE_BATCH, bytes(payload))


def test_oversized_page_refused_on_encode():
    with pytest.raises(WireError, match="exceeds PAGE_SIZE"):
        realnet.encode_payload(
            MsgType.PAGE_BATCH, [(1, 1, SCHEME_RAW, bytes(PAGE_SIZE + 1))])


def test_unexpected_message_type_is_typed_error():
    a, b = channel_pair()
    try:
        a.send(MsgType.ACK, 0, 1, {})
        with pytest.raises(WireError, match="expected MIGRATE"):
            b.recv(expect=MsgType.MIGRATE)
    finally:
        a.close()
        b.close()


def test_recv_timeout_is_bounded_typed_error():
    a, b = channel_pair(deadline=0.2)
    try:
        start = time.monotonic()
        with pytest.raises(WireError, match="timed out"):
            b.recv()
        assert time.monotonic() - start < 5.0
    finally:
        a.close()
        b.close()


def test_wire_error_is_a_backend_error():
    # One except clause catches the whole real-backend failure family.
    assert issubclass(WireError, BackendError)


@pytest.mark.skipif(not realnet.localhost_available(),
                    reason="localhost TCP sockets unavailable")
def test_accept_timeout_is_bounded_typed_error():
    listener = realnet.listen(deadline=0.2)
    try:
        start = time.monotonic()
        with pytest.raises(WireError, match="accept timed out"):
            realnet.accept(listener, deadline=0.2)
        assert time.monotonic() - start < 5.0
    finally:
        listener.close()


# -- the forward exchange under long-lived workers --------------------------

needs_real_backend = pytest.mark.skipif(
    not hasattr(os, "fork") or not realnet.localhost_available(),
    reason="the real backend needs os.fork and localhost sockets")


def fork_time_queue(machine, *frame_sets):
    """One sibling space per tuple of frames, each mapping its frames
    from vpn 0, with its fork-time snapshot on the coordinator: a
    worker's queue as ``_push_queue`` and ``_recv_push`` see it."""
    shard = machine.shard
    queue = []
    for frames in frame_sets:
        sibling = machine.new_space(None)
        sibling.addrspace._pages.update(enumerate(frames))
        shard.snapshots[sibling] = {
            page.serial: (page, 1, page.generation) for page in frames}
        queue.append(sibling)
    return queue


def tamper(chan, edit):
    """Pass every frame ``chan`` sends through ``edit(mtype, obj)``
    first: the parent's own push, made wrong on the wire."""
    send = chan.send
    chan.send = lambda mtype, src, dst, obj: send(mtype, src, dst,
                                                  edit(mtype, obj))


def _repeat_first_page(mtype, obj):
    return obj + obj[:1] if mtype is MsgType.PAGE_BATCH else obj


def _one_page_short(mtype, obj):
    if mtype is MsgType.MIGRATE:
        return {**obj, "npages": obj["npages"] - 1}
    return obj[1:]


@needs_real_backend
@pytest.mark.parametrize("edit,refusal", [
    (_repeat_first_page, "pushed but not lacking"),
    (_one_page_short, "announces 1 pages, the worker lacks 2"),
], ids=["already-held", "one-page-short"])
def test_worker_refuses_a_push_that_is_not_what_it_lacks(edit, refusal):
    # The parent pushes every offered frame once; the worker checks the
    # push against what its queue maps.  Here the push repeats A, a
    # page the worker holds by then, or announces and carries one page
    # fewer than the two it lacks.
    with Machine(nnodes=2, spec=ClusterSpec(backend="real")) as machine:
        shard = machine.shard
        a, b = Page(allocator=machine.frames), Page(allocator=machine.frames)
        queue = fork_time_queue(machine, (a, b))
        parent, worker = channel_pair()
        try:
            tamper(parent, edit)
            shard._push_queue(parent, queue, 0)
            with pytest.raises(WireError, match=refusal):
                shard._recv_push(worker, queue, 0)
        finally:
            parent.close()
            worker.close()


def _drop_last_subtree(offers):
    return offers[:-1]


def _swap_subtrees(offers):
    return offers[::-1]


def _drop_a_frame(offers):
    (uid, offered), *rest = offers
    return [(uid, offered[1:]), *rest]


def _age_a_frame(offers):
    (uid, ((serial, generation), *offered)), *rest = offers
    return [(uid, [(serial, generation + 1), *offered]), *rest]


@needs_real_backend
@pytest.mark.parametrize("edit,refusal", [
    (_drop_last_subtree, "does not name the worker's queue in order"),
    (_swap_subtrees, "does not name the worker's queue in order"),
    (_drop_a_frame, "does not match subtree s"),
    (_age_a_frame, "offered at a stale generation"),
], ids=["subtree-count", "uid-order", "frames", "generation"])
def test_worker_refuses_an_offer_that_is_not_its_queue(edit, refusal):
    # A queue of two subtrees: the offer must name both, in queue
    # order, each with exactly its fork-time frames at their
    # generations.
    with Machine(nnodes=2, spec=ClusterSpec(backend="real")) as machine:
        shard = machine.shard
        a, b, c = (Page(allocator=machine.frames) for _ in range(3))
        queue = fork_time_queue(machine, (a, b), (c,))
        parent, worker = channel_pair()
        try:
            tamper(parent, lambda mtype, obj: {**obj, "queue": edit(
                obj["queue"])} if mtype is MsgType.MIGRATE else obj)
            shard._push_queue(parent, queue, 0)
            with pytest.raises(WireError, match=refusal):
                shard._recv_push(worker, queue, 0)
        finally:
            parent.close()
            worker.close()


@needs_real_backend
def test_a_frame_two_subtrees_of_a_queue_share_is_pushed_once():
    # A is mapped by both subtrees of the queue: the one push offers it
    # twice, once per subtree, and carries its bytes once.
    with Machine(nnodes=2, spec=ClusterSpec(backend="real")) as machine:
        shard = machine.shard
        a, b, c = (Page(bytes([k]) * PAGE_SIZE, allocator=machine.frames)
                   for k in (1, 2, 3))
        queue = fork_time_queue(machine, (a, b), (a, c))
        parent, worker = channel_pair()
        try:
            shard._push_queue(parent, queue, 0)
            shard._recv_push(worker, queue, 0)
        finally:
            parent.close()
            worker.close()
        down = (realnet.COORD, 0)
        assert parent.sent[down] == worker.received[down]
        assert (parent.sent[down]["frames"], parent.sent[down]["pages"]) == \
            (2, 3)      # one MIGRATE and one PAGE_BATCH of A, B and C
        assert [bytes(page.data[:1]) for page in (a, b, c)] == \
            [b"\x01", b"\x02", b"\x03"]


@needs_real_backend
@pytest.mark.parametrize("held", [True, False], ids=["held", "foreign"])
def test_a_hand_back_resolves_untouched_frames_by_serial(held):
    # A and B are fork-time frames the run left alone, C one it
    # created: A and B cross as their serials and resolve to the
    # parent's own frames, C's bytes cross in a PAGE_BATCH.  A serial
    # the sibling did not hold at the fork is refused.
    with Machine(nnodes=2, spec=ClusterSpec(backend="real")) as machine:
        shard = machine.shard
        sibling = machine.new_space(None)
        a, b = Page(allocator=machine.frames), Page(allocator=machine.frames)
        shard._base = {"serial": machine.frames._next_serial}
        c = Page(b"\x07" * PAGE_SIZE, allocator=machine.frames)
        sibling.addrspace._pages.update(enumerate((a, b, c, a)))
        snap = {page.serial: (page, 1, page.generation) for page in (a, b)}
        shard.snapshots[sibling] = snap
        sibling.machine = sibling.addrspace.allocator = None
        parent, worker = channel_pair()
        try:
            handed = {sibling.uid: {"addrspace": sibling.addrspace}}
            shard._send_delta(worker, sibling,
                              {"spaces": handed, "replaced": []}, 0)
            # The worker's own slots are whole again once it is pickled.
            assert sibling.addrspace._pages == {0: a, 1: b, 2: c, 3: a}
            shard._flush(worker, 0)
            if not held:
                del snap[b.serial]
                with pytest.raises(WireError, match=f"frame {b.serial}, "
                                   f"which the subtree did not hold"):
                    list(shard._recv_deltas(parent, [sibling], 0))
                return
            payload, = shard._recv_deltas(parent, [sibling], 0)
        finally:
            parent.close()
            worker.close()
        pages = payload["spaces"][sibling.uid]["addrspace"]._pages
        assert pages[0] is pages[3] is a and pages[1] is b
        assert pages[2] is not c and pages[2].tag() == c.tag()
        assert pages[2].data == b"\x07" * PAGE_SIZE
        up = shard.wire_links[(0, realnet.COORD)]
        assert (up["frames"], up["pages"]) == (2, 1)    # MIGRATE + 1 page
        assert shard.wire_conservation_ok()


@needs_real_backend
@pytest.mark.parametrize("handed", [1, 2, 3], ids=["short", "whole", "long"])
def test_a_hand_back_carries_one_payload_per_subtree(handed):
    # The queue holds two subtrees: the one hand-back must carry two
    # entries, in queue order (here a result, then a refusal).
    with Machine(nnodes=2, spec=ClusterSpec(backend="real")) as machine:
        shard = machine.shard
        shard._base = {"serial": machine.frames._next_serial}
        queue = fork_time_queue(machine, (), ())
        for sibling in queue:
            sibling.machine = sibling.addrspace.allocator = None
        deltas = [{"spaces": {queue[0].uid: {"started": True}},
                   "replaced": []},
                  "cursor device read", "cursor device read"][:handed]
        parent, worker = channel_pair()
        try:
            for sibling, delta in zip(queue + queue, deltas):
                shard._send_delta(worker, sibling, delta, 0)
            shard._flush(worker, 0)
            if handed != 2:
                with pytest.raises(WireError, match=f"carries {handed} "
                                   f"payloads for a queue of 2"):
                    list(shard._recv_deltas(parent, queue, 0))
                return
            result, refused = shard._recv_deltas(parent, queue, 0)
        finally:
            parent.close()
            worker.close()
        assert result["spaces"] == {queue[0].uid: {"started": True}}
        assert refused == "cursor device read"
        assert shard.wire_conservation_ok()


@needs_real_backend
def test_shared_frames_cross_each_worker_link_once():
    # Twelve requests queue three deep on four workers, and every
    # request maps the same serving share: a worker installs the share
    # from the wire for its first request and asks for nothing after.
    real = serve_trace(4, spec=ClusterSpec(backend="real"), requests=12)
    shard = real.machine.shard
    assert shard.processes == 4
    assert shard.forked == shard.adopted == 12 and shard.fallbacks == 0
    share_pages = serving.SHARE[1] // PAGE_SIZE
    down = [entry for (src, _dst), entry in shard.wire_links.items()
            if src == realnet.COORD]
    assert len(down) == 4
    for entry in down:
        assert entry["pages"] == entry["pages_received"] == share_pages
    assert len(shard.wire_links) == 8 and shard.wire_conservation_ok()
