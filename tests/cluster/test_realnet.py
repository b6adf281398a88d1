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
@given(st.lists(serials, max_size=40))
def test_page_req_roundtrip(wanted):
    assert roundtrip(MsgType.PAGE_REQ, wanted) == wanted


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
        a.send(MsgType.PAGE_REQ, 1, realnet.COORD, [4, 5])
        b.recv()
        b.recv()
    finally:
        a.close()
        b.close()
    key = (1, realnet.COORD)
    assert a.sent[key] == b.received[key]
    assert a.sent[key]["frames"] == 2


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


def test_page_req_length_mismatch_is_typed_error():
    with pytest.raises(WireError, match="inconsistent"):
        realnet.decode_payload(MsgType.PAGE_REQ,
                               struct.pack("!I", 3) + b"\x00" * 8)


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


@needs_real_backend
@pytest.mark.parametrize("wanted", [[10**6], "twice"],
                         ids=["outside-the-offer", "same-serial-twice"])
def test_forward_request_must_stay_inside_the_offer(wanted):
    # A worker asks only for offered frames it does not hold yet: any
    # subset of the offer is fine, anything else is a protocol error.
    with Machine(nnodes=2, spec=ClusterSpec(backend="real")) as machine:
        shard = machine.shard
        sibling = machine.new_space(None)
        page = Page(allocator=machine.frames)
        shard.snapshots[sibling] = {page.serial: (page, 1, page.generation)}
        if wanted == "twice":
            wanted = [page.serial, page.serial]
        chan, worker = channel_pair()
        try:
            worker.send(MsgType.PAGE_REQ, 0, realnet.COORD, wanted)
            with pytest.raises(WireError, match="outside the forward offer"):
                shard._serve_forward(chan, sibling, 0)
        finally:
            chan.close()
            worker.close()


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
