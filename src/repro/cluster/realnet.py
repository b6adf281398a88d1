"""Real localhost wire for the cluster protocol (``backend="real"``).

The simulated transport exchanges typed messages (MIGRATE / PAGE_REQ /
PAGE_BATCH / ACK) over modeled links.  This module gives the same
message vocabulary a *real* serialization: length-prefixed binary
frames over localhost TCP sockets, one :class:`Channel` per
coordinator<->worker link, with per-direction frame/byte/page ledgers
mirroring the simulated conservation discipline (every byte sent is
received or accounted lost — here, any shortfall is a typed error).

Frame layout (network byte order)::

    magic "DET\\x01" | version u8 | msg-type u8 | src i32 | dst i32
    | payload-length u32 | payload

Payload encodings per message type:

* ``MIGRATE`` / ``ACK`` — a pickled ``dict`` (control messages; the
  hand-back MIGRATE carries the shard delta payload).
* ``PAGE_REQ`` — ``u32 count`` then ``count`` u64 frame serials (the
  simulated cost model prices PAGE_REQ at 8 bytes per requested page,
  matching this encoding exactly).
* ``PAGE_BATCH`` — ``u32 count`` then per page ``u64 serial | u64
  generation | u8 scheme | u32 size | size bytes``, where ``scheme``
  selects the shared compression codec (zero / RLE / raw — the same
  ``repro.cluster.compress`` bytes the simulation accounts).

Every decode failure — bad magic, unknown version or type, truncated
frame, oversized length field, corrupt pickle, inconsistent page
sizes, socket timeout or close mid-frame — raises
:class:`~repro.common.errors.WireError`; nothing in this module hangs
past the channel deadline or leaks a raw ``struct``/``pickle``/
``socket`` exception.
"""

import pickle
import socket
import struct

from repro.cluster.compress import SCHEME_RAW, SCHEME_RLE, SCHEME_ZERO
from repro.cluster.transport import MsgType
from repro.common.errors import WireError
from repro.mem.page import PAGE_SIZE

#: Endpoint id of the coordinating (parent) process on the real wire;
#: workers are addressed by their non-negative worker index.
COORD = -1

#: Default per-channel deadline (seconds).  Generous because a worker's
#: hand-back only starts after its whole subtree ran; worker *death*
#: closes the socket and surfaces immediately regardless.
DEFAULT_DEADLINE = 60.0

MAGIC = b"DET\x01"
VERSION = 1

#: Hard ceiling on one frame's payload: a corrupted length field must
#: fail as a typed error, not a multi-gigabyte allocation.
MAX_PAYLOAD = 64 << 20

_HEADER = struct.Struct("!4sBBiiI")
_COUNT = struct.Struct("!I")
_SERIAL = struct.Struct("!Q")
_PAGE_HDR = struct.Struct("!QQBI")   # serial, generation, scheme, size

_TYPE_CODES = {mtype: code for code, mtype in enumerate(MsgType)}
_CODE_TYPES = dict(enumerate(MsgType))
_SCHEME_CODES = {SCHEME_ZERO: 0, SCHEME_RLE: 1, SCHEME_RAW: 2}
_CODE_SCHEMES = {code: scheme for scheme, code in _SCHEME_CODES.items()}


def localhost_available():
    """True when a localhost TCP socket can be bound (the real backend
    and its tests skip gracefully where the sandbox forbids it)."""
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
            sock.bind(("127.0.0.1", 0))
            sock.listen(1)
    except OSError:
        return False
    return True


# -- payload codecs ---------------------------------------------------------

def encode_payload(mtype, obj):
    """Serialize one message's payload per the frame layout above."""
    if mtype in (MsgType.MIGRATE, MsgType.ACK):
        if not isinstance(obj, dict):
            raise WireError(f"{mtype.name} payload must be a dict, "
                            f"got {type(obj).__name__}")
        return pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    if mtype is MsgType.PAGE_REQ:
        parts = [_COUNT.pack(len(obj))]
        parts.extend(_SERIAL.pack(serial) for serial in obj)
        return b"".join(parts)
    if mtype is MsgType.PAGE_BATCH:
        parts = [_COUNT.pack(len(obj))]
        for serial, generation, scheme, payload in obj:
            code = _SCHEME_CODES.get(scheme)
            if code is None:
                raise WireError(f"unknown page scheme {scheme!r}")
            if len(payload) > PAGE_SIZE:
                raise WireError(f"page payload of {len(payload)} bytes "
                                f"exceeds PAGE_SIZE")
            parts.append(_PAGE_HDR.pack(serial, generation, code,
                                        len(payload)))
            parts.append(bytes(payload))
        return b"".join(parts)
    raise WireError(f"unencodable message type {mtype!r}")


def decode_payload(mtype, data):
    """Inverse of :func:`encode_payload`; any malformation raises
    :class:`WireError`."""
    if mtype in (MsgType.MIGRATE, MsgType.ACK):
        try:
            obj = pickle.loads(data)
        except Exception as exc:
            raise WireError(
                f"corrupt {mtype.name} payload: {exc}") from exc
        if not isinstance(obj, dict):
            raise WireError(f"{mtype.name} payload decoded to "
                            f"{type(obj).__name__}, expected dict")
        return obj
    if mtype is MsgType.PAGE_REQ:
        if len(data) < _COUNT.size:
            raise WireError("truncated PAGE_REQ payload")
        (count,) = _COUNT.unpack_from(data)
        if len(data) != _COUNT.size + count * _SERIAL.size:
            raise WireError(
                f"PAGE_REQ length {len(data)} inconsistent with "
                f"count {count}")
        return [_SERIAL.unpack_from(data, _COUNT.size + i * _SERIAL.size)[0]
                for i in range(count)]
    if mtype is MsgType.PAGE_BATCH:
        if len(data) < _COUNT.size:
            raise WireError("truncated PAGE_BATCH payload")
        (count,) = _COUNT.unpack_from(data)
        pages = []
        pos = _COUNT.size
        for _ in range(count):
            if len(data) - pos < _PAGE_HDR.size:
                raise WireError("truncated PAGE_BATCH page header")
            serial, generation, code, size = _PAGE_HDR.unpack_from(data, pos)
            pos += _PAGE_HDR.size
            scheme = _CODE_SCHEMES.get(code)
            if scheme is None:
                raise WireError(f"unknown page scheme code {code}")
            if size > PAGE_SIZE or len(data) - pos < size:
                raise WireError(f"PAGE_BATCH page size {size} overruns "
                                f"the frame")
            pages.append((serial, generation, scheme, data[pos:pos + size]))
            pos += size
        if pos != len(data):
            raise WireError(f"{len(data) - pos} trailing bytes after "
                            f"PAGE_BATCH pages")
        return pages
    raise WireError(f"undecodable message type {mtype!r}")


def encode_frame(mtype, src, dst, obj):
    """One complete wire frame (header + payload) as bytes."""
    payload = encode_payload(mtype, obj)
    if len(payload) > MAX_PAYLOAD:
        raise WireError(f"frame payload of {len(payload)} bytes exceeds "
                        f"MAX_PAYLOAD")
    return _HEADER.pack(MAGIC, VERSION, _TYPE_CODES[mtype], src, dst,
                        len(payload)) + payload


# -- channels ---------------------------------------------------------------

def _zeroed():
    return {"frames": 0, "bytes": 0, "pages": 0}


class Channel:
    """One socket carrying framed protocol messages, with per-directed-
    link ledgers (``(src, dst) -> {frames, bytes, pages}``) on both the
    send and receive side — the real-wire analogue of the simulated
    per-link conservation accounting."""

    def __init__(self, sock, deadline=DEFAULT_DEADLINE):
        sock.settimeout(deadline)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass            # AF_UNIX socketpairs etc. have no Nagle
        self.sock = sock
        self.deadline = deadline
        self.sent = {}
        self.received = {}

    @staticmethod
    def _note(table, src, dst, nbytes, pages):
        entry = table.setdefault((src, dst), _zeroed())
        entry["frames"] += 1
        entry["bytes"] += nbytes
        entry["pages"] += pages

    def send(self, mtype, src, dst, obj):
        frame = encode_frame(mtype, src, dst, obj)
        try:
            self.sock.sendall(frame)
        except socket.timeout:
            raise WireError(
                f"send of {mtype.name} timed out after "
                f"{self.deadline}s") from None
        except OSError as exc:
            raise WireError(f"send of {mtype.name} failed: {exc}") from exc
        pages = len(obj) if mtype is MsgType.PAGE_BATCH else 0
        self._note(self.sent, src, dst, len(frame), pages)

    def recv(self, expect=None):
        """Receive one frame as ``(mtype, src, dst, payload)``; with
        ``expect`` set, any other message type is a protocol error."""
        head = self._exact(_HEADER.size)
        magic, version, code, src, dst, length = _HEADER.unpack(head)
        if magic != MAGIC:
            raise WireError(f"bad frame magic {magic!r}")
        if version != VERSION:
            raise WireError(f"unsupported wire version {version}")
        mtype = _CODE_TYPES.get(code)
        if mtype is None:
            raise WireError(f"unknown message type code {code}")
        if length > MAX_PAYLOAD:
            raise WireError(f"frame length {length} exceeds MAX_PAYLOAD")
        obj = decode_payload(mtype, self._exact(length) if length else b"")
        pages = len(obj) if mtype is MsgType.PAGE_BATCH else 0
        self._note(self.received, src, dst, _HEADER.size + length, pages)
        if expect is not None and mtype is not expect:
            raise WireError(f"expected {expect.name}, got {mtype.name}")
        return mtype, src, dst, obj

    def _exact(self, n):
        chunks = []
        got = 0
        while got < n:
            try:
                chunk = self.sock.recv(min(n - got, 1 << 20))
            except socket.timeout:
                raise WireError(
                    f"receive timed out after {self.deadline}s "
                    f"({got}/{n} bytes)") from None
            except OSError as exc:
                raise WireError(f"receive failed: {exc}") from exc
            if not chunk:
                raise WireError(
                    f"connection closed mid-frame ({got}/{n} bytes)")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def ledger(self):
        """Snapshot of both directions' counters (pickle-friendly)."""
        return {
            "sent": {link: dict(entry) for link, entry in self.sent.items()},
            "received": {link: dict(entry)
                         for link, entry in self.received.items()},
        }

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


# -- endpoint helpers -------------------------------------------------------

def listen(deadline=DEFAULT_DEADLINE, backlog=16):
    """A listening localhost socket on an ephemeral port."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.settimeout(deadline)
        sock.bind(("127.0.0.1", 0))
        sock.listen(backlog)
    except OSError as exc:
        sock.close()
        raise WireError(f"cannot listen on localhost: {exc}") from exc
    return sock


def accept(listener, deadline=DEFAULT_DEADLINE):
    """Accept one connection as a :class:`Channel` (timeout -> WireError)."""
    try:
        sock, _addr = listener.accept()
    except socket.timeout:
        raise WireError(f"accept timed out after {deadline}s "
                        f"(worker never connected)") from None
    except OSError as exc:
        raise WireError(f"accept failed: {exc}") from exc
    return Channel(sock, deadline)


def connect(addr, deadline=DEFAULT_DEADLINE):
    """Connect to the coordinator as a :class:`Channel`.  ``addr`` is
    the listener's numeric ``getsockname()``: connecting the socket
    directly skips ``socket.create_connection``'s name resolution,
    whose first call in a freshly forked worker imports the idna codec
    (10 ms, more than the worker's whole first subtree)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.settimeout(deadline)
        sock.connect(addr)
    except OSError as exc:
        sock.close()
        raise WireError(f"connect to {addr} failed: {exc}") from exc
    return Channel(sock, deadline)
