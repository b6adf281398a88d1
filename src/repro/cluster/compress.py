"""Page-granularity wire compression: zero suppression + zero-run RLE.

Demand-paged and migrated frames dominate cluster wire bytes, and most
of them are nowhere near random: program images are sparse, freshly
zero-filled heaps are literally zero, and numeric workloads ship arrays
of small integers whose upper bytes are zero (a little-endian ``int32``
below 256 is one payload byte followed by three zero bytes).  Because
execution is deterministic, compressing a frame can never perturb
results — the payload is bit-identical on both sides regardless of how
it crossed the wire — so the transport is free to trade encode/decode
cycles for bandwidth.

Two schemes, chosen per frame:

``SCHEME_ZERO``
    The frame is entirely zero: nothing crosses the wire beyond the
    batch's per-page header (zero-page suppression).
``SCHEME_RLE``
    Zero-run run-length coding.  The stream is a sequence of tokens,
    each led by one control byte ``C``: ``C < 0x80`` introduces a
    literal run of ``C + 1`` bytes (which follow); ``C >= 0x80`` is a
    zero run of ``C - 0x7F`` bytes (1..128, longer runs repeat tokens).
    Zero runs shorter than :data:`MIN_ZERO_RUN` are folded into the
    surrounding literal — a 2-byte run costs the same either way and a
    token split would only add control bytes.
``SCHEME_RAW``
    Chosen whenever RLE fails to beat the raw frame (high-entropy
    pages): the original 4096 bytes ship unchanged.  Compression is
    therefore *never* a pessimization in wire bytes — the conservation
    invariant ``compressed <= raw`` holds per page, per link, always.

The codec is a real round-tripping implementation, not an estimate:
:func:`encode_page` / :func:`decode_page` are property-tested on
random, zero, and sparse frames.  The transport charges wire bytes
from :func:`wire_sizes`, which sizes one PAGE_BATCH load (up to
``cost.msg_batch`` pages, each content tag once) in a single pass over
byte masks instead of building any payload: the run tokens are the
zero mask opened by :data:`MIN_ZERO_RUN`, and the size is counted from
that mask's bytes and its segment ends.  :func:`encode_page` stays the
independent oracle: the count is property-tested equal to
``len(encode_page(d)[1])``.
"""

import numpy as np

from repro.mem.page import PAGE_SIZE

#: Scheme tags carried in the PAGE_BATCH per-page header.
SCHEME_ZERO = "zero"
SCHEME_RLE = "rle"
SCHEME_RAW = "raw"

#: Shortest zero run encoded as a run token.  At 3 the token (1 byte)
#: beats keeping the zeros in a literal (3 bytes, possibly splitting a
#: control byte); below 3 it never can.
MIN_ZERO_RUN = 3

#: Longest run/literal one control byte can describe: C in 0x00..0x7F
#: is 1..128 literal bytes, C in 0x80..0xFF is 1..128 zero bytes.
_SPAN = 0x80

_ZERO_PAGE = bytes(PAGE_SIZE)

#: Eight ``True`` bytes read as one uint64: the 8 words of an aligned
#: 64-byte block of segment ends, each compared equal to zero.
_QUIET_BLOCK = np.uint64(0x0101010101010101)


def _zero_runs(data):
    """``(starts, ends)`` of the maximal zero runs of at least
    :data:`MIN_ZERO_RUN` bytes: the run tokens of the RLE stream."""
    if len(data) != PAGE_SIZE:
        raise ValueError(f"page payload must be {PAGE_SIZE} bytes")
    zero = np.zeros(PAGE_SIZE + 2, bool)        # False-padded: runs close
    np.equal(np.frombuffer(data, np.uint8), 0, out=zero[1:-1])
    edges = np.flatnonzero(zero[1:] != zero[:-1])
    starts, ends = edges[0::2], edges[1::2]
    keep = ends - starts >= MIN_ZERO_RUN
    return starts[keep], ends[keep]


def _emit_literal(out, chunk):
    """Append literal tokens covering ``chunk`` (may exceed 128 bytes)."""
    for start in range(0, len(chunk), _SPAN):
        piece = chunk[start:start + _SPAN]
        out.append(bytes((len(piece) - 1,)))
        out.append(bytes(piece))


def _emit_zero_run(out, length):
    """Append zero-run tokens covering ``length`` zero bytes."""
    while length > 0:
        take = min(length, _SPAN)
        out.append(bytes((0x80 + take - 1,)))
        length -= take


def encode_page(data):
    """Encode one 4 KiB frame; returns ``(scheme, payload_bytes)``.

    The scheme is chosen to minimize wire bytes: all-zero frames ship
    nothing, RLE only when it actually beats raw — so
    ``len(payload) <= PAGE_SIZE`` unconditionally.
    """
    data = bytes(data)
    if data == _ZERO_PAGE:
        return SCHEME_ZERO, b""
    starts, ends = _zero_runs(data)
    out = []
    pos = 0
    for start, end in zip(starts.tolist(), ends.tolist()):
        _emit_literal(out, data[pos:start])     # empty: no token
        _emit_zero_run(out, end - start)
        pos = end
    _emit_literal(out, data[pos:])
    payload = b"".join(out)
    if len(payload) >= PAGE_SIZE:
        return SCHEME_RAW, data
    return SCHEME_RLE, payload


def decode_page(scheme, payload):
    """Invert :func:`encode_page`; returns the original 4096 bytes."""
    if scheme == SCHEME_ZERO:
        if payload:
            raise ValueError("zero-page payload must be empty")
        return _ZERO_PAGE
    if scheme == SCHEME_RAW:
        if len(payload) != PAGE_SIZE:
            raise ValueError("raw payload must be one full page")
        return bytes(payload)
    if scheme != SCHEME_RLE:
        raise ValueError(f"unknown scheme {scheme!r}")
    out = bytearray()
    pos = 0
    n = len(payload)
    while pos < n:
        control = payload[pos]
        pos += 1
        if control < 0x80:
            take = control + 1
            if pos + take > n:
                raise ValueError("truncated literal token")
            out += payload[pos:pos + take]
            pos += take
        else:
            out += bytes(control - 0x7F)
    if len(out) != PAGE_SIZE:
        raise ValueError(
            f"decoded {len(out)} bytes, expected {PAGE_SIZE}")
    return bytes(out)


def wire_sizes(pages):
    """Wire payload bytes of each of ``pages`` under compression, as a
    list: ``wire_sizes(b)[i] == len(encode_page(b[i])[1])``.

    One PAGE_BATCH load is sized in one pass over its stacked byte
    masks, never building a payload.  ``kept`` marks the bytes of the
    zero runs of at least :data:`MIN_ZERO_RUN` bytes (the zero mask
    eroded, then dilated, by ``MIN_ZERO_RUN - 1``); the stream is the
    page's segments — maximal kept and unkept spans — alternating
    between run and literal tokens.  A segment of ``L`` bytes costs
    ``1 + (L - 1) // 128`` control bytes, so a page costs its literal
    bytes, plus one byte per segment, plus ``(L - 1) // 128`` per
    segment longer than one token.  Such a segment covers a whole
    aligned 64-byte block with no segment end in it, so segment ends
    are listed only for the pages that have one.  An all-zero page is
    0, and no size exceeds ``PAGE_SIZE`` (raw is always a candidate).
    """
    if any(len(page) != PAGE_SIZE for page in pages):
        raise ValueError(f"page payload must be {PAGE_SIZE} bytes")
    if not pages:
        return []
    count = len(pages)
    kept = np.frombuffer(b"".join(pages), np.uint8).reshape(count,
                                                            PAGE_SIZE) == 0
    ends = np.empty_like(kept)                  # a segment ends here
    width = PAGE_SIZE - MIN_ZERO_RUN + 1
    # a run starts here; its mask borrows the ends' buffer until kept
    # is dilated from it
    run = np.logical_and(kept[:, :width], kept[:, 1:width + 1],
                         out=ends[:, :width])
    for shift in range(2, MIN_ZERO_RUN):
        run &= kept[:, shift:shift + width]
    kept[:, :width] = run
    kept[:, width:] = False
    for shift in range(1, MIN_ZERO_RUN):
        kept[:, shift:shift + width] |= run
    np.logical_xor(kept[:, 1:], kept[:, :-1], out=ends[:, :-1])
    ends[:, -1] = True
    literal = PAGE_SIZE - np.add.reduce(kept.view(np.uint8), axis=1,
                                        dtype=np.uint16)
    sizes = (literal + np.add.reduce(ends.view(np.uint8), axis=1,
                                     dtype=np.uint16)).astype(np.intp)
    # the ends as uint64 words, compared with zero and read back as
    # uint64: an aligned 64-byte block with no segment end in it is
    # eight True bytes, one _QUIET_BLOCK
    quiet = (ends.view(np.uint64) == 0).view(np.uint64) == _QUIET_BLOCK
    rows = np.flatnonzero(quiet.any(axis=1))
    if rows.size:
        at = np.flatnonzero(ends[rows])         # each row ends at 4095
        lengths = np.diff(at, prepend=-1)
        long = lengths > _SPAN
        np.add.at(sizes, rows[at[long] // PAGE_SIZE],
                  (lengths[long] - 1) // _SPAN)
    sizes[literal == 0] = 0
    np.minimum(sizes, PAGE_SIZE, out=sizes)
    return sizes.tolist()


def wire_size(data):
    """Wire payload bytes of one frame: :func:`wire_sizes` of it alone."""
    return wire_sizes((data,))[0]
