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
``cost.msg_batch`` pages, each content tag once) from its zero masks
packed 64 bytes to a word instead of building any payload: the size is
counted from where the run tokens start, and only a page that may hold
a segment longer than one token lists its segment ends.
:func:`encode_page` stays the independent oracle: the count is tested
equal to ``len(encode_page(d)[1])``.
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

#: A page's zero mask packed 64 bytes to a little-endian uint64 word.
_WORDS = PAGE_SIZE // 64

#: The last word's bits where a run may start: a run of three zero
#: bytes (:data:`MIN_ZERO_RUN`) starts by the page's third-last byte.
_LAST_STARTS = (1 << 62) - 1


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
    for start in range(0, length, _SPAN):
        out.append(bytes((0x80 + min(length - start, _SPAN) - 1,)))


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
        if len(out) > PAGE_SIZE:
            raise ValueError(f"tokens run past {PAGE_SIZE} bytes")
    if len(out) != PAGE_SIZE:
        raise ValueError(
            f"decoded {len(out)} bytes, expected {PAGE_SIZE}")
    return bytes(out)


def wire_sizes(pages):
    """Wire payload bytes of each of ``pages`` under compression, as a
    list: ``wire_sizes(b)[i] == len(encode_page(b[i])[1])``.

    One PAGE_BATCH load is sized in one pass over its zero masks, packed
    64 bytes to a uint64 word, never building a payload.  ``run`` marks
    each byte that starts :data:`MIN_ZERO_RUN` (three) zero bytes: the
    zero mask and-ed with itself shifted by one and two bytes, across
    words.  The run tokens cover the ``R`` maximal spans of ``run``,
    each widened by two bytes, so they keep ``Σrun + 2R`` bytes; the
    stream's segments — maximal kept and literal spans, alternating —
    number ``2R + 1 - first - last``, where ``first`` / ``last`` say
    the page starts / ends kept.  One control byte per segment plus the
    literal bytes is then ``PAGE_SIZE + 1 - Σrun - first - last``: the
    ``2R`` cancel.  A segment of ``L > 128`` bytes costs ``(L - 1) //
    128`` more control bytes and holds a whole word of ``run`` that is
    all set or all clear, so only a page with such a word, whose size
    is still below ``PAGE_SIZE``, lists its segment ends.  An all-zero
    page is 0, and no size exceeds ``PAGE_SIZE`` (raw is always a
    candidate).
    """
    if any(len(page) != PAGE_SIZE for page in pages):
        raise ValueError(f"page payload must be {PAGE_SIZE} bytes")
    if not pages:
        return []
    count = len(pages)
    # one zero word past the last page: the shifts read beyond it
    zero = np.zeros(count * PAGE_SIZE + 64, bool)
    np.equal(np.frombuffer(b"".join(pages), np.uint8), 0,
             out=zero[:-64])
    zero = np.packbits(zero, bitorder="little").view("<u8")
    word, after = zero[:-1], zero[1:]
    run = word & ((word >> 1) | (after << 63)) & ((word >> 2) | (after << 62))
    run = run.reshape(count, _WORDS)
    run[:, -1] &= _LAST_STARTS              # the next page is not this one
    bits = np.bitwise_count(run)
    # Σrun + first + last: the page ends kept if a run starts at 4093
    covered = bits.sum(axis=1) + (run[:, 0] & 1) + (run[:, -1] >> 61)
    blank = covered == PAGE_SIZE            # every byte zero
    sizes = PAGE_SIZE + 1 - covered.astype(np.intp)
    sizes[blank] = 0
    # pages with a word of 64 run starts or of none
    rows = np.flatnonzero(((bits & 63) == 0).any(axis=1) & ~blank
                          & (sizes < PAGE_SIZE))
    if rows.size:
        some = run[rows]
        # kept: each run start widened by two bytes, across words
        kept = some | (some << 1) | (some << 2)
        kept[:, 1:] |= (some[:, :-1] >> 62) | (some[:, :-1] >> 63)
        # a segment ends where kept changes, and at the page's end
        ends = kept ^ (kept >> 1)
        ends[:, :-1] ^= kept[:, 1:] << 63
        ends[:, -1] |= 1 << 63
        # the ends' bit positions, unpacked from the words that hold any
        ends = ends.ravel()
        held = np.flatnonzero(ends)
        bit = np.flatnonzero(np.unpackbits(
            ends[held].astype("<u8", copy=False).view(np.uint8),
            bitorder="little").view(bool))
        at = held[bit >> 6] * 64 + (bit & 63)
        np.add.at(sizes, rows[at // PAGE_SIZE],
                  (np.diff(at, prepend=-1) - 1) // _SPAN)
    np.minimum(sizes, PAGE_SIZE, out=sizes)
    return sizes.tolist()


def wire_size(data):
    """Wire payload bytes of one frame: :func:`wire_sizes` of it alone."""
    return wire_sizes((data,))[0]
