"""Wire-compression codec: round-trip, size bounds, scheme selection."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ClusterSpec
from repro.cluster import compress
from repro.cluster.transport import Transport
from repro.kernel import Machine
from repro.mem import Page
from repro.mem.page import PAGE_SIZE

#: ``benchmarks/mutate.py`` collects these tests under its derandomised
#: ``mutate`` profile and reruns them for every codec mutant until one
#: fails.  There each property draws a tenth of its examples, and the
#: edge cells pin the token edges whatever is drawn: the codec's
#: mutants then fit the mutation run's PR-time budget.
MUTATING = settings.get_current_profile_name() == "mutate"


def _examples(n):
    """``n`` property examples, a tenth of them in a mutation run."""
    return n // 10 if MUTATING else n


def _page(data=b"", fill=0):
    """A full page: ``data`` padded with ``fill`` bytes."""
    return bytes(data) + bytes([fill]) * (PAGE_SIZE - len(data))


def _rng_bytes(seed, n=PAGE_SIZE):
    """Deterministic pseudo-random bytes (no global RNG state)."""
    out = bytearray()
    counter = 0
    while len(out) < n:
        out += hashlib.sha256(f"{seed}:{counter}".encode()).digest()
        counter += 1
    return bytes(out[:n])


def _scatter(writes):
    """A zero page with literal islands written at the given offsets."""
    page = bytearray(PAGE_SIZE)
    for offset, blob in writes:
        blob = blob[:PAGE_SIZE - offset]
        page[offset:offset + len(blob)] = blob
    return bytes(page)


def _small_ints(seed, high):
    """1024 little-endian int32 values below ``high`` (<= 256)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, high, PAGE_SIZE // 4, dtype="<i4").tobytes()


#: Zero-run lengths on each side of the 3-byte run and 128-byte token
#: limits, and where in the page the run sits.
RUNS = (2, 3, 127, 128, 129, 256, 257)
PLACES = ("start", "middle", "end")


def _zero_run(run, place, fill, middle=PAGE_SIZE // 2):
    """A ``fill``-constant page holding exactly one ``run``-byte zero
    run, at the page's start, at ``middle`` or at its end."""
    start = {"start": 0, "middle": middle, "end": PAGE_SIZE - run}[place]
    page = bytearray([fill]) * PAGE_SIZE
    page[start:start + run] = bytes(run)
    return bytes(page)


#: Segment lengths at the token edges, and where a middle segment
#: starts: on, one past, and three and one bytes before a 64-byte word
#: boundary of the packed zero mask.
SEGMENTS = (127, 128, 129, 256, 257)
MIDDLES = (2048, 2049, 2048 + 61, 2048 + 63)


def _literal_run(run, place, fill, middle=PAGE_SIZE // 2):
    """A zero page holding exactly one ``run``-byte literal of
    ``fill`` bytes, placed as :func:`_zero_run` places its run."""
    swap = bytes.maketrans(bytes([0, fill]), bytes([fill, 0]))
    return _zero_run(run, place, fill, middle).translate(swap)


def _edge_pages():
    """One zero or literal segment of each :data:`SEGMENTS` length at a
    page's start, middles and end; zero runs of exactly
    ``MIN_ZERO_RUN`` bytes (and one fewer) at either page edge and at
    both; zero runs around the RAW tie (33 zero and 4063 literal bytes
    encode to exactly one page); and runs whose mask words are all
    whole."""
    shortest = compress.MIN_ZERO_RUN
    pages = []
    for run in SEGMENTS:
        for place, middle in [("start", 0), ("end", 0)] + [
                ("middle", middle) for middle in MIDDLES]:
            pages.append(_zero_run(run, place, 7, middle))
            pages.append(_literal_run(run, place, 9, middle))
    for run in (shortest - 1, shortest):
        edges = bytearray(_zero_run(run, "start", 5))
        edges[-run:] = bytes(run)
        pages += [_zero_run(run, "start", 5), _zero_run(run, "end", 5),
                  bytes(edges)]
    for run in range(31, 37):
        pages += [_zero_run(run, place, 7) for place in PLACES]
    # 130 zero bytes from a word boundary: every word of the packed run
    # mask is all set or all clear
    pages += [_zero_run(130, "start", 7), _zero_run(130, "middle", 7, 2048)]
    return pages


padded_pages = st.builds(_page, st.binary(min_size=0, max_size=64),
                         st.integers(0, 255))
scatter_pages = st.lists(st.tuples(st.integers(0, PAGE_SIZE - 1),
                                   st.binary(min_size=1, max_size=200)),
                         max_size=8).map(_scatter)
pseudorandom_pages = st.integers(0, 2**32).map(_rng_bytes)
small_int_pages = st.builds(_small_ints, st.integers(0, 2**32),
                            st.integers(1, 256))
zero_run_pages = st.builds(_zero_run, st.sampled_from(RUNS),
                           st.sampled_from(PLACES), st.integers(1, 255),
                           st.integers(1, PAGE_SIZE - RUNS[-1] - 1))


# -- scheme selection ------------------------------------------------------

def test_zero_page_suppressed():
    scheme, payload = compress.encode_page(_page())
    assert scheme == compress.SCHEME_ZERO
    assert payload == b""
    assert compress.wire_size(_page()) == 0


def test_sparse_page_rle_much_smaller():
    """A page holding 32 payload bytes (the md5 digest page shape)."""
    scheme, payload = compress.encode_page(_page(b"d" * 32))
    assert scheme == compress.SCHEME_RLE
    assert len(payload) < 100


def test_small_int32_array_compresses():
    """Little-endian int32 values < 256: one payload byte, three zero
    bytes — the shape of matmult's input matrices."""
    data = np.arange(1, 1025, dtype="<i4") % 99 + 1
    scheme, payload = compress.encode_page(data.tobytes())
    assert scheme == compress.SCHEME_RLE
    assert len(payload) <= 3 * PAGE_SIZE // 4


def test_random_page_falls_back_to_raw():
    data = _rng_bytes("entropy")
    scheme, payload = compress.encode_page(data)
    assert scheme == compress.SCHEME_RAW
    assert payload == data
    assert compress.wire_size(data) == PAGE_SIZE


@pytest.mark.parametrize("batch", [1, 13, 32])
def test_edge_pages_are_sized_as_they_encode(batch):
    """Token-edge segments, shortest runs at the page edges and RAW
    ties, sized in loads of ``batch`` pages, equal the encoder page by
    page."""
    pages = _edge_pages()
    wanted = [len(compress.encode_page(page)[1]) for page in pages]
    assert {PAGE_SIZE, PAGE_SIZE - 1} <= set(wanted)     # ties are cells
    got = []
    for start in range(0, len(pages), batch):
        got += compress.wire_sizes(pages[start:start + batch])
    assert got == wanted


# -- round-trip properties -------------------------------------------------

@settings(max_examples=_examples(50), deadline=None)
@given(padded_pages)
def test_roundtrip_padded_pages(data):
    """Constant-fill pages with an arbitrary prefix round-trip."""
    scheme, payload = compress.encode_page(data)
    assert compress.decode_page(scheme, payload) == data
    assert len(payload) <= PAGE_SIZE


@settings(max_examples=_examples(50), deadline=None)
@given(scatter_pages)
def test_roundtrip_sparse_scatter(data):
    """Pages with scattered literal islands in a zero sea round-trip,
    and never encode above raw size."""
    scheme, payload = compress.encode_page(data)
    assert compress.decode_page(scheme, payload) == data
    assert len(payload) <= PAGE_SIZE


@settings(max_examples=_examples(25), deadline=None)
@given(pseudorandom_pages)
def test_roundtrip_pseudorandom_pages(data):
    scheme, payload = compress.encode_page(data)
    assert compress.decode_page(scheme, payload) == data
    assert len(payload) <= PAGE_SIZE


def test_roundtrip_run_boundaries():
    """Runs straddling the 3-byte and 128-byte token limits round-trip
    exactly and are sized as encoded — every run length at every place,
    not only the ones hypothesis happens to draw."""
    pages = [_page(b"x" * 64 + b"\x00" * run + b"y", fill=7)
             for run in (1, 2, 3, 127, 128, 129, 256, 257, PAGE_SIZE - 66)]
    pages += [_zero_run(run, place, fill=7)
              for run in RUNS for place in PLACES]
    for data in pages:
        scheme, payload = compress.encode_page(data)
        assert compress.decode_page(scheme, payload) == data
        assert compress.wire_size(data) == len(payload)


def test_an_encoding_as_long_as_raw_ships_raw():
    """RLE ships only when it *beats* raw.  A 33-byte zero run and 4063
    literal bytes (32 tokens) encode to exactly one page, so that page
    ships raw; one more zero byte makes RLE a byte shorter."""
    tie = bytes(33) + b"\x07" * (PAGE_SIZE - 33)
    shorter = bytes(34) + b"\x07" * (PAGE_SIZE - 34)
    assert compress.encode_page(tie) == (compress.SCHEME_RAW, tie)
    scheme, payload = compress.encode_page(shorter)
    assert scheme == compress.SCHEME_RLE
    assert len(payload) == PAGE_SIZE - 1
    assert compress.wire_sizes([tie, shorter]) == [PAGE_SIZE, PAGE_SIZE - 1]


# -- the size the transport charges is the size the encoder ships --------

@settings(max_examples=_examples(200), deadline=None)
@given(st.one_of(padded_pages, scatter_pages, pseudorandom_pages,
                 small_int_pages, zero_run_pages))
def test_wire_size_is_the_encoded_length(data):
    """``wire_size`` counts from run boundaries; it must equal the
    length of the payload ``encode_page`` builds, for every scheme."""
    assert compress.wire_size(data) == len(compress.encode_page(data)[1])


#: Segment lengths on each side of the token edges: the 3-byte shortest
#: run, one token (128 bytes), two tokens, a whole page.
EDGES = (1, 2, 3, 4, 127, 128, 129, 130, 255, 256, 257, PAGE_SIZE)


def _segments(first_zero, segments):
    """A page of alternating zero and literal segments of the given
    ``(length, fill)`` — literal bytes are ``fill`` (never zero)."""
    page = bytearray()
    zero = first_zero
    for length, fill in segments:
        page += bytes(length) if zero else bytes([fill]) * length
        zero = not zero
    return bytes(page[:PAGE_SIZE].ljust(PAGE_SIZE, b"\x00"))


segment_pages = st.builds(
    _segments, st.booleans(),
    st.lists(st.tuples(st.sampled_from(EDGES), st.integers(1, 255)),
             min_size=1, max_size=40))
batch_pages = st.one_of(segment_pages, small_int_pages, zero_run_pages,
                        st.just(_page()), pseudorandom_pages)


@settings(max_examples=_examples(150), deadline=None)
@given(st.lists(batch_pages, min_size=1, max_size=33))
def test_a_load_is_sized_as_its_pages_encode(batch):
    """One :func:`wire_sizes` call over a whole load — zero,
    incompressible and token-edge pages side by side — equals the
    encoder page by page."""
    sizes = compress.wire_sizes(batch)
    assert sizes == [len(compress.encode_page(p)[1]) for p in batch]
    assert all(type(size) is int for size in sizes)


def test_a_large_load_is_sized_as_its_pages_encode():
    pages = [_segments(n % 2 == 0, [(EDGES[(n + k) % len(EDGES)], 9)
                                    for k in range(30)])
             for n in range(300)]
    pages += [_small_ints(n, 100) for n in range(100)] + [_page()] * 3
    assert compress.wire_sizes(pages) == [
        len(compress.encode_page(p)[1]) for p in pages]


def test_a_short_page_anywhere_in_a_load_is_refused():
    page = _small_ints(1, 100)
    for at in range(3):
        batch = [page, page, page]
        batch[at] = page[:-1]
        with pytest.raises(ValueError):
            compress.wire_sizes(batch)
    assert compress.wire_sizes([]) == []


def test_batches_size_each_fresh_tag_once(monkeypatch):
    """A tag repeated within one exchange, and tags already cached, are
    each sized once, one call per PAGE_BATCH load; the loads, the
    payload and the codec cycles equal the per-frame sums."""
    t = Transport(Machine(nnodes=2, spec=ClusterSpec(compression=True)))
    cost = t.machine.cost
    cap = cost.msg_batch
    frames = [Page(_small_ints(n, 100)) for n in range(cap + 5)]
    cached = frames[:4]
    expected = {f.tag(): len(compress.encode_page(f.data)[1])
                for f in frames}
    for frame in cached:
        t._wire_load((frame,))
    calls = []
    sizer = compress.wire_sizes
    monkeypatch.setattr(compress, "wire_sizes",
                        lambda pages: calls.append(len(pages)) or sizer(pages))
    # the first load repeats frame 6; the second load repeats frames
    # 5 and 0 (sized in the first load and cached before it)
    exchange = frames[:cap - 1] + [frames[6]] + frames[cap - 1:] \
        + frames[5:6] + frames[:1]
    space = SimpleNamespace(messages=0)
    head, msgs, ack, payload, codec = t._batches(space, exchange)
    assert calls == [cap - 1 - len(cached), 6]
    sizes = [expected[f.tag()] for f in exchange]
    loads = [sizes[:cap], sizes[cap:]]
    assert [msg[2] for msg in msgs] == [
        sum(load) + len(load) * cost.page_hdr for load in loads]
    assert payload == sum(sizes)
    assert codec == int(len(exchange) * PAGE_SIZE * cost.comp_encode_byte
                        + payload * cost.comp_decode_byte)
    assert t._wire_sizes == expected
    t._batches(space, exchange)                 # all cached now
    assert len(calls) == 2


def test_reject_bad_inputs():
    with pytest.raises(ValueError):
        compress.encode_page(b"short")
    with pytest.raises(ValueError):
        compress.wire_size(b"short")
    with pytest.raises(ValueError):
        compress.decode_page(compress.SCHEME_ZERO, b"x")
    with pytest.raises(ValueError):
        compress.decode_page(compress.SCHEME_RAW, b"short")
    with pytest.raises(ValueError):
        compress.decode_page("gzip", b"")
    with pytest.raises(ValueError):
        compress.decode_page(compress.SCHEME_RLE, bytes([5]))  # truncated
    # a 2-byte literal holding one byte after 4095 zero bytes is
    # truncated too, although the bytes it finds would fill the page
    runs = bytes([0xFF]) * 31 + bytes([0x80 + 126])
    with pytest.raises(ValueError, match="truncated"):
        compress.decode_page(compress.SCHEME_RLE, runs + bytes([1, 7]))
    # a stream is refused at the token that runs past the page, not
    # expanded in full first
    with pytest.raises(ValueError, match="past 4096"):
        compress.decode_page(compress.SCHEME_RLE, bytes([0xFF]) * 10**6)
