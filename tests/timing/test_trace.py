"""Unit tests for execution-trace recording.

The recorder keeps one list per field; ``trace_oracle.py`` keeps the
object-per-segment recorder it replaced.  A hypothesis test drives both
through the same random calls and compares the packed rows a machine
image is made of, and the GC ratchet at the bottom pins what the lists
are for: recording allocates no object per record.
"""

import gc
from types import SimpleNamespace

import pytest
import trace_oracle
from hypothesis import given, settings, strategies as st

from repro.kernel.ledgers import LEDGERS
from repro.kernel.machine import Machine
from repro.timing import Trace


def test_begin_charge_end():
    tr = Trace()
    tr.begin("a", node=0)
    tr.charge("a", 100)
    seg = tr.end("a")
    assert tr.segments.cycles[seg] == 100
    assert tr.segments.closed[seg]
    assert tr.total_cycles() == 100


def test_double_begin_rejected():
    tr = Trace()
    tr.begin("a")
    with pytest.raises(ValueError):
        tr.begin("a")


def test_cut_adds_program_order_edge():
    tr = Trace()
    tr.begin("a")
    tr.charge("a", 5)
    closed, opened = tr.cut("a")
    assert tr.segments.closed[closed] and not tr.segments.closed[opened]
    assert (closed, opened, 0) in tr.edges
    tr.charge("a", 7)
    assert tr.segments.cycles[tr.current("a")] == 7


def test_last_closed_tracks_history():
    tr = Trace()
    tr.begin("a")
    closed, _ = tr.cut("a")
    assert tr.last_closed("a") == closed
    final = tr.end("a")
    assert tr.last_closed("a") == final


def test_move_node_changes_segment_node():
    tr = Trace()
    tr.begin("a", node=0)
    closed, opened = tr.move_node("a", 3)
    assert tr.segments.node[closed] == 0
    assert tr.segments.node[opened] == 3


def test_cross_context_edge():
    tr = Trace()
    a = tr.begin("a")
    b = tr.begin("b")
    tr.edge(a, b, latency=50)
    assert (a, b, 50) in tr.edges


def test_finish_closes_everything():
    tr = Trace()
    tr.begin("a")
    tr.begin("b")
    tr.finish()
    assert not tr.is_open("a") and not tr.is_open("b")


def test_sleep_is_a_latency_edge_not_work():
    """A sleep defers the next segment by a timer edge: it neither
    charges cycles nor occupies a CPU, and the program clock
    (``charged``) does not advance — pacing callers track it apart."""
    tr = Trace()
    tr.begin("a")
    tr.charge("a", 10)
    closed, opened = tr.sleep("a", 500, label="arrival-wait")
    assert tr.segments.closed[closed] and not tr.segments.closed[opened]
    assert (closed, opened, 500) in tr.edges
    assert tr.charged("a") == 10
    tr.charge("a", 3)
    assert tr.charged("a") == 13
    assert tr.total_cycles() == 13


def test_rows_read_the_lists_by_record():
    tr = Trace()
    tr.begin("a", node=2, label="root")
    tr.charge("a", 4)
    closed, opened = tr.cut("a", label="next")
    assert len(tr.segments) == 2 and len(tr.edges) == 1
    assert tr.segments[closed] == (closed, "a", 2, 4, "root", True)
    assert tr.segments[-1] == (opened, "a", 2, 0, "next", False)
    assert list(tr.segments) == [tr.segments[0], tr.segments[1]]
    assert tr.segments[1:] == [tr.segments[1]]
    with pytest.raises(IndexError):
        tr.segments[2]


# -- the object-per-segment recorder as oracle ------------------------------

UIDS = ("a", "b", "c")
OPS = st.lists(st.tuples(
    st.sampled_from(("begin", "charge", "charge", "cut", "cut", "sleep",
                     "move_node", "edge", "transfer", "end",
                     "mark")),
    st.integers(0, len(UIDS) - 1),
    st.integers(0, 40), st.integers(0, 40),
    st.sampled_from((None, "core", "rack")),
    st.sampled_from((None, "fetch", "migrate", "retx"))),
    min_size=10, max_size=80)


def _trace_ledgers():
    return [ledger for ledger in LEDGERS if ledger.owner == "trace"]


def _packed(tr):
    """``whole_run(...)["trace"]`` of a machine holding ``tr``."""
    holder = SimpleNamespace(trace=tr)
    return {ledger.key: ledger.delta(holder, ledger.ORIGIN)
            for ledger in _trace_ledgers()}


def _apply(tr, op, uid, x, y, cls, kind):
    """One recording call; returns its answer with segments as ids."""
    def ids(value):
        if isinstance(value, trace_oracle.Segment):
            return value.id
        if isinstance(value, tuple):
            return tuple(ids(v) for v in value)
        return value

    nseg = len(tr.segments)
    if op not in ("edge", "transfer") and not tr.is_open(uid):
        op = "begin"    # a closed context's call opens it instead
    if op == "begin":
        if tr.is_open(uid):
            with pytest.raises(ValueError):
                tr.begin(uid, node=x % 4, label="again")
            return "refused"
        return ids(tr.begin(uid, node=x % 4, label=f"b{y}"))
    if op in ("edge", "transfer"):
        if not nseg:
            return None
        src, dst = x % nseg, y % nseg
        if op == "edge":
            return tr.edge(src, dst, latency=x)
        row = (src, dst, (x % 4, y % 4), x, y, cls, kind)
        if isinstance(tr, trace_oracle.Trace):
            tr.transfers.append(row)
        else:
            tr.transfers.extend([row])
        return None
    if op == "charge":
        return tr.charge(uid, x)
    if op == "cut":
        return ids(tr.cut(uid, label=f"c{x}"))
    if op == "sleep":
        return ids(tr.sleep(uid, x, label="wait"))
    if op == "move_node":
        return ids(tr.move_node(uid, y % 4))
    return ids(tr.end(uid))


def _answers(tr):
    last = [tr.last_closed(uid) for uid in UIDS]
    if isinstance(tr, trace_oracle.Trace):
        last = [None if seg is None else seg.id for seg in last]
    return ([tr.charged(uid) for uid in UIDS], last,
            [tr.is_open(uid) for uid in UIDS], tr.total_cycles())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ops=OPS, finish=st.booleans())
def test_recording_matches_the_object_recorder(ops, finish):
    tr, oracle = Trace(), trace_oracle.Trace()
    closes, oracle_closes = [], []
    tr.on_close = closes.append
    oracle.on_close = lambda seg: oracle_closes.append(seg.id)
    holder = SimpleNamespace(trace=tr)
    marks = at_mark = None
    for op, k, x, y, cls, kind in ops:
        if op == "mark":
            if marks is None:
                marks = [ledger.mark(holder) for ledger in _trace_ledgers()]
                at_mark = trace_oracle.packed(oracle)
            continue
        if op == "end" and marks is not None:
            continue    # a run the ledgers rewind removes no open entry
        uid = UIDS[k]
        assert _apply(tr, op, uid, x, y, cls, kind) == \
            _apply(oracle, op, uid, x, y, cls, kind)
        assert _answers(tr) == _answers(oracle)
    if finish and marks is None:
        tr.finish()
        oracle.finish()
    assert closes == oracle_closes
    assert _answers(tr) == _answers(oracle)
    assert _packed(tr) == trace_oracle.packed(oracle)
    assert list(tr.segments) == _packed(tr)["segments"]
    assert list(tr.transfers) == list(oracle.transfers)
    if marks is not None:
        # The ledgers rewind a run by slices of the lists: back to the
        # rows the oracle held at the mark.
        for ledger, mark in zip(_trace_ledgers(), marks):
            ledger.rewind(holder, mark, ledger.delta(holder, mark))
        assert _packed(tr) == at_mark
        for columns in (tr.segments, tr.edges, tr.transfers):
            assert {len(values) for values in columns.lists()} == \
                {len(columns)}


# -- the GC ratchet ----------------------------------------------------------

RECORDS = 10_000


def test_recording_allocates_no_object_per_record():
    # Counted, not timed: with the collector off every container made
    # while recording stays tracked, so one tuple or object per cut,
    # edge or link transfer would grow the count by RECORDS or more.
    with Machine(nnodes=2) as machine:
        trace, transport = machine.trace, machine.transport
        link = (0, 1)
        transport.link(link)
        trace.begin("a")
        sink = trace.begin("sink")
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            for _ in range(RECORDS):
                closed, opened = trace.cut("a", label="rendezvous")
                trace.charge("a", 3)
                trace.edge(closed, sink, latency=2)
                transport._stall_edges(closed, opened,
                                       [({link: 5}, 7, "fetch")], None)
            grown = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert len(trace.segments) == RECORDS + 2
        assert len(trace.edges) == 2 * RECORDS
        assert len(trace.transfers) == RECORDS
        assert grown < 50, grown
