"""Unit tests for execution-trace recording."""

import pytest

from repro.timing import Trace


def test_begin_charge_end():
    tr = Trace()
    tr.begin("a", node=0)
    tr.charge("a", 100)
    seg = tr.end("a")
    assert seg.cycles == 100
    assert seg.closed
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
    assert closed.closed and not opened.closed
    assert (closed.id, opened.id, 0) in tr.edges
    tr.charge("a", 7)
    assert tr.current("a").cycles == 7


def test_last_closed_tracks_history():
    tr = Trace()
    tr.begin("a")
    closed, _ = tr.cut("a")
    assert tr.last_closed("a") is closed
    final = tr.end("a")
    assert tr.last_closed("a") is final


def test_move_node_changes_segment_node():
    tr = Trace()
    tr.begin("a", node=0)
    closed, opened = tr.move_node("a", 3)
    assert closed.node == 0
    assert opened.node == 3


def test_cross_context_edge():
    tr = Trace()
    a = tr.begin("a")
    b = tr.begin("b")
    tr.edge(a, b, latency=50)
    assert (a.id, b.id, 50) in tr.edges


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
    assert closed.closed and not opened.closed
    assert (closed.id, opened.id, 500) in tr.edges
    assert tr.charged("a") == 10
    tr.charge("a", 3)
    assert tr.charged("a") == 13
    assert tr.total_cycles() == 13
