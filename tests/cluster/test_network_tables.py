"""The five ``NetworkStats`` tables, byte for byte.

One lossy, compressed, prefetching ``two_tier:2`` run exercises every
column of every table; ``golden/network_*.txt`` pin the rendered text
(captured from the four hand-written renderers before they became
column lists over ``render_table`` — only the compression table's
``saved`` values moved, one column right, under their header).  The
node table is the telemetry window the transport used to hand out for
the whole run, less its ``aged`` column.
"""

import os

import pytest

from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.cluster import NetworkStats
from repro.cluster.network import render_table

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(scope="module")
def stats():
    spec = ClusterSpec(topology="two_tier:2", ship_mode="demand",
                       prefetch_depth=8, compression=True,
                       loss={"drop": 0.05, "seed": 3})
    return NetworkStats(cw.run_cluster(cw.md5_tree_main(3), 4, spec)[1])


TABLES = ["class", "link", "compression", "retx", "node"]


@pytest.mark.parametrize("name", TABLES)
def test_table_matches_golden(stats, name):
    with open(os.path.join(GOLDEN, f"network_{name}.txt"),
              encoding="utf-8") as handle:
        assert getattr(stats, f"{name}_table")() + "\n" == handle.read()


def test_every_column_ends_under_its_header(stats):
    """Right-aligned columns: each table row is exactly as wide as its
    header (the ``saved`` values used to sit one column short)."""
    for name in TABLES:
        lines = getattr(stats, f"{name}_table")().split("\n\n")[-1]
        widths = {len(line) for line in lines.splitlines()}
        assert len(widths) == 1, (name, lines)


def test_render_table_answers_empty_for_no_rows():
    assert render_table([("n", 3, "")], [], "(nothing)") == "(nothing)"
    assert render_table([("n", 3, ""), ("x", 6, ".1f")], [(1, 2.3)],
                        "(nothing)") == "  n      x\n  1    2.3"
