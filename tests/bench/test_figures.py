"""Shape assertions for the figure generators, at reduced sizes.

These tests pin the *qualitative* claims of the paper's evaluation; the
benchmarks/ directory regenerates the full-size series.
"""

import pytest

from repro.bench import figures
from repro.bench.codesize import table3


def test_figure4_schedules():
    f4 = figures.figure4()
    # Unix -j == Unix -j2 == optimal packing on 2 CPUs.
    assert f4["unix -j"] == f4["unix -j2"] == 3_000_000
    # Determinator -j tracks Unix -j closely (scheduling left to the system).
    assert f4["determinator -j"] < 1.15 * f4["unix -j"]
    # Determinator -j2: deterministic wait() yields the Fig. 4(d) schedule,
    # ~1.5x worse (medium task serialized after the long task's wait).
    assert f4["determinator -j2"] > 1.4 * f4["unix -j2"]


def test_figure7_shape_small():
    series = figures.figure7(cpu_counts=(1, 8), benchmarks=["md5", "lu_cont"])
    # md5: Determinator wins at high core counts (paper: 2.25x at 12).
    assert series["md5"][8] > 1.2
    # lu: fine-grained pays heavily (paper: far below 1).
    assert series["lu_cont"][8] < 0.5
    # At one core everything is within noise of parity.
    assert 0.5 < series["md5"][1] < 1.2


def test_figure8_scaling_small():
    series = figures.figure8(cpu_counts=(1, 8),
                             benchmarks=["md5", "qsort"])
    # Embarrassingly parallel md5 scales well; qsort poorly (paper Fig. 8).
    assert series["md5"][8] > 4.0
    assert series["qsort"][8] < series["md5"][8]
    assert series["md5"][1] == pytest.approx(1.0, rel=0.05)


def test_figure9_ratio_improves_with_size():
    series = figures.figure9(sizes=(16, 256), ncpus=8)
    assert series[256] > series[16]


def test_figure10_ratio_improves_with_size():
    series = figures.figure10(sizes=(1 << 10, 1 << 16), ncpus=8)
    assert series[1 << 16] > series[1 << 10]


def test_figure11_shapes_small():
    series = figures.figure11(node_counts=(1, 2, 8), md5_length=3,
                              matmult_n=256)
    # md5-tree scales with nodes.
    assert series["md5-tree"][8] > 4.0
    # matmult-tree levels off around two nodes.
    assert series["matmult-tree"][8] < 2.0
    assert series["md5-tree"][1] == pytest.approx(1.0)


def test_figure11_topology_ordering_small():
    series = figures.figure11_topology(node_counts=(1, 4), matmult_n=128)
    for label in ("flat", "two-tier", "fat-tree"):
        assert series[label][1] == pytest.approx(1.0)
    # The flat mesh is the upper envelope; oversubscribed two-tier the
    # lower; full-bisection fat-tree between.
    assert series["flat"][4] >= series["fat-tree"][4]
    assert series["fat-tree"][4] > series["two-tier"][4]


def test_figure12_md5_comparable_and_tcp_cheap():
    series = figures.figure12(node_counts=(2, 8), md5_length=4,
                              matmult_n=256)
    assert 0.8 < series["md5-tree"][2] < 1.2
    assert 0.8 < series["md5-tree"][8] < 1.2
    for nodes, impact in series["tcp-impact"].items():
        assert impact < 0.02, f"TCP impact {impact:.3f} at {nodes} nodes"


def test_table3_counts_components():
    text, sizes = table3()
    assert sizes["Kernel core"] > 500
    assert sizes["User-level runtime"] > 500
    assert sizes["Total"] == sum(v for k, v in sizes.items() if k != "Total")
    assert "Kernel core" in text


def test_table3_total_has_a_ceiling():
    # The code-size number ROADMAP aim 2 tracks only ratchets down by
    # accident-proofing it: growth has to be a decision, in the diff.
    total = table3()[1]["Total"]
    assert total <= 6_798, (
        f"table3 Total grew to {total:,}: if the growth is deliberate, "
        f"raise this ceiling in the same diff that needs it")


def test_format_series_renders():
    text = figures.format_series("T", {"a": {1: 1.0, 2: 2.0}, "b": {1: 3.0}})
    assert "T" in text and "a" in text and "-" in text


def test_format_series_sizes_columns_from_their_widest_cell():
    series = {
        "two-tier": {50: 19_711_537, 95: 26_755_585, 10: 544},
        "two-tier+locality": {50: 9_579_445, 95: 12_366_745},
    }
    lines = figures.format_series("T", series, value_fmt="{:,}").split("\n")
    assert lines == [
        "T",
        "                         10         50         95",
        "two-tier                544 19,711,537 26,755,585",
        "two-tier+locality         -  9,579,445 12,366,745",
    ]
    assert all(len(line) == len(lines[1]) for line in lines[1:])


def test_format_series_keeps_the_layout_of_tables_that_fit():
    text = figures.format_series("T", {"md5": {1: 1.0, 12: 11.25}, "lu": {12: 3.5}})
    assert text == "\n".join([
        "T",
        f"{'':16s}{1:>10}{12:>10}",
        f"{'md5':16s}{'  1.00':>10}{' 11.25':>10}",
        f"{'lu':16s}{'-':>10}{'  3.50':>10}",
    ])
