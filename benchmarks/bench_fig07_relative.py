"""Figure 7: Determinator performance relative to pthreads/Linux.

Seven benchmarks; values are Linux-time / Determinator-time, so > 1
means Determinator is faster.  Paper shape: md5 wins at 12 cores
(2.25x), coarse-grained benchmarks are comparable, fine-grained lu pays
heavily.
"""

from repro.bench import figures


def test_fig07_relative_performance():
    series = figures.figure7()
    print()
    print(figures.format_series(
        "Figure 7: Determinator relative to Linux (>1 = faster)", series))
    assert series["md5"][12] > 1.5          # paper: 2.25x
    assert 0.6 < series["matmult"][12] <= 1.3
    assert series["lu_cont"][12] < 0.3
    assert series["lu_noncont"][12] < 0.3
