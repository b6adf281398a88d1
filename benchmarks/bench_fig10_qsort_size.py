"""Figure 10: parallel quicksort with varying array size vs Linux.

Paper shape: high deterministic-execution cost at small sizes, closing
toward parity as the problem grows.
"""

from repro.bench import figures


def test_fig10_qsort_size_sweep():
    series = figures.figure10()
    print()
    print(figures.format_series("Figure 10: qsort size sweep (ratio)",
                                {"qsort": series}))
    sizes = sorted(series)
    assert series[sizes[0]] < 0.6
    assert series[sizes[-1]] > series[sizes[0]]
