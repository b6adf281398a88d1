"""Figure 9: matrix multiply with varying matrix size vs Linux.

Paper shape: deterministic execution costs heavily at small problem
sizes (frequent interaction) and becomes competitive at large sizes.
"""

from repro.bench import figures


def test_fig09_matmult_size_sweep():
    series = figures.figure9()
    print()
    print(figures.format_series("Figure 9: matmult size sweep (ratio)",
                                {"matmult": series}))
    sizes = sorted(series)
    assert series[sizes[0]] < 0.7       # small: Determinator pays
    assert series[sizes[-1]] > 0.8      # large: competitive
    assert series[sizes[-1]] > series[sizes[0]]
