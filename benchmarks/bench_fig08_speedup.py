"""Figure 8: Determinator parallel speedup over its own 1-CPU run.

Paper shape: md5 and blackscholes scale well; matmult and fft level off
after four processors; qsort and lu scale poorly.
"""

from repro.bench import figures


def test_fig08_self_speedup():
    series = figures.figure8()
    print()
    print(figures.format_series(
        "Figure 8: speedup vs own single-CPU performance", series))
    # md5 and blackscholes scale well.
    assert series["md5"][12] > 6.0
    assert series["blackscholes"][12] > 6.0
    # fft levels off after four processors (paper Fig. 8).
    assert series["fft"][12] / series["fft"][4] < 1.3
    # qsort and lu scale poorly.
    assert series["qsort"][12] < 5.0
    assert series["lu_cont"][12] < 3.0
    # DIVERGENCE (documented in EXPERIMENTS.md): the paper's matmult also
    # levels off after 4 CPUs because the 2-socket Opteron saturates
    # memory bandwidth; our cost model has no bandwidth ceiling, so
    # matmult keeps scaling.  We assert the model's own behaviour here.
    assert series["matmult"][12] > 6.0
