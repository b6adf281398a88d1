"""Figure 12: Determinator's transparently distributed shared-memory
benchmarks versus hand-written distributed-memory Linux equivalents.

Paper shape: md5-tree and matmult-tree "perform comparably to
nondeterministic, distributed-memory equivalents"; adding TCP-like
round-trip timing and retransmission framing to Determinator's protocol
changes results by less than 2%.

On top of the paper's framing surcharge, the ``loss-*`` series measure
*actual* retransmission: a deterministic 0.1% / 1% drop schedule with
bounded retries.  Loss is cost-only (values asserted identical inside
``figure12``), the slowdown is monotone in the rate (schedules nest
under one seed), and even 1% drop stays a modest surcharge — the
reliability dimension that makes the TCP-mode comparison meaningful.
"""

import pytest

from repro.bench import figures


@pytest.mark.slow_cluster
def test_fig12_distributed_baseline():
    series = figures.figure12()
    print()
    print(figures.format_series(
        "Figure 12: dist-Linux time / Determinator time", series,
        value_fmt="{:7.3f}"))
    for nodes, ratio in series["md5-tree"].items():
        assert 0.8 < ratio < 1.25, f"md5-tree ratio {ratio} at {nodes}"
    for nodes, impact in series["tcp-impact"].items():
        assert impact < 0.02, f"TCP impact {impact:.3%} at {nodes} nodes"
    for nodes in series["loss-0.1%"]:
        low, high = series["loss-0.1%"][nodes], series["loss-1%"][nodes]
        # Retransmission can only add constraint, monotonically in the
        # (nested) drop rate — and stays a surcharge, not a collapse.
        assert 0.0 <= low <= high < 0.30, \
            f"loss impact {low:.3%}/{high:.3%} at {nodes} nodes"
