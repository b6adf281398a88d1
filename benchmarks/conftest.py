"""Shared helpers for the figure-regeneration benchmarks.

Each ``bench_*`` file regenerates one paper table/figure.  The series is
computed once (``rounds=1`` — the simulations are themselves
deterministic, so repetition adds nothing) and printed so that running

    pytest benchmarks/ --benchmark-only -s

reproduces every row/series the paper reports.
"""

import json
import os

import pytest

#: Where ablation/benchmark JSON outputs land; CI uploads these as
#: workflow artifacts and gates them against the committed
#: ``benchmarks/BENCH_*.json`` baselines (see check_regression.py).
OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

def dump_json(name, payload):
    """Write one benchmark's machine-readable results to out/``name``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def _run(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return _run
