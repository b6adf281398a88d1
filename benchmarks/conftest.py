"""Shared helpers for the figure-regeneration benchmarks.

Each ``bench_*`` file regenerates one paper table/figure: plain pytest
functions that compute the series (the simulations are deterministic,
so once is enough) and print it, so that running

    pytest benchmarks/ -s

reproduces every row/series the paper reports.
"""

import json
import os

#: Where ablation/benchmark JSON outputs land; CI uploads these as
#: workflow artifacts and ``cmp``s them against the committed
#: ``benchmarks/BENCH_*.json`` baselines (check_regression.py prints
#: what moved).
OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def dump_json(name, payload):
    """Write one benchmark's machine-readable results to out/``name``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
