#!/usr/bin/env python
"""Print what moved between the committed benchmark baselines and a fresh run.

CI ``cmp``s every ``benchmarks/out/BENCH_*.json`` against its committed
``benchmarks/BENCH_*.json`` (the simulations are deterministic), so this
script decides nothing: it walks the two JSON trees, names each leaf
that moved, went missing or is new, and exits nonzero on any.  After an
intentional change, refresh the baselines (DESIGN.md §6 says when):

    PYTHONPATH=src python -m pytest benchmarks/bench_ablation_*.py -q
    cp benchmarks/out/BENCH_*.json benchmarks/
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MISSING = "<missing>"


def leaves(tree, path=""):
    """``{path: leaf}`` of a JSON tree."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return {path: tree}
    out = {}
    for key, value in items:
        out.update(leaves(value, f"{path}/{key}"))
    return out


def moved(baseline, current):
    """``[(path, committed, fresh)]`` of every leaf that differs."""
    old, new = leaves(baseline), leaves(current)
    return [(path, old.get(path, MISSING), new.get(path, MISSING))
            for path in sorted(old.keys() | new.keys())
            if old.get(path, MISSING) != new.get(path, MISSING)]


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    total = 0
    for baseline in sorted(HERE.glob("BENCH_*.json")):
        fresh = HERE / "out" / baseline.name
        current = json.loads(fresh.read_text()) if fresh.exists() else MISSING
        rows = moved(json.loads(baseline.read_text()), current)
        total += len(rows)
        print(f"check_regression: {baseline.name}: {len(rows)} leaves moved")
        for path, old, new in rows:
            print(f"  {baseline.stem}{path}: {old!r} -> {new!r}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
