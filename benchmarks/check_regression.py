#!/usr/bin/env python
"""CI regression gate for benchmark metrics.

Compares the JSON the ablation benchmarks just wrote to
``benchmarks/out/`` against the committed ``benchmarks/BENCH_*.json``
baselines and exits nonzero when a gated metric regressed more than
10% — e.g. matmult-tree shipping more wire bytes, stalling more cycles
on demand paging, or finishing in more virtual cycles than the baseline
recorded.  Non-gated keys (computed values, conservation flags) must
merely be present; a baseline key absent from the fresh output — or a
fresh key absent from the baseline — is itself a failure, at any depth,
so a silently dropped metric can never pass the gate.

On failure a per-metric diff table of every gated leaf in the failing
files is printed, so the job summary names exactly which metric moved
and by how much.

The simulations are deterministic, so on an unchanged cost model the
numbers match the baselines exactly; the tolerance leaves room for
deliberate small recalibrations.  After an intentional protocol or
cost-model change, regenerate and commit the baselines:

    PYTHONPATH=src python -m pytest benchmarks/bench_ablation_*.py -q
    cp benchmarks/out/BENCH_*.json benchmarks/

(The full baseline-refresh workflow — when a refresh is legitimate and
when it is papering over a regression — is documented in DESIGN.md.)
Each failure names the committed baseline file it compared against and
whether git actually tracks it, so a forgotten ``git add`` after a
refresh shows up in the failure table instead of silently gating
against a stale committed copy.

Usage: python benchmarks/check_regression.py [--tolerance 0.10]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Leaf keys gated against the baseline (higher is a regression).
#: ``adaptive_stall_cycles`` (total schedule() stall of an adaptive
#: control-plane cell) and ``adaptive_vs_best_static_pct`` (signed
#: makespan margin of adaptive over the best static knob setting —
#: negative when adaptive wins, so drifting toward zero is a
#: regression) gate the control plane's payoff.
GATED_KEYS = {"wire_bytes", "wire_cycles", "makespan", "pages", "hops",
              "demand_stall", "retx_bytes", "adaptive_stall_cycles",
              "adaptive_vs_best_static_pct",
              "p50_cycles", "p95_cycles", "p99_cycles"}

#: Leaf keys gated downward (lower is a regression): virtual-time
#: delivery-rate metrics — deterministic like every GATED_KEYS metric.
GOODPUT_KEYS = {"goodput"}


def git_tracked(path):
    """Whether git tracks ``path`` (False too when git is unavailable —
    an untracked baseline gates nothing on a fresh clone, which is
    exactly what the failure table should say)."""
    try:
        result = subprocess.run(
            ["git", "ls-files", "--error-unmatch", path.name],
            cwd=path.parent, capture_output=True)
        return result.returncode == 0
    except OSError:
        return False


def compare(baseline, current, path, tolerance, failures, rows):
    """Walk ``baseline`` recursively, recording gate violations and a
    diff row per gated leaf."""
    if isinstance(baseline, dict):
        if not isinstance(current, dict):
            failures.append(f"{path}: expected an object, got {current!r}")
            return
        for key, base_value in baseline.items():
            if key not in current:
                failures.append(f"{path}/{key}: missing from current output")
                continue
            compare(base_value, current[key], f"{path}/{key}", tolerance,
                    failures, rows)
        # New cells or metrics must enter the baseline too, at any
        # depth, or they would never be gated.
        for key in sorted(set(current) - set(baseline)):
            failures.append(
                f"{path}/{key}: present in output but missing from the "
                f"committed baseline — regenerate it")
        return
    if isinstance(baseline, list):
        if not isinstance(current, list) or len(current) != len(baseline):
            failures.append(
                f"{path}: expected a {len(baseline)}-element list, "
                f"got {current!r}")
            return
        for index, base_value in enumerate(baseline):
            compare(base_value, current[index], f"{path}[{index}]",
                    tolerance, failures, rows)
        return
    leaf = path.rsplit("/", 1)[-1]
    if leaf in GATED_KEYS and isinstance(baseline, (int, float)):
        if not isinstance(current, (int, float)) or isinstance(current, bool):
            failures.append(f"{path}: non-numeric {current!r}")
            return
        # Tolerance scales with |baseline| so negative baselines (the
        # adaptive-margin keys, where more negative is better) gate
        # correctly: a plain multiplicative band would *widen* upward
        # for them instead of bounding the drift toward zero.
        regressed = current > baseline + tolerance * abs(baseline)
        rows.append((path, baseline, current, regressed))
        if regressed:
            over = (f"{current / baseline - 1:+.1%}" if baseline
                    else f"+{current:,}")
            failures.append(
                f"{path}: {current:,} exceeds baseline {baseline:,} "
                f"by {over} (> {tolerance:.0%})")
        return
    if leaf in GOODPUT_KEYS and isinstance(baseline, (int, float)):
        if not isinstance(current, (int, float)) or isinstance(current, bool):
            failures.append(f"{path}: non-numeric {current!r}")
            return
        regressed = current < baseline - tolerance * abs(baseline)
        rows.append((path, baseline, current, regressed))
        if regressed:
            under = (f"{current / baseline - 1:+.1%}" if baseline
                     else f"{current:,}")
            failures.append(
                f"{path}: {current:,} fell below baseline {baseline:,} "
                f"by {under} (> {tolerance:.0%})")


def diff_table(rows):
    """Aligned per-metric diff of every gated leaf (worst first)."""
    def delta(base, cur):
        return cur / base - 1 if base else (1.0 if cur else 0.0)

    lines = [f"{'metric':<58} {'baseline':>14} {'current':>14} "
             f"{'delta':>8}  gate"]
    for path, base, cur, regressed in sorted(
            rows, key=lambda row: delta(row[1], row[2]), reverse=True):
        lines.append(
            f"{path:<58} {base:>14,} {cur:>14,} {delta(base, cur):>+8.1%}"
            f"  {'FAIL' if regressed else 'ok'}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed relative increase (default 0.10)")
    args = parser.parse_args(argv)

    baselines = sorted(HERE.glob("BENCH_*.json"))
    if not baselines:
        print("check_regression: no BENCH_*.json baselines committed",
              file=sys.stderr)
        return 2

    failures = []
    failing_rows = []
    failing_files = []
    for baseline_path in baselines:
        tracked = git_tracked(baseline_path)
        current_path = HERE / "out" / baseline_path.name
        if not current_path.exists():
            failures.append(
                f"{baseline_path.name}: {current_path} not found — run the "
                f"ablation benchmarks first")
            failing_files.append((baseline_path, tracked))
            continue
        baseline = json.loads(baseline_path.read_text())
        current = json.loads(current_path.read_text())
        before = len(failures)
        rows = []
        compare(baseline, current, baseline_path.stem, args.tolerance,
                failures, rows)
        failed = len(failures) > before
        if failed:
            failing_rows.extend(rows)
            failing_files.append((baseline_path, tracked))
        print(f"check_regression: {baseline_path.name}: "
              f"{'FAIL' if failed else 'ok'} ({len(rows)} gated metrics"
              f"{'' if tracked else '; baseline NOT git-tracked'})")

    if failures:
        print(f"\n{len(failures)} regression(s) vs committed baselines:",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print("\nBaselines compared against:", file=sys.stderr)
        for path, tracked in failing_files:
            status = ("git-tracked" if tracked
                      else "NOT git-tracked — commit it after a refresh")
            print(f"  {path} ({status})", file=sys.stderr)
        if failing_rows:
            print("\nPer-metric diff of failing files:", file=sys.stderr)
            print(diff_table(failing_rows), file=sys.stderr)
        return 1
    print(f"check_regression: all gated metrics within "
          f"{args.tolerance:.0%} of baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
