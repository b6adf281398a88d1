"""``python -m perfbench.compare A.json B.json``: is B worse than A?

One row per workload and end-to-end metric: both medians, the relative
difference, the bound ``BENCHMARK.json`` fixes for the metric, and a
verdict — ``ok``, ``out-of-bound`` (B is worse than A by more than the
bound) or ``unresolved`` (either side's own spread is wider than the
bound, so the pair cannot tell).  The spread of a reported median is the
interquartile range of its samples over the square root of their count.

Exit status: 0 when nothing is out of bound; 1 on an out-of-bound row, a
difference in any ``sim`` fingerprint, or a higher share of failed
operations in B; 2 when the two reports cannot be compared at all.
"""

import json
import math
import sys

from perfbench._env import ROOT


def load_bounds():
    with open(ROOT / "BENCHMARK.json") as spec:
        return {m["name"]: m for m in json.load(spec)["end_to_end"]}


def spread(metric):
    """Relative spread of a reported median (0 for a single sample)."""
    if metric["n"] < 2 or not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / math.sqrt(metric["n"]) \
        / abs(metric["value"])


def verdict(a, b, declared):
    """``(relative difference of B against A, verdict)`` of one row."""
    sign = 1 if declared["better"] == "lower" else -1
    worse = sign * (b["value"] - a["value"]) / abs(a["value"])
    if worse > declared["bound"]:
        return worse, "out-of-bound"
    if max(spread(a), spread(b)) > declared["bound"]:
        return worse, "unresolved"
    return worse, "ok"


def incomparable(a, b):
    """Why the two reports cannot be compared (None when they can)."""
    for label, report in (("A", a), ("B", b)):
        if report.get("trace"):
            return f"{label} is a traced run: it holds no end-to-end metric"
        if report.get("quick"):
            return f"{label} is a --quick run: bounds do not apply to it"
        if not report["host"].get("comparable"):
            return f"{label} says comparable: false (the box was loaded)"
    if a["seed"] != b["seed"]:
        return f"seed differs: {a['seed']} against {b['seed']}"
    return None


def compare(a, b, bounds):
    """Returns ``(rows, problems)``; ``problems`` lists what makes the
    exit status 1."""
    rows = []
    problems = []
    for name, block_a in a["workloads"].items():
        block_b = b["workloads"].get(name)
        if (block_b is None or block_a["status"] != "ok"
                or block_b["status"] != "ok"):
            rows.append((name, "-", None, None, None, None, "skipped"))
            continue
        if block_a["sim"] != block_b["sim"]:
            problems.append(f"{name}: sim fingerprints differ")
        share_a = block_a["failed"] / block_a["attempted"]
        share_b = block_b["failed"] / block_b["attempted"]
        if share_b > share_a:
            problems.append(f"{name}: failed share rose from {share_a:.4f} "
                            f"to {share_b:.4f}")
        for metric, declared in bounds.items():
            m_a, m_b = block_a["metrics"][metric], block_b["metrics"][metric]
            worse, word = verdict(m_a, m_b, declared)
            rows.append((name, metric, m_a["value"], m_b["value"], worse,
                         declared["bound"], word))
            if word == "out-of-bound":
                problems.append(f"{name}: {metric} worse by {worse:+.1%} "
                                f"(bound {declared['bound']:.0%})")
    return rows, problems


def render(rows):
    lines = [f"{'workload':12s} {'metric':16s} {'A':>12s} {'B':>12s} "
             f"{'B vs A':>8s} {'bound':>6s}  verdict"]
    for name, metric, a, b, worse, bound, word in rows:
        if a is None:
            lines.append(f"{name:12s} {metric:16s} {'':>12s} {'':>12s} "
                         f"{'':>8s} {'':>6s}  {word}")
        else:
            lines.append(f"{name:12s} {metric:16s} {a:12.5g} {b:12.5g} "
                         f"{worse:+8.1%} {bound:6.0%}  {word}")
    return "\n".join(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python -m perfbench.compare A.json B.json",
              file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path) as source:
            reports.append(json.load(source))
    reason = incomparable(*reports)
    if reason:
        print(f"not comparable: {reason}", file=sys.stderr)
        return 2
    rows, problems = compare(*reports, load_bounds())
    print(render(rows))
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
