"""Alternating parent/change pairs of the ``BENCHMARK.json`` command
(choosing-metrics §8): the parent revision is unpacked with ``git
archive`` into a temporary directory, each pair runs one fresh seed on
both sides — which side goes first alternates — and every end-to-end
metric gets each side's median and quartiles and the pair wins.

    python benchmarks/host_pairs.py --workload barrier_lu --pairs 10 --seed 301

``--others N`` then runs N pairs on every *other* workload and prints
the same block for each, so the "must not move" half of a claim is the
same command.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(command, cwd, workload, seed, seconds):
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=cwd, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return result["failed"], {k: m["value"] for k, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(declared, where, workload, pairs, seed, seconds, versus):
    """Run ``pairs`` alternating pairs of ``workload`` and print, per
    end-to-end metric, each side's median, quartiles and the pair wins."""
    sides = {"parent": [], "change": []}
    failed = dict.fromkeys(sides, 0)
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            bad, metrics = run_once(declared["command"], where[side],
                                    workload, seed + pair, seconds)
            failed[side] += bad
            sides[side].append(metrics)
        print(f"seed {seed + pair} ({order[0]} first): " + "  ".join(
            f"{m['name']} {sides['parent'][-1][m['name']]:.4g} -> "
            f"{sides['change'][-1][m['name']]:.4g}"
            for m in declared["end_to_end"]), flush=True)
    print(f"\n{workload}, {pairs} pairs vs {versus}; failed ops "
          f"{failed['parent']} -> {failed['change']}; median [q1, q3]")
    for metric in declared["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        parent, change = ([run[name] for run in sides[side]] for side in sides)
        gains = [sign * (p - c) for p, c in zip(parent, change)]
        delta = statistics.median(change) / statistics.median(parent) - 1
        print(f"  {name:16s} parent {spread(parent)}  change {spread(change)}  "
              f"{delta:+.1%}  wins {sum(g > 0 for g in gains)} losses "
              f"{sum(g < 0 for g in gains)} ({metric['better']} is better)")
    print(flush=True)


def main(argv=None):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--parent", default="HEAD",
                        help="revision the working tree is compared against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--others", type=int, default=0, metavar="N",
                        help="then N pairs on every other workload: the "
                             "'must not move' half of a claim")
    parser.add_argument("--seed", type=int, default=101,
                        help="seed of the first pair; each pair takes the next")
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.others == 1:
        parser.error("quartiles need at least two pairs")
    with tempfile.TemporaryDirectory(prefix="host_pairs_") as parent_dir:
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", parent_dir], input=archive, check=True)
        where = {"parent": parent_dir, "change": ROOT}
        for workload, pairs in [(args.workload, args.pairs)] + [
                (name, args.others) for name in names
                if args.others and name != args.workload]:
            compare(declared, where, workload, pairs, args.seed, args.seconds,
                    args.parent)


if __name__ == "__main__":
    main()
