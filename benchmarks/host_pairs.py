"""Alternating parent/change pairs of the ``BENCHMARK.json`` command
(choosing-metrics §8): the parent revision is unpacked with ``git
archive`` into a temporary directory, each pair runs one fresh seed on
both sides — which side goes first alternates — and every end-to-end
metric gets each side's median and quartiles, the pair wins, and the
verdict the guides define (:func:`verdict`).

    python benchmarks/host_pairs.py --workload barrier_lu --pairs 10 --seed 301

``--others N`` then runs N pairs on every *other* workload and prints
the same block for each, so the "must not move" half of a claim is the
same command.  ``--record PATH`` appends one JSON line per compared
workload to the pairs ledger (``benchmarks/pairs.jsonl``): the commits,
the seeds, every pair's values and the verdicts (:func:`compare`),
and both sides' exact host-work counts of one ``large`` iteration
(``host_counts.py``).
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(command, cwd, workload, seed, seconds):
    """One run of the benchmark command: its failed ops, its metric
    values and whether its ``--out`` report says ``comparable``."""
    with tempfile.TemporaryDirectory(prefix="host_pairs_run_") as tmp:
        report = pathlib.Path(tmp) / "report.json"
        out = subprocess.run(
            command + ["--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0",
                       "--out", str(report)],
            cwd=cwd, check=True, capture_output=True, text=True).stdout
        comparable = json.loads(report.read_text())["host"]["comparable"]
    result = json.loads(out.strip().splitlines()[-1])
    return (result["failed"],
            {k: m["value"] for k, m in result["metrics"].items()}, comparable)


def count_run(cwd, workload, seed):
    """``host_counts.py``'s counts of one ``large`` iteration of
    ``workload``, run against the checkout at ``cwd``."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "host_counts.py"),
         workload, str(seed)],
        cwd=cwd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def show_counts(counts):
    """Every count a record holds, in key order: a count added to
    ``host_counts.py`` prints with no change here."""
    if counts is None:
        return "unavailable"
    shown = []
    for key, value in sorted(counts.items()):
        if isinstance(value, list):
            value = "/".join(map(str, value))
        elif isinstance(value, float):
            value = f"{value:.4f}"
        shown.append(f"{key} {value}")
    return ", ".join(shown)


def commits(parent):
    """The ledger's commits: ``parent`` resolved to a sha, and what the
    change side ran — HEAD when the working tree matches it, else the
    working tree's own tree object (``dirty``).  That tree, untracked
    files included and ignored ones not, is written through a temporary
    index, so the user's index is left alone."""
    with tempfile.TemporaryDirectory(prefix="host_pairs_index_") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}

        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, env=env,
                                  check=True, capture_output=True,
                                  text=True).stdout.strip()
        git("read-tree", "HEAD")
        git("add", "--all")
        tree = git("write-tree")
        dirty = tree != git("rev-parse", "HEAD^{tree}")
        return {"parent": git("rev-parse", f"{parent}^{{commit}}"),
                "change": tree if dirty else git("rev-parse", "HEAD"),
                "dirty": dirty}


def append_record(path, head, record):
    """Append ``record`` (a :func:`compare` result) under ``head`` (the
    :func:`commits`) as one line of the ledger at ``path``."""
    with open(path, "a") as ledger:
        ledger.write(json.dumps({**head, **record}) + "\n")


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(parent, change, better, bound):
    """The guides' reading of one metric's pairs (``parent[i]`` ran
    against ``change[i]``); ``better`` is ``"lower"`` or ``"higher"``,
    ``bound`` the metric's relative ``BENCHMARK.json`` bound.

    * ``"claim holds"`` — the change wins at least 9/10 of the pairs
      (ties count for neither) and the medians differ, in the better
      direction, by more than the parent's q3 - q1;
    * ``"worse beyond bound"`` — the change median is worse than the
      parent's by more than ``bound`` of it;
    * ``"unresolved"`` — the parent's q3 - q1 exceeds ``bound`` of its
      median and not every change run beats every parent run;
    * otherwise ``"within bound"``.
    """
    sign = 1 if better == "lower" else -1
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gain = sign * (median - statistics.median(change))
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    if 10 * wins >= 9 * len(parent) and gain > q3 - q1:
        return "claim holds"
    if -gain > bound * abs(median):
        return "worse beyond bound"
    if q3 - q1 > bound * abs(median) and not all(
            sign * (p - c) > 0 for p in parent for c in change):
        return "unresolved"
    return "within bound"


def compare(declared, where, workload, pairs, seed, seconds, versus):
    """Run ``pairs`` alternating pairs of ``workload`` and print, per
    end-to-end metric, each side's median, quartiles and the pair wins.
    Returns the same as a ledger record: the run settings, failed ops
    and per-run ``comparable`` flags per side, and per metric both
    sides' per-pair values, medians, quartiles, wins, losses and
    :func:`verdict`, and in ``counts`` each side's :func:`count_run`
    on the first seed."""
    sides = {"parent": [], "change": []}
    failed = dict.fromkeys(sides, 0)
    comparable = {side: [] for side in sides}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            bad, metrics, steady = run_once(declared["command"], where[side],
                                            workload, seed + pair, seconds)
            failed[side] += bad
            sides[side].append(metrics)
            comparable[side].append(steady)
        print(f"seed {seed + pair} ({order[0]} first): " + "  ".join(
            f"{m['name']} {sides['parent'][-1][m['name']]:.4g} -> "
            f"{sides['change'][-1][m['name']]:.4g}"
            for m in declared["end_to_end"]), flush=True)
    print(f"\n{workload}, {pairs} pairs vs {versus}; failed ops "
          f"{failed['parent']} -> {failed['change']}; median [q1, q3]")
    record = {"workload": workload,
              "seeds": [seed + pair for pair in range(pairs)],
              "seconds": seconds, "pairs": pairs, "failed": failed,
              "comparable": comparable, "metrics": {}}
    for metric in declared["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [run[name] for run in sides[side]] for side in sides}
        parent, change = values["parent"], values["change"]
        gains = [sign * (p - c) for p, c in zip(parent, change)]
        delta = statistics.median(change) / statistics.median(parent) - 1
        wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
        reading = verdict(parent, change, metric["better"], metric["bound"])
        print(f"  {name:16s} parent {spread(parent)}  change {spread(change)}  "
              f"{delta:+.1%}  wins {wins} losses {losses} "
              f"({metric['better']} is better)")
        print(f"  {'':16s} {reading} (bound {metric['bound']:.0%})")
        quartiles = {side: statistics.quantiles(values[side], n=4,
                                                method="inclusive")
                     for side in sides}
        record["metrics"][name] = {
            "better": metric["better"], "bound": metric["bound"], **values,
            **{key: {side: quartiles[side][at] for side in sides}
               for at, key in enumerate(("q1", "median", "q3"))},
            "wins": wins, "losses": losses, "verdict": reading}
    record["counts"] = {side: count_run(where[side], workload, seed)
                        for side in sides}
    print(f"  counts (large, seed {seed}): "
          + "  ->  ".join(show_counts(record["counts"][side])
                          for side in sides))
    print(flush=True)
    return record


def unpack(revision, dest):
    """Extract ``revision`` of this repository into ``dest``."""
    archive = subprocess.run(["git", "archive", revision], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


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
    parser.add_argument("--record", metavar="PATH",
                        help="append one JSON line per compared workload "
                             "to this ledger (benchmarks/pairs.jsonl)")
    args = parser.parse_args(argv)
    head = args.record and commits(args.parent)
    if args.pairs < 2 or args.others == 1:
        parser.error("quartiles need at least two pairs")
    with tempfile.TemporaryDirectory(prefix="host_pairs_") as parent_dir:
        unpack(args.parent, parent_dir)
        where = {"parent": parent_dir, "change": ROOT}
        for workload, pairs in [(args.workload, args.pairs)] + [
                (name, args.others) for name in names
                if args.others and name != args.workload]:
            record = compare(declared, where, workload, pairs, args.seed,
                             args.seconds, args.parent)
            if args.record:
                append_record(args.record, head, record)


if __name__ == "__main__":
    main()
