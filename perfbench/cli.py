"""Command line of the benchmark (``perfbench/run.py`` and ``python -m
perfbench`` both end up here).

With one ``--workload`` the last line of standard output is the result
object the benchmark contract asks for; ``--out`` writes the full report
(quartiles, sample counts, host facts, ``sim`` fingerprints) that
``python -m perfbench.compare`` reads.
"""

import argparse
import json
import sys

from perfbench._env import ROOT, pinned


def parse(argv):
    with open(ROOT / "BENCHMARK.json") as spec:
        declared = json.load(spec)
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all, "
                             "one after the other)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"],
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass (per-layer metrics and "
                             "span files) instead of the end-to-end one")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, 2 rounds: a smoke test, no bounds")
    parser.add_argument("--out", help="write the full report here")
    parser.add_argument("--child", choices=("setup", "rss"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.workload = args.workload or names
    return args


def contract_line(block):
    """The result object of one workload, as the contract words it."""
    metrics = block.get("layers") or block["metrics"]
    return json.dumps({
        "correct": block["failed"] == 0,
        "attempted": block["attempted"],
        "failed": block["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    })


def table(report):
    lines = []
    for name, block in report["workloads"].items():
        if block["status"] != "ok":
            lines.append(f"{name}: skipped ({block['reason']})")
            continue
        lines.append(f"{name}: {block['attempted']} {block['op']} ops "
                     f"attempted, {block['failed']} failed")
        for reason in block["reasons"]:
            lines.append(f"    FAILED: {reason}")
        for metric, m in (block.get("layers") or block["metrics"]).items():
            value = "null" if m["value"] is None else f"{m['value']:.6g}"
            spread = f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']}]" \
                if "n" in m else ""
            lines.append(f"    {metric:34s} {value:>12s} {m['unit']}{spread}")
    host = report["host"]
    lines.append(f"host: cpu {host['pinned_cpu']} of {host['allowed_cpus']}, "
                 f"loadavg {host['loadavg'][0]:.2f}, "
                 f"comparable: {str(host.get('comparable')).lower()}")
    return "\n".join(lines)


def main(argv=None):
    args = parse(sys.argv[1:] if argv is None else argv)
    with pinned() as (cpu, allowed):
        # Imported only now: numpy sizes its thread pool from the mask.
        try:
            from perfbench import measure
        except ModuleNotFoundError as exc:
            print(f"perfbench: {exc}; the program under src/ is needed",
                  file=sys.stderr)
            return 2
        if args.child:
            measure.child_main(args.child, args.workload[0], args.seed,
                               args.quick)
            return 0
        report = measure.run_suite(
            args.workload, args.seed, args.seconds, trace=bool(args.trace),
            quick=args.quick, cpu=cpu, allowed=allowed)
    if args.out:
        with open(args.out, "w") as out:
            json.dump(report, out, indent=1)
    print(table(report))
    if len(args.workload) == 1:
        block = report["workloads"][args.workload[0]]
        if block["status"] != "ok":
            print(f"cannot run here: {block['reason']}", file=sys.stderr)
            return 3
        print(contract_line(block))
    return 0
