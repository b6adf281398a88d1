"""Serial against sharded host time of the same ``run_cluster`` call.

Each cell runs one cluster workload on :data:`NODES` nodes under one
``ship_mode``, twice per pair — serially and with ``shard_workers=2`` —
alternating which side goes first, checks that both sides computed the
same value and the same makespan, and reports the median wall-clock of
each side, their ratio (``speedup_vs_serial``, > 1 when sharding pays)
and the last sharded run's forked, adopted and fallback counts.  It
measures host time only and claims nothing: the cells are the input to
a decision about when sharding should decline.

    PYTHONPATH=src python benchmarks/shard_pairs.py [--pairs 5] \\
        [--record benchmarks/shard_pairs.jsonl]

``--record`` appends one JSON line per cell, tagged with the commit
(``git describe --always --dirty``, asked only then) and the CPUs the
box offers.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import time

from repro import ClusterSpec
from repro.bench import cluster_workloads as cw

ROOT = pathlib.Path(__file__).resolve().parent.parent
NODES = 8
WORKERS = 2

#: name -> (guest main builder, size, topology preset or None,
#: ship_mode).
CELLS = {
    "md5_tree(3)": (cw.md5_tree_main, 3, None, "delta"),
    "md5_circuit(3)": (cw.md5_circuit_main, 3, "fat_tree:2", "delta"),
    "md5_tree(4)": (cw.md5_tree_main, 4, None, "delta"),
    "md5_circuit(4)": (cw.md5_circuit_main, 4, "fat_tree:2", "delta"),
    "matmult_tree(256)": (cw.matmult_tree_main, 256, None, "delta"),
    "matmult_tree(512)": (cw.matmult_tree_main, 512, None, "delta"),
    "md5_tree(4) demand": (cw.md5_tree_main, 4, None, "demand"),
    "matmult_tree(256) demand": (cw.matmult_tree_main, 256, None, "demand"),
}


def _timed(main, nnodes, spec):
    start = time.perf_counter()
    makespan, machine, value = cw.run_cluster(main, nnodes, spec=spec)
    return time.perf_counter() - start, (makespan, value), machine


def pair_cell(builder, size, topology, ship_mode, pairs, nnodes=NODES):
    """Alternate ``pairs`` serial and sharded runs of one cell; returns
    its record (without the commit)."""
    main = builder(size)
    serial = ClusterSpec(topology=topology, ship_mode=ship_mode)
    sharded = serial.with_(shard_workers=WORKERS)
    times = {"serial": [], "sharded": []}
    for n in range(pairs):
        order = ["serial", "sharded"] if n % 2 == 0 else ["sharded", "serial"]
        outcome = {}
        for side in order:
            spec = serial if side == "serial" else sharded
            seconds, outcome[side], machine = _timed(main, nnodes, spec)
            times[side].append(seconds)
            if side == "sharded":
                stats = machine.shard.stats()
        if outcome["serial"] != outcome["sharded"]:
            raise AssertionError(
                f"sharding changed the run: {outcome['serial']!r} != "
                f"{outcome['sharded']!r}")
    medians = {side: statistics.median(values)
               for side, values in times.items()}
    return {"nnodes": nnodes, "topology": topology, "ship_mode": ship_mode,
            "workers": WORKERS, "pairs": pairs, "serial_s": times["serial"],
            "sharded_s": times["sharded"],
            "speedup_vs_serial": medians["serial"] / medians["sharded"],
            "forked": stats["forked"], "adopted": stats["adopted"],
            "fallbacks": stats["fallbacks"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--record", metavar="PATH")
    args = parser.parse_args()
    # Only a recorded line needs the commit: without --record the script
    # also runs in a checkout that is not a git repository.
    commit = args.record and subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout.strip()
    for name, (builder, size, topology, ship_mode) in CELLS.items():
        record = {"cell": name, "commit": commit, "cpus": os.cpu_count(),
                  **pair_cell(builder, size, topology, ship_mode,
                              args.pairs)}
        serial, sharded = (statistics.median(record[side])
                           for side in ("serial_s", "sharded_s"))
        print(f"{name:24} serial {serial:7.3f} s  sharded {sharded:7.3f} s"
              f"  speedup {record['speedup_vs_serial']:.2f}x  forked "
              f"{record['forked']} adopted {record['adopted']} fallbacks "
              f"{record['fallbacks']}")
        if args.record:
            with open(args.record, "a") as ledger:
                ledger.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
