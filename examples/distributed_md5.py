#!/usr/bin/env python
"""Distributed password cracking across a cluster (paper §3.3, §6.3).

The md5-tree benchmark: a brute-force MD5 preimage search distributed
over uniprocessor cluster nodes by *space migration* — the program is
ordinary shared-memory Determinator code; "distribution" is only node
numbers in the high bits of child references.  The result is identical
on any cluster size, and speedup is near-linear because workers share
almost no data.

Run:  python examples/distributed_md5.py [--smoke]

``--smoke`` shrinks the search (3-character keys, up to 4 nodes) so the
CI docs job can replay the quickstart in a couple of seconds.
"""

import argparse
import hashlib

from repro import ClusterSpec
from repro.bench.cluster_workloads import md5_tree_main, run_cluster
from repro.bench.workloads.md5 import ALPHABET, candidate
from repro.cluster import NetworkStats


def main(smoke=False):
    length = 3 if smoke else 4
    sizes = (1, 2, 4) if smoke else (1, 2, 4, 8, 16)
    big = sizes[-1]
    rack = max(2, big // 4)
    fabric = f"two_tier:{rack}"

    target = candidate((len(ALPHABET) ** length) * 7 // 10, length)
    digest = hashlib.md5(target.encode()).hexdigest()
    print(f"searching {len(ALPHABET) ** length:,} candidates for "
          f"md5(...)={digest[:16]}...\n")
    print(f"{'nodes':>6} {'virtual time':>16} {'speedup':>9}  found")
    base = None
    machine = None
    for nodes in sizes:
        makespan, machine, found = run_cluster(md5_tree_main(length), nodes)
        if base is None:
            base = makespan
        print(f"{nodes:>6} {makespan:>16,} {base / makespan:>8.2f}x  {found!r}")
        assert found == target
    print("\nsame answer on every cluster size — distribution is")
    print("semantically transparent (paper §3.3).")

    stats = NetworkStats(machine)
    print(f"\nnetwork at {big} nodes (flat fabric): {stats.summary()}\n")
    print("per-class / per-link traffic (delta migrations + batched "
          "demand fetches):")
    print(stats.link_table())

    # The same program, re-run on a routed two-tier fabric (racks
    # behind an oversubscribed core switch) with locality-aware
    # placement: the per-class table splits rack-local from cross-rack
    # traffic — the view that explains oversubscription bottlenecks.
    # Every scenario below derives from this one spec: cross-cutting
    # knobs live in a single validated ClusterSpec, not keyword soup.
    spec = ClusterSpec(topology=fabric, placement="locality")
    _, machine, found = run_cluster(md5_tree_main(length), big, spec=spec)
    assert found == target
    stats = NetworkStats(machine)
    print(f"\nsame run, two-tier fabric (racks of {rack}, locality "
          f"placement):")
    print(stats.class_table())

    # And once more under summary-only demand paging with pipelined
    # prefetch and wire compression: pages fault over as they are
    # touched, predicted-next frames stream in behind compute, and
    # mostly-zero payloads (like the digest page) barely touch the
    # wire.  Same answer, of course — both features are cost-only.
    spec = spec.with_(ship_mode="demand", prefetch_depth=16,
                      compression=True)
    makespan, machine, found = run_cluster(md5_tree_main(length), big,
                                           spec=spec)
    assert found == target
    stats = NetworkStats(machine)
    print("\nsame run, demand paging + prefetch(16) + compression:")
    print(stats.summary())
    print("\nper-link compressed-vs-raw payload ledger:")
    print(stats.compression_table())

    # Finally, the same two-tier run on a *lossy* fabric: a
    # deterministic schedule drops 2% of wire copies, the link layer
    # retransmits them (bounded retries, timeout waits charged as
    # "retx" stall edges), and the retransmit ledger below replays
    # bit-identically on every rerun.  The answer still cannot change —
    # faults are cost-only under system-enforced determinism.
    spec = spec.with_(loss={"drop": 0.02, "seed": 2010})
    lossy_makespan, machine, found = run_cluster(md5_tree_main(length), big,
                                                 spec=spec)
    assert found == target
    stats = NetworkStats(machine)
    print(f"\nsame run on a lossy fabric (2% deterministic drop): "
          f"makespan {makespan:,} -> {lossy_makespan:,}")
    print(stats.summary())
    print("\nper-link retransmit ledger (bit-identical on every rerun):")
    print(stats.retx_table())

    # The transport only accumulates; a *telemetry window* is what its
    # per-node ledgers gained since the last one was taken — the view a
    # control plane (or an operator) reads.  This machine ran without a
    # controller, so the first window is the whole run: per-node demand
    # pulls and the prefetch issue/hit/waste splits.
    window = stats.window()
    print(f"\ntelemetry window of the whole static run (the input a "
          f"controller reads every quantum):")
    print(window.table())

    # Now hand the knobs to the control plane: instead of a static
    # prefetch depth and a single global retransmit timer, a
    # deterministic per-node controller consumes one such window per
    # quantum and re-tunes queue depths, per-route timeouts, and
    # placement at quantum boundaries.  Decisions are a pure function
    # of simulated state, so the decision log replays bit-identically
    # — and the answer still cannot change.
    spec = spec.with_(prefetch_depth=0, control="adaptive")
    adaptive_makespan, machine, found = run_cluster(md5_tree_main(length),
                                                    big, spec=spec)
    assert found == target
    print(f"\nsame lossy run under adaptive control: "
          f"makespan {lossy_makespan:,} -> {adaptive_makespan:,}")
    print("\ncontroller decision log (replay-exact):")
    print(machine.control.decision_log(last=12))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny search for CI (3-char keys, 4 nodes)")
    main(**vars(parser.parse_args()))
