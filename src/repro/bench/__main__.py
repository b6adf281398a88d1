"""Regenerate the paper's evaluation from the command line.

    python -m repro.bench                 # everything
    python -m repro.bench fig7 fig11      # selected artifacts
    python -m repro.bench --list
    python -m repro.bench md5 --backend=real   # real host processes

Prints each figure/table as an aligned text series (the same generators
the ``benchmarks/`` suite asserts against).
"""

import argparse
import sys
import time

from repro.bench import figures
from repro.bench.codesize import table3


def _fig4():
    result = figures.figure4()
    lines = ["Figure 4: parallel make on 2 CPUs (virtual cycles)"]
    for scenario, makespan in result.items():
        lines.append(f"  {scenario:20s} {makespan:>12,}")
    return "\n".join(lines)


def _shard_footer(machine):
    """What the machine's shard coordinator (either kind; none by
    default) did: how many worker processes ran how many sibling
    subtrees, and why rendezvous stayed serial if they did."""
    shard = machine.shard
    if shard is None:
        return []
    label = ("real processes" if machine.spec.backend == "real"
             else "shard workers")
    stats = shard.stats()
    lines = [f"  {label:<22}{stats['processes']}   subtrees "
             f"forked={stats['forked']} adopted={stats['adopted']} "
             f"fallbacks={stats['fallbacks']}"]
    if stats["refused"]:
        lines.append(f"  {'refused:':<22}{stats['refused']}")
    return lines


def _md5(backend="sim"):
    """The md5-circuit workload on either backend: identical computed
    value and memory image, measured wall-clock next to simulated
    cycles (the real backend's own timing column)."""
    from repro.bench.cluster_workloads import md5_circuit_main
    from repro.cluster.backend import image_digest, run_backend
    from repro.cluster.spec import ClusterSpec

    result = run_backend(md5_circuit_main(3), nnodes=4,
                         spec=ClusterSpec(backend=backend))
    lines = [
        f"md5-circuit: 4 nodes, length 3, backend={backend}",
        f"  found plaintext       {result.value}",
        f"  image digest          {image_digest(result.image)[:16]}",
        f"  simulated makespan    {result.makespan:>14,} cycles",
        f"  measured wall-clock   {result.wall_seconds:>14.3f} s",
    ]
    lines += _shard_footer(result.machine)
    if backend == "real":
        verdict = "ok" if result.wire_ok else "VIOLATED"
        lines.append(
            f"  real wire             {len(result.wire)} links, "
            f"conservation {verdict}")
    return "\n".join(lines) + "\n\n" + result.network.summary()


def _serving(backend="sim"):
    if backend == "real":
        return _serving_real()
    result = figures.figure_serving()
    cdf = figures.format_series(
        "Serving: latency CDF (cycles at percentile, 4 nodes)",
        result["cdf"], value_fmt="{:,}")
    metrics = figures.format_series(
        "Serving: summary metrics (cycles; goodput = req / Gcycle)",
        result["metrics"], value_fmt="{:,}")
    return cdf + "\n\n" + metrics


def _serving_real():
    """A compact serving trace on the real backend: same latency table
    as the simulation, plus the measured wall-clock."""
    from repro.cluster.serving import serve_trace
    from repro.cluster.spec import ClusterSpec

    start = time.perf_counter()
    result = serve_trace(4, spec=ClusterSpec(backend="real"), requests=48)
    wall = time.perf_counter() - start
    return "\n".join([
        "Serving: 48-request open-loop trace, 4 nodes, backend=real",
        f"  p50 / p95 / p99       {result.p50:,} / {result.p95:,} / "
        f"{result.p99:,} cycles",
        f"  goodput               {result.goodput} req/Gcycle",
        f"  simulated span        {result.span:>14,} cycles",
        f"  measured wall-clock   {wall:>14.3f} s",
        f"  response checksum     {result.checksum}",
    ] + _shard_footer(result.machine))


#: Artifacts that accept a --backend argument.
BACKEND_AWARE = {"md5", "serving"}

ARTIFACTS = {
    "fig4": _fig4,
    "md5": _md5,
    "serving": _serving,
    "fig7": lambda: figures.format_series(
        "Figure 7: Determinator relative to Linux (>1 = faster)",
        figures.figure7()),
    "fig8": lambda: figures.format_series(
        "Figure 8: speedup vs own single-CPU performance",
        figures.figure8()),
    "fig9": lambda: figures.format_series(
        "Figure 9: matmult size sweep (ratio vs Linux)",
        {"matmult": figures.figure9()}),
    "fig10": lambda: figures.format_series(
        "Figure 10: qsort size sweep (ratio vs Linux)",
        {"qsort": figures.figure10()}),
    "fig11": lambda: figures.format_series(
        "Figure 11: cluster speedup vs 1-node local execution",
        figures.figure11()),
    "fig12": lambda: figures.format_series(
        "Figure 12: dist-Linux time / Determinator time",
        figures.figure12(), value_fmt="{:7.3f}"),
    "table3": lambda: "Table 3: implementation code size\n" + table3()[0],
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the OSDI'10 Determinator evaluation.",
    )
    parser.add_argument("artifacts", nargs="*",
                        help=f"subset of: {', '.join(ARTIFACTS)}")
    parser.add_argument("--list", action="store_true",
                        help="list available artifacts and exit")
    parser.add_argument("--backend", choices=("sim", "real"), default="sim",
                        help="execution backend for the backend-aware "
                             f"artifacts ({', '.join(sorted(BACKEND_AWARE))})"
                             ": 'sim' (modeled wire) or 'real' (host "
                             "processes + localhost sockets)")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(ARTIFACTS))
        return 0
    selected = args.artifacts or list(ARTIFACTS)
    unknown = [name for name in selected if name not in ARTIFACTS]
    if unknown:
        parser.error(f"unknown artifacts: {', '.join(unknown)}")
    if args.backend != "sim":
        unaware = [name for name in selected if name not in BACKEND_AWARE]
        if unaware:
            parser.error(
                f"--backend={args.backend} applies only to "
                f"{sorted(BACKEND_AWARE)}; got {', '.join(unaware)}")
    for name in selected:
        start = time.time()
        backend = (args.backend,) if name in BACKEND_AWARE else ()
        print(ARTIFACTS[name](*backend))
        print(f"[{name}: {time.time() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
