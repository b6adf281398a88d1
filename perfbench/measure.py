"""Measuring: timed rounds, set-up and memory children, the traced pass.

Noise discipline (README, "Noise"): one workload per process, pinned to
one CPU; every timed iteration is bracketed by two runs of the yardstick
and reported as ``raw * REFERENCE_S / adjacent yardstick``; the small
and the large size are timed back to back in the same round.
End-to-end numbers come only from untraced iterations.
"""

import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from perfbench import tracing, yardstick
from perfbench._env import ROOT
from perfbench.workloads import WORKLOADS

#: Fresh interpreters started per workload to time set-up.
SETUP_CHILDREN = 9
#: Timed rounds (and traced iterations) a run makes at the least.
MIN_ROUNDS = 3
#: The yardstick's third quartile over its first, above which the box
#: was visibly loaded and the run says ``comparable: false``.
MAX_YARDSTICK_SPREAD = 2.0

OUT_DIR = ROOT / "perfbench" / "out"
SIZES = ("small", "large")


def summary(values, unit):
    """Median, quartiles and count of ``values``."""
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "unit": unit,
            "q1": q1, "q3": q3, "n": len(values)}


def unit_of(metric):
    """Unit of a per-layer metric, from its name."""
    if "_us_per_" in metric:
        return "us"
    for suffix, unit in (("_ratio", "ratio"), ("coverage", "ratio"),
                         ("_cycles", "cycles"), ("_bytes", "bytes"),
                         ("_per_gcycle", "1/Gcycle"), ("_s", "s")):
        if metric.endswith(suffix):
            return unit
    return "count"


class Tally:
    """Everything one workload accumulates over a run."""

    def __init__(self, workload, seed, quick):
        self.workload = workload
        self.cases = {size: workload.case(size, seed, quick)
                      for size in SIZES}
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.ops = {}
        self.raw = {size: [] for size in SIZES}
        self.cpu = {size: [] for size in SIZES}
        self.norm = {size: [] for size in SIZES}
        self.slopes = []
        self.yardsticks = []

    def iterate(self, size, rec=None):
        outcome, wall, cpu = self.workload.iterate(self.cases[size], rec)
        self.attempted += outcome.ops
        self.failed += outcome.failed
        if outcome.failed:
            if outcome.reason not in self.reasons:
                self.reasons.append(outcome.reason)
        else:
            self.ops[size] = outcome.ops
        return outcome, wall, cpu

    def measure(self, size, before):
        """One bracketed, timed iteration; returns the closing yardstick
        (the next iteration's opening one)."""
        outcome, wall, cpu = self.iterate(size)
        after = run_yardstick()
        self.yardsticks.append(after)
        if not outcome.failed:
            self.raw[size].append(wall)
            self.cpu[size].append(cpu)
            self.norm[size].append(
                wall * yardstick.REFERENCE_S / ((before + after) / 2))
        return outcome, after

    def round(self, before):
        """Small then large, back to back; one slope sample."""
        small, before = self.measure("small", before)
        large, before = self.measure("large", before)
        if not (small.failed or large.failed):
            self.slopes.append(
                math.log(self.norm["large"][-1] / self.norm["small"][-1])
                / math.log(large.ops / small.ops))
        return before

    def host_block(self):
        """The unnormalised figures behind ``host_us_per_op``."""
        ops = self.ops["large"]
        return {
            "raw_us_per_op": statistics.median(self.raw["large"]) / ops * 1e6,
            "cpu_us_per_op": statistics.median(self.cpu["large"]) / ops * 1e6,
            "yardstick_s": statistics.median(self.yardsticks),
        }

    def sim_block(self):
        return {size: case.sim for size, case in self.cases.items()}


def run_yardstick():
    gc.collect()    # the last iteration's garbage is not the yardstick's
    return yardstick.run()


def run_py(name, seed, quick, *args, ok=(0,)):
    """Run the benchmark's own command on ``name`` in a fresh
    interpreter; returns its standard output."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", name, "--seed", str(seed), *args]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode not in ok:
        raise RuntimeError(f"{' '.join(cmd[2:])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return proc.stdout


def run_child(kind, name, seed, quick):
    """Start a fresh interpreter on ``name``; ``kind`` is ``setup`` (get
    ready and stop) or ``rss`` (then run one large iteration).  Returns
    the child's report with ``setup_s`` added: spawn to ready."""
    start = time.monotonic()
    stdout = run_py(name, seed, quick, "--child", kind)
    info = json.loads(stdout.splitlines()[-1])
    info["setup_s"] = info["ready"] - start
    return info


def child_main(kind, name, seed, quick):
    """Body of a child process (see :func:`run_child`)."""
    workload = WORKLOADS[name]
    case = workload.case("large", seed, quick)
    info = {"ready": time.monotonic()}
    if kind == "rss":
        outcome, _, _ = workload.iterate(case)
        peak_kb = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF,
                                  resource.RUSAGE_CHILDREN))
        info.update(peak_rss_mb=peak_kb / 1024, ops=outcome.ops,
                    failed=outcome.failed, reason=outcome.reason)
    print(json.dumps(info))


def end_to_end(tally, seed, seconds, quick):
    """The untraced pass of one workload: returns its result block."""
    name = tally.workload.name
    before = run_yardstick()
    raw_setups = []
    setups = []
    for _ in range(2 if quick else SETUP_CHILDREN):
        raw_setups.append(run_child("setup", name, seed, quick)["setup_s"])
        after = run_yardstick()
        setups.append(raw_setups[-1] * yardstick.REFERENCE_S
                      / ((before + after) / 2))
        before = after
    rss = run_child("rss", name, seed, quick)
    tally.attempted += rss["ops"]
    tally.failed += rss["failed"]
    if rss["failed"]:
        tally.reasons.append(f"rss child: {rss['reason']}")

    tally.iterate("small")               # warm-up: imports, lazy tables
    before = run_yardstick()
    rounds = 0
    deadline = time.perf_counter() + seconds
    min_rounds = 2 if quick else MIN_ROUNDS
    while rounds < min_rounds or (not quick
                                  and time.perf_counter() < deadline):
        before = tally.round(before)
        rounds += 1
    if not tally.slopes:
        raise RuntimeError(f"{name}: no round succeeded: {tally.reasons}")
    ops = tally.ops["large"]
    return {
        "metrics": {
            "host_us_per_op": summary(
                [t / ops * 1e6 for t in tally.norm["large"]], "us"),
            "scale_slope": summary(tally.slopes, "ratio"),
            "peak_rss_mb": summary([rss["peak_rss_mb"]], "MB"),
            "setup_s": summary(setups, "s"),
        },
        "samples": {"raw_s": tally.raw, "normalised_s": tally.norm,
                    "yardstick_s": tally.yardsticks,
                    "raw_setup_s": raw_setups},
    }


def traced(tally, seconds):
    """The traced pass of one workload: untraced and traced large
    iterations in alternation.  Returns its result block."""
    name = tally.workload.name
    tally.iterate("small")               # warm-up
    before = run_yardstick()
    per_iteration = []
    overheads = []
    failures = 0
    deadline = time.perf_counter() + seconds
    while (len(per_iteration) < MIN_ROUNDS
           or time.perf_counter() < deadline):
        plain, before = tally.measure("large", before)
        rec = tracing.Recorder()
        with tracing.tracing(rec) as missing:
            outcome, wall, _ = tally.iterate("large", rec)
        if plain.failed or outcome.failed:
            failures += 1
            if failures > MIN_ROUNDS:
                raise RuntimeError(f"{name}: the traced pass keeps "
                                   f"failing: {tally.reasons}")
            continue
        per_iteration.append(tracing.layer_metrics(
            rec.spans, rec.cow_breaks, outcome, missing))
        overheads.append(wall / tally.raw["large"][-1])
        last = rec
    layers = {}
    for metric in per_iteration[0]:
        values = [m[metric] for m in per_iteration]
        layers[metric] = None if None in values \
            else statistics.median(values)
    for key, value in tally.host_block().items():
        layers[f"host.{key}"] = value
    layers["trace.overhead_ratio"] = statistics.median(overheads)
    return {
        "layers": {k: {"value": v, "unit": unit_of(k)}
                   for k, v in sorted(layers.items())},
        "hooks_missing": missing,
        "trace_file": write_trace(name, tally, last),
    }


def write_trace(name, tally, rec):
    """Write the last traced iteration's spans; returns the path
    relative to the checkout."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace_{name}.json"
    origin = rec.spans[0][tracing.START]
    spans = [[s[0], s[1], s[2] - origin, s[3] - origin, *s[4:]]
             for s in rec.spans]
    with open(path, "w") as out:
        json.dump({"workload": name, "seed": tally.cases["large"].seed,
                   "fields": tracing.FIELDS, "spans": spans}, out)
    return str(path.relative_to(ROOT))


def measure_workload(name, seed, seconds, trace, quick):
    """Measure one workload in this process; returns its report block."""
    workload = WORKLOADS[name]
    reason = workload.unavailable and workload.unavailable()
    if reason:
        return {"status": "skipped", "reason": reason}
    tally = Tally(workload, seed, quick)
    result = traced(tally, seconds) if trace \
        else end_to_end(tally, seed, seconds, quick)
    spread = summary(tally.yardsticks, "s")
    return {
        "status": "ok", "op": workload.op,
        "attempted": tally.attempted, "failed": tally.failed,
        "reasons": tally.reasons, "sim": tally.sim_block(),
        **result,
        "host": tally.host_block(),
        "yardstick": spread,
        "comparable": spread["q3"] <= MAX_YARDSTICK_SPREAD * spread["q1"],
    }


def measure_in_child(name, seed, seconds, trace, quick):
    """Measure one workload in a process of its own (the same command
    the benchmark contract runs); returns its report block."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"report_{name}.json"
    run_py(name, seed, quick, "--seconds", str(seconds),
           "--trace", str(int(trace)), "--out", str(path),
           ok=(0, 3))                    # 3: skipped on this host
    with open(path) as source:
        return json.load(source)["workloads"][name]


def run_suite(names, seed, seconds, trace=False, quick=False,
              cpu=None, allowed=()):
    """Measure the workloads ``names``; returns the report dict.

    Several workloads are measured one after the other, each in a fresh
    process: sharing one interpreter let them disturb each other
    (README, "Noise").
    """
    measure = measure_workload if len(names) == 1 else measure_in_child
    blocks = {name: measure(name, seed, seconds, trace, quick)
              for name in names}
    host = {
        "nproc": os.cpu_count(),
        "allowed_cpus": sorted(allowed),
        "pinned_cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "comparable": all(block.get("comparable", True)
                          for block in blocks.values()),
    }
    return {"schema": 1, "seed": seed, "seconds": seconds, "quick": quick,
            "trace": trace, "host": host, "workloads": blocks}
