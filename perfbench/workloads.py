"""The five workloads: what is run, how many operations it is, and how its
outputs are checked.

Each workload is one call through the program's facade — construct,
run, ``schedule()`` and ``Machine.close`` all happen inside it — at a
``large`` and a ``small`` size, so that the scaling *shape* of the host
cost is measured and not just one point.  Facade functions are looked up
on their modules at call time, never bound at import, so the traced pass
can wrap them and the untraced pass provably calls the originals.

The ``why`` of each workload is the one-line reason ``BENCHMARK.json``
records; ``README.md`` has the long form.
"""

import contextlib
import gc
import os
import time
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.bench import cluster_workloads, harness
from repro.bench.workloads import lu as lu_workload
from repro.bench.workloads import md5 as md5_workload
from repro.bench.workloads import serving as serving_workload
from repro.cluster import realnet

#: Simulated open-loop arrival gap (cycles) of both serving workloads:
#: four times the library default, which keeps the simulated service
#: *below* saturation (p99 about 2.4 M cycles at every trace length; the
#: default gap builds a backlog that grows with the trace).
MEAN_GAP = 960_000

#: Keys of the simulated-time fingerprint every iteration of a run must
#: reproduce exactly.
SIM_KEYS = ("makespan", "p50", "p99", "messages", "wire_bytes", "pages",
            "migrations", "retx", "segments", "transfers")


@dataclass
class Case:
    """One workload at one size and seed: the inputs of an iteration."""

    size: str
    seed: int
    #: Keyword inputs built by the workload's ``build`` (the set-up work).
    args: dict
    #: Host-side expected outputs, computed on first use (outside every
    #: timed region) and open to tests that plant a wrong value.
    expected: object = None
    #: The first iteration's fingerprint; later ones must equal it.
    sim: dict = None


@dataclass
class Outcome:
    """What one iteration did, as judged against the oracle."""

    ops: int
    failed: int
    sim: dict
    #: Exact program counters the per-layer report also needs.
    counters: dict = field(default_factory=dict)
    #: Why ops failed (empty when none did).
    reason: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    #: What one operation is (the denominator of ``host_us_per_op``).
    op: str
    why: str
    #: size name -> size parameter, for the full and the ``--quick`` run.
    sizes: dict
    quick_sizes: dict
    build: object
    run: object
    judge: object
    #: Returns a reason string when the workload cannot run on this host.
    unavailable: object = None

    def case(self, size, seed, quick=False):
        sizes = self.quick_sizes if quick else self.sizes
        return Case(size, seed, self.build(sizes[size], seed))

    def iterate(self, case, rec=None):
        """Run one iteration, time it, then judge it (untimed).

        Returns ``(outcome, wall_s, cpu_s)``.  An exception fails every
        op of the iteration; the run goes on.  ``rec`` is the traced
        pass's recorder: the call becomes its ``iteration`` root span.
        """
        root = rec.span("iteration") if rec else contextlib.nullcontext()
        gc.collect()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            with root:
                raw = self.run(case.args)
            failure = None
        except Exception as exc:   # boundary: a crash is a failed iteration
            failure = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if failure is None:
            try:
                outcome = self.judge(case, raw)
            except Exception as exc:   # a result the oracle cannot even read
                failure = f"oracle: {type(exc).__name__}: {exc}"
        if failure is not None:
            ops = case.args.get("ops", 1)
            return Outcome(ops, ops, {}, reason=failure), wall, cpu
        if case.sim is None:
            case.sim = outcome.sim
        elif outcome.sim != case.sim and not outcome.failed:
            outcome.failed = outcome.ops
            outcome.reason = "simulated-time fingerprint differs between iterations"
        return outcome, wall, cpu


def _machine_facts(machine, makespan, p50=0, p99=0, goodput=0):
    """The simulated fingerprint and the exact counters of a finished
    machine, read from public attributes only."""
    transport = machine.transport
    trace = machine.trace
    sim = dict(zip(SIM_KEYS, (
        int(makespan), int(p50), int(p99), transport.messages,
        transport.bytes_total, machine.pages_fetched, transport.migrations,
        transport.retx_msgs, len(trace.segments), len(trace.transfers))))
    merges = machine.merge_stats_total
    counters = {
        "total_cycles": trace.total_cycles(),
        "goodput": goodput,
        "merge_pages_scanned": sum(m.pages_scanned for m in merges),
        "merge_pages_diffed": sum(m.pages_diffed for m in merges),
        "pages_prefetched": transport.pages_prefetched,
        "prefetch_used": transport.prefetch_used,
    }
    shard = machine.shard
    if shard is not None:
        links = getattr(shard, "wire_links", {}).values()
        counters.update(
            shard_forked=shard.forked, shard_adopted=shard.adopted,
            shard_fallbacks=shard.fallbacks,
            real_frames=sum(link["frames"] for link in links),
            real_wire_bytes=sum(link["bytes"] for link in links))
    return sim, counters


def _reason(checks):
    """Names of the failed checks of ``{name: passed}``."""
    return ", ".join(name for name, ok in checks.items() if not ok)


# -- serve_open / real_serve --------------------------------------------------

def _build_serve(backend):
    def build(requests, seed):
        return {"nnodes": 4, "spec": repro.ClusterSpec(backend=backend),
                "requests": requests, "mean_gap": MEAN_GAP, "seed": seed,
                "ops": requests}
    return build


def _run_serve(args):
    return repro.serve_trace(args["nnodes"], spec=args["spec"],
                             requests=args["requests"],
                             mean_gap=args["mean_gap"], seed=args["seed"])


def _judge_serve(case, result):
    n = case.args["requests"]
    if case.expected is None:
        case.expected = [serving_workload.request_value(rid)
                         for rid in range(n)]
    wrong = sum(1 for got, want in zip(result.values, case.expected)
                if got != want)
    machine = result.machine
    checks = {
        "count": len(result.values) == n,
        # The guest's own fold must be the fold of the values it handed
        # back; each value is then held against the oracle on its own.
        "checksum": result.checksum
        == serving_workload.fold_checksum(result.values),
        "conservation": machine.transport.conservation_ok(),
    }
    shard = machine.shard
    if shard is not None:
        checks["wire"] = shard.wire_conservation_ok()
        checks["no_fallbacks"] = shard.fallbacks == 0
        checks["all_adopted"] = shard.forked == shard.adopted == n
    sim, counters = _machine_facts(machine, result.span, result.p50,
                                   result.p99, result.goodput)
    reason = _reason(checks)
    failed = n if reason else wrong
    return Outcome(n, failed, sim, counters,
                   reason or (f"{wrong} wrong request values" if wrong else ""))


def _real_unavailable():
    if not hasattr(os, "fork"):
        return "os.fork is missing"
    if not realnet.localhost_available():
        return "localhost TCP sockets cannot be bound"
    return None


# -- circuit_fat --------------------------------------------------------------

_CIRCUIT_LENGTH = 3


def _build_circuit(nnodes, seed):
    # md5-circuit has no random input: the seed is accepted and unused.
    return {"entry": cluster_workloads.md5_circuit_main(length=_CIRCUIT_LENGTH),
            "nnodes": nnodes, "spec": repro.ClusterSpec(topology="fat_tree"),
            "ops": nnodes}


def _run_cluster(args):
    return cluster_workloads.run_cluster(args["entry"], args["nnodes"],
                                         spec=args["spec"])


def _judge_circuit(case, result):
    makespan, machine, value = result
    if case.expected is None:
        space = len(md5_workload.ALPHABET) ** _CIRCUIT_LENGTH
        case.expected = md5_workload.candidate(space * 7 // 10,
                                               _CIRCUIT_LENGTH)
    reason = _reason({"candidate": value == case.expected,
                      "conservation": machine.transport.conservation_ok()})
    sim, counters = _machine_facts(machine, makespan)
    ops = case.args["ops"]
    return Outcome(ops, ops if reason else 0, sim, counters, reason)


# -- barrier_lu ---------------------------------------------------------------

_LU_WORKERS = 8
_LU_BLOCK = 16


def _build_lu(n, seed):
    pages = n * n * 8 // 4096
    rounds = 2 * -(-n // _LU_BLOCK)
    return {"params": lu_workload.default_params(
                _LU_WORKERS, n=n, block=_LU_BLOCK, contiguous=False, seed=seed),
            "ops": pages * rounds}


def _run_lu(args):
    result = harness.run_determinator(lu_workload, args["params"])
    return result, result.makespan(ncpus=_LU_WORKERS)


def _judge_lu(case, result):
    run, makespan = result
    verified, _checksum = run.value
    machine = run.machine
    reason = _reason({"verified": bool(verified),
                      "conservation": machine.transport.conservation_ok()})
    sim, counters = _machine_facts(machine, makespan)
    ops = case.args["ops"]
    return Outcome(ops, ops if reason else 0, sim, counters, reason)


# -- stream_mm ----------------------------------------------------------------

def _build_stream(n, seed):
    return {"entry": cluster_workloads.matmult_tree_main(n=n, seed=seed),
            "nnodes": 8, "n": n, "seed": seed,
            "spec": repro.ClusterSpec(topology="two_tier", ship_mode="demand",
                                      prefetch_depth=32, compression=True,
                                      loss=0.01)}


def _judge_stream(case, result):
    makespan, machine, value = result
    if case.expected is None:
        n = case.args["n"]
        rng = np.random.default_rng(case.args["seed"])
        a = rng.integers(0, 100, size=(n, n), dtype=np.int32).astype(np.int64)
        b = rng.integers(0, 100, size=(n, n), dtype=np.int32).astype(np.int64)
        case.expected = int((a @ b).sum()) & 0xFFFFFFFF
    reason = _reason({"sum": value == case.expected,
                      "conservation": machine.transport.conservation_ok()})
    sim, counters = _machine_facts(machine, makespan)
    ops = machine.pages_fetched    # one op = one page over the wire
    return Outcome(ops, ops if reason else 0, sim, counters, reason)


WORKLOADS = {w.name: w for w in (
    Workload(
        "serve_open", "request",
        "3001 short-lived spaces, 2 hand-offs each: guest-thread start, baton, "
        "Machine.close, make_arrivals and schedule() dominate",
        {"large": 3000, "small": 375}, {"large": 96, "small": 12},
        _build_serve("sim"), _run_serve, _judge_serve),
    Workload(
        "circuit_fat", "node",
        "one Put+Get per node over a big routed fabric: Machine.place, "
        "Topology.racks() and eager delta migration dominate",
        {"large": 2048, "small": 256}, {"large": 64, "small": 8},
        _build_circuit, _run_cluster, _judge_circuit),
    Workload(
        "barrier_lu", "page-round",
        "the paper's fine-grained worst case on one node: 9 long-lived spaces, "
        "a Snap/Merge of the whole matrix per barrier round; mem dominates, "
        "cluster is idle",
        {"large": 384, "small": 192}, {"large": 64, "small": 32},
        _build_lu, _run_lu, _judge_lu),
    Workload(
        "stream_mm", "page",
        "demand paging with prefetch, zero/RLE codec and 1% loss between 16 "
        "spaces: the transport's other half; kernel is idle",
        {"large": 512, "small": 256}, {"large": 64, "small": 32},
        _build_stream, _run_cluster, _judge_stream),
    Workload(
        "real_serve", "request",
        "the serve_open trace on backend=real: fork, framing, localhost "
        "sockets and delta adoption; the only guard of the shard code",
        {"large": 100, "small": 12}, {"large": 16, "small": 2},
        _build_serve("real"), _run_serve, _judge_serve, _real_unavailable),
)}
