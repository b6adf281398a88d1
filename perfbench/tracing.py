"""The traced pass: spans around the program's calls, recorded from here.

Nothing in ``repro`` knows it is being traced.  :func:`tracing` resolves
each target of :data:`HOOKS` by dotted name, replaces it with a wrapper
that records a span, and puts the original object back on exit.  A
target that a later change moved or deleted is skipped and reported in
``trace.hooks_missing``; the metrics that depended on it read ``null``.
Where the program has no public seam for a cost the issue names (the
baton, the real backend's fork) the hook sits on the underscore method
that is that seam, under the same guard.

A span is ``[id, name, start, end, parent, uid, thread, inner]``:
``parent`` is the enclosing span on the same thread or, for the
outermost spans of a guest thread, the baton span that woke the thread;
``uid`` is the space the call acted for; ``inner`` is time inside the
span that belongs to somebody else — for a baton span, the time the
resumed guest held the baton, so that what is left is the hand-off
itself.  Self time is ``end - start - inner`` minus the same-thread
children.  Guest threads pass one baton, so self times of all threads
add up to the wall time of the iteration; ``trace.coverage`` is that sum
over the wall.
"""

import contextlib
import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

ID, NAME, START, END, PARENT, UID, THREAD, INNER = range(8)
FIELDS = ("id", "name", "start", "end", "parent", "uid", "thread", "inner")

#: span name -> the targets it is recorded around (``module:attribute``).
#: Names bound by ``from x import f`` are wrapped where they are bound.
HOOKS = {
    "kernel.construct": ("repro.kernel.machine:Machine.__init__",),
    "kernel.run": ("repro.kernel.machine:Machine.run",),
    "kernel.close": ("repro.kernel.machine:Machine.close",),
    "kernel.put": ("repro.kernel.kernel:Kernel.sys_put",),
    "kernel.get": ("repro.kernel.kernel:Kernel.sys_get",),
    "kernel.ret": ("repro.kernel.kernel:Kernel.sys_ret",),
    "kernel.migrate": ("repro.kernel.kernel:Kernel.migrate",),
    "kernel.touch": ("repro.kernel.kernel:Kernel.touch",),
    "kernel.thread_start": ("repro.kernel.engine:GuestContext.__init__",),
    "kernel.baton": ("repro.kernel.engine:GuestContext.resume_and_wait",),
    "kernel.kill": ("repro.kernel.engine:GuestContext.kill",),
    "kernel.park": ("repro.kernel.engine:GuestContext.park",),
    "kernel.die": ("repro.kernel.engine:GuestContext._die",),
    "kernel.shard": ("repro.kernel.shard:ShardCoordinator.execute",),
    "mem.copy": ("repro.mem.addrspace:AddressSpace.copy_range_from",),
    "mem.snap": ("repro.mem.snapshot:Snapshot.capture",
                 "repro.mem.snapshot:Snapshot.recapture"),
    "mem.merge": ("repro.kernel.kernel:merge_range",),
    "mem.access": ("repro.mem.addrspace:AddressSpace.read",
                   "repro.mem.addrspace:AddressSpace.write",
                   "repro.mem.addrspace:AddressSpace.as_array"),
    "mem.drop": ("repro.mem.addrspace:AddressSpace.drop_all",),
    "runtime.fork": ("repro.runtime.threads:thread_fork",),
    "runtime.join": ("repro.runtime.threads:thread_join",),
    "runtime.arrive": ("repro.runtime.threads:barrier_arrive",
                       "repro.bench.api:barrier_arrive"),
    "runtime.rounds": ("repro.runtime.threads:ThreadGroup.run_barrier_rounds",),
    "timing.schedule": ("repro.kernel.machine:schedule",
                        "repro.cluster.serving:schedule"),
    "cluster.place": ("repro.kernel.machine:Machine.place",),
    "cluster.migrate": ("repro.cluster.transport:Transport.migrate",),
    "cluster.fetch": ("repro.cluster.transport:Transport.fetch",
                      "repro.cluster.transport:Transport.prefetch",
                      "repro.cluster.transport:Transport.redeem_exchanges"),
    "cluster.codec": ("repro.cluster.compress:wire_size",
                      "repro.cluster.compress:encode_page",
                      "repro.cluster.compress:decode_page"),
    "cluster.serve": ("repro:serve_trace",),
    "cluster.real_fork": ("repro.cluster.backend:RealShardCoordinator._spawn",),
    "cluster.real_send": ("repro.cluster.realnet:Channel.send",),
    "cluster.real_recv": ("repro.cluster.realnet:Channel.recv",),
    "cluster.real_codec": ("repro.cluster.realnet:encode_payload",
                           "repro.cluster.realnet:decode_payload"),
    "bench.arrivals": ("repro.bench.workloads.serving:make_arrivals",),
    "bench.guest": ("repro.kernel.machine:Machine.resolve_entry",),
}


class Recorder:
    """Spans of one traced iteration, kept in memory."""

    def __init__(self):
        self.spans = []
        #: Copy-on-write breaks, summed as each address space is dropped.
        self.cow_breaks = 0
        self._ids = itertools.count(1)
        self._threads = itertools.count()
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.thread = next(self._threads)
            #: Baton span that last woke this thread.
            local.cause = 0
            #: When this thread last took the baton (guest threads only).
            local.run_start = None
        return local

    def open(self, name, uid=None):
        local = self._state()
        parent = local.stack[-1][ID] if local.stack else local.cause
        span = [next(self._ids), name, time.perf_counter(), None, parent,
                uid, local.thread, 0.0]
        self.spans.append(span)
        local.stack.append(span)
        return span

    def close(self, span):
        span[END] = time.perf_counter()
        self._local.stack.pop()

    @contextlib.contextmanager
    def span(self, name, uid=None):
        span = self.open(name, uid)
        try:
            yield span
        finally:
            self.close(span)


def _uid_of(args):
    """The space a call acts for: the uid of its first space-like
    argument (a Space or Guest, or a GuestContext through ``.space``)."""
    for arg in args[:2]:
        uid = getattr(arg, "uid", None)
        if uid is None:
            uid = getattr(getattr(arg, "space", None), "uid", None)
        if isinstance(uid, str):
            return uid
    return None


def _plain(rec, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name, _uid_of(args))
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(span)
    return wrapper


def _handover(rec, name, fn):
    """Kernel side of the baton (``resume_and_wait``, ``kill``): the span
    lasts until the guest parks again; the time the guest ran is its
    ``inner``, reported by the guest-side wrappers through the context."""
    @functools.wraps(fn)
    def wrapper(ctx, *args, **kwargs):
        span = rec.open(name, _uid_of((ctx,)))
        ctx._perfbench_resumer = span[ID]
        ctx._perfbench_ran = 0.0
        try:
            return fn(ctx, *args, **kwargs)
        finally:
            span[INNER] = ctx._perfbench_ran
            rec.close(span)
    return wrapper


def _yield_baton(rec, name, fn):
    """Guest side of the baton (``park``): tell the resumer how long
    this thread ran, then block.  The blocked time is nobody's self time
    (``inner`` covers the whole span)."""
    @functools.wraps(fn)
    def wrapper(ctx, *args, **kwargs):
        local = rec._state()
        span = rec.open(name, _uid_of((ctx,)))
        if local.run_start is not None:
            ctx._perfbench_ran = span[START] - local.run_start
        try:
            return fn(ctx, *args, **kwargs)
        finally:
            rec.close(span)
            span[INNER] = span[END] - span[START]
            local.run_start = span[END]
            local.cause = getattr(ctx, "_perfbench_resumer", 0)
    return wrapper


def _last_yield(rec, name, fn):
    """A guest thread's exit (``_die``) also gives the baton back.  No
    span: the resumer may read the spans the moment it is notified."""
    @functools.wraps(fn)
    def wrapper(ctx, *args, **kwargs):
        run_start = rec._state().run_start
        if run_start is not None:
            ctx._perfbench_ran = time.perf_counter() - run_start
        return fn(ctx, *args, **kwargs)
    return wrapper


def _guest_entry(rec, name, fn):
    """``Machine.resolve_entry`` returns the guest's entry function: hand
    back one that records the guest's own time."""
    @functools.wraps(fn)
    def wrapper(machine, space):
        return _plain(rec, name, fn(machine, space))
    return wrapper


def _count_cow(rec, name, fn):
    plain = _plain(rec, name, fn)

    @functools.wraps(fn)
    def wrapper(aspace, *args, **kwargs):
        rec.cow_breaks += getattr(getattr(aspace, "counters", None),
                                  "cow_breaks", 0)
        return plain(aspace, *args, **kwargs)
    return wrapper


_WRAPPERS = {
    "kernel.baton": _handover,
    "kernel.kill": _handover,
    "kernel.park": _yield_baton,
    "kernel.die": _last_yield,
    "bench.guest": _guest_entry,
    "mem.drop": _count_cow,
}


def _resolve(target):
    """``(owner, attribute, raw object)`` of ``module:dotted.attr``, or
    None when any step of the path is gone.  The attribute must be the
    owner's own (not inherited), so that putting ``raw`` back restores
    the owner exactly."""
    module, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, leaf = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    raw = vars(owner).get(leaf)
    if raw is None:
        return None
    return owner, leaf, raw


@contextlib.contextmanager
def tracing(rec):
    """Wrap every resolvable target of :data:`HOOKS` for the body; yields
    the sorted list of targets that could not be resolved."""
    installed = []
    missing = []
    try:
        for name, targets in HOOKS.items():
            make = _WRAPPERS.get(name, _plain)
            for target in targets:
                found = _resolve(target)
                if found is None:
                    missing.append(target)
                    continue
                owner, leaf, raw = found
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapper = type(raw)(make(rec, name, raw.__func__))
                else:
                    wrapper = make(rec, name, raw)
                setattr(owner, leaf, wrapper)
                installed.append(found)
        yield sorted(missing)
    finally:
        for owner, leaf, raw in reversed(installed):
            setattr(owner, leaf, raw)


def self_times(spans):
    """Span id -> self seconds: the span's duration, less its ``inner``,
    less the durations of its children on the same thread."""
    by_id = {span[ID]: span for span in spans}
    selfs = {span[ID]: span[END] - span[START] - span[INNER]
             for span in spans}
    for span in spans:
        parent = by_id.get(span[PARENT])
        if parent is not None and parent[THREAD] == span[THREAD]:
            selfs[parent[ID]] -= span[END] - span[START]
    return selfs


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(spans, cow_breaks, outcome, missing):
    """Reduce one traced iteration to the per-layer metrics.

    ``spans`` must hold exactly one ``iteration`` span (the root the
    caller opened around the workload call).  A metric whose every hook
    is missing is ``None``.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    for span in spans:
        name = span[NAME]
        calls[name] += 1
        self_s[name] += selfs[span[ID]]
        total_s[name] += span[END] - span[START]
    wall = total_s["iteration"]
    covered = sum(value for name, value in self_s.items()
                  if name != "iteration")
    sim, c = outcome.sim, outcome.counters

    def sum_self(*names):
        return sum(self_s[name] for name in names)

    handoffs = calls["kernel.baton"]
    m = {
        "kernel.construct_s": total_s["kernel.construct"],
        "kernel.run_s": total_s["kernel.run"],
        "kernel.close_s": total_s["kernel.close"],
        "kernel.spaces_started": calls["kernel.thread_start"],
        "kernel.thread_start_s": self_s["kernel.thread_start"],
        "kernel.baton_handoffs": handoffs,
        "kernel.baton_self_s": self_s["kernel.baton"],
        "kernel.baton_us_per_handoff":
            _ratio(self_s["kernel.baton"], handoffs, 1e6),
        "kernel.close_us_per_space":
            _ratio(total_s["kernel.close"], calls["kernel.thread_start"], 1e6),
        "kernel.kill_self_s": self_s["kernel.kill"],
        "kernel.shard_self_s": self_s["kernel.shard"],
        "kernel.shard_forked": c.get("shard_forked", 0),
        "kernel.shard_adopted": c.get("shard_adopted", 0),
        "kernel.shard_fallbacks": c.get("shard_fallbacks", 0),
        "mem.merge_pages_scanned": c.get("merge_pages_scanned", 0),
        "mem.merge_pages_diffed": c.get("merge_pages_diffed", 0),
        "mem.cow_breaks": cow_breaks,
        "mem.drop_self_s": self_s["mem.drop"],
        "runtime.thread_forks": calls["runtime.fork"],
        "runtime.barrier_rounds":
            calls["runtime.arrive"] // max(1, calls["runtime.fork"]),
        "runtime.threads_self_s": sum_self("runtime.fork", "runtime.join",
                                           "runtime.arrive", "runtime.rounds"),
        "timing.segments": sim.get("segments", 0),
        "timing.transfers": sim.get("transfers", 0),
        "timing.schedule_us_per_segment":
            _ratio(self_s["timing.schedule"], sim.get("segments", 0), 1e6),
        "cluster.place_us_per_call":
            _ratio(self_s["cluster.place"], calls["cluster.place"], 1e6),
        "cluster.codec_pages": calls["cluster.codec"],
        "cluster.codec_self_s": self_s["cluster.codec"],
        "cluster.prefetch_used_ratio":
            _ratio(c.get("prefetch_used", 0), c.get("pages_prefetched", 0)),
        "cluster.serve_self_s": self_s["cluster.serve"],
        "cluster.messages": sim.get("messages", 0),
        "cluster.wire_bytes": sim.get("wire_bytes", 0),
        "cluster.pages_fetched": sim.get("pages", 0),
        "cluster.retx_msgs": sim.get("retx", 0),
        "cluster.migrations": sim.get("migrations", 0),
        "cluster.real_procs": c.get("shard_forked", 0),
        "cluster.real_fork_s": total_s["cluster.real_fork"],
        "cluster.real_frames": c.get("real_frames", 0),
        "cluster.real_wire_bytes": c.get("real_wire_bytes", 0),
        "cluster.real_send_self_s": self_s["cluster.real_send"],
        "cluster.real_recv_wait_s": self_s["cluster.real_recv"],
        "cluster.real_codec_self_s": self_s["cluster.real_codec"],
        "bench.arrivals_self_s": self_s["bench.arrivals"],
        "bench.guest_self_s": self_s["bench.guest"],
        "sim.total_cycles": c.get("total_cycles", 0),
        "sim.makespan_cycles": sim.get("makespan", 0),
        "sim.p50_cycles": sim.get("p50", 0),
        "sim.p99_cycles": sim.get("p99", 0),
        "sim.goodput_per_gcycle": c.get("goodput", 0),
        "trace.spans": len(spans),
        "trace.coverage": _ratio(covered, wall),
        "trace.hooks_missing": len(missing),
    }
    for layer, stems in _CALLS_AND_SELF.items():
        for stem in stems:
            m[f"{layer}.{stem}_calls"] = calls[f"{layer}.{stem}"]
            m[f"{layer}.{stem}_self_s"] = self_s[f"{layer}.{stem}"]
    for metric, names in _NEEDS.items():
        if all(target in missing for name in names for target in HOOKS[name]):
            m[metric] = None
    return m


#: Hooks reported as a ``_calls`` count and a ``_self_s`` time.
_CALLS_AND_SELF = {
    "kernel": ("put", "get", "ret", "migrate", "touch"),
    "mem": ("copy", "snap", "merge", "access"),
    "timing": ("schedule",),
    "cluster": ("place", "migrate", "fetch"),
}

#: metric -> the hooks it is computed from (for the ``null`` rule).
_NEEDS = {
    "kernel.construct_s": ("kernel.construct",),
    "kernel.run_s": ("kernel.run",),
    "kernel.close_s": ("kernel.close",),
    "kernel.close_us_per_space": ("kernel.close",),
    "kernel.spaces_started": ("kernel.thread_start",),
    "kernel.thread_start_s": ("kernel.thread_start",),
    "kernel.baton_handoffs": ("kernel.baton",),
    "kernel.baton_self_s": ("kernel.baton",),
    "kernel.baton_us_per_handoff": ("kernel.baton",),
    "kernel.kill_self_s": ("kernel.kill",),
    "kernel.shard_self_s": ("kernel.shard",),
    "mem.cow_breaks": ("mem.drop",),
    "mem.drop_self_s": ("mem.drop",),
    "runtime.thread_forks": ("runtime.fork",),
    "runtime.barrier_rounds": ("runtime.arrive",),
    "runtime.threads_self_s": ("runtime.fork", "runtime.join",
                               "runtime.arrive", "runtime.rounds"),
    "timing.schedule_us_per_segment": ("timing.schedule",),
    "cluster.place_us_per_call": ("cluster.place",),
    "cluster.codec_pages": ("cluster.codec",),
    "cluster.codec_self_s": ("cluster.codec",),
    "cluster.serve_self_s": ("cluster.serve",),
    "cluster.real_fork_s": ("cluster.real_fork",),
    "cluster.real_send_self_s": ("cluster.real_send",),
    "cluster.real_recv_wait_s": ("cluster.real_recv",),
    "cluster.real_codec_self_s": ("cluster.real_codec",),
    "bench.arrivals_self_s": ("bench.arrivals",),
    "bench.guest_self_s": ("bench.guest",),
    **{f"{layer}.{stem}_{kind}": (f"{layer}.{stem}",)
       for layer, stems in _CALLS_AND_SELF.items() for stem in stems
       for kind in ("calls", "self_s")},
}
