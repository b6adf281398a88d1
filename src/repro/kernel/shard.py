"""Sharded host execution: run sibling subtrees in forked host processes.

The simulation is deterministic (the Kahn-network argument of paper
§3.2): a started space's entire subtree computes the same values, the
same trace segments and the same page images no matter *when* the
engine runs it, because it can interact only with its own children
until it stops.  The serial engine exploits none of that — at a
rendezvous it runs the joined child to completion on the caller's
thread while every other started sibling sits READY.

This module adds the obvious parallelism without giving up bit
identity.  At a rendezvous where several siblings are READY and none
has ever run, the coordinator forks one host process per sibling
(waves bounded by ``ClusterSpec(shard_workers=...)``).  Each worker runs
exactly one sibling's subtree against the fork-time copy of the
machine, then ships back a *delta*: the sibling's space graph, the new
trace suffix, and every machine/transport counter it advanced.  The
parent blocks until all workers are collected (workers only ever see
fork-time state), then *adopts* each result lazily — at the rendezvous
that would have run that sibling — renumbering frame serials, space
uids and trace segment ids by the parent's counters at adoption time.
Because the serial engine would have run the sibling at exactly that
point with exactly those counter values, adoption reproduces the
serial run's numbering, trace and memory images bit for bit.

Adoption is guarded, not assumed.  Before splicing a result in, the
coordinator re-checks everything the worker's run depended on that the
parent may have changed since the fork (frame refcounts and
generations reachable from the sibling, placement assignments); the
worker likewise refuses to report if its run touched anything that
cannot be replayed from a delta (the console-input or clock cursor).
Any doubt discards the result and runs the sibling inline on the
current state — the serial path is always correct, forked results are
only ever a cache of it — and says which check failed
(:attr:`ShardCoordinator.fallback_reasons`).

:class:`ShardCoordinator` owns a worker's whole life, for
``shard_workers=N`` and ``backend="real"`` alike: one ``_spawn``, one
``_worker_main``, one ``_collect``, one deadline-bounded ``_join``, one
teardown (``close``).  A coordinator supplies only the hand-back *link*
(here a ``multiprocessing`` pipe, which already length-prefixes and
pickles; in ``cluster/backend.py`` the cluster wire) and the *failure
policy* ``_fail`` (here: that sibling runs inline, reason recorded;
there: tear down and raise).

Gates (:func:`fork_refusal` — all must hold or the rendezvous stays
serial, with the reason kept on :attr:`ShardCoordinator.refused`):

* ``os.fork`` exists;
* ``loss is None`` — fault schedules key off global message serials,
  which workers would interleave differently;
* ``ship_mode`` is ``"delta"`` or ``"full"`` and ``prefetch_depth`` is
  0 — the async prefetch queues read cross-subtree dirty hints, the
  one machine-global the adoption delta deliberately drops;
* no adaptive control plane — its decisions read machine-wide
  telemetry windows;
* the placement policy is content-independent (``identity`` /
  ``round_robin``), so a worker's first-use node assignments replay.
"""

import multiprocessing
import os
import threading

from repro.common.errors import WireError
from repro.kernel.space import SpaceState
from repro.timing.trace import Segment

#: Placement policies whose ``assign`` reads only static state (the
#: topology and the virtual node number), so a worker-side first-use
#: assignment can be re-verified at adoption time.
_REPLAYABLE_PLACEMENTS = ("identity", "round_robin")

#: ``_fail``'s ``what`` when a wave's workers could not all be started.
_START_FAILED = "worker start failed"


def fork_refusal(machine):
    """Why ``machine``'s subtrees may not be forked into host processes
    (None = they may).  The one gate table of both coordinators: the
    pipe coordinator stays serial and records the reason, the real
    backend refuses the machine at construction with it."""
    if not hasattr(os, "fork"):
        return "requires os.fork (POSIX hosts)"
    if machine.loss is not None:
        return ("is incompatible with loss schedules (fault injection "
                "keys off global message serials)")
    if machine.ship_mode not in ("delta", "full"):
        return (f"is incompatible with ship_mode={machine.ship_mode!r} "
                f"(demand paging reads cross-subtree state)")
    if machine.prefetch_depth != 0:
        return "is incompatible with prefetch_depth > 0"
    if machine.control is not None:
        return "is incompatible with the adaptive control plane"
    if machine.placement.name not in _REPLAYABLE_PLACEMENTS:
        return (f"requires a replayable placement policy "
                f"{_REPLAYABLE_PLACEMENTS}, got "
                f"{machine.placement.name!r}")
    return None


def _walk_page_slots(space):
    """Yield every frame reference held by ``space``'s subtree: one
    entry per mapping and per snapshot pin (the exact multiset the
    refcounts count)."""
    for sp in space.walk():
        for page in sp.addrspace._pages.values():
            yield page
        if sp.snapshot is not None:
            for page in sp.snapshot._frames.values():
                yield page


def _uid_index(uid):
    """Numeric suffix of a machine-assigned space uid (``"s42"`` -> 42);
    None for the root's or any foreign uid shape."""
    if isinstance(uid, str) and uid[:1] == "s" and uid[1:].isdigit():
        return int(uid[1:])
    return None


class ShardCoordinator:
    """Fork/collect/adopt state machine attached to one Machine."""

    #: Fewest never-run READY siblings worth sharding.  The pipe-based
    #: coordinator needs >= 2 (one sibling runs inline just as fast);
    #: the real-process backend overrides to 1 — a single subtree in a
    #: separate host process is exactly the point there.
    MIN_SIBLINGS = 2

    def __init__(self, machine, workers):
        self.machine = machine
        #: Maximum forked workers alive at once (wave size).
        self.workers = workers
        #: Space -> collected worker payload awaiting adoption (a delta
        #: dict, or the reason string why there is none).
        self.pending = {}
        #: Space -> fork-time frame snapshot {serial: (page, refs, gen)}.
        self.snapshots = {}
        # Fork-time counter bases (identical for every pending result).
        self._base = None
        #: Seconds any one wait on a worker may take (its hand-back, a
        #: socket operation, its exit): a wedged worker is never a hang.
        self.deadline = 60.0
        #: Test hook: a worker-side fault point name (see ``_fault``).
        self.fault_inject = None
        self._next_index = 0
        self._links = {}    # worker index -> parent end of its link
        self._procs = {}    # worker index -> multiprocessing.Process
        # -- statistics (tests and reporting) --
        #: Sibling subtrees handed to a wave of workers.
        self.forked = 0
        #: Worker results spliced in at a rendezvous.
        self.adopted = 0
        #: Worker results discarded (worker refused, validation failed,
        #: or the link failed); the sibling ran inline instead ...
        self.fallbacks = 0
        #: ... and why: ``{reason: count}``, summing to ``fallbacks``.
        self.fallback_reasons = {}
        #: Why the gates are shut and rendezvous stay serial, else None:
        #: :func:`fork_refusal`'s answer, or the real backend's abort.
        self.refused = None

    # -- entry point (called by Kernel._rendezvous) ------------------------

    def execute(self, caller, child):
        """Run READY ``child`` via the shard machinery if possible.

        Returns True when a forked worker's result was adopted for
        ``child`` (the rendezvous must not run it again); False when
        the caller should fall back to the inline engine.
        """
        if child in self.pending:
            payload = self.pending.pop(child)
            snap = self.snapshots.pop(child)
            reason = payload if isinstance(payload, str) \
                else self._adopt(child, payload, snap)
            if reason is None:
                self.adopted += 1
                return True
            self.fallbacks += 1
            self.fallback_reasons[reason] = \
                self.fallback_reasons.get(reason, 0) + 1
            return False
        if self.pending or not self._gates_open():
            return False
        siblings = [
            c for c in caller.children.values()
            if c.state is SpaceState.READY and not c.started
        ]
        if len(siblings) < self.MIN_SIBLINGS or child not in siblings:
            return False
        self._fork_all(caller, siblings)
        return self.execute(caller, child)

    def _gates_open(self):
        if self.refused is None:
            reason = fork_refusal(self.machine)
            if reason is not None:
                self.refused = f"shard_workers={self.workers} {reason}"
        return self.refused is None

    # -- worker lifecycle --------------------------------------------------

    def _fork_all(self, caller, siblings):
        """Fork one worker per sibling (waves of ``self.workers``),
        collect every payload before returning.  The parent mutates
        nothing between the first fork and the last join, so every
        worker sees the identical fork-time machine."""
        machine = self.machine
        trace = machine.trace
        self._base = {
            "serial": machine.frames._next_serial,
            "uid": machine._uid_counter,
            "segments": len(trace.segments),
        }
        for sib in siblings:
            self.snapshots[sib] = {
                page.serial: (page, page.refs, page.generation)
                for page in _walk_page_slots(sib)
            }
        for i in range(0, len(siblings), self.workers):
            wave = siblings[i:i + self.workers]
            self.forked += len(wave)
            try:
                handles = [self._spawn(caller, sib) for sib in wave]
                self._wave_started(handles)
            except (OSError, WireError) as exc:
                self.pending.update(
                    dict.fromkeys(wave, self._fail(_START_FAILED, exc)))
                continue
            for sibling, index in handles:
                self.pending[sibling] = self._collect(sibling, index)

    def _spawn(self, caller, sibling):
        """Start the worker for ``sibling``; returns ``(sibling, index)``.

        Fork safety: the forking thread is the caller's guest thread —
        the sole holder of the execution baton, so every other guest
        thread is blocked acquiring its baton lock and owns nothing (a
        ``threading.Lock`` has no owner to lose in the fork).  The
        worker's surviving thread forgets the cloned contexts and
        pooled workers, whose threads were not copied
        (``Engine.after_fork``), drives the sibling on a fresh guest
        thread and never unwinds the parent's stacks (multiprocessing's
        fork bootstrap leaves through ``os._exit``).
        """
        index = self._next_index
        self._next_index += 1
        with self._open_link(index) as end:
            proc = multiprocessing.get_context("fork").Process(
                target=self._worker_main, name=f"repro-shard-worker-{index}",
                args=(caller, sibling, index, end))
            proc.start()
        self._procs[index] = proc
        return sibling, index

    def _worker_main(self, caller, sibling, index, end):
        """The worker process: attach, run, hand back (an exception is
        a traceback on stderr and, to the parent, a dead worker)."""
        link = self._attach(sibling, index, end)
        try:
            payload = self._run_worker(caller, sibling)
            self._fault("before-handback")
            self._send_delta(link, payload, index)
        finally:
            link.close()

    def _fault(self, point):
        """Test hook: die (``fault_inject == "die-<point>"``) or wedge
        for good (``"hang-<point>"``) at a worker-side protocol point."""
        if self.fault_inject == f"die-{point}":
            os._exit(9)
        if self.fault_inject == f"hang-{point}":
            threading.Event().wait()

    def _collect(self, sibling, index):
        """One worker's payload or, whatever the receive raises (EOF,
        timeout, wire or unpickling error), the failure policy's answer;
        the link is closed and the worker reaped either way."""
        link, proc = self._links.pop(index), self._procs.pop(index)
        try:
            return self._recv_delta(link, index)
        except Exception as exc:    # noqa: BLE001
            proc.terminate()        # dead or wedged: no grace
            return self._fail(f"worker {index} ({sibling.uid})", exc)
        finally:
            link.close()
            self._join(proc)

    def _join(self, proc):
        """Reap a worker: wait for its exit, terminate it when that
        outlasts the deadline, kill it when that does too."""
        proc.join(self.deadline)
        for stop in (proc.terminate, proc.kill):
            if proc.is_alive():
                stop()
                proc.join(self.deadline)

    def close(self):
        """The one teardown, at machine close and on abort: every link
        closed, every worker terminated and reaped."""
        while self._links:
            self._links.popitem()[1].close()
        for proc in self._procs.values():
            proc.terminate()
        while self._procs:
            self._join(self._procs.popitem()[1])

    def _fail(self, what, exc):
        """The failure policy: ``what`` did not start or hand back.
        Here the siblings concerned run inline for the reason answered
        (and a wave that did not start leaves no worker behind)."""
        if what == _START_FAILED:
            self.close()
            return what
        if isinstance(exc, TimeoutError):
            return "worker timed out"
        return "worker died" if isinstance(exc, (EOFError, OSError)) \
            else "payload corrupt"

    # -- the hand-back link: a multiprocessing pipe ------------------------

    def _open_link(self, index):
        """Keep the parent's end; answer the worker's, whose copy here
        ``_spawn`` closes after the fork (a dead worker reads as EOF)."""
        self._links[index], end = multiprocessing.Pipe(duplex=False)
        return end

    def _wave_started(self, handles):
        """Between a wave's last spawn and first collect (the real
        backend serves the forward page exchanges here)."""

    def _attach(self, sibling, index, end):
        """Worker side, before the run: the link to hand back on."""
        return end

    def _send_delta(self, link, payload, index):
        link.send(payload)

    def _recv_delta(self, link, index):
        if not link.poll(self.deadline):
            raise TimeoutError
        return link.recv()

    # -- worker side -------------------------------------------------------

    def _run_worker(self, caller, sibling):
        """Inside the forked process: run ``sibling``'s subtree on the
        fork-time machine and return the delta payload (or the reason
        string that demands the serial fallback)."""
        machine = self.machine
        trace = machine.trace
        transport = machine.transport
        machine.shard = None        # no nested sharding inside workers
        machine.engine.after_fork()     # parent threads do not exist here

        base = self._base
        pre_open = dict(trace._open)
        pre_last = dict(trace._last)
        edges0 = len(trace.edges)
        transfers0 = len(trace.transfers)
        caller_seg = pre_open.get(caller.uid)
        caller_cycles = caller_seg.cycles if caller_seg is not None else None
        t0 = pre_open.get(sibling.uid)
        # Fork-time frame slots, to detect which pre-fork frames the
        # run replaced (COW breaks, unmaps, re-pins): only their
        # refcounts condition the run's COW decisions.
        fork_slots = []
        for sp in sibling.walk():
            fork_slots.append((sp.addrspace._pages, dict(sp.addrspace._pages)))
            if sp.snapshot is not None:
                fork_slots.append((sp.snapshot._frames,
                                   dict(sp.snapshot._frames)))
        time0 = machine._time_idx
        console0 = machine._console_pos
        out0 = len(machine.console_output)
        dbg0 = len(machine.debug_lines)
        fetched0 = machine.pages_fetched
        alloc0 = machine.frames.frames_allocated
        merges0 = len(machine.merge_stats_total)
        map0 = len(machine.node_map)
        cache0 = {n: dict(c) for n, c in machine.node_cache.items()}
        origin0 = dict(machine.frame_origin)
        scalars0 = {k: getattr(transport, k) for k in transport.SCALARS}
        links0 = {link: ls.as_dict() for link, ls in transport.links.items()}

        machine.engine.run_until_stopped(sibling)

        # Refuse anything a delta cannot replay: a still-running
        # sibling, cursor-device reads (values depend on global order),
        # outstanding prefetch exchanges, or work leaking into the
        # caller's open segment.
        if sibling.state is SpaceState.READY:
            return "sibling still READY"
        if machine._time_idx != time0 or machine._console_pos != console0:
            return "cursor device read"
        if any(machine.transport.inflight.values()):
            return "transfers in flight"
        if caller_seg is not None and caller_seg.cycles != caller_cycles:
            return "caller segment charged"

        serial0 = base["serial"]
        replaced = sorted({
            page.serial
            for container, before in fork_slots
            for vpn, page in before.items()
            if page.serial <= serial0 and container.get(vpn) is not page
        })

        def diff_nested(now, before):
            out = {}
            for key, cur in now.items():
                prev = before.get(key, {})
                delta = {k: v for k, v in cur.items() if prev.get(k) != v}
                if delta:
                    out[key] = delta
            return out

        link_delta = {}
        for link, ls in transport.links.items():
            delta = ls.delta_since(links0.get(link))
            if delta is not None:
                link_delta[link] = delta

        for sp in sibling.walk():
            sp.machine = None
            sp.ctx = None
            sp.addrspace.allocator = None
        sibling.parent = None

        return {
            "spaces": sibling,
            "replaced": replaced,
            "t0": None if t0 is None else (t0.id, t0.cycles, t0.closed),
            "segments": [
                (s.id, s.uid, s.node, s.cycles, s.label, s.closed)
                for s in trace.segments[base["segments"]:]
            ],
            "edges": trace.edges[edges0:],
            "transfers": trace.transfers[transfers0:],
            "open": {
                uid: seg.id for uid, seg in trace._open.items()
                if pre_open.get(uid) is not seg
            },
            "last": {
                uid: seg.id for uid, seg in trace._last.items()
                if pre_last.get(uid) is not seg
            },
            "uid_count": machine._uid_counter - base["uid"],
            "serials": machine.frames._next_serial - base["serial"],
            "frames_allocated": machine.frames.frames_allocated - alloc0,
            "pages_fetched": machine.pages_fetched - fetched0,
            "console_out": bytes(machine.console_output[out0:]),
            "debug_lines": machine.debug_lines[dbg0:],
            "merge_stats": machine.merge_stats_total[merges0:],
            "node_cache": diff_nested(machine.node_cache, cache0),
            "frame_origin": {
                s: n for s, n in machine.frame_origin.items()
                if origin0.get(s) != n
            },
            "placements": list(machine.node_map.items())[map0:],
            "transport": {
                k: getattr(transport, k) - scalars0[k]
                for k in transport.SCALARS
            },
            "links": link_delta,
        }

    # -- adoption (parent side) --------------------------------------------

    def _adopt(self, child, payload, snap):
        """Validate a worker result against the *current* parent state
        and splice it in, renumbering by the current counters.  Returns
        None, or (mutating nothing) the validation that failed."""
        machine = self.machine
        trace = machine.trace
        base = self._base
        serial0 = base["serial"]

        # The worker computed against fork-time frames.  The sibling's
        # own (still unadopted) references pin every reachable frame's
        # content, so generations cannot have moved; refcounts matter
        # only for the frames the worker *wrote or replaced* — a
        # parent-side reference loss there (refs could have reached 1)
        # might have turned the worker's COW into an in-place write.
        # Reference gains are safe: more sharing still copies-on-write.
        for serial, (page, refs, generation) in snap.items():
            if page.generation != generation:
                return "generation moved"
        for serial in payload["replaced"]:
            entry = snap.get(serial)
            if entry is None or entry[0].refs < entry[1]:
                return "refcount dropped"
        # First-use placements made inside the worker must replay:
        # same assignment from the current map, no bijection clash.
        node_map = machine.node_map
        claimed = set()
        for vnode, phys in payload["placements"]:
            current = node_map.get(vnode)
            if current is None:
                if phys in machine.node_owner or phys in claimed or \
                        machine.placement.assign(machine, None, vnode) != phys:
                    return "placement does not replay"
                claimed.add(phys)
            elif current != phys:
                return "placement does not replay"
        # Collect the adopted graph's frame slots; any pre-fork serial
        # must resolve to a fork-time frame of this sibling.
        adopted = payload["spaces"]
        page_slots = {}          # id(page) -> [page, slot_count]
        for page in _walk_page_slots(adopted):
            entry = page_slots.get(id(page))
            if entry is None:
                page_slots[id(page)] = [page, 1]
            else:
                entry[1] += 1
        for page, _count in page_slots.values():
            if page.serial <= serial0 and page.serial not in snap:
                return "foreign pre-fork frame"

        # -- validation passed: splice (no failure paths below) --
        delta_s = machine.frames._next_serial - serial0
        delta_u = machine._uid_counter - base["uid"]
        delta_l = len(trace.segments) - base["segments"]
        uid_base = base["uid"]

        def remap_uid(uid):
            index = _uid_index(uid)
            if index is not None and index > uid_base:
                return f"s{index + delta_u}"
            return uid

        # Exact refcounts: the sibling's old image releases every
        # reference it held, the adopted image re-takes its own.
        for page in _walk_page_slots(child):
            page.decref()
        pre_fork = {}            # unpickled pre-fork copy -> live frame
        for page, count in page_slots.values():
            if page.serial <= serial0:
                live = snap[page.serial][0]
                pre_fork[id(page)] = live
                for _ in range(count):
                    live.incref()
            else:
                page.serial += delta_s
                page.refs = count
        if pre_fork:
            # Restore identity of pre-fork frames (the pickle copied
            # them): point every adopted slot back at the live frame.
            for sp in adopted.walk():
                pages = sp.addrspace._pages
                for vpn, page in pages.items():
                    live = pre_fork.get(id(page))
                    if live is not None:
                        pages[vpn] = live
                if sp.snapshot is not None:
                    frames = sp.snapshot._frames
                    for vpn, page in frames.items():
                        live = pre_fork.get(id(page))
                        if live is not None:
                            frames[vpn] = live

        for sp in adopted.walk():
            sp.machine = machine
            sp.ctx = None
            sp.addrspace.allocator = machine.frames
            sp.uid = remap_uid(sp.uid)

        # Splice the adopted image into the existing Space object (the
        # caller's child table and the trace keep referring to it).
        child.addrspace = adopted.addrspace
        child.regs = adopted.regs
        child.snapshot = adopted.snapshot
        child.children = adopted.children
        for grandchild in child.children.values():
            grandchild.parent = child
        child.state = adopted.state
        child.trap = adopted.trap
        child.trap_info = adopted.trap_info
        child.insn_limit = adopted.insn_limit
        child.visit_tokens = adopted.visit_tokens
        child.cur_node = adopted.cur_node
        child.killed = adopted.killed
        child.started = adopted.started
        child.ctx = None

        # Trace suffix: segment ids shift by the parent's growth since
        # the fork; the sibling's fork-time open segment takes its
        # final charge.
        seg_base = base["segments"]
        new_segments = {}
        for sid, uid, node, cycles, label, closed in payload["segments"]:
            seg = Segment(sid + delta_l, remap_uid(uid), node, label)
            seg.cycles = cycles
            seg.closed = closed
            trace.segments.append(seg)
            new_segments[sid] = seg

        def remap_sid(sid):
            return sid + delta_l if sid >= seg_base else sid

        trace.edges.extend(
            (remap_sid(a), remap_sid(b), lat)
            for a, b, lat in payload["edges"])
        trace.transfers.extend(
            (remap_sid(a), remap_sid(b), link, busy, lat, cls, kind)
            for a, b, link, busy, lat, cls, kind in payload["transfers"])
        if payload["t0"] is not None:
            t0_id, t0_cycles, t0_closed = payload["t0"]
            t0 = trace.segments[t0_id]
            t0.cycles = t0_cycles
            t0.closed = t0_closed

        def resolve(sid):
            return new_segments[sid] if sid >= seg_base \
                else trace.segments[sid]

        for uid, sid in payload["open"].items():
            trace._open[remap_uid(uid)] = resolve(sid)
        for uid, sid in payload["last"].items():
            trace._last[remap_uid(uid)] = resolve(sid)

        # Machine and transport ledgers (pure accumulations).
        machine._uid_counter += payload["uid_count"]
        machine.frames._next_serial += payload["serials"]
        machine.frames.frames_allocated += payload["frames_allocated"]
        machine.pages_fetched += payload["pages_fetched"]
        machine.console_output.extend(payload["console_out"])
        machine.debug_lines.extend(payload["debug_lines"])
        machine.merge_stats_total.extend(payload["merge_stats"])
        for node, entries in payload["node_cache"].items():
            cache = machine.node_cache[node]
            for serial, generation in entries.items():
                if serial > serial0:
                    serial += delta_s
                cache[serial] = generation
        for serial, node in payload["frame_origin"].items():
            if serial > serial0:
                serial += delta_s
            machine.frame_origin[serial] = node
        for vnode, phys in payload["placements"]:
            if vnode not in node_map:
                machine.bind_node(vnode, phys)
        transport = machine.transport
        for key, delta in payload["transport"].items():
            setattr(transport, key, getattr(transport, key) + delta)
        for link, delta in payload["links"].items():
            transport.link(link).add(delta)
        return None
