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
has ever run, the coordinator forks one host process per *worker slot*
— ``min(ClusterSpec(shard_workers=...), siblings)`` of them, all from
the same fork-time machine — and hands worker *k* the static queue
``siblings[k::W]``.  A worker lives for the whole fork point, like the
paper's long-lived cluster nodes (§3.3): it attaches its hand-back link
once, then for each sibling of its queue runs that one subtree against
the fork-time copy of the machine, ships back a *delta* — the sibling's
space graph, the new trace suffix, and every machine/transport ledger
the run moved — and *rewinds*: everything the delta enumerates is put
back, along with the refcounts of the sibling's fork-time frames and
any guest stack the run left parked, so the next sibling of the queue
starts from the identical fork-time machine and the delta a subtree
produces does not depend on what its worker ran before.  The parent
collects round by round and blocks until every worker is reaped
(workers only ever see fork-time state), then *adopts* each result
lazily — at the rendezvous that would have run that sibling —
renumbering frame serials, space uids and trace segment ids by the
parent's counters at adoption time.  Because the serial engine would
have run the sibling at exactly that point with exactly those counter
values, adoption reproduces the serial run's numbering, trace and
memory images bit for bit.

What a run may move is declared once, in :mod:`repro.kernel.ledgers`
(``LEDGERS``): each entry says how to mark one machine-global before
the queue starts, extract the run's delta, rewind it, and fold the
delta into the parent, so the four cannot drift apart.  This module
keeps fork / collect / adopt.

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
policy* ``_fail`` (here: the sibling in flight and the rest of that
worker's queue run inline, reason recorded; there: tear down and
raise).

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
from repro.kernel.ledgers import LEDGERS, SPLICED, Renumber
from repro.kernel.space import SpaceState

#: Placement policies whose ``assign`` reads only static state (the
#: topology and the virtual node number), so a worker-side first-use
#: assignment can be re-verified at adoption time.
_REPLAYABLE_PLACEMENTS = ("identity", "round_robin")

#: ``_fail``'s ``what`` when a fork point's workers could not all be
#: started (or, on the real wire, be served their forward pages).
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
    if machine.spec.ship_mode not in ("delta", "full"):
        return (f"is incompatible with ship_mode={machine.spec.ship_mode!r} "
                f"(demand paging reads cross-subtree state)")
    if machine.spec.prefetch_depth != 0:
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


class ShardCoordinator:
    """Fork/collect/adopt state machine attached to one Machine."""

    #: Fewest never-run READY siblings worth sharding.  The pipe-based
    #: coordinator needs >= 2 (one sibling runs inline just as fast);
    #: the real-process backend overrides to 1 — a single subtree in a
    #: separate host process is exactly the point there.
    MIN_SIBLINGS = 2

    def __init__(self, machine, workers):
        self.machine = machine
        #: Maximum worker processes alive at once: a fork point starts
        #: ``min(workers, siblings)`` and queues the siblings on them.
        self.workers = workers
        #: Space -> collected worker payload awaiting adoption (a delta
        #: dict, or the reason string why there is none).
        self.pending = {}
        #: Space -> fork-time frame snapshot {serial: (page, refs, gen)}.
        self.snapshots = {}
        # Fork-time counter bases (identical for every pending result).
        self._base = None
        #: Seconds any one wait on a worker may take (a hand-back, a
        #: socket operation, its exit): a wedged worker is never a hang.
        self.deadline = 60.0
        #: Test hook: a worker-side fault point name (see ``_fault``).
        self.fault_inject = None
        self._next_index = 0
        self._links = {}    # worker index -> parent end of its link
        self._procs = {}    # worker index -> multiprocessing.Process
        # -- statistics (tests and reporting) --
        #: Sibling subtrees handed to workers.
        self.forked = 0
        #: Worker processes started to run them.
        self.processes = 0
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

    def stats(self):
        """The statistics above as one dict: what a run's result and
        ``python -m repro.bench`` report of the coordinator."""
        return {"forked": self.forked, "processes": self.processes,
                "adopted": self.adopted, "fallbacks": self.fallbacks,
                "refused": self.refused,
                "fallback_reasons": dict(self.fallback_reasons)}

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
        """Start one worker per slot, queue ``siblings[k::W]`` on worker
        *k*, and collect round by round — every payload before
        returning.  The parent mutates nothing between the first fork
        and the last join and a worker rewinds after every sibling, so
        every subtree runs against the identical fork-time machine."""
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
        self.forked += len(siblings)
        width = min(self.workers, len(siblings))
        lost = {}       # worker index -> the failure policy's answer
        try:
            indices = [self._spawn(caller, siblings[k::width])
                       for k in range(width)]
            for i in range(0, len(siblings), width):
                wave = list(zip(siblings[i:i + width], indices))
                self._wave_started([h for h in wave if h[1] not in lost])
                for sibling, index in wave:
                    if index in lost:   # the rest of its queue, at once
                        self.pending[sibling] = lost[index]
                        continue
                    payload = self._collect(sibling, index)
                    self.pending[sibling] = payload
                    if index not in self._links:    # its link failed
                        lost[index] = payload
        except (OSError, WireError) as exc:
            reason = self._fail(_START_FAILED, exc)
            for sib in siblings:
                self.pending.setdefault(sib, reason)
            return
        for index in indices:
            if index not in lost:
                self._release(index)

    def _spawn(self, caller, queue):
        """Start the worker that runs ``queue``; returns its index.

        Fork safety: the forking thread is the caller's guest thread —
        the sole holder of the execution baton, so every other guest
        thread is blocked acquiring its baton lock and owns nothing (a
        ``threading.Lock`` has no owner to lose in the fork).  The
        worker's surviving thread forgets the cloned contexts and
        pooled workers, whose threads were not copied
        (``Engine.after_fork``), drives each sibling on a guest thread
        of its own pool and never unwinds the parent's stacks
        (multiprocessing's fork bootstrap leaves through ``os._exit``).
        """
        index = self._next_index
        self._next_index += 1
        with self._open_link(index) as end:
            proc = multiprocessing.get_context("fork").Process(
                target=self._worker_main, name=f"repro-shard-worker-{index}",
                args=(caller, queue, index, end))
            proc.start()
        self._procs[index] = proc
        self.processes += 1
        return index

    def _worker_main(self, caller, queue, index, end):
        """The worker process: attach the link, then per sibling of the
        queue {begin, run, hand back, rewind} (an exception is a
        traceback on stderr and, to the parent, a dead worker)."""
        machine = self.machine
        machine.shard = None        # no nested sharding inside workers
        machine.engine.after_fork()     # parent threads do not exist here
        link = self._attach(index, end)
        try:
            marks = [ledger.mark(machine) for ledger in LEDGERS]
            for sibling in queue:
                self._begin(link, sibling, index)
                payload, moved = self._run_worker(caller, sibling, marks)
                self._fault("before-handback")
                self._send_delta(link, payload, index)
                self._rewind(sibling, marks, moved)
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
        """One sibling's payload from its worker or, whatever the
        receive raises (EOF, timeout, wire or unpickling error), the
        failure policy's answer — the worker is put down first, so the
        rest of its queue costs no further wait."""
        try:
            return self._recv_delta(self._links[index], sibling, index)
        except Exception as exc:    # noqa: BLE001
            self._procs[index].terminate()  # dead or wedged: no grace
            self._release(index)
            return self._fail(f"worker {index} ({sibling.uid})", exc)

    def _release(self, index):
        """Close a worker's link and reap it: once per worker, after
        its last round or when its link fails."""
        self._links.pop(index).close()
        self._join(self._procs.pop(index))

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
        (and workers that did not all start leave none behind)."""
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
        """Before a round's first collect, with its ``(sibling, worker
        index)`` pairs (the real backend serves the forward page
        exchanges here)."""

    def _attach(self, index, end):
        """Worker side, once: the link to hand back on."""
        return end

    def _begin(self, link, sibling, index):
        """Worker side, before each run (the real backend receives the
        sibling's forward pages here)."""

    def _send_delta(self, link, payload, index):
        link.send(payload)

    def _recv_delta(self, link, sibling, index):
        if not link.poll(self.deadline):
            raise TimeoutError
        return link.recv()

    # -- worker side -------------------------------------------------------

    def _run_worker(self, caller, sibling, marks):
        """Inside the worker: run ``sibling``'s subtree on the fork-time
        machine.  Returns the delta payload (or the reason string that
        demands the serial fallback) and what every ledger moved, for
        the rewind."""
        machine = self.machine
        caller_seg = machine.trace._open.get(caller.uid)
        caller_cycles = caller_seg.cycles if caller_seg is not None else None
        # Fork-time frame slots, to detect which pre-fork frames the
        # run replaced (COW breaks, unmaps, re-pins): only their
        # refcounts condition the run's COW decisions.
        fork_slots = []
        for sp in sibling.walk():
            fork_slots.append((sp.addrspace._pages, dict(sp.addrspace._pages)))
            if sp.snapshot is not None:
                fork_slots.append((sp.snapshot._frames,
                                   dict(sp.snapshot._frames)))

        machine.engine.run_until_stopped(sibling)

        moved = [ledger.delta(machine, mark)
                 for ledger, mark in zip(LEDGERS, marks)]
        # Refuse anything a delta cannot replay: a still-running
        # sibling, cursor-device reads (values depend on global order),
        # outstanding prefetch exchanges, or work leaking into the
        # caller's open segment.
        if sibling.state is SpaceState.READY:
            return "sibling still READY", moved
        for ledger, delta in zip(LEDGERS, moved):
            if ledger.refuse is not None and delta:
                return ledger.refuse, moved
        if caller_seg is not None and caller_seg.cycles != caller_cycles:
            return "caller segment charged", moved

        serial0 = self._base["serial"]
        replaced = sorted({
            page.serial
            for container, before in fork_slots
            for vpn, page in before.items()
            if page.serial <= serial0 and container.get(vpn) is not page
        })
        for sp in sibling.walk():
            sp.machine = None
            sp.ctx = None
            sp.addrspace.allocator = None
        sibling.parent = None
        payload = {"spaces": sibling, "replaced": replaced}
        payload.update((ledger.key, delta)
                       for ledger, delta in zip(LEDGERS, moved)
                       if ledger.key is not None)
        return payload, moved

    def _rewind(self, sibling, marks, moved):
        """Once a sibling is handed back, put the worker's machine back
        to fork time, so the next sibling of the queue runs against
        what a fresh worker would see."""
        machine = self.machine
        # Guest stacks the run left parked (Ret, an instruction limit)
        # unwind only now: ``kill`` flips ``space.killed``, which rides
        # the payload.  Unwinding runs guest ``finally`` clauses, which
        # may charge and write: undo what the machine shows afterwards.
        parked = list(machine.engine._live)
        if parked:
            for ctx in parked:
                ctx.kill()
            moved = [ledger.delta(machine, mark)
                     for ledger, mark in zip(LEDGERS, marks)]
        for ledger, mark, delta in zip(LEDGERS, marks, moved):
            ledger.rewind(machine, mark, delta)
        # A later sibling's copy-on-write decisions read the refcounts
        # of the fork-time frames it shares with this one.
        for page, refs, _generation in self.snapshots[sibling].values():
            page.refs = refs

    # -- adoption (parent side) --------------------------------------------

    def _adopt(self, child, payload, snap):
        """Validate a worker result against the *current* parent state
        and splice it in, renumbering by the current counters.  Returns
        None, or (mutating nothing) the validation that failed."""
        machine = self.machine
        serial0 = self._base["serial"]

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
        for vnode, phys in payload["placements"].items():
            current = node_map.get(vnode)
            if current is None:
                if phys in machine.node_owner or phys in claimed or \
                        machine.placement.assign(machine, None, vnode) != phys:
                    return "placement does not replay"
                claimed.add(phys)
            elif current != phys:
                return "placement does not replay"
        # Collect the adopted graph's frame slots; any pre-fork serial
        # must resolve to a fork-time frame of this sibling, and one
        # the run wrote in place (it held every reference: the write
        # bumped the generation instead of copying) to a live frame
        # nobody else has come to share since.
        adopted = payload["spaces"]
        page_slots = {}          # id(page) -> [page, slot_count]
        for page in _walk_page_slots(adopted):
            entry = page_slots.get(id(page))
            if entry is None:
                page_slots[id(page)] = [page, 1]
            else:
                entry[1] += 1
        for page, _count in page_slots.values():
            if page.serial <= serial0:
                entry = snap.get(page.serial)
                if entry is None:
                    return "foreign pre-fork frame"
                if page.generation != entry[2] and entry[0].refs != entry[1]:
                    return "refcount moved"

        # -- validation passed: splice (no failure paths below) --
        renumber = Renumber(machine, self._base)

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
                if page.generation != live.generation:
                    # Written in place by the run: the live frame takes
                    # the bytes and the generation, like a new frame.
                    live.data[:] = page.data
                    live.generation = page.generation
            else:
                page.serial += renumber.serials
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
            sp.uid = renumber.uid(sp.uid)

        # Splice the adopted image into the existing Space object (the
        # caller's child table and the trace keep referring to it).
        for name in SPLICED:
            setattr(child, name, getattr(adopted, name))
        for grandchild in child.children.values():
            grandchild.parent = child
        child.ctx = None

        # Every ledger the run moved: the trace suffix (segment ids
        # shift by the parent's growth since the fork, the sibling's
        # fork-time open segment takes its final charge), the machine
        # and transport accumulations, the cache and placement tables.
        for ledger in LEDGERS:
            if ledger.key is not None:
                ledger.adopt(machine, payload[ledger.key], renumber)
        return None
