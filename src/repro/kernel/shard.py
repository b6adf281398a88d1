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
the fork-time copy of the machine, hands back a *delta* — the subtree's
diff from its fork-time image (per pre-fork space, only the fields the
run moved: an address space or snapshot it left in place stays the
parent's; a space it created ships whole), the new trace suffix, and
every machine/transport ledger the run moved — and *rewinds*:
everything the delta enumerates is put back, along with the refcounts
of the sibling's fork-time frames and any guest stack a refused run
left parked, so the next sibling of the queue
starts from the identical fork-time machine and the delta a subtree
produces does not depend on what its worker ran before.  The parent
collects every delta and blocks until every worker is reaped (workers
only ever see fork-time state), then *adopts* each result
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
generations reachable from the sibling, and the node tag caches the
run paid to fill: a sibling adopted since may have brought the same
frame to the same node, which the serial run would have hit); the
worker likewise refuses to report if its run touched anything that
cannot be replayed from a delta (the console-input or clock cursor) or
left a guest stack parked mid-function (a delta carries no stack to
resume).
Any doubt discards the result and runs the sibling inline on the
current state — the serial path is always correct, forked results are
only ever a cache of it — and says which check failed
(:attr:`ShardCoordinator.fallback_reasons`).

:class:`ShardCoordinator` owns a worker's whole life, for
``shard_workers=N`` and ``backend="real"`` alike: one ``_spawn``, one
``_worker_main``, one ``_collect``, one deadline-bounded ``_join``, one
teardown (``close``).  A coordinator supplies only the hand-back *link*
(here a ``multiprocessing`` pipe, which already length-prefixes and
pickles, carrying one delta per sibling as its run ends; in
``cluster/backend.py`` the cluster wire, carrying one forward push and
one hand-back per worker) and the *failure policy* ``_fail`` (here:
the sibling in flight and the rest of that worker's queue run inline,
reason recorded; there: tear down and raise).

The one gate, :func:`fork_refusal`, is that ``os.fork`` exists (else
every rendezvous stays serial, with the reason kept on
:attr:`ShardCoordinator.refused`): every spec forks.  Each
``ship_mode`` does because the tag-cache check at adoption (``"node
cache moved"``) covers delta, demand and full shipping alike, and each
``prefetch_depth`` does because a prefetch queue is its space's own
(``Space.inflight``): it travels with the subtree's space graph, and
no sibling sees it.
"""

import enum
import itertools
import multiprocessing
import os
import threading
import types
from operator import eq, is_

from repro.common.errors import WireError
from repro.kernel.ledgers import LEDGERS, SPLICED, Renumber
from repro.kernel.space import SpaceState
from repro.mem.addrspace import AddressSpace
from repro.mem.snapshot import Snapshot

#: ``_fail``'s ``what`` when a fork point's workers could not all be
#: started (or, on the real wire, be pushed their forward pages).
_START_FAILED = "worker start failed"


def fork_refusal():
    """Why no subtree may be forked into a host process on this host
    (None = any may, whatever the spec).  The one gate of both
    coordinators: the pipe coordinator stays serial and records the
    reason, the real backend refuses the machine at construction with
    it."""
    if not hasattr(os, "fork"):
        return "requires os.fork (POSIX hosts)"
    return None


def _slot_tables(space):
    """Every table of frame slots in ``space``'s subtree: each address
    space's page table and each snapshot's pinned frames."""
    for sp in space.walk():
        yield sp.addrspace._pages
        if sp.snapshot is not None:
            yield sp.snapshot._frames


def _walk_page_slots(space):
    """Yield every frame reference held by ``space``'s subtree: one
    entry per mapping and per snapshot pin (the exact multiset the
    refcounts count)."""
    for table in _slot_tables(space):
        yield from table.values()


#: What no run can change in place (a tuple of them included): a table
#: still holding its fork-time objects of these holds what it held.
_FIXED = (type(None), bool, int, float, complex, str, bytes, enum.Enum,
          types.FunctionType)


def _fixed(value):
    if type(value) is tuple:
        return all(map(_fixed, value))
    return isinstance(value, _FIXED)


def _clocks(addrspace):
    """What moves with every write to ``addrspace`` besides its tables:
    the dirty ledger's clock and length, and the counters."""
    return (addrspace._clock, len(addrspace._dirty),
            addrspace.counters.snapshot())


def _image(value):
    """The fork-time image of one ``SPLICED`` field, which
    :func:`_left_alone` holds the field to after the run: an address
    space is itself, copies of its slot table and permissions, and its
    clocks; a snapshot itself, a copy of its pins, and its token; a
    table a copy — or None, which nothing matches, if it holds anything
    a run could change in place (a list in a register, a child space, a
    prefetch queue), so that such a table always ships; anything else
    the value itself."""
    if isinstance(value, AddressSpace):
        return (value, dict(value._pages), dict(value._perms),
                _clocks(value))
    if isinstance(value, Snapshot):
        return (value, dict(value._frames), value._token)
    if type(value) is dict:
        return dict(value) if all(map(_fixed, value.values())) else None
    return value


def _holds(table, image):
    """Whether ``table`` holds just what its fork-time copy ``image``
    does: the same keys in the same order, each the very same object."""
    return (len(table) == len(image) and all(map(eq, table, image))
            and all(map(is_, table.values(), image.values())))


def _left_alone(value, image):
    """Whether the run left one ``SPLICED`` field as its fork-time
    :func:`_image` holds it.  By identity, never by ``==``: a field
    left alone stays the parent's own object, so a value that is merely
    equal (``np.int64(0)`` for ``0``, ``False`` for ``0``) must ship."""
    if isinstance(value, AddressSpace):
        return (image[0] is value and _holds(value._pages, image[1])
                and _holds(value._perms, image[2])
                and image[3] == _clocks(value))
    if isinstance(value, Snapshot):
        return (type(image) is tuple and image[0] is value
                and _holds(value._frames, image[1])
                and image[2] == value._token)
    if type(value) is dict:
        return type(image) is dict and _holds(value, image)
    return value is image


def _created(spaces):
    """The top of every subtree a hand-back's space diff carries whole
    — the run created it — in diff order (a pre-fork child travels in
    its parent's ``children`` as its uid)."""
    for fields in spaces.values():
        for sp in fields.get("children", {}).values():
            if not isinstance(sp, str):
                yield sp


def _handed_tables(spaces):
    """Every table of frame slots a hand-back's space diff carries: each
    shipped address space's and snapshot's, and every one of each
    created subtree."""
    for fields in spaces.values():
        if "addrspace" in fields:
            yield fields["addrspace"]._pages
        if fields.get("snapshot") is not None:
            yield fields["snapshot"]._frames
    for top in _created(spaces):
        yield from _slot_tables(top)


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
        #: Seconds any one wait on a worker may take (a hand-back — on
        #: the real wire, a whole queue's — a socket operation, its
        #: exit): a wedged worker is never a hang.
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
        #: ... of which shipped no address space: the run created no
        #: space and left every pre-fork one's in place.
        self.addrspace_unshipped = 0
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
                "addrspace_unshipped": self.addrspace_unshipped,
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
            reason = fork_refusal()
            if reason is not None:
                self.refused = f"shard_workers={self.workers} {reason}"
        return self.refused is None

    # -- worker lifecycle --------------------------------------------------

    def _fork_all(self, caller, siblings):
        """Start one worker per slot, queue ``siblings[k::W]`` on worker
        *k*, push every queue's forward state (``_push``), then collect
        every payload before returning.  The parent mutates nothing
        between the first fork and the last join and a worker rewinds
        after every sibling, so every subtree runs against the identical
        fork-time machine."""
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
        queues = {}     # worker index -> its queue
        try:
            for k in range(width):
                queue = siblings[k::width]
                queues[self._spawn(caller, queue)] = queue
            self._push(queues)
        except (OSError, WireError) as exc:
            reason = self._fail(_START_FAILED, exc)
            for sib in siblings:
                self.pending.setdefault(sib, reason)
            return
        # Round by round, one hand-back per worker and round: a pipe
        # worker blocked on a full pipe waits for one collect, not for
        # every queue ahead of its own.
        for _round in itertools.zip_longest(
                *(self._collect(index, queue)
                  for index, queue in queues.items())):
            pass

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
        """The worker process: attach the link, receive the queue's
        forward state, then per sibling {run, hand back, rewind}, then
        flush (an exception is a traceback on stderr and, to the
        parent, a dead worker)."""
        machine = self.machine
        machine.shard = None        # no nested sharding inside workers
        machine.engine.after_fork()     # parent threads do not exist here
        link = self._attach(index, end)
        try:
            self._recv_push(link, queue, index)
            marks = [ledger.mark(machine) for ledger in LEDGERS]
            for sibling in queue:
                payload, moved = self._run_worker(caller, sibling, marks)
                self._fault("before-handback")
                self._send_delta(link, sibling, payload, index)
                self._rewind(sibling, marks, moved)
            self._flush(link, index)
        finally:
            link.close()

    def _fault(self, point):
        """Test hook: die (``fault_inject == "die-<point>"``) or wedge
        for good (``"hang-<point>"``) at a worker-side protocol point."""
        if self.fault_inject == f"die-{point}":
            os._exit(9)
        if self.fault_inject == f"hang-{point}":
            threading.Event().wait()

    def _collect(self, index, queue):
        """File each payload of worker ``index``'s ``queue`` in
        ``pending`` as it arrives, yielding after each; whatever the
        receive raises (EOF, timeout, wire or unpickling error) files
        the failure policy's answer for the sibling in flight and the
        rest of the queue — the worker is put down first, so they cost
        no further wait.  The worker is reaped either way."""
        received = self._recv_deltas(self._links[index], queue, index)
        for sibling in queue:
            try:
                self.pending[sibling] = next(received)
            except Exception as exc:    # noqa: BLE001
                self._procs[index].terminate()  # dead or wedged: no grace
                self._release(index)
                reason = self._fail(f"worker {index} ({sibling.uid})", exc)
                for rest in queue:
                    self.pending.setdefault(rest, reason)
                return
            yield
        self._release(index)

    def _release(self, index):
        """Close a worker's link and reap it: once per worker, after
        its last hand-back or when its link fails."""
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

    def _push(self, queues):
        """Parent side, after every spawn and before the first collect,
        with ``{worker index: queue}`` (the real backend pushes each
        queue's forward migration here)."""

    def _attach(self, index, end):
        """Worker side, once: the link to hand back on."""
        return end

    def _recv_push(self, link, queue, index):
        """Worker side, once, before the first run (the real backend
        receives and checks its queue's forward migration here)."""

    def _send_delta(self, link, sibling, payload, index):
        """Worker side, after ``sibling``'s run and before its rewind."""
        link.send(payload)

    def _flush(self, link, index):
        """Worker side, once, after the queue's last rewind (the real
        backend sends its one hand-back and its wire ledger here)."""

    def _recv_deltas(self, link, queue, index):
        """Parent side: yield ``queue``'s payloads in queue order."""
        for _sibling in queue:
            if not link.poll(self.deadline):
                raise TimeoutError
            yield link.recv()

    # -- worker side -------------------------------------------------------

    def _run_worker(self, caller, sibling, marks):
        """Inside the worker: run ``sibling``'s subtree on the fork-time
        machine.  Returns the delta payload (or the reason string that
        demands the serial fallback) and what every ledger moved, for
        the rewind."""
        machine = self.machine
        caller_cycles = machine.trace.charged(caller.uid)
        # The subtree's fork-time image, which the hand-back is the
        # diff from: per space, every spliced field's (its slot tables
        # among them, to tell which pre-fork frames the run replaced:
        # only their refcounts condition its COW decisions).
        image = [(sp, {name: _image(getattr(sp, name))
                       for name in SPLICED})
                 for sp in sibling.walk()]

        machine.engine.run_until_stopped(sibling)

        moved = [ledger.delta(machine, mark)
                 for ledger, mark in zip(LEDGERS, marks)]
        # Refuse anything a delta cannot replay: a still-running
        # sibling, a guest stack left parked (Ret, an instruction
        # limit: the hand-back carries no stack to resume), cursor-
        # device reads (values depend on global order), or work
        # leaking into the caller's open segment.
        if sibling.state is SpaceState.READY:
            return "sibling still READY", moved
        if machine.engine._live:
            return "guest stack parked", moved
        for ledger, delta in zip(LEDGERS, moved):
            if ledger.refuse is not None and delta:
                return ledger.refuse, moved
        if machine.trace.charged(caller.uid) != caller_cycles:
            return "caller segment charged", moved

        # The hand-back's space diff: per pre-fork space (by uid), the
        # fields the run moved.  An address space or snapshot it left
        # in place stays the parent's; a pre-fork child travels as its
        # uid, a space the run created whole.
        serial0 = self._base["serial"]
        prefork = {id(sp) for sp, _ in image}
        spaces = {}
        replaced = set()
        for sp, fork_time in image:
            fields = {}
            for name, then in fork_time.items():
                value = getattr(sp, name)
                if not _left_alone(value, then):
                    fields[name] = value
            if not fields:
                continue
            spaces[sp.uid] = fields
            for name, slots in (("addrspace", "_pages"),
                                ("snapshot", "_frames")):
                before = fork_time[name]
                if name in fields and before is not None:
                    now = getattr(before[0], slots)
                    replaced.update(
                        page.serial for vpn, page in before[1].items()
                        if page.serial <= serial0 and now.get(vpn) is not page)
            # Stripped for the pickle: what the parent supplies itself.
            if "addrspace" in fields:
                fields["addrspace"].allocator = None
            if fields.get("snapshot") is not None:
                fields["snapshot"]._source = None
            if "children" in fields:
                fields["children"] = {
                    num: kid.uid if id(kid) in prefork else kid
                    for num, kid in fields["children"].items()}
        for top in _created(spaces):
            top.parent = None
            for sp in top.walk():
                sp.machine = None
                sp.ctx = None
                sp.addrspace.allocator = None
        # Only the ledgers the run moved ride the hand-back: an absent
        # key is an empty delta.
        payload = {"spaces": spaces, "replaced": sorted(replaced)}
        payload.update((ledger.key, delta)
                       for ledger, delta in zip(LEDGERS, moved)
                       if ledger.key is not None and delta)
        return payload, moved

    def _rewind(self, sibling, marks, moved):
        """Once a sibling is handed back, put the worker's machine back
        to fork time, so the next sibling of the queue runs against
        what a fresh worker would see."""
        machine = self.machine
        # Guest stacks a refused run left parked (Ret, an instruction
        # limit) unwind only now.  Unwinding runs guest ``finally``
        # clauses, which may charge and write: undo what the machine
        # shows afterwards.
        parked = list(machine.engine._live)
        if parked:
            for ctx in parked:
                ctx.kill()
            moved = [ledger.delta(machine, mark)
                     for ledger, mark in zip(LEDGERS, marks)]
        for ledger, mark, delta in zip(LEDGERS, marks, moved):
            if delta:
                ledger.rewind(machine, mark, delta)
        # A later sibling's copy-on-write decisions read the refcounts
        # of the fork-time frames it shares with this one.
        for page, refs, _generation in self.snapshots[sibling].values():
            page.refs = refs

    # -- adoption (parent side) --------------------------------------------

    def _adopt(self, child, payload, snap):
        """Validate a worker result against the *current* parent state
        and splice its space diff into ``child``'s subtree, renumbering
        by the current counters.  Returns None, or (mutating nothing)
        the validation that failed."""
        machine = self.machine
        serial0 = self._base["serial"]
        spaces = payload["spaces"]
        created = [sp for top in _created(spaces) for sp in top.walk()]

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
        # The worker paid to bring pre-fork frames to a node: if the
        # parent's tag cache there now holds one at the same generation
        # (a sibling adopted since brought it), the serial run would
        # have hit that entry and paid nothing.
        caches = machine.node_cache
        if any(serial <= serial0 and caches.get(node, {}).get(serial) == gen
               for node, brought in payload.get("node_cache", {}).items()
               for serial, gen in brought.items()):
            return "node cache moved"
        # Collect the handed tables' frame slots (a table the run left
        # in place is the parent's own, and stays as it is); any
        # pre-fork serial must resolve to a fork-time frame of this
        # sibling, and one the run wrote in place (it held every
        # reference: the write bumped the generation instead of
        # copying) to a live frame nobody else has come to share since.
        page_slots = {}          # id(page) -> [page, slot_count]
        for table in _handed_tables(spaces):
            for page in table.values():
                entry = page_slots.get(id(page))
                if entry is None:
                    page_slots[id(page)] = [page, 1]
                else:
                    entry[1] += 1
        # The frames the handed prefetch queues carry take the same
        # re-pointing and renumbering, slot or no slot.
        queues = [fields["inflight"] for fields in spaces.values()
                  if fields.get("inflight")]
        queues += [sp.inflight for sp in created if sp.inflight]
        exchanges = {id(exchange): exchange
                     for inflight in queues
                     for queue in inflight.values()
                     for _, exchange, _ in queue.values()}
        for exchange in exchanges.values():
            for page, _ in exchange.frames:
                page_slots.setdefault(id(page), [page, 0])
        for page, _count in page_slots.values():
            if page.serial <= serial0:
                entry = snap.get(page.serial)
                if entry is None:
                    return "foreign pre-fork frame"
                if page.generation != entry[2] and entry[0].refs != entry[1]:
                    return "refcount moved"

        # -- validation passed: splice (no failure paths below) --
        renumber = Renumber(machine, self._base)
        prefork = {sp.uid: sp for sp in child.walk()}

        # Exact refcounts: each of the parent's tables the diff replaces
        # releases every reference it held, each handed table re-takes
        # its own.
        released = {uid: {name: getattr(prefork[uid], name)
                          for name in ("addrspace", "snapshot")
                          if name in fields}
                    for uid, fields in spaces.items()}
        for table in _handed_tables(released):
            for page in table.values():
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
            # them): point every handed slot back at the live frame.
            for table in _handed_tables(spaces):
                for vpn, page in table.items():
                    live = pre_fork.get(id(page))
                    if live is not None:
                        table[vpn] = live

        # Each queued exchange: its issue anchor in the parent's
        # segment numbering, its frames re-pointed (once per exchange),
        # and each queue keyed by the frames' serials as re-pointed.
        for exchange in exchanges.values():
            if exchange.anchor is not None:
                exchange.anchor = renumber.sid(exchange.anchor)
            exchange.frames = [(pre_fork.get(id(page), page), generation)
                               for page, generation in exchange.frames]
        for inflight in queues:
            for node, queue in inflight.items():
                requeued = {}
                for held, exchange, page in queue.values():
                    page = pre_fork.get(id(page), page)
                    requeued[page.serial] = (held, exchange, page)
                inflight[node] = requeued
        for sp in created:
            sp.machine = machine
            sp.addrspace.allocator = machine.frames
            sp.uid = renumber.uid(sp.uid)

        # Splice each pre-fork space's moved fields into the parent's
        # own Space object (the caller's child table and the trace keep
        # referring to it); a pre-fork child named by uid is the
        # parent's object again.
        for uid, fields in spaces.items():
            sp = prefork[uid]
            children = fields.get("children")
            if children is not None:
                for num, kid in children.items():
                    if isinstance(kid, str):
                        children[num] = kid = prefork[kid]
                    kid.parent = sp
            for name, value in fields.items():
                setattr(sp, name, value)
            sp.addrspace.allocator = machine.frames
            if sp.snapshot is not None and sp.snapshot._token is not None:
                sp.snapshot._source = sp.addrspace
        child.ctx = None
        if not created and not any("addrspace" in fields
                                   for fields in spaces.values()):
            self.addrspace_unshipped += 1

        # Every ledger the run moved: the trace suffix (segment ids
        # shift by the parent's growth since the fork, the sibling's
        # fork-time open segment takes its final charge), the machine
        # and transport accumulations, the cache and placement tables.
        for ledger in LEDGERS:
            if ledger.key in payload:
                ledger.adopt(machine, payload[ledger.key], renumber)
        return None
