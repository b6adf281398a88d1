"""Real-process execution backend (``ClusterSpec(backend="real")``).

The simulated machine is deterministic end to end, so it can serve as
an *exact oracle* for a backend where cluster nodes are real host
processes and migration state moves over real sockets.  This module is
that backend:

* :class:`RealShardCoordinator` is ``repro.kernel.shard``'s
  coordinator — which owns every worker's life: one long-lived host
  process per worker slot (a cluster node, by default), serving a queue
  of cluster-node subtrees and rewinding between them — with another
  hand-back link and another failure policy.  Instead of a pipe,
  coordinator and worker speak the cluster protocol's typed messages —
  MIGRATE / PAGE_BATCH / ACK — as binary frames over a localhost socket
  (``repro.cluster.realnet``), connected once per worker.  A worker's
  link carries one exchange each way.  Its queue's forward migration
  is one push, made before any hand-back is collected: a MIGRATE
  offering each subtree's fork-time frames in queue order, then every
  offered frame once (through the shared codec when the machine
  compresses) — exactly what the worker lacks — with no reply
  awaited; the worker checks the push against its own queue.  Its
  queue's hand-back is one return after the last run: a MIGRATE
  carrying each run's shard delta, pickled as the run ended — only the
  ledgers the run moved, only the space fields it moved (an address
  space or snapshot left in place is not in it), and in a shipped
  table every fork-time frame the run left alone as its serial,
  resolved through the sibling's fork-time snapshot — then the bytes
  of every frame the runs created or wrote in place, then the worker's
  wire ledger on one ACK.
  Workers compute on wire-delivered bytes — delivered once per worker,
  generation-checked per subtree — so a codec or framing bug
  diverges the cross-backend oracle instead of hiding behind fork's
  copy-on-write.

* Adoption is the *same* code as the simulated shard path, so computed
  values, memory images, frame serials, trace segments, and every
  simulated transport/conservation ledger come out bit-identical to
  the serial simulated run — one image equality
  (``repro.debug.freeze_machine``; ``first_difference`` names what
  moved), which is the differential oracle
  (``tests/cluster/test_backend_oracle.py``).  What the real backend
  adds is *measured wall-clock* (real parallelism across host
  processes) next to the simulated cycle makespan, plus a real-wire
  ledger per coordinator<->worker link with the same conservation
  discipline (bytes sent == bytes received, checked from both ends).

* Failures are typed, bounded, and clean: a worker that cannot start,
  dies or hangs surfaces a :class:`~repro.common.errors.BackendError`
  within the coordinator's deadline, every child process is reaped
  (``multiprocessing.active_children()`` is empty), and the parent's
  simulated state is untouched — nothing mutates before adoption.

Entry points: :func:`run_backend` (dispatches on ``spec.backend``;
``spec=ClusterSpec(backend="real")`` picks this one),
:class:`RealRunResult` (the ``MachineResult`` + image + both timing
columns), and
:func:`image_digest` (a stable hash of a frozen machine image, for
reporting cross-backend identity as one comparable line).
"""

import contextlib
import hashlib
import time
from enum import Enum

from repro.cluster import realnet
from repro.cluster.compress import SCHEME_RAW, decode_page, encode_page
from repro.cluster.spec import NODE_CPUS
from repro.cluster.transport import MsgType
from repro.common.errors import BackendError, WireError
from repro.debug.model import freeze_machine
from repro.kernel.shard import (
    ShardCoordinator,
    _handed_tables,
    _walk_page_slots,
    fork_refusal,
)
from repro.mem.page import PAGE_SIZE

_EMPTY = {"frames": 0, "bytes": 0, "pages": 0}


def _batched(items, size):
    """``items`` in chunks of ``size`` (the cost model's scatter/gather
    batch, replicated on the real wire)."""
    for i in range(0, len(items), size):
        yield items[i:i + size]


class RealShardCoordinator(ShardCoordinator):
    """Shard coordinator whose workers are real host processes speaking
    the cluster protocol over localhost sockets."""

    #: A single sibling subtree is worth a real process (the simulated
    #: coordinator needs >= 2 — inline is just as fast there).
    MIN_SIBLINGS = 1

    def __init__(self, machine, workers):
        super().__init__(machine, max(1, workers))
        # Unlike the pipe coordinator's serial fallback, an incompatible
        # spec is a hard error: the caller asked for real processes and
        # would otherwise measure the wrong thing.
        problem = fork_refusal()
        if problem is None and not realnet.localhost_available():
            problem = "requires localhost TCP sockets"
        if problem is not None:
            raise BackendError(f'backend="real" {problem}')
        #: Real-wire ledgers: ``(src, dst) -> sender counts + receiver
        #: counts`` per directed coordinator<->worker link.
        self.wire_links = {}
        self.wire_reports_missing = 0
        #: Worker side: each run's pickled hand-back entry and the
        #: frames it ships, held until the queue's last run.
        self._outbox = []

    def _fail(self, what, exc):
        """The failure policy here: tear everything down, discard all
        pending results, shut the gates and raise.  Nothing mutated the
        parent before adoption, so surviving subtrees drain inline."""
        self.close()
        self.pending.clear()
        self.snapshots.clear()
        self.refused = f"real backend aborted: {what}: {exc}"
        raise BackendError(self.refused)

    # -- the hand-back link: the cluster wire ------------------------------

    def _spawn(self, caller, queue):
        # Stays this class's own attribute: perfbench times the real
        # backend's fork by this dotted name, through ``vars()``.  The
        # listening socket is the coordinator's own link, torn down with
        # the workers' by the one ``close``.
        if realnet.COORD not in self._links:
            self._links[realnet.COORD] = realnet.listen(self.deadline)
        return super()._spawn(caller, queue)

    def _open_link(self, index):
        return contextlib.nullcontext()     # the worker connects back

    def _push(self, queues):
        """Accept every worker's connection (one hello each, for its
        whole queue), then push each worker its queue's forward
        migration before collecting any hand-back: a worker blocks on
        its push, so one pushed lazily would wait out a whole queue."""
        waiting = set(queues)
        while waiting:
            chan = realnet.accept(self._links[realnet.COORD], self.deadline)
            try:
                _, _, _, hello = chan.recv(expect=MsgType.ACK)
                index = hello.get("worker")
                if index not in waiting:
                    raise WireError(f"unexpected worker hello {hello!r}")
            except BaseException:
                chan.close()
                raise
            waiting.remove(index)
            self._links[index] = chan
        for index, queue in queues.items():
            self._push_queue(self._links[index], queue, index)

    def _push_queue(self, chan, queue, index):
        """Push one worker its queue's forward migration and await no
        reply: one MIGRATE offering each subtree's fork-time frames, in
        queue order, then — batched like the simulated scatter/gather —
        every offered frame once.  That union is exactly what the
        worker lacks: the parent is the only source of every page a
        worker installs, and it pushes each worker once.  The worker
        checks the push against its own queue; any disagreement kills
        it, and the collect of its queue reports it."""
        offers = []
        frames = {}     # serial -> (serial, generation, data)
        for sibling in queue:
            snap = self.snapshots[sibling]
            offers.append((sibling.uid, sorted(
                (serial, entry[2]) for serial, entry in snap.items())))
            for serial, (page, _refs, generation) in snap.items():
                frames[serial] = (serial, generation, page.data)
        pages = [frames[serial] for serial in sorted(frames)]
        chan.send(MsgType.MIGRATE, realnet.COORD, index,
                  {"kind": "forward", "queue": offers,
                   "npages": len(pages)})
        for chunk in _batched(pages, self.machine.cost.msg_batch):
            chan.send(MsgType.PAGE_BATCH, realnet.COORD, index,
                      self._encode_pages(chunk))

    def _encode_pages(self, frames):
        """``(serial, generation, data)`` -> wire page tuples, through
        the shared compression codec when the machine compresses."""
        out = []
        for serial, generation, data in frames:
            if self.machine.spec.compression:
                scheme, payload = encode_page(data)
            else:
                scheme, payload = SCHEME_RAW, bytes(data)
            out.append((serial, generation, scheme, payload))
        return out

    # -- worker (child process) --------------------------------------------

    def _attach(self, index, end):
        """Connect back and say hello, once for the whole queue."""
        addr = self._links[realnet.COORD].getsockname()
        self._links[realnet.COORD].close()      # the child's inherited copy
        chan = realnet.connect(addr, self.deadline)
        chan.send(MsgType.ACK, index, realnet.COORD, {"worker": index})
        return chan

    def _recv_push(self, chan, queue, index):
        """Receive the queue's forward migration, once: the offer, then
        the pushed pages, installed over the fork-time frames.  The
        offer must name the queue's subtrees in queue order, each with
        exactly its fork-time frames at their generations; the push
        must be exactly the offered frames — a frame two subtrees share
        once, none missing.  The installed bytes are what every subtree
        computes on, so wire corruption surfaces as an oracle
        divergence, not silently masked by fork's copy-on-write."""
        _, _, _, push = chan.recv(expect=MsgType.MIGRATE)
        offers = push.get("queue")
        if not isinstance(offers, list) or \
                [uid for uid, _ in offers] != [sib.uid for sib in queue]:
            raise WireError("forward offer does not name the worker's "
                            "queue in order")
        missing = {}
        for sibling, (_uid, offered) in zip(queue, offers):
            frames = {page.serial: page for page in _walk_page_slots(sibling)}
            if sorted(serial for serial, _gen in offered) != sorted(frames):
                raise WireError(f"forward offer does not match subtree "
                                f"{sibling.uid}'s frames")
            for serial, generation in offered:
                if frames[serial].generation != generation:
                    raise WireError(f"forward frame {serial} offered at a "
                                    f"stale generation")
                missing[serial] = frames[serial]
        if push.get("npages") != len(missing):
            raise WireError(f"forward push announces {push.get('npages')} "
                            f"pages, the worker lacks {len(missing)}")
        self._fault("before-install")
        while missing:
            _, _, _, pages = chan.recv(expect=MsgType.PAGE_BATCH)
            if not pages:
                raise WireError("empty PAGE_BATCH in forward migration")
            for serial, generation, scheme, payload in pages:
                page = missing.pop(serial, None)
                if page is None or page.generation != generation:
                    raise WireError(f"forward frame {serial} pushed but "
                                    f"not lacking at that generation")
                page.data[:] = _decode_page(scheme, payload)

    def _send_delta(self, chan, sibling, payload, index):
        """Strip and pickle one run's hand-back as soon as the run ends
        — before the rewind puts the machine back — and hold it, with
        the bytes of every frame the run created or wrote, for the
        queue's one hand-back (``_flush``)."""
        shipped, swapped = [], []
        if isinstance(payload, str):
            payload = {"refused": payload}
        else:
            shipped, swapped = self._strip_pages(
                payload, self.snapshots[sibling])
        try:
            pickled = realnet.encode_payload(MsgType.MIGRATE, payload)
        finally:
            # Later siblings of the queue still map the fork-time
            # frames: put them back in their slots.
            for table, vpn, page in swapped:
                table[vpn] = page
        self._outbox.append((pickled, shipped))

    def _flush(self, chan, index):
        """Ship the queue's hand-back: one MIGRATE carrying every run's
        pickled entry in queue order and how many frames each ships,
        then those frames' bytes as PAGE_BATCH frames in the same
        order, then the link's wire ledger on one ACK."""
        outbox, self._outbox = self._outbox, []
        chan.send(MsgType.MIGRATE, index, realnet.COORD,
                  {"kind": "handback",
                   "payloads": [pickled for pickled, _ in outbox],
                   "npages": [len(shipped) for _, shipped in outbox]})
        self._fault("mid-handback")
        frames = [frame for _, shipped in outbox for frame in shipped]
        for chunk in _batched(frames, self.machine.cost.msg_batch):
            chan.send(MsgType.PAGE_BATCH, index, realnet.COORD,
                      self._encode_pages(chunk))
        self._fault("before-report")
        chan.send(MsgType.ACK, index, realnet.COORD,
                  {"status": "done", "ledger": chan.ledger()})

    def _crosses(self, page, snap):
        """Whether ``page``'s bytes cross the wire on a hand-back: the
        run created the frame, or wrote a fork-time frame in place."""
        entry = snap.get(page.serial)
        return page.serial > self._base["serial"] or \
            (entry is not None and page.generation != entry[2])

    def _strip_pages(self, payload, snap):
        """Take what the parent already holds out of the hand-back
        payload for the time of its pickling.  Returns ``(shipped,
        swapped)``: frames the run created or wrote cross as PAGE_BATCH
        wire frames (their bytes detached from the pickled ``Page``);
        every slot of an untouched fork-time frame in a handed table
        holds the frame's serial instead (``(table, vpn, page)``, to
        put back), which the parent resolves through the sibling's
        fork-time snapshot ``snap``.  A table the run left in place is
        not in the payload at all."""
        shipped = {}
        swapped = []
        for table in _handed_tables(payload["spaces"]):
            for vpn, page in table.items():
                if not self._crosses(page, snap):
                    swapped.append((table, vpn, page))
                    table[vpn] = page.serial
                elif id(page) not in shipped:
                    shipped[id(page)] = (page.serial, page.generation,
                                         page.data)
                    page.data = bytearray()
        return sorted(shipped.values(), key=lambda entry: entry[0]), swapped

    # -- collection (parent side) ------------------------------------------

    def _recv_deltas(self, chan, queue, index):
        """Receive a worker's one hand-back — the MIGRATE, its page
        batches, the wire-ledger report — then yield each run's payload
        in queue order, its shipped frames reattached."""
        _, _, _, head = chan.recv(expect=MsgType.MIGRATE)
        entries, counts = head.get("payloads"), head.get("npages")
        if head.get("kind") != "handback" or not isinstance(entries, list) \
                or not isinstance(counts, list) \
                or len(counts) != len(entries):
            raise WireError(f"unexpected hand-back header {head!r}")
        if len(entries) != len(queue):
            raise WireError(f"hand-back carries {len(entries)} payloads "
                            f"for a queue of {len(queue)}")
        want = sum(counts)
        frames = []
        while len(frames) < want:
            _, _, _, pages = chan.recv(expect=MsgType.PAGE_BATCH)
            if not pages:
                raise WireError("empty PAGE_BATCH in hand-back")
            frames.extend(pages)
        if len(frames) != want:
            raise WireError(f"hand-back carries {len(frames)} frames, "
                            f"announced {want}")
        # The worker snapshots its ledger before the report frame goes
        # out, so conservation compares against the parent's receive
        # counts at the same instant: the whole queue's.
        pre_ack = {link: dict(entry) for link, entry in chan.received.items()}
        _, _, _, fin = chan.recv(expect=MsgType.ACK)
        self._account(index, chan, fin.get("ledger"), pre_ack)
        start = 0
        for sibling, pickled, count in zip(queue, entries, counts):
            payload = realnet.decode_payload(MsgType.MIGRATE, pickled)
            if "spaces" in payload:
                wire_pages = {
                    serial: (generation, _decode_page(scheme, data))
                    for serial, generation, scheme, data
                    in frames[start:start + count]}
                self._reattach(payload, wire_pages, self.snapshots[sibling])
            elif "refused" in payload and not count:
                payload = str(payload["refused"])
            else:
                raise WireError(f"unexpected hand-back entry {payload!r}")
            start += count
            yield payload

    def _reattach(self, payload, wire_pages, snap):
        """Make the unpickled hand-back's tables whole: a serial slot
        resolves to the sibling's fork-time frame (a serial it did not
        hold at the fork is refused), and every shipped frame takes its
        wire bytes back (generation-checked).  ``_adopt`` then treats a
        resolved frame like any other fork-time one."""
        restored = set()
        for table in _handed_tables(payload["spaces"]):
            for vpn, page in table.items():
                if type(page) is int:
                    entry = snap.get(page)
                    if entry is None:
                        raise WireError(f"hand-back names frame {page}, "
                                        f"which the subtree did not hold "
                                        f"at the fork")
                    table[vpn] = entry[0]
                elif id(page) not in restored:
                    restored.add(id(page))
                    wired = wire_pages.get(page.serial)
                    if wired is None:
                        raise WireError(f"frame {page.serial} missing from "
                                        f"the hand-back batches")
                    generation, data = wired
                    if generation != page.generation:
                        raise WireError(f"frame {page.serial} generation "
                                        f"mismatch on hand-back")
                    page.data = bytearray(data)
        if len(restored) != len(wire_pages):
            raise WireError(f"hand-back shipped "
                            f"{len(wire_pages) - len(restored)} frames no "
                            f"slot references")

    def _account(self, index, chan, report, received):
        """Fold one worker's final wire ledger into the per-link table:
        each directed link records the sender's counts next to the
        receiver's, so conservation is checked from both ends."""
        if not isinstance(report, dict):
            self.wire_reports_missing += 1
            return
        pairs = (
            ((realnet.COORD, index), chan.sent, report.get("received", {})),
            ((index, realnet.COORD), report.get("sent", {}), received),
        )
        for link, send_table, recv_table in pairs:
            sent = send_table.get(link, _EMPTY)
            received = recv_table.get(link, _EMPTY)
            self.wire_links[link] = {
                "frames": sent["frames"],
                "bytes": sent["bytes"],
                "pages": sent["pages"],
                "frames_received": received["frames"],
                "bytes_received": received["bytes"],
                "pages_received": received["pages"],
            }

    def wire_conservation_ok(self):
        """Every real link's receiver counts match its sender counts
        (frames, bytes, and pages), and every worker reported."""
        if self.wire_reports_missing:
            return False
        for entry in self.wire_links.values():
            if (entry["frames"] != entry["frames_received"]
                    or entry["bytes"] != entry["bytes_received"]
                    or entry["pages"] != entry["pages_received"]):
                return False
        return True


def _decode_page(scheme, payload):
    """Wire page -> exactly PAGE_SIZE bytes (anything else is a frame
    corruption, not a valid page)."""
    try:
        data = decode_page(scheme, bytes(payload))
    except Exception as exc:
        raise WireError(f"page payload failed to decode: {exc}") from exc
    if len(data) != PAGE_SIZE:
        raise WireError(f"decoded page is {len(data)} bytes, "
                        f"expected {PAGE_SIZE}")
    return data


# -- results & entry points -------------------------------------------------

class RealRunResult:
    """Outcome of :func:`run_backend`: the run's
    :class:`~repro.kernel.machine.MachineResult` plus what the backend
    adds — measured wall-clock, the frozen machine image (captured
    before close — the cross-backend identity artifact), either
    coordinator's counts and the real-wire ledgers."""

    def __init__(self, result, wall_seconds, image):
        #: The run's MachineResult; ``machine``, ``backend``, ``value``
        #: and ``network`` below read through it.
        self.result = result
        #: Simulated cycles on the spec's CPUs — backend-invariant;
        #: scheduled here, once.
        self.makespan = result.makespan()
        #: Measured host wall-clock of the run — the real backend's own
        #: timing column (never compared across backends).
        self.wall_seconds = wall_seconds
        #: Frozen machine image (the space tree down to page bytes and
        #: refcounts, and the hand-back of the whole run: trace, link /
        #: node / pair rows, counters, console, merge log); equal across
        #: backends by construction.
        self.image = image
        shard = self.machine.shard
        #: Either coordinator's counts and reasons (None without one).
        self.shard_stats = None if shard is None else shard.stats()
        #: Real-backend extras: the real-wire per-link ledgers and
        #: their conservation verdict.
        real = self.backend == "real"
        wire_links = shard.wire_links if real else {}
        self.wire = {link: dict(entry) for link, entry in wire_links.items()}
        self.wire_ok = shard.wire_conservation_ok() if real else None

    machine = property(lambda self: self.result.machine)
    backend = property(lambda self: self.machine.spec.backend)
    value = property(lambda self: self.result.value)
    network = property(lambda self: self.result.network)

    def __repr__(self):
        return (f"<RealRunResult backend={self.backend!r} "
                f"value={self.value!r} makespan={self.makespan} "
                f"wall={self.wall_seconds:.3f}s>")


def run_backend(entry_builder, nnodes, spec=None):
    """Run ``entry_builder(g, nnodes)`` on ``spec.backend`` and return a
    :class:`RealRunResult` (both backends return the same shape, so the
    differential oracle is one image comparison)."""
    from repro.kernel.machine import Machine
    return run_machine(Machine(nnodes=nnodes, spec=spec), entry_builder)


def run_machine(machine, entry_builder):
    """:func:`run_backend` on a machine already built — and, in the
    worker-fault tests, given its deadlines and injected faults — then
    closed."""
    start = time.perf_counter()
    with machine:
        result = machine.run(entry_builder, (machine.nnodes,),
                             ncpus=NODE_CPUS)
        wall = time.perf_counter() - start
        if machine.spec.backend == "real" and machine.shard.refused:
            raise BackendError(machine.shard.refused)
        if result.trap_info.startswith(("BackendError", "WireError")):
            raise BackendError(result.trap_info)
        # Freeze before close: Machine.close destroys the space tree.
        return RealRunResult(result.check("cluster workload"), wall,
                             freeze_machine(machine))


# -- image digest -----------------------------------------------------------

def _canon(value):
    """Deterministic canonical string of any value an image holds.
    Byte strings (a page is 4 KiB of them) canonicalize by their own
    sha256; slotted objects (the images, ``MergeStats``) by their slots
    in declaration order; callables (guest entry functions living in
    regs) by qualified name — identical across backends, stable across
    runs (no memory addresses)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    if isinstance(value, (bytes, bytearray)):
        return f"b{len(value)}:{hashlib.sha256(value).hexdigest()}"
    if isinstance(value, Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(_canon(item) for item in value) + ")"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canon(item) for item in value)) + "}"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
        return "{" + ",".join(f"{_canon(k)}:{_canon(v)}"
                              for k, v in items) + "}"
    slots = getattr(type(value), "__slots__", None)
    if slots:
        return (f"{type(value).__name__}("
                + ",".join(_canon(getattr(value, slot)) for slot in slots)
                + ")")
    if callable(value):
        return f"<{getattr(value, '__qualname__', type(value).__name__)}>"
    return f"<{type(value).__qualname__}>"


def image_digest(image):
    """A stable sha256 over a frozen :class:`MachineImage` — whatever
    its declarations make it hold: equal images hash equal on any
    backend and any run, so cross-backend identity reports as one
    comparable hex line."""
    return hashlib.sha256(_canon(image).encode()).hexdigest()
