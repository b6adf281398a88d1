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
  MIGRATE / PAGE_REQ / PAGE_BATCH / ACK — as binary frames over a
  localhost socket (``repro.cluster.realnet``), connected once per
  worker: each subtree's forward migration offers its fork-time frames
  and ships the pages the worker requests — those it has not already
  installed from the wire at that generation for an earlier subtree of
  its queue (through the shared codec when the machine compresses);
  the hand-back ships every frame the run created or wrote in place
  the same way, the shard delta riding the MIGRATE control frame.
  Workers compute on wire-delivered bytes — delivered once per worker,
  generation-checked on every offer — so a codec or framing bug
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

Entry points: :func:`run_backend` (dispatches on ``spec.backend``),
:func:`run_real` (forces the real backend), :class:`RealRunResult`
(the ``MachineResult`` + image + both timing columns), and
:func:`image_digest` (a stable hash of a frozen machine image, for
reporting cross-backend identity as one comparable line).
"""

import contextlib
import hashlib
import time
from enum import Enum

from repro.cluster import realnet
from repro.cluster.compress import SCHEME_RAW, decode_page, encode_page
from repro.cluster.spec import NODE_CPUS, ClusterSpec
from repro.cluster.transport import MsgType
from repro.common.errors import BackendError, WireError
from repro.debug.model import freeze_machine
from repro.kernel.shard import (
    ShardCoordinator,
    _walk_page_slots,
    fork_refusal,
)
from repro.mem.page import PAGE_SIZE

COORD = realnet.COORD

_EMPTY = {"frames": 0, "bytes": 0, "pages": 0}


def _distinct_pages(space):
    """Each frame ``space``'s subtree references, once."""
    seen = set()
    for page in _walk_page_slots(space):
        if id(page) not in seen:
            seen.add(id(page))
            yield page


def _batched(items, size):
    """``items`` in chunks of ``size`` (the cost model's scatter/gather
    batch, replicated on the real wire)."""
    size = max(1, size)
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
        problem = fork_refusal(machine)
        if problem is None and not realnet.localhost_available():
            problem = "requires localhost TCP sockets"
        if problem is not None:
            raise BackendError(f'backend="real" {problem}')
        #: Real-wire ledgers: ``(src, dst) -> sender counts + receiver
        #: counts`` per directed coordinator<->worker link.
        self.wire_links = {}
        self.wire_reports_missing = 0
        #: Worker side: ``serial -> generation`` of every frame this
        #: process installed from the wire — what a later forward offer
        #: need not ship again (the DESIGN §3 delta filter).
        self._installed = {}

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
        if COORD not in self._links:
            self._links[COORD] = realnet.listen(self.deadline)
        return super()._spawn(caller, queue)

    def _open_link(self, index):
        return contextlib.nullcontext()     # the worker connects back

    def _wave_started(self, handles):
        """Accept the workers not connected yet (the first round: one
        connection and hello per worker, for its whole queue), then
        serve every forward page exchange of the round before
        collecting any result: a worker blocks on its forward pages, so
        a lazily served exchange would serialize the round."""
        waiting = {index for _, index in handles} - self._links.keys()
        while waiting:
            chan = realnet.accept(self._links[COORD], self.deadline)
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
        for sibling, index in handles:
            self._serve_forward(self._links[index], sibling, index)

    def _serve_forward(self, chan, sibling, index):
        """Offer the sibling's fork-time frames, ship the ones the
        worker requests — those it has not installed at that generation
        for an earlier sibling of its queue — batched like the
        simulated scatter/gather."""
        snap = self.snapshots[sibling]
        offer = sorted((serial, entry[2]) for serial, entry in snap.items())
        chan.send(MsgType.MIGRATE, COORD, index,
                  {"kind": "forward", "frames": offer, "uid": sibling.uid})
        _, _, _, wanted = chan.recv(expect=MsgType.PAGE_REQ)
        if len(set(wanted)) != len(wanted) or not snap.keys() >= set(wanted):
            raise WireError(f"worker {index} requested pages outside "
                            f"the forward offer, or twice")
        frames = [(serial, snap[serial][0].generation, snap[serial][0].data)
                  for serial in wanted]
        for chunk in _batched(frames, self.machine.cost.msg_batch):
            chan.send(MsgType.PAGE_BATCH, COORD, index,
                      self._encode_pages(chunk))
        _, _, _, ack = chan.recv(expect=MsgType.ACK)
        if ack.get("status") != "ok":
            raise WireError(f"worker {index} rejected the forward "
                            f"migration: {ack!r}")

    def _encode_pages(self, frames):
        """``(serial, generation, data)`` -> wire page tuples, through
        the shared compression codec when the machine compresses."""
        out = []
        for serial, generation, data in frames:
            if self.machine.spec.compression:
                scheme, payload = encode_page(bytes(data))
            else:
                scheme, payload = SCHEME_RAW, bytes(data)
            out.append((serial, generation, scheme, payload))
        return out

    # -- worker (child process) --------------------------------------------

    def _attach(self, index, end):
        """Connect back and say hello, once for the whole queue."""
        addr = self._links[COORD].getsockname()
        self._links[COORD].close()      # the child's inherited copy
        chan = realnet.connect(addr, self.deadline)
        chan.send(MsgType.ACK, index, COORD, {"worker": index})
        return chan

    def _begin(self, chan, sibling, index):
        """Receive the sibling's forward migration: request and install
        the offered fork-time frames this process does not hold yet.
        The installed bytes are what the subtree computes on — delivered
        once per worker, generation-checked on every offer — so wire
        corruption surfaces as an oracle divergence, not silently
        masked by fork's copy-on-write."""
        frames = {page.serial: page for page in _walk_page_slots(sibling)}
        _, _, _, offer = chan.recv(expect=MsgType.MIGRATE)
        offered = offer.get("frames", [])
        if offer.get("uid") != sibling.uid or \
                sorted(serial for serial, _gen in offered) != sorted(frames):
            raise WireError("forward offer does not match the forked "
                            "subtree's frames")
        held = self._installed
        missing = {}
        for serial, generation in offered:
            if frames[serial].generation != generation:
                raise WireError(f"forward frame {serial} offered at a "
                                f"stale generation")
            if held.get(serial) != generation:
                missing[serial] = frames[serial]
        chan.send(MsgType.PAGE_REQ, index, COORD, list(missing))
        self._fault("before-install")
        while missing:
            _, _, _, pages = chan.recv(expect=MsgType.PAGE_BATCH)
            if not pages:
                raise WireError("empty PAGE_BATCH in forward migration")
            for serial, generation, scheme, payload in pages:
                page = missing.pop(serial, None)
                if page is None or page.generation != generation:
                    raise WireError(f"forward frame {serial} unrequested "
                                    f"or at a stale generation")
                page.data[:] = _decode_page(scheme, payload)
                held[serial] = generation
        chan.send(MsgType.ACK, index, COORD, {"status": "ok"})

    def _send_delta(self, chan, payload, index):
        """Ship the run's delta: the bytes of every frame the run
        created or wrote as PAGE_BATCH frames, the structural payload
        on the MIGRATE control frame, the wire ledger so far on the
        final ACK."""
        if isinstance(payload, str):
            chan.send(MsgType.MIGRATE, index, COORD,
                      {"kind": "refused", "reason": payload})
        else:
            shipped, stripped = self._strip_pages(payload)
            try:
                chan.send(MsgType.MIGRATE, index, COORD,
                          {"kind": "result", "payload": payload,
                           "npages": len(shipped)})
            finally:
                # Later siblings of the queue still map the fork-time
                # frames: give them their bytes back.
                for page, data in stripped:
                    page.data = data
            self._fault("mid-handback")
            for chunk in _batched(shipped, self.machine.cost.msg_batch):
                chan.send(MsgType.PAGE_BATCH, index, COORD,
                          self._encode_pages(chunk))
        chan.send(MsgType.ACK, index, COORD,
                  {"status": "done", "ledger": chan.ledger()})

    def _crosses(self, page, snap):
        """Whether ``page``'s bytes cross the wire on a hand-back: the
        run created the frame, or wrote a fork-time frame in place."""
        entry = snap.get(page.serial)
        return page.serial > self._base["serial"] or \
            (entry is not None and page.generation != entry[2])

    def _strip_pages(self, payload):
        """Detach page bytes from the hand-back payload for the time of
        its pickling.  Returns ``(shipped, stripped)``: frames the run
        created or wrote cross as PAGE_BATCH wire frames; untouched
        fork-time frames never cross at all (adoption re-points their
        slots at the parent's live frames) and get their bytes back."""
        snap = self.snapshots[payload["spaces"]]
        shipped = []
        stripped = []
        for page in _distinct_pages(payload["spaces"]):
            if self._crosses(page, snap):
                shipped.append((page.serial, page.generation, page.data))
            else:
                stripped.append((page, page.data))
            page.data = bytearray()
        shipped.sort(key=lambda entry: entry[0])
        return shipped, stripped

    # -- collection (parent side) ------------------------------------------

    def _recv_delta(self, chan, sibling, index):
        _, _, _, head = chan.recv(expect=MsgType.MIGRATE)
        kind = head.get("kind")
        if kind == "result":
            payload = head["payload"]
            wire_pages = {}
            want = head.get("npages", 0)
            while len(wire_pages) < want:
                _, _, _, pages = chan.recv(expect=MsgType.PAGE_BATCH)
                if not pages:
                    raise WireError("empty PAGE_BATCH in hand-back")
                for serial, generation, scheme, data in pages:
                    wire_pages[serial] = (generation,
                                          _decode_page(scheme, data))
            self._reattach(payload, wire_pages, self.snapshots[sibling])
        elif kind == "refused":
            payload = str(head.get("reason"))
        else:
            raise WireError(f"unexpected hand-back header {head!r}")
        # The worker's ledger is snapshotted before its final ACK
        # frame goes out, so conservation compares against the
        # parent's receive counts at the same instant.  Channel ledgers
        # are cumulative: each hand-back of a queue overwrites the
        # link's entry with the later totals.
        pre_ack = {link: dict(entry)
                   for link, entry in chan.received.items()}
        _, _, _, fin = chan.recv(expect=MsgType.ACK)
        self._account(index, chan, fin.get("ledger"), pre_ack)
        return payload

    def _reattach(self, payload, wire_pages, snap):
        """Restore the wire-shipped bytes into the unpickled hand-back
        graph (generation-checked); untouched fork-time frames stay
        empty — the shared adoption path re-points their slots at live
        frames."""
        restored = 0
        for page in _distinct_pages(payload["spaces"]):
            if not self._crosses(page, snap):
                continue
            entry = wire_pages.get(page.serial)
            if entry is None:
                raise WireError(f"frame {page.serial} missing from the "
                                f"hand-back batches")
            generation, data = entry
            if generation != page.generation:
                raise WireError(f"frame {page.serial} generation mismatch "
                                f"on hand-back")
            page.data = bytearray(data)
            restored += 1
        if restored != len(wire_pages):
            raise WireError(f"hand-back shipped "
                            f"{len(wire_pages) - restored} frames no "
                            f"slot references")

    def _account(self, index, chan, report, received):
        """Fold one worker's final wire ledger into the per-link table:
        each directed link records the sender's counts next to the
        receiver's, so conservation is checked from both ends."""
        if not isinstance(report, dict):
            self.wire_reports_missing += 1
            return
        pairs = (
            ((COORD, index), chan.sent, report.get("received", {})),
            ((index, COORD), report.get("sent", {}), received),
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


def run_backend(entry_builder, nnodes, spec=None, configure=None):
    """Run ``entry_builder(g, nnodes)`` on ``spec.backend`` and return a
    :class:`RealRunResult` (both backends return the same shape, so the
    differential oracle is one image comparison).

    ``configure(machine)``, when given, runs after construction and
    before the workload — the test hook for deadlines and fault
    injection.
    """
    from repro.kernel.machine import Machine
    machine = Machine(nnodes=nnodes, spec=spec)
    if configure is not None:
        configure(machine)
    start = time.perf_counter()
    with machine:
        result = machine.run(entry_builder, (nnodes,), ncpus=NODE_CPUS)
        wall = time.perf_counter() - start
        if machine.spec.backend == "real" and machine.shard.refused:
            raise BackendError(machine.shard.refused)
        if result.trap_info.startswith(("BackendError", "WireError")):
            raise BackendError(result.trap_info)
        # Freeze before close: Machine.close destroys the space tree.
        return RealRunResult(result.check("cluster workload"), wall,
                             freeze_machine(machine))


def run_real(entry_builder, nnodes, spec=None, configure=None):
    """:func:`run_backend` with the real backend forced on."""
    spec = (spec or ClusterSpec()).with_(backend="real")
    return run_backend(entry_builder, nnodes, spec=spec,
                       configure=configure)


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
