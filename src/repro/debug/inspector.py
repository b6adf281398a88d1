"""The post-mortem inspector: one object tying a finished run's
machine, trace, schedule, and checkpoints into a queryable whole.

The paper's opening claim — determinism is "the foundation of replay
debugging" — is operationalized here.  Because a run is a pure function
of its explicit inputs, a finished :class:`~repro.kernel.machine.Machine`
plus a *recipe* that can re-execute it is a complete time-travel
debugger: any cycle of the schedule can be revisited by replaying up to
it (``goto``), and the replay is bit-identical **by construction and by
assertion** (the inspector compares the replay's trace against the
original and raises :class:`~repro.common.errors.ReplayDivergence` on
the first mismatch rather than showing state from a diverged world).

``goto N``'s semantics: the machine state once every segment the
schedule *finished by cycle N* has closed.  The anchor set is computed
from the original trace's schedule, and the capture fires inside the
replay's :attr:`~repro.timing.trace.Trace.on_close` observer the moment
the last anchor segment closes — a deep byte-copy capture
(:func:`~repro.debug.model.freeze_machine`) that takes no COW
references, so the remainder of the replay proceeds untouched and the
trace-equality assertion stays meaningful end to end.

Replays force the serial engine (``machine.shard = None``) even when
the original ran sharded: sharded adoption splices pre-closed segments
into the trace without close events, and serial-vs-sharded
bit-identity is a repo invariant — which makes every sharded ``goto``
double as an oracle check of the sharded execution path.
"""

from repro.common.errors import DebugApiError, ReplayDivergence
from repro.debug.model import (SpaceImage, SpaceDiff, first_difference,
                               freeze_machine)
from repro.kernel.ledgers import whole_run
from repro.kernel.machine import MachineResult
from repro.runtime import checkpoint as ckpt_mod
from repro.timing.schedule import schedule
from repro.timing.timeline import Timeline

#: Trace segment labels written by a faulting stop
#: (:class:`~repro.kernel.traps.Trap`.is_fault names the same set).
FAULT_LABELS = ("exc", "page_fault", "perm_fault", "conflict")


class TrapEvent:
    """One faulting stop located on the schedule."""

    __slots__ = ("cycle", "seg_id", "uid", "label", "trap_info")

    def __init__(self, cycle, seg_id, uid, label, trap_info=""):
        self.cycle = cycle
        self.seg_id = seg_id
        self.uid = uid
        self.label = label
        self.trap_info = trap_info

    def __repr__(self):
        return (f"<TrapEvent cycle={self.cycle} uid={self.uid} "
                f"{self.label} seg=#{self.seg_id}>")


class BacktraceFrame:
    """One segment of a space's history, newest first in a backtrace."""

    __slots__ = ("seg_id", "label", "node", "cycles", "start", "finish",
                 "in_edges")

    def __init__(self, seg_id, label, node, cycles, start, finish,
                 in_edges):
        self.seg_id = seg_id
        self.label = label
        self.node = node
        self.cycles = cycles
        self.start = start
        self.finish = finish
        #: Cross-uid arrivals into this segment:
        #: ``(src_uid, src_seg_id, kind)`` — kind None for plain edges,
        #: else the transfer kind ("migrate", "fetch", "retx", ...).
        self.in_edges = in_edges

    def __repr__(self):
        return (f"<Frame #{self.seg_id} {self.label!r} node={self.node} "
                f"[{self.start}, {self.finish}]>")


class GotoResult:
    """State recovered by :meth:`Inspector.goto`."""

    __slots__ = ("cycle", "segments", "image", "replay_result")

    def __init__(self, cycle, segments, image, replay_result):
        #: The requested cycle.
        self.cycle = cycle
        #: Segment ids the schedule had finished by :attr:`cycle` (the
        #: capture anchor set).
        self.segments = segments
        #: The :class:`~repro.debug.model.MachineImage` at that point.
        self.image = image
        #: The replay's MachineResult (ran to completion after capture;
        #: its trace passed the bit-identity assertion).
        self.replay_result = replay_result

    def trapped(self):
        """Space images sitting in a fault trap at the captured point."""
        return [img for img in self.image.spaces() if img.trap.is_fault()]

    def __repr__(self):
        return (f"<GotoResult cycle={self.cycle} "
                f"segments={len(self.segments)} "
                f"spaces={len(self.image.spaces())}>")


class Inspector:
    """Open a finished (or trapped) run for symbolic inspection.

    Parameters
    ----------
    machine:
        A machine whose :meth:`~repro.kernel.machine.Machine.run` has
        returned (successfully or in a trap).
    result:
        The run's MachineResult (rebuilt from the machine when omitted;
        the one a runner returned knows the CPU count it scheduled on).
    recipe:
        Optional re-execution recipe enabling ``goto``: a callable
        ``recipe(prepare) -> (machine, result)`` that builds an
        identically-configured machine, calls ``prepare(machine)``
        *before* ``run()``, runs the identical workload, and returns
        without closing the machine.  The scenarios in
        :mod:`repro.debug.scenarios` follow this protocol.
    """

    def __init__(self, machine, result=None, recipe=None):
        if machine.root is None:
            raise DebugApiError(
                "machine has not run; the inspector opens finished runs")
        self.machine = machine
        self.result = result if result is not None else MachineResult(machine)
        #: CPUs per node the run is scheduled on: the result's default.
        self.ncpus = self.result.ncpus
        self.recipe = recipe
        self.trace = machine.trace
        self._image = None
        self._sched = None
        self._timeline = None

    @classmethod
    def from_recipe(cls, recipe):
        """Run ``recipe`` once and open the result (keeps the recipe for
        ``goto`` replays)."""
        machine, result = recipe(lambda machine: None)
        return cls(machine, result=result, recipe=recipe)

    # -- lazy derived views ------------------------------------------------

    @property
    def image(self):
        """Frozen image of the machine's final state."""
        if self._image is None:
            self._image = freeze_machine(self.machine)
        return self._image

    @property
    def sched(self):
        """The run's schedule (same CPU configuration as the machine)."""
        if self._sched is None:
            self._sched = schedule(self.trace, ncpus=self.ncpus)
        return self._sched

    @property
    def timeline(self):
        """Cycle-addressable view of :attr:`sched` (lazy)."""
        if self._timeline is None:
            self._timeline = Timeline(self.trace, self.sched)
        return self._timeline

    # -- whole-run queries -------------------------------------------------

    def traps(self):
        """Faulting stops in schedule order: every segment a space closed
        by trapping, located at its scheduled finish cycle."""
        events = []
        finish = self.timeline.finish
        for sid, uid, _node, _cycles, label, _closed in self.trace.segments:
            if label in FAULT_LABELS and sid in finish:
                image = self.image.find(uid)
                events.append(TrapEvent(
                    finish[sid], sid, uid, label,
                    image.trap_info if image is not None else ""))
        events.sort(key=lambda e: (e.cycle, e.seg_id))
        return events

    def backtrace(self, uid, limit=16):
        """``uid``'s segment chain, newest first, with cross-space
        arrivals annotated — the debugger's per-space "backtrace"
        (pykdump's BTstack, transposed to deterministic spaces)."""
        trace = self.trace
        own = [row for row in trace.segments if row[1] == uid]
        if not own:
            raise DebugApiError(f"no trace context {uid!r}")
        owner = trace.segments.uid
        in_edges = {}
        for src, dst, _latency in trace.edges:
            if owner[src] != owner[dst]:
                in_edges.setdefault(dst, []).append((owner[src], src, None))
        transfers = trace.transfers
        for src, dst, kind in zip(transfers.src, transfers.dst,
                                  transfers.kind):
            in_edges.setdefault(dst, []).append((owner[src], src, kind))
        start, finish = self.timeline.start, self.timeline.finish
        frames = []
        for sid, _uid, node, cycles, label, _closed in reversed(
                own[-limit:] if limit else own):
            frames.append(BacktraceFrame(
                sid, label, node, cycles, start.get(sid), finish.get(sid),
                sorted(in_edges.get(sid, []), key=lambda e: e[1])))
        return frames

    def uids(self):
        """Trace context ids in first-appearance order."""
        return list(dict.fromkeys(self.trace.segments.uid))

    # -- checkpoints -------------------------------------------------------

    def checkpoints(self):
        """Every checkpoint directory in the final space tree:
        ``(owner_uid, freezer_uid, [tags in save order])``."""
        out = []
        for owner, freezer in ckpt_mod.find_freezers(self.machine.root):
            out.append((owner.uid, freezer.uid,
                        ckpt_mod.checkpoint_tags(freezer)))
        return out

    def _find_freezer(self, *tags):
        holders = [
            freezer
            for _owner, freezer in ckpt_mod.find_freezers(self.machine.root)
            if all(t in ckpt_mod.checkpoint_tags(freezer) for t in tags)
        ]
        if not holders:
            raise DebugApiError(
                f"no freezer holds checkpoint(s) {', '.join(map(repr, tags))}")
        if len(holders) > 1:
            raise DebugApiError(
                f"checkpoints {tags!r} exist in {len(holders)} freezers; "
                f"inspect them via repro.runtime.checkpoint directly")
        return holders[0]

    def diff(self, tag_a, tag_b):
        """Page-granular diff between two checkpoints (tag-skip +
        batched ndarray compare; see :class:`~repro.debug.model.SpaceDiff`)."""
        freezer = self._find_freezer(tag_a, tag_b)
        return SpaceDiff(
            SpaceImage(ckpt_mod.frozen_image(freezer, tag_a)),
            SpaceImage(ckpt_mod.frozen_image(freezer, tag_b)))

    # -- wire state --------------------------------------------------------

    def link_ledgers(self):
        """Final per-link transport ledgers (traffic, retx, drops)."""
        return self.image.links

    def links_at(self, cycle):
        """Wire state at ``cycle``: in-flight transfers and per-link
        occupancy so far — reconstructed from the schedule, not
        recorded during the run (determinism makes the reconstruction
        exact)."""
        timeline = self.timeline
        return {
            "in_flight": timeline.in_flight_at(cycle),
            "link_busy": timeline.link_busy_until(cycle),
            "kinds_started": timeline.kind_counts_until(cycle),
            "running": timeline.running_at(cycle),
        }

    # -- time travel -------------------------------------------------------

    def goto(self, cycle):
        """Re-execute deterministically and capture state at ``cycle``.

        Returns a :class:`GotoResult` whose image is the machine state
        once every segment the original schedule finished by ``cycle``
        has closed in the replay.  The replay then runs to completion
        and its trace is asserted bit-identical to the original
        (:class:`~repro.common.errors.ReplayDivergence` otherwise).
        """
        if self.recipe is None:
            raise DebugApiError(
                "goto needs a re-execution recipe; open the run with "
                "Inspector.from_recipe (see repro.debug.scenarios)")
        anchors = self.timeline.closed_by(cycle)
        if not anchors:
            raise DebugApiError(
                f"cycle {cycle} precedes the first segment completion "
                f"(earliest: {min(self.timeline.finish.values())})")
        # Zero-cycle anchors carry no guest work, and some (the parked
        # post-trap segment, the root's exit segment) only close at
        # trace.end() — long after their scheduled instant.  A zero-cycle
        # segment is fully accounted for the moment it is *created*,
        # i.e. when its same-context predecessor closes — and that
        # predecessor's scheduled finish is <= the zero-cycle segment's,
        # so it is already in the anchor set.  Waiting only on anchors
        # that charged cycles therefore captures at the right moment.
        cycles_of = self.trace.segments.cycles
        remaining = {sid for sid in anchors if cycles_of[sid] > 0}
        if not remaining:
            remaining = set(anchors)
        capture = {}

        def prepare(machine):
            machine.shard = None    # serial replay; bit-identical by design

            def on_close(sid):
                if sid in remaining:
                    remaining.discard(sid)
                    if not remaining:
                        capture["image"] = freeze_machine(machine)

            machine.trace.on_close = on_close

        replay_machine, replay_result = self.recipe(prepare)
        try:
            divergence = first_difference(
                whole_run(self.machine)["trace"],
                whole_run(replay_machine)["trace"], "trace")
            if divergence is not None:
                raise ReplayDivergence(
                    "replay diverged from the original run at "
                    "{}: {!r} != {!r}".format(*divergence))
            if "image" not in capture:
                raise ReplayDivergence(
                    f"replay closed every segment yet never crossed the "
                    f"anchor set for cycle {cycle} — trace observer "
                    f"missed {len(remaining)} segment(s)")
        finally:
            replay_machine.close()
        return GotoResult(cycle, frozenset(anchors), capture["image"],
                          replay_result)
