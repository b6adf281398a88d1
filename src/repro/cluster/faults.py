"""Deterministic fault injection for the cluster fabric.

The paper's fig12 compares the deterministic protocol against a
TCP-style baseline, but a comparison of *reliability machinery* is
hollow while links never misbehave.  This module makes loss a
first-class, reproducible dimension of the model: a
:class:`LossSchedule` decides — per directed link, per message serial —
whether a wire copy is dropped, as a **pure function** of ``(seed,
link, serial, attempt)``.  No generator state is consumed, so the
decisions do not depend on call order, and two runs of the same program
under the same schedule drop the same messages on the same links —
faults replay bit-identically, in the spirit of Determinator's
system-enforced determinism (§2.1: nondeterministic inputs become
explicit, controllable ones).

The transport (:mod:`repro.cluster.transport`) consumes the decisions
hop by hop: every fabric link runs a reliable link layer that
retransmits a dropped copy after ``cost.retx_timeout`` cycles, bounded
by ``cost.retx_limit`` retries (exhaustion raises
:class:`~repro.common.errors.NetworkLossError`).  Retransmissions and
timeout waits are accounted per link (``LinkStats.retx_bytes`` /
``retx_msgs``) and charged to the stalling exchange as ``kind="retx"``
trace link edges, so ``ScheduleResult.stall_cycles["retx"]`` reports
exactly the time spaces lost to an unreliable fabric.  Because the
decision function is pure, the *computed values and final memory
images of every workload are identical under any loss schedule* — only
wire traffic and timing move.  Conservation extends to
``delivered + dropped == sent`` per physical link.

A uniform draw is compared against the drop rate, so schedules at
increasing drop rates are *nested*: every message dropped at 0.1% is
also dropped at 1% under the same seed — loss-rate sweeps move
monotonically instead of resampling a fresh fault pattern per rate.
"""

from repro.common.detrandom import DeterministicRandom

_MASK = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fold(state, data):
    """FNV-1a fold of ``data`` bytes into ``state`` (stable across
    Python versions and processes, unlike builtin ``hash``)."""
    for byte in data:
        state = ((state ^ byte) * _FNV_PRIME) & _MASK
    return state


def _endpoint_bytes(end):
    """Stable byte encoding of a fabric endpoint (node int or switch
    name), with a type prefix so ``0`` and ``"0"`` cannot collide."""
    if isinstance(end, int):
        return b"i" + end.to_bytes(8, "little", signed=True)
    return b"s" + str(end).encode() + b"\x00"


class RetxBill:
    """Retransmission charges one exchange accumulated while sending.

    ``usage`` maps each link to the serialization cycles its
    retransmitted copies occupied; ``wait`` is the total sender-side
    cycles spent in retransmission timeouts.  The transport turns a
    non-empty bill into ``kind="retx"`` trace link edges on the
    stalling exchange; fire-and-forget messages (ACKs) carry no bill —
    their faults are accounted on the links but delay nobody.
    """

    __slots__ = ("usage", "wait")

    def __init__(self):
        self.usage = {}
        self.wait = 0

    def __bool__(self):
        return bool(self.usage) or self.wait > 0


class LossSchedule:
    """Deterministic per-link, per-message drop schedule.

    ``drop`` is a rate in ``[0, 1]``; ``seed`` selects the fault
    pattern.  :meth:`drops` is a pure function — the schedule holds no
    mutable state, so it can be shared, replayed, and queried in any
    order without changing a single decision.

    >>> s = LossSchedule(drop=0.5, seed=7)
    >>> s.drops(("a", "b"), 3) == LossSchedule(drop=0.5, seed=7).drops(("a", "b"), 3)
    True
    """

    def __init__(self, drop=0.0, seed=2010):
        if not 0.0 <= drop <= 1.0:
            raise ValueError(f"drop rate must be in [0, 1], got {drop}")
        self.drop = drop
        self.seed = seed

    def draw(self, link, serial, attempt=0):
        """The uniform in ``[0, 1)`` backing the decision for one wire
        copy — a pure function of ``(seed, link, serial, attempt)``."""
        state = _fold(_FNV_OFFSET, self.seed.to_bytes(8, "little",
                                                      signed=True))
        for end in link:
            state = _fold(state, _endpoint_bytes(end))
        state = _fold(state, serial.to_bytes(8, "little"))
        state = _fold(state, attempt.to_bytes(4, "little"))
        return DeterministicRandom(state).uniform()

    def drops(self, link, serial, attempt=0):
        """Whether message ``serial``'s copy number ``attempt`` on
        directed ``link`` is dropped.  Raising the rate only *adds*
        dropped copies (schedules are nested across rates under one
        seed)."""
        return self.drop > 0 and self.draw(link, serial, attempt) < self.drop

    def describe(self):
        """One-line human-readable description (NetworkStats reports)."""
        return f"drop={self.drop:.3%} seed={self.seed}"

    def __repr__(self):
        return f"<LossSchedule {self.describe()}>"


def resolve_loss(spec):
    """Build the machine's :class:`LossSchedule` from a spec.

    ``spec`` may be None (lossless fabric — the fault path is skipped
    entirely, bit-identical to the pre-fault transport), a number (drop
    rate with the default seed), a dict of
    :class:`LossSchedule` keyword arguments, or an already-built
    schedule.
    """
    if spec is None:
        return None
    if isinstance(spec, LossSchedule):
        return spec
    if isinstance(spec, bool):
        raise ValueError("loss must be a rate, dict, or LossSchedule, "
                         "not a bool")
    if isinstance(spec, (int, float)):
        return LossSchedule(drop=float(spec))
    if isinstance(spec, dict):
        return LossSchedule(**spec)
    raise ValueError(f"cannot interpret loss spec {spec!r}")
