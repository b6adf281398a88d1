"""Deterministic fault injection for the cluster fabric.

The paper's fig12 compares the deterministic protocol against a
TCP-style baseline, but a comparison of *reliability machinery* is
hollow while links never misbehave.  This module makes loss a
first-class, reproducible dimension of the model: a
:class:`LossSchedule` decides whether a wire copy is dropped as a
**pure function** of ``(seed, link, sender, number, attempt)`` — the
directed link, the sending space's slot path (folded once per exchange
by :func:`sender_key`), the message's number among that space's own
messages, and the copy's attempt.  No generator state is consumed and
no machine-global serial is read, so a decision depends on neither
call order nor on what other spaces sent before: two runs of the same
program under the same schedule drop the same messages on the same
links however their spaces interleave on the host — serially, forked
into shard workers, or on ``backend="real"`` — in the spirit of
Determinator's system-enforced determinism (§2.1: nondeterministic
inputs become explicit, controllable ones).

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

from repro.common.detrandom import MASK64

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
#: ``_ZERO_FOLDS[k]`` folds ``k`` zero bytes at once: FNV-1a of a zero
#: byte is a multiply by the prime, so ``k`` of them multiply by its
#: ``k``-th power (mod 2**64, exactly).
_ZERO_FOLDS = tuple(pow(_FNV_PRIME, k, 1 << 64) for k in range(9))
_TWO64 = float(1 << 64)


def _fold(state, data):
    """FNV-1a fold of ``data`` bytes into ``state`` (stable across
    Python versions and processes, unlike builtin ``hash``)."""
    for byte in data:
        state = ((state ^ byte) * _FNV_PRIME) & MASK64
    return state


def _endpoint_bytes(end):
    """Stable byte encoding of a fabric endpoint (node int or switch
    name), with a type prefix so ``0`` and ``"0"`` cannot collide."""
    if isinstance(end, int):
        return b"i" + end.to_bytes(8, "little", signed=True)
    return b"s" + str(end).encode() + b"\x00"


def sender_key(path):
    """The 64-bit key of one sending space: its slot path (child
    numbers from the root down, ``[]`` for the root) folded once, eight
    bytes a slot, for every draw of one exchange to share."""
    return _fold(_FNV_OFFSET, b"".join(
        slot.to_bytes(8, "little", signed=True) for slot in path))


class RetxBill:
    """One lossy exchange's sender, and the retransmission charges the
    exchange accumulated while sending.

    ``path`` is the sending space's slot path and ``key`` its
    :func:`sender_key`, folded once for every loss draw of the
    exchange.  ``usage`` maps each link to the serialization cycles its
    retransmitted copies occupied; ``wait`` is the total sender-side
    cycles spent in retransmission timeouts.  The transport turns a
    non-empty bill into ``kind="retx"`` trace link edges on the
    stalling exchange; fire-and-forget messages (ACKs) carry no bill —
    their faults are accounted on the links but delay nobody.
    """

    __slots__ = ("path", "key", "usage", "wait")

    def __init__(self, path):
        self.path = path
        self.key = sender_key(path)
        self.usage = {}
        self.wait = 0

    def __bool__(self):
        return bool(self.usage) or self.wait > 0


class LossSchedule:
    """Deterministic per-link, per-space, per-message drop schedule.

    ``drop`` is a rate in ``[0, 1]``; ``seed`` (a signed 64-bit int)
    selects the fault pattern.  :meth:`drops` is a pure function — the
    schedule's only mutable state is two memos of folded key prefixes,
    ``(seed, link)`` per link and ``(seed, link, sender)`` per link and
    sender, which every draw sharing them would fold alike — so it can
    be shared, replayed, and queried in any order without changing a
    single decision.

    >>> s = LossSchedule(drop=0.5, seed=7)
    >>> key = sender_key([1, 2])
    >>> s.drops(("a", "b"), key, 3) == \\
    ...     LossSchedule(drop=0.5, seed=7).drops(("a", "b"), key, 3)
    True
    """

    def __init__(self, drop=0.0, seed=2010):
        if isinstance(drop, bool) or not 0.0 <= drop <= 1.0:
            raise ValueError(f"loss drop rate must be in [0, 1], got {drop!r}")
        if isinstance(seed, bool) or not isinstance(seed, int) \
                or not -2**63 <= seed < 2**63:
            raise ValueError(f"loss seed must be a signed 64-bit int, "
                             f"got {seed!r}")
        self.drop = drop
        self.seed = seed
        #: link -> the FNV state once the seed and the link's endpoints
        #: are folded: the prefix every draw on that link shares.
        self._prefix = {}
        #: (link, sender) -> that prefix with the sender folded in: all
        #: a draw folds beyond it is its message number and attempt.
        self._keyed = {}

    def draw(self, link, sender, number, attempt=0):
        """The uniform in ``[0, 1)`` backing the decision for one wire
        copy — a pure function of ``(seed, link, sender, number,
        attempt)``, ``sender`` being a :func:`sender_key`.

        The key is the FNV-1a fold of the seed, the link's endpoints,
        ``sender`` and ``number`` as eight little-endian bytes each and
        ``attempt`` as four; its SplitMix64 output, over ``2**64``, is
        the draw.  Beyond the memoised ``(link, sender)`` prefix only
        the low nonzero bytes of ``number`` and ``attempt`` are folded
        one at a time, their zero high bytes as one multiply.  A number
        or attempt out of its width raises ``OverflowError``."""
        state = self._keyed.get((link, sender))
        if state is None:
            state = self._prefix.get(link)
            if state is None:
                state = _fold(_FNV_OFFSET,
                              self.seed.to_bytes(8, "little", signed=True))
                for end in link:
                    state = _fold(state, _endpoint_bytes(end))
                self._prefix[link] = state
            state = self._keyed[link, sender] = _fold(
                state, sender.to_bytes(8, "little"))
        if not 0 <= number <= MASK64:
            raise OverflowError(f"message number {number} is not an "
                                f"unsigned 64-bit int")
        if not 0 <= attempt <= 0xFFFFFFFF:
            raise OverflowError(f"attempt {attempt} is not an unsigned "
                                f"32-bit int")
        low = (number.bit_length() + 7) >> 3
        for _ in range(low):
            state = ((state ^ (number & 0xFF)) * _FNV_PRIME) & MASK64
            number >>= 8
        state = (state * _ZERO_FOLDS[8 - low]) & MASK64
        low = (attempt.bit_length() + 7) >> 3
        for _ in range(low):
            state = ((state ^ (attempt & 0xFF)) * _FNV_PRIME) & MASK64
            attempt >>= 8
        # The attempt's zero high bytes, then SplitMix64's first output
        # from the key (``DeterministicRandom(key).uniform()``).
        z = (state * _ZERO_FOLDS[4 - low] + 0x9E3779B97F4A7C15) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return (z ^ (z >> 31)) / _TWO64

    def drops(self, link, sender, number, attempt=0):
        """Whether copy ``attempt`` of message ``number`` of the space
        keyed ``sender`` is dropped on directed ``link``.  Raising the
        rate only *adds* dropped copies (schedules are nested across
        rates under one seed)."""
        return self.draw(link, sender, number, attempt) < self.drop

    def describe(self):
        """One-line human-readable description (NetworkStats reports)."""
        return f"drop={self.drop:.3%} seed={self.seed}"

    def __repr__(self):
        return f"<LossSchedule {self.describe()}>"


def resolve_loss(spec):
    """Build the machine's :class:`LossSchedule` from a drop rate (with
    the default seed) or a ``{"drop", "seed"}`` dict of its keyword
    arguments.

    None and a zero drop rate are the lossless fabric: the answer is
    None, and the fault path is skipped entirely (bit-identical to the
    pre-fault transport).
    """
    if spec is None:
        return None
    if isinstance(spec, dict):
        schedule = LossSchedule(**spec)
    elif isinstance(spec, (int, float)) and not isinstance(spec, bool):
        schedule = LossSchedule(drop=float(spec))
    else:
        raise ValueError(f"loss must be a drop rate or a {{'drop', 'seed'}} "
                         f"dict, got {spec!r}")
    return schedule if schedule.drop else None
