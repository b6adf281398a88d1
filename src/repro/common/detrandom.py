"""A small deterministic pseudo-random generator.

The baseline ("Linux") simulator needs schedule jitter that is repeatable
for a given seed but *not* correlated with the structure of the simulated
program.  We implement SplitMix64, which is tiny, fast, well distributed,
and — unlike :mod:`random` — guaranteed stable across Python versions, so
recorded experiment outputs never drift with the interpreter.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_U64 = np.uint64


class DeterministicRandom:
    """SplitMix64 generator with convenience helpers.

    >>> r = DeterministicRandom(42)
    >>> r.next_u64() == DeterministicRandom(42).next_u64()
    True
    """

    def __init__(self, seed=0):
        self._state = seed & _MASK

    def next_u64(self):
        """Return the next 64-bit unsigned integer."""
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def block(self, n):
        """Return the next ``n`` outputs as one ``uint64`` array.

        The state after draw *k* is ``seed + k * gamma mod 2**64``, so
        the draws are a pure function of their index: one array pass
        yields what ``n`` :meth:`next_u64` calls would and leaves the
        state where they would.  Every operand is a ``uint64`` array, so
        wrap-around is silent and exact.
        """
        z = np.arange(1, n + 1, dtype=_U64) * _U64(_GAMMA) + _U64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        return z ^ (z >> _U64(31))

    def uniform(self, lo=0.0, hi=1.0):
        """Return a float uniformly distributed in ``[lo, hi)``."""
        return lo + (hi - lo) * (self.next_u64() / float(1 << 64))

    def jitter(self, value, fraction):
        """Return ``value`` dilated by a uniform factor in ``[1, 1+fraction)``.

        Used to perturb segment durations in the nondeterministic baseline:
        real machines never give two threads identical timing.
        """
        return value * self.uniform(1.0, 1.0 + fraction)

