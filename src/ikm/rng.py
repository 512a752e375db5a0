"""Tiny deterministic PRNG for reproducible benchmark instances.

The generator is SplitMix64 (Steele, Lea & Flood's mix function), chosen
because it is trivial to re-implement bit-exactly in any language:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output: z XOR (z >> 31)

Derived streams:

* ``uniform()``   -- top 53 bits scaled by 2^-53, giving a double in [0, 1).
* ``normal()``    -- Box-Muller: ``sqrt(-2 ln(1-u1)) * cos(2 pi u2)`` from two
  consecutive uniforms (the sine companion is discarded).  ``normals(count)``
  gives the same values as ``count`` calls of ``normal()`` in one batch.
* ``below(n)``    -- unbiased integer in [0, n) by rejection on 64-bit words.

All benchmark generators consume exactly these streams, so an instance is a
pure function of its parameters and seed.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53
# normals per vectorized batch; bounds the temporaries of ``normals``
_BATCH = 4096


class SplitMix64:
    """SplitMix64 stream seeded by a 64-bit integer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_raw(self) -> int:
        """Next 64-bit word of the stream."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Double in [0, 1) with 53 random mantissa bits."""
        return (self.next_raw() >> 11) * _INV_2_53

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def normal(self) -> float:
        """Standard normal via Box-Muller (cosine branch only)."""
        return float(self.normals(1)[0])

    def normals(self, count: int) -> np.ndarray:
        """The next ``count`` values of ``normal()``, advancing the stream alike.

        The integer recurrence runs vectorized in wrapping ``uint64``
        arithmetic; the transcendental functions are ``math``'s, applied per
        element, because NumPy's ``log``/``cos`` may round differently.
        """
        out = np.empty(count)
        sqrt, log, cos, two_pi = math.sqrt, math.log, math.cos, 2.0 * math.pi
        for start in range(0, count, _BATCH):
            stop = min(start + _BATCH, count)
            u = self._uniforms(2 * (stop - start))
            # 1 - u1 lies in (0, 1], so the log is finite.
            out[start:stop] = [sqrt(-2.0 * log(1.0 - u1)) * cos(two_pi * u2)
                               for u1, u2 in zip(u[0::2], u[1::2])]
        return out

    def _uniforms(self, count: int) -> list:
        """The next ``count`` values of ``uniform()``, as a list of floats."""
        state = np.uint64(self._state) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z = (state ^ (state >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return ((z >> np.uint64(11)).astype(np.float64) * _INV_2_53).tolist()

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            r = self.next_raw()
            if r <= limit:
                return r % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by ``below``."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
