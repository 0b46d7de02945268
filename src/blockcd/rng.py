"""Deterministic 64-bit PRNG (splitmix64) used for all seeded randomness.

Every permutation and Gaussian draw in this package comes from this
generator, so seeded runs are reproducible bit-for-bit and the stream is
simple enough to re-implement elsewhere.  The core step is

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output = z XOR (z >> 31)

Uniforms take the top 53 bits (`out >> 11` times 2^-53), integers below n
use rejection sampling, permutations are Fisher-Yates from the top index
down, and normals are Box-Muller pairs (cosine draw first, sine cached).

The stream is counter-based: draw i after a state s is the mix of
s + i * gamma, whatever was drawn before it.  Every draw kind therefore
takes a whole block of outputs as one uint64 array expression and
advances the state by the block length; the bits are those of drawing
one output at a time.  Box-Muller applies ``math.log``, ``math.cos`` and
``math.sin`` element by element, because numpy's SIMD loops for these
functions may round differently from the C library (``np.log`` does on
AVX-512 machines); the square root, the products and the 53-bit scaling
are exact IEEE operations and run in numpy.  Bounded integers are
``u % n`` over a block unless some draw of the block falls in the
rejection zone; the block is then redrawn through ``below``, one draw
at a time.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_CHUNK_PAIRS = 2048  # Box-Muller pairs per block: bounds the temporaries


def _elementwise(fun, values: list[float]) -> np.ndarray:
    return np.fromiter(map(fun, values), float, len(values))


def _reject_above(moduli: np.ndarray) -> np.ndarray:
    """Largest accepted draw for each modulus n: 2^64 - 1 - (2^64 mod n)."""
    return np.uint64(_MASK64) - (np.uint64(_MASK64) % moduli + np.uint64(1)) % moduli


class SplitMix64:
    """Sequential splitmix64 stream seeded with a 64-bit integer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._spare_normal: float | None = None

    def _block(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as a uint64 array."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def _bounded_block(self, moduli: np.ndarray, count: int) -> np.ndarray:
        """``count`` rows of ``below(m)`` for each m in ``moduli``, row-major
        in stream order."""
        start = self._state
        draws = self._block(count * moduli.size).reshape(count, moduli.size)
        if not (draws > _reject_above(moduli)).any():
            return draws % moduli
        self._state = start
        return np.array([[self.below(int(m)) for m in moduli] for _ in range(count)],
                        dtype=np.uint64).reshape(count, moduli.size)

    def next_uint64(self) -> int:
        return int(self._block(1)[0])

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            u = self.next_uint64()
            if u < limit:
                return u % n

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates shuffle of range(n), swapping from index n-1 down."""
        return self.permutations(n, 1)[0]

    def permutations(self, n: int, count: int) -> list[list[int]]:
        """``count`` successive permutations of range(n): the same draws as
        ``count`` calls of ``permutation``, swapped column by column."""
        out = np.tile(np.arange(n), (count, 1))
        if n < 2 or count == 0:
            return out.tolist()
        moduli = np.arange(n, 1, -1, dtype=np.uint64)  # i + 1 for i = n-1 .. 1
        picks = self._bounded_block(moduli, count).astype(np.intp)
        rows = np.arange(count)
        for column, i in enumerate(range(n - 1, 0, -1)):
            j = picks[:, column]
            top = out[:, i].copy()
            out[:, i] = out[rows, j]
            out[rows, j] = top
        return out.tolist()

    def normal_vector(self, n: int) -> np.ndarray:
        out = np.empty(n)
        filled = 0
        if n and self._spare_normal is not None:
            out[0] = self._spare_normal
            self._spare_normal = None
            filled = 1
        while filled < n:
            pairs = min((n - filled + 1) // 2, _CHUNK_PAIRS)
            u = self._block(2 * pairs) >> np.uint64(11)
            u1 = 1.0 - u[0::2] * 2.0**-53  # (0, 1]: keeps log() finite
            u2 = u[1::2] * 2.0**-53
            radius = np.sqrt(-2.0 * _elementwise(math.log, u1.tolist()))
            theta = (2.0 * math.pi * u2).tolist()
            drawn = np.empty(2 * pairs)
            drawn[0::2] = radius * _elementwise(math.cos, theta)
            drawn[1::2] = radius * _elementwise(math.sin, theta)
            take = min(2 * pairs, n - filled)
            out[filled:filled + take] = drawn[:take]
            if take < 2 * pairs:
                self._spare_normal = float(drawn[-1])
            filled += take
        return out

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.normal_vector(rows * cols).reshape(rows, cols)


def derive_seed(seed: int, *labels: int) -> int:
    """Stable sub-stream seed: advance a splitmix stream keyed by labels."""
    s = SplitMix64(seed)
    out = s.next_uint64()
    for label in labels:
        s = SplitMix64(out ^ (label & _MASK64))
        out = s.next_uint64()
    return out
