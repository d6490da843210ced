"""Seedable, platform-independent random source (splitmix64).

Every random decision in the package (program generation, schedule sampling,
dataset shuffles, weight init) goes through this generator so that a fixed
seed reproduces the exact same corpus and model on any platform.  The Python
stdlib / numpy generators are avoided for anything that ends up on disk.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def mix64(z: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit mixer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return (z ^ (z >> 31)) & MASK64


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of `data`."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & MASK64
    return h


class SplitMix64:
    """splitmix64 sequence generator.

    Same seed -> same sequence of 64-bit words, independent of platform,
    Python version or process. Streams for parallel workers are derived with
    `stream(seed, index)` so worker output never depends on scheduling order.
    """

    def __init__(self, seed: int):
        self._state = seed & MASK64

    @classmethod
    def stream(cls, seed: int, index: int) -> "SplitMix64":
        """Independent generator for worker `index` of a seeded run."""
        return cls(mix64((seed & MASK64) ^ mix64((index * _GOLDEN) & MASK64)))

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        return mix64(self._state)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def uniform_array(self, n: int, lo: float, hi: float) -> np.ndarray:
        """`n` draws of `uniform(lo, hi)` as one float64 array.

        Bit-identical to the scalar loop, state included: numpy `uint64`
        arithmetic wraps mod 2**64 like the masked Python ints. Every constant
        is an `np.uint64` so no operand is promoted to a signed or float type.
        """
        z = np.uint64(self._state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self._state = (self._state + n * _GOLDEN) & MASK64
        return lo + (hi - lo) * ((z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53)))

    def choice(self, seq):
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randint(0, i)
            seq[i], seq[j] = seq[j], seq[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices out of range(n), in ascending order."""
        if k > n:
            raise ValueError(f"cannot sample {k} of {n}")
        pool = list(range(n))
        self.shuffle(pool)
        return sorted(pool[:k])
