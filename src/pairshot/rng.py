"""Deterministic random number generation for every sampling decision.

Every place in this package that makes a random choice (data sampling,
batch order, pair generation, weight init) goes through :class:`Rng`, a
SplitMix64 generator implemented here in full.  The algorithm is pinned
so that a given seed produces the same stream on every platform and
Python version; nothing is delegated to ``random`` or to numpy's bit
generators, whose streams we do not control.

Reference constants are the widely published SplitMix64 ones
(gamma 0x9E3779B97F4A7C15 and the two finalizer multipliers).

Every "k of n items" draw goes through :meth:`Rng.sample` and every
"k of m * (m - 1) / 2 pairs" draw through :meth:`Rng.sample_pairs`;
neither lists what it draws from.

:meth:`Rng.derive_uniform_rows` runs the same arithmetic on numpy
``uint64`` arrays, whose multiplication wraps modulo 2**64 just as the
scalar code masks with ``_MASK64``, so bulk draws equal scalar ones bit
for bit.
"""

from __future__ import annotations

from bisect import bisect_right
from math import isqrt
from typing import Iterable, Sequence, TypeVar

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

T = TypeVar("T")


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on a uint64 array (wrapping arithmetic)."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


class Rng:
    """SplitMix64 stream with Fisher-Yates based sampling helpers."""

    __slots__ = ("_seed", "_state")

    def __init__(self, seed: int) -> None:
        self._seed = seed & _MASK64
        self._state = self._seed

    def next_u64(self) -> int:
        """Advance the stream and return the next 64-bit output."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling (no modulo bias)."""
        if n <= 0:
            raise ValueError("randbelow requires n > 0")
        # Largest multiple of n that fits in 64 bits; reject draws above it.
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            draw = self.next_u64()
            if draw < limit:
                return draw % n

    def shuffled(self, items: Iterable[T]) -> list[T]:
        """A Fisher-Yates shuffled copy of items."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.randbelow(i + 1)
            out[i], out[j] = out[j], out[i]
        return out

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """k distinct elements, uniformly, in draw order; O(k) even for a huge range.

        A partial Fisher-Yates that keeps only the positions its swaps moved.
        """
        n = len(items)
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} items from {n}")
        moved: dict[int, int] = {}
        out: list[T] = []
        for i in range(k):
            j = i + self.randbelow(n - i)
            out.append(items[moved.get(j, j)])
            moved[j] = moved.pop(i, i)
        return out

    def sample_pairs(
        self, m: int, k: int, excluded: Iterable[tuple[int, int]] = ()
    ) -> list[tuple[int, int]]:
        """self.sample(every pair i < j < m not in excluded, lexicographically, k).

        Only ranks are drawn; each becomes its pair without the list being
        built.  The r-th allowed pair's rank is r plus the number of excluded
        ranks with at most r allowed ranks below them (skips).
        """
        total = m * (m - 1) // 2
        ranks = sorted({i * (2 * m - i - 1) // 2 + j - i - 1 for i, j in excluded if 0 <= i < j < m})
        skips = [rank - t for t, rank in enumerate(ranks)]
        pairs = []
        for r in self.sample(range(total - len(skips)), k):
            rank = r + bisect_right(skips, r)
            # Row i starts at rank i * (2m - i - 1) / 2; rows hold 1, 2, 3, ... pairs from the end.
            i = m - 1 - (1 + isqrt(8 * (total - 1 - rank) + 1)) // 2
            pairs.append((i, rank - i * (2 * m - i - 1) // 2 + i + 1))
        return pairs

    def choice(self, items: Sequence[T]) -> T:
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.randbelow(len(items))]

    def derive(self, *tags: int | str) -> "Rng":
        """Child generator whose stream is independent of this one.

        The child seed mixes the parent seed (not the evolving state, so
        derivation order does not matter) with a hash of the tags.
        """
        h = self._seed
        for tag in tags:
            if isinstance(tag, int):
                data = tag.to_bytes(16, "little", signed=True)
            else:
                data = tag.encode("utf-8")
            h = (h ^ _fnv1a64(data)) & _MASK64
            # One scramble round so successive tags do not commute.
            z = (h + _GAMMA) & _MASK64
            z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            h = z ^ (z >> 31)
        return Rng(h)

    def derive_uniform_rows(self, tags: np.ndarray, n: int, low: float, high: float) -> np.ndarray:
        """(len(tags), n): row i is n draws of self.derive(int(tags[i])).uniform(low, high).

        tags are non-negative integers below 2**64, so the 16-byte
        little-endian form derive hashes is their 8 low bytes followed
        by 8 zero bytes.
        """
        tags = np.asarray(tags)
        if tags.size and tags.min() < 0:
            raise ValueError("derive_uniform_rows takes non-negative tags")
        tags = tags.astype(np.uint64)
        h = np.full(tags.shape, _FNV_OFFSET, dtype=np.uint64)
        for shift in range(0, 64, 8):
            h = (h ^ ((tags >> np.uint64(shift)) & np.uint64(0xFF))) * np.uint64(_FNV_PRIME)
        for _ in range(8):
            h = h * np.uint64(_FNV_PRIME)
        seeds = _mix64((h ^ np.uint64(self._seed)) + np.uint64(_GAMMA))
        z = _mix64(seeds[:, None] + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA))
        z >>= np.uint64(11)
        out = z.astype(np.float64)
        out *= 2.0**-53
        out *= high - low
        out += low
        return out
