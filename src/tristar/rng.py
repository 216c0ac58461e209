"""Seeded pseudo-random numbers with a pinned algorithm.

splitmix64 (Steele, Lea and Flood's SplittableRandom finaliser).  The stdlib
Mersenne Twister would work, but its stream is not pinned by any contract we
control; this keeps generated colourings byte-identical for a given seed even
across Python versions.
"""
from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """64-bit generator: state += gamma; output = finalised state."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection, so no modulo bias.

        At most 2**64, the range of one draw: above it no draw could be accepted.
        """
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = _MASK - (_MASK + 1) % bound
        if limit < 0:  # bound above 2**64
            raise ValueError(f"bound must be at most 2**64, got {bound}")
        while True:
            z = self.next64()
            if z <= limit:
                return z % bound

    def chance(self, num: int, den: int) -> bool:
        """True with probability num/den."""
        return self.below(den) < num

    def unit(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next64() >> 11) * (1.0 / (1 << 53))

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, pool: int, k: int) -> list[int]:
        """k distinct integers from [0, pool), ascending."""
        if not 0 <= k <= pool:
            raise ValueError(f"cannot draw {k} of {pool}")
        picked: set[int] = set()
        while len(picked) < k:
            picked.add(self.below(pool))
        return sorted(picked)
