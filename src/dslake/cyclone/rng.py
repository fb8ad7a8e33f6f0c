"""The seeded random stream of the synthetic generator.

A fixed, documented generator keeps generated data reproducible across
platforms.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Reference SplitMix64; state advances by the golden-gamma constant."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        # 53-bit mantissa in (0, 1]
        return ((self.next_u64() >> 11) + 1) * 2.0**-53
