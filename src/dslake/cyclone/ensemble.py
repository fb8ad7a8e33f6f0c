"""Seeded ensemble generation over cyclone parameters.

Randomness comes from a fixed, documented generator so ensembles are
reproducible across platforms: a SplitMix64 stream feeding Box-Muller
(cosine branch only, two 64-bit draws per normal deviate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from dslake.cyclone.geo import classify_direction
from dslake.cyclone.surrogate import CycloneParams

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

    def next_normal(self) -> float:
        u1 = self.next_unit()
        u2 = self.next_unit()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


@dataclass(frozen=True)
class EnsembleSigmas:
    depth_hpa: float = 5.0
    bearing_deg: float = 10.0
    speed_kmh: float = 5.0


def generate_ensemble(
    params: CycloneParams,
    n: int,
    seed: int,
    sigmas: EnsembleSigmas = EnsembleSigmas(),
) -> list[CycloneParams]:
    """n members; member 0 is the unperturbed original.

    Depth and speed are clamped at zero, bearing wraps to [0, 360). Each
    member consumes exactly three normal deviates (depth, bearing, speed)
    in that order.
    """
    if n < 1:
        raise ValueError("ensemble size must be at least 1")
    members = [params]
    rng = SplitMix64(seed)
    for _ in range(n - 1):
        d_depth = rng.next_normal()
        d_bearing = rng.next_normal()
        d_speed = rng.next_normal()
        depth = max(0.0, params.depth + sigmas.depth_hpa * d_depth)
        if params.average_bearing is None:
            bearing = None
            sector = None
        else:
            bearing = (params.average_bearing + sigmas.bearing_deg * d_bearing) % 360.0
            sector = classify_direction(bearing)
        speed = max(0.0, params.mean_speed_kmh + sigmas.speed_kmh * d_speed)
        members.append(
            replace(
                params,
                depth=depth,
                central_pressure=params.ambient_pressure - depth,
                mean_speed_kmh=speed,
                average_bearing=bearing,
                direction_sector=sector,
            )
        )
    return members
