"""Deterministic Baltic sea-level surrogate.

A stub standing in for the real surge model: the hourly level response is
a Gaussian pulse in time centered on the cyclone's end time, scaled by an
inverse-barometer coefficient and an approach-direction weight,

    level(t) = k_ib * depth * exp(-((t - end_time) / sigma)^2) * w(bearing)
    w(theta) = max(0, cos(theta - 45 deg))

with k_ib = 1 cm/hPa and sigma = 12 h. The constants are declared stub
parameters, not physical claims. A path without a defined bearing gets
w = 0. Gauges are addressed by grid index; only the Saint-Petersburg
gauge (440, 414) is registered. The horizon is 1 to ``MAX_HORIZON_HOURS``
(8784, a leap year) hours: the series holds a point per hour, so a longer
horizon is refused rather than left to cost unbounded time and memory.

``CycloneParams``, the package's input, lives here rather than beside
``parametrize`` so that the external command imports no numpy. It is a
``collections.namedtuple`` subclass, not a dataclass: the external command
imports this module in every child it starts, and ``dataclasses`` (through
``inspect``, ``re`` and ``ast``) costs about as much CPU as all the rest of
a child started under ``-S``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from datetime import datetime, timedelta

from dslake.errors import FormatError, Row, UnknownGauge, read_keys
from dslake.times import iso_seconds, parse_utc

K_IB_CM_PER_HPA = 1.0
RESPONSE_SIGMA_HOURS = 12.0
WORST_BEARING_DEG = 45.0
DEFAULT_HORIZON_HOURS = 96
MAX_HORIZON_HOURS = 8784  # 366 days

GAUGES = {(440, 414): "saint-petersburg"}


class CycloneParams(
    namedtuple(
        "CycloneParams",
        "end_time central_pressure ambient_pressure depth radius_km"
        " mean_speed_kmh average_bearing direction_sector",
    )
):
    """One path's BSM input: ``end_time`` (aware UTC datetime), the
    ``central_pressure`` and ``ambient_pressure`` in hPa, ``depth`` =
    ambient - central in hPa (>= 0), ``radius_km``, ``mean_speed_kmh``,
    ``average_bearing`` in degrees in [0, 360) and ``direction_sector``,
    both None for a length-1 path. Immutable and hashable."""

    __slots__ = ()

    semantic_type = "cyclone-params"

    def portable_text(self) -> str:
        """Exact key=value rendering for the external command contract."""
        bearing = "none" if self.average_bearing is None else repr(self.average_bearing)
        sector = self.direction_sector or "none"
        return (
            f"ambient_pressure={self.ambient_pressure!r}\n"
            f"average_bearing={bearing}\n"
            f"central_pressure={self.central_pressure!r}\n"
            f"depth={self.depth!r}\n"
            f"direction_sector={sector}\n"
            f"end_time={iso_seconds(self.end_time)}\n"
            f"mean_speed_kmh={self.mean_speed_kmh!r}\n"
            f"radius_km={self.radius_km!r}\n"
        )

    @staticmethod
    def from_portable_text(text: str) -> "CycloneParams":
        """Parse ``portable_text`` output, a line per field by the table
        ``_PORTABLE``; malformed text is a FormatError."""
        return CycloneParams(**read_keys(text, _PORTABLE, "=", FormatError)[0])


_PORTABLE = {name: Row("a number", float, required=True) for name in CycloneParams._fields}
_PORTABLE.update(
    end_time=Row("a UTC time", parse_utc, required=True),
    average_bearing=Row(
        "a number or none", lambda t: None if t == "none" else float(t), required=True
    ),
    direction_sector=Row("a sector or none", lambda t: None if t == "none" else t, required=True),
)


def bearing_weight(bearing_deg: float | None) -> float:
    if bearing_deg is None:
        return 0.0
    return max(0.0, math.cos(math.radians(bearing_deg - WORST_BEARING_DEG)))


def bsm_surrogate(
    params: CycloneParams,
    start: datetime,
    horizon_hours: int = DEFAULT_HORIZON_HOURS,
    gauge: tuple[int, int] = (440, 414),
) -> list[tuple[datetime, float]]:
    """Hourly level series in cm from start to start + horizon inclusive."""
    if gauge not in GAUGES:
        raise UnknownGauge(f"no gauge at grid index {gauge}")
    if horizon_hours < 1:
        raise ValueError("horizon must be at least one hour")
    if horizon_hours > MAX_HORIZON_HOURS:
        raise ValueError(f"horizon must be at most {MAX_HORIZON_HOURS} hours")
    w = bearing_weight(params.average_bearing)
    series = []
    for hour in range(horizon_hours + 1):
        t = start + timedelta(hours=hour)
        x = (t - params.end_time).total_seconds() / 3600.0 / RESPONSE_SIGMA_HOURS
        level = K_IB_CM_PER_HPA * params.depth * math.exp(-x * x) * w
        series.append((t, level))
    return series
