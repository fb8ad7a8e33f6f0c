"""AST node types produced by the query parser.

All nodes are frozen dataclasses so parsed queries compare by value,
which is what the format/parse round-trip law is stated over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime

from dslake.times import UTC


@dataclass(frozen=True)
class GeoBox:
    """Latitude/longitude box, corners normalized to (min, max)."""

    lat_min: float
    lon_min: float
    lat_max: float
    lon_max: float

    @staticmethod
    def from_corners(a: tuple[float, float], b: tuple[float, float]) -> "GeoBox":
        return GeoBox(
            lat_min=min(a[0], b[0]),
            lon_min=min(a[1], b[1]),
            lat_max=max(a[0], b[0]),
            lon_max=max(a[1], b[1]),
        )

    def contains(self, lat: float, lon: float) -> bool:
        return (
            self.lat_min <= lat <= self.lat_max
            and self.lon_min <= lon <= self.lon_max
        )


@dataclass(frozen=True)
class TimeRange:
    """Inclusive calendar-day range; covers the whole last day."""

    first_day: date
    last_day: date

    def contains(self, ts: datetime) -> bool:
        return self.first_day <= ts.astimezone(UTC).date() <= self.last_day


# --- expressions -------------------------------------------------------------

@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class DateLit:
    value: date


@dataclass(frozen=True)
class DurationLit:
    hours: int


@dataclass(frozen=True)
class Offset:
    """base +/- duration; base is a Ref, DateLit, or another Offset."""

    base: "Expr"
    sign: int  # +1 or -1
    delta: DurationLit


Expr = Ref | IntLit | DateLit | DurationLit | Offset


@dataclass(frozen=True)
class OutItem:
    name: str
    indices: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class SelectStmt:
    object_type: str
    filters: tuple[tuple[str, str], ...] = ()
    out: tuple[OutItem, ...] = ()


@dataclass(frozen=True)
class SimulateStmt:
    package: str
    options: tuple[tuple[str, str], ...] = ()
    in_bindings: tuple[tuple[str, Expr], ...] = ()
    out: tuple[OutItem, ...] = ()


Statement = SelectStmt | SimulateStmt


@dataclass(frozen=True)
class QueryAst:
    area: GeoBox | None = None
    time: TimeRange | None = None
    statements: tuple[Statement, ...] = field(default_factory=tuple)

