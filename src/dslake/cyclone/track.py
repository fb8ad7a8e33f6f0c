"""Greedy chronological association of centers into cyclone paths.

Each active path extends to the nearest unclaimed center within the gate
distance v_max * dt; unmatched centers start new paths; a path with no
match terminates (no gap tolerance). Every claimed center belongs to
exactly one path. All tie-breaks are documented and deterministic:

  * candidate centers tie on distance -> lower pressure, then (lat, lon);
  * active paths take turns ordered by their last center's (lat, lon,
    pressure);
  * new paths and reported paths are ordered by (time, lat, lon, pressure)
    of their first center.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Sequence

from dslake.errors import NonmonotonicTimestamps
from dslake.times import iso_seconds
from dslake.cyclone.detect import CycloneCenter
from dslake.cyclone.geo import haversine_km

GATE_SPEED_KMH = 120.0  # v_max


@dataclass
class CyclonePath:
    path_id: str
    centers: tuple[CycloneCenter, ...]

    @property
    def start_time(self) -> datetime:
        return self.centers[0].timestamp


def path_digest(centers: Sequence[CycloneCenter]) -> str:
    h = hashlib.sha256()
    for c in centers:
        h.update(
            f"{iso_seconds(c.timestamp)}|{c.lat:.6f}|{c.lon:.6f}|{c.pressure:.6f}\n".encode()
        )
    return h.hexdigest()[:16]


def _center_key(c: CycloneCenter) -> tuple:
    return (c.lat, c.lon, c.pressure)


def _turn_key(path: list[CycloneCenter]) -> tuple:
    return _center_key(path[-1])


def track(
    center_sets: Iterable[tuple[datetime, Sequence[CycloneCenter]]],
) -> list[CyclonePath]:
    """Associate per-snapshot center sets into time-ordered paths."""
    active: list[list[CycloneCenter]] = []
    finished: list[list[CycloneCenter]] = []
    prev_ts: datetime | None = None

    for ts, centers in center_sets:
        if prev_ts is not None and ts <= prev_ts:
            raise NonmonotonicTimestamps(f"{ts} does not follow {prev_ts}")
        if not centers:
            # most instants hold no center: every active path finishes, in
            # the turn order of the matching loop below
            if active:
                finished.extend(sorted(active, key=_turn_key))
                active = []
            prev_ts = ts
            continue
        ordered = sorted(centers, key=_center_key)
        if prev_ts is None:
            active = [[c] for c in ordered]
            prev_ts = ts
            continue

        dt_hours = (ts - prev_ts).total_seconds() / 3600.0
        gate_km = GATE_SPEED_KMH * dt_hours
        unclaimed = list(range(len(ordered)))
        extended: list[list[CycloneCenter]] = []
        for path in sorted(active, key=_turn_key):
            last = path[-1]
            best_idx = None
            best_key = None
            for pos, ci in enumerate(unclaimed):
                c = ordered[ci]
                d = haversine_km(last.lat, last.lon, c.lat, c.lon)
                if d > gate_km:
                    continue
                key = (d, c.pressure, c.lat, c.lon)
                if best_key is None or key < best_key:
                    best_key = key
                    best_idx = pos
            if best_idx is None:
                finished.append(path)
            else:
                path.append(ordered[unclaimed.pop(best_idx)])
                extended.append(path)
        for ci in unclaimed:
            extended.append([ordered[ci]])
        active = extended
        prev_ts = ts

    finished.extend(active)
    finished.sort(key=lambda p: (p[0].timestamp, _center_key(p[0])))
    return [
        CyclonePath(path_id=path_digest(centers), centers=tuple(centers))
        for centers in finished
    ]
