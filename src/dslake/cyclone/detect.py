"""Cyclone center detection: strict local pressure minima below
``THRESHOLD_HPA``."""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import TYPE_CHECKING

from dslake.cyclone.grid import GridSnapshot

if TYPE_CHECKING:
    import numpy as np

THRESHOLD_HPA = 1000.0


@dataclass(frozen=True)
class CycloneCenter:
    lat: float
    lon: float
    pressure: float
    timestamp: datetime
    grid_index: tuple[int, int]
    # the central pressure, ambient pressure and radius (km) around the
    # center (``params.pressure_structure``); not part of its identity
    structure: tuple[float, float, float] | None = field(default=None, compare=False)


def detect_centers(snapshot: GridSnapshot) -> list[CycloneCenter]:
    """Interior cells below the threshold and strictly below all 8 neighbors.

    Border cells are never centers. Results are sorted by (lat, lon),
    i.e. by grid index since spacings are positive.
    """
    minima = interior_minima(snapshot.values)
    lat0, lon0, dlat, dlon = snapshot.lat0, snapshot.lon0, snapshot.dlat, snapshot.dlon
    return centers_at(minima, lat0, lon0, dlat, dlon, snapshot.timestamp)


def centers_at(
    minima: list[tuple[int, int, float]],
    lat0: float, lon0: float, dlat: float, dlon: float,
    timestamp: datetime,
) -> list[CycloneCenter]:
    """Centers at grid minima ``(i, j, pressure)``."""
    return [
        CycloneCenter(lat0 + i * dlat, lon0 + j * dlon, pressure, timestamp, (i, j))
        for i, j, pressure in minima
    ]


def interior_minima(values: np.ndarray) -> list[tuple[int, int, float]]:
    """(i, j, value) for strict 8-neighborhood minima below the threshold."""
    import numpy as np

    c = values[1:-1, 1:-1]
    mask = c < THRESHOLD_HPA
    for di, dj in (
        (-1, -1), (-1, 0), (-1, 1),
        (0, -1), (0, 1),
        (1, -1), (1, 0), (1, 1),
    ):
        neighbor = values[1 + di : values.shape[0] - 1 + di,
                          1 + dj : values.shape[1] - 1 + dj]
        mask &= c < neighbor
    out = []
    for i, j in np.argwhere(mask):
        out.append((int(i) + 1, int(j) + 1, float(values[i + 1, j + 1])))
    return out
