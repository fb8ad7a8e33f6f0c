"""Parametrization of a tracked cyclone path into ``CycloneParams``.

The pressure structure (central and ambient pressure, radius) is read
from a densified window around the path's final center
(``pressure_structure``, the only step that computes with numpy); the
depth and the motion parameters come from the structure and the center
sequence itself (``parametrize``, pure Python).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from dslake.errors import DegenerateBearing
from dslake.cyclone.geo import (
    classify_direction,
    haversine_grid_km,
    haversine_km,
    initial_bearing,
)
from dslake.cyclone.grid import GridSnapshot, densify
from dslake.cyclone.surrogate import CycloneParams
from dslake.cyclone.track import CyclonePath

if TYPE_CHECKING:
    import numpy as np

WINDOW_HALF_DEG = 5.0  # the analysis window is 10 x 10 degrees
RADIUS_DEPTH_FRACTION = 0.75
DEFAULT_DENSIFY_FACTOR = 4


def pressure_structure(
    snapshot: GridSnapshot, lat: float, lon: float
) -> tuple[float, float, float]:
    """The central pressure, ambient pressure and radius (km) of the
    densified window of ``snapshot`` around ``(lat, lon)``, as Python floats."""
    import numpy as np

    coarse = _crop_to_window(snapshot, lat, lon)
    snap = densify(coarse, DEFAULT_DENSIFY_FACTOR)

    i_lo, i_hi = _index_window(snap.lat0, snap.dlat, snap.nlat, lat)
    j_lo, j_hi = _index_window(snap.lon0, snap.dlon, snap.nlon, lon)
    window = snap.values[i_lo : i_hi + 1, j_lo : j_hi + 1]

    flat_min = int(np.argmin(window))
    mi, mj = divmod(flat_min, window.shape[1])
    central = float(window[mi, mj])
    clat = snap.lat_of(i_lo + mi)
    clon = snap.lon_of(j_lo + mj)

    boundary = np.ones(window.shape, dtype=bool)
    boundary[1:-1, 1:-1] = False
    ambient = float(window[boundary].max())
    depth = max(ambient - central, 0.0)

    radius = _contour_radius(snap, window, i_lo, j_lo, mi, mj, clat, clon, central, depth)
    return central, ambient, radius


def parametrize(path: CyclonePath, structure: tuple[float, float, float]) -> CycloneParams:
    """CycloneParams of a path from ``structure``, the ``pressure_structure``
    around its final center, and the path's motion."""
    if not path.centers:
        raise ValueError("cannot parametrize an empty path")
    central, ambient, radius = structure
    depth = max(ambient - central, 0.0)
    last = path.centers[-1]

    speed = 0.0
    if len(path.centers) > 1:
        length = sum(
            haversine_km(a.lat, a.lon, b.lat, b.lon)
            for a, b in zip(path.centers, path.centers[1:])
        )
        hours = (path.centers[-1].timestamp - path.centers[0].timestamp).total_seconds() / 3600.0
        speed = length / hours

    first = path.centers[0]
    try:
        bearing = initial_bearing(first.lat, first.lon, last.lat, last.lon)
        sector = classify_direction(bearing)
    except DegenerateBearing:
        bearing = None
        sector = None

    return CycloneParams(
        end_time=last.timestamp,
        central_pressure=central,
        ambient_pressure=ambient,
        depth=depth,
        radius_km=radius,
        mean_speed_kmh=speed,
        average_bearing=bearing,
        direction_sector=sector,
    )


def _index_window(x0: float, dx: float, n: int, center: float) -> tuple[int, int]:
    lo = math.ceil((center - WINDOW_HALF_DEG - x0) / dx - 1e-9)
    hi = math.floor((center + WINDOW_HALF_DEG - x0) / dx + 1e-9)
    return max(lo, 0), min(hi, n - 1)


def _crop_to_window(snap: GridSnapshot, lat: float, lon: float) -> GridSnapshot:
    """Trim to the coarse cells covering the analysis window.

    Bilinear refinement is local to each coarse cell, so a crop aligned
    to coarse nodes leaves every dense value inside the window unchanged
    while keeping the refinement cost proportional to the window.
    """
    i_lo, i_hi = _index_window(snap.lat0, snap.dlat, snap.nlat, lat)
    j_lo, j_hi = _index_window(snap.lon0, snap.dlon, snap.nlon, lon)
    i_lo, i_hi = max(i_lo - 1, 0), min(i_hi + 1, snap.nlat - 1)
    j_lo, j_hi = max(j_lo - 1, 0), min(j_hi + 1, snap.nlon - 1)
    if (i_lo, i_hi, j_lo, j_hi) == (0, snap.nlat - 1, 0, snap.nlon - 1):
        return snap
    return GridSnapshot(
        lat0=snap.lat0 + i_lo * snap.dlat,
        lon0=snap.lon0 + j_lo * snap.dlon,
        dlat=snap.dlat,
        dlon=snap.dlon,
        nlat=i_hi - i_lo + 1,
        nlon=j_hi - j_lo + 1,
        timestamp=snap.timestamp,
        values=snap.values[i_lo : i_hi + 1, j_lo : j_hi + 1],
    )


def _contour_radius(
    snap: GridSnapshot,
    window: np.ndarray,
    i_lo: int,
    j_lo: int,
    mi: int,
    mj: int,
    clat: float,
    clon: float,
    central: float,
    depth: float,
) -> float:
    """Distance from the pressure minimum to the 0.75-depth contour.

    The radius is the distance to the nearest window node at or above
    central + 0.75 * depth, the minimum itself excluded. If no node
    qualifies the window diagonal is returned as a conservative bound.
    """
    import numpy as np

    lats = snap.lat0 + snap.dlat * (i_lo + np.arange(window.shape[0]))
    lons = snap.lon0 + snap.dlon * (j_lo + np.arange(window.shape[1]))
    dist = haversine_grid_km(clat, clon, lats, lons)
    qualifies = window >= central + RADIUS_DEPTH_FRACTION * depth
    qualifies[mi, mj] = False
    if not qualifies.any():
        return float(dist.max())
    return float(dist[qualifies].min())

