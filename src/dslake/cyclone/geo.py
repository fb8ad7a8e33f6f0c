"""Great-circle geometry on a spherical Earth.

All coordinates are degrees, distances kilometers, bearings degrees
clockwise from north in [0, 360).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from dslake.errors import DegenerateBearing

if TYPE_CHECKING:
    import numpy as np

EARTH_RADIUS_KM = 6371.0

SECTORS = (
    "north",
    "north-east",
    "east",
    "south-east",
    "south",
    "south-west",
    "west",
    "north-west",
)


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two points in kilometers."""
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    dp = p2 - p1
    dl = l2 - l1
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def haversine_grid_km(lat: float, lon: float, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Distance from (lat, lon) to every node of the ``lats`` x ``lons`` grid."""
    import numpy as np

    p1 = math.radians(lat)
    p2 = np.radians(lats)[:, None]
    dl = np.radians(lons[None, :] - lon)
    dp = p2 - p1
    a = np.sin(dp / 2.0) ** 2 + math.cos(p1) * np.cos(p2) * np.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


def initial_bearing(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Initial great-circle bearing from the first point to the second.

    Raises DegenerateBearing for coincident points and for a step that
    vanishes in the arithmetic (a subnormal one at (0, 0), say), which has
    no direction to report.
    """
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    dl = l2 - l1
    y = math.sin(dl) * math.cos(p2)
    x = math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dl)
    if y == x == 0.0:
        raise DegenerateBearing(f"no direction from ({lat1}, {lon1}) to ({lat2}, {lon2})")
    bearing = math.degrees(math.atan2(y, x)) % 360.0
    # A negative angle smaller than half an ulp of 360 rounds up to 360.0.
    return 0.0 if bearing == 360.0 else bearing


def destination_point(
    lat: float, lon: float, bearing_deg: float, distance_km: float
) -> tuple[float, float]:
    """Point reached from (lat, lon) along a great circle."""
    delta = distance_km / EARTH_RADIUS_KM
    theta = math.radians(bearing_deg)
    p1 = math.radians(lat)
    l1 = math.radians(lon)
    p2 = math.asin(
        math.sin(p1) * math.cos(delta) + math.cos(p1) * math.sin(delta) * math.cos(theta)
    )
    l2 = l1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(p1),
        math.cos(delta) - math.sin(p1) * math.sin(p2),
    )
    lon2 = math.degrees(l2)
    if lon2 > 180.0:
        lon2 -= 360.0
    elif lon2 < -180.0:
        lon2 += 360.0
    return math.degrees(p2), lon2


def classify_direction(bearing_deg: float) -> str:
    """Map a bearing to one of eight 45-degree compass sectors.

    Sectors are centered on the compass points with half-open lower
    bounds: north-east covers [22.5, 67.5), north wraps across zero.
    """
    b = bearing_deg % 360.0
    index = int(((b + 22.5) % 360.0) // 45.0)
    return SECTORS[index]
