import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dslake.cyclone.detect import detect_centers, interior_minima
from dslake.cyclone.geo import haversine_km

from test_grid import snapshot


def brute_force_minima(values, threshold):
    """Exhaustive 8-neighborhood scan; the detection oracle."""
    nlat, nlon = values.shape
    found = []
    for i in range(1, nlat - 1):
        for j in range(1, nlon - 1):
            v = values[i, j]
            if v >= threshold:
                continue
            if all(
                v < values[i + di, j + dj]
                for di in (-1, 0, 1)
                for dj in (-1, 0, 1)
                if (di, dj) != (0, 0)
            ):
                found.append((i, j, float(v)))
    return found


def gaussian_depression(nlat, nlon, center_lat, center_lon, depth, sigma_km,
                        lat0=48.0, lon0=-25.0, spacing=0.5):
    lats = lat0 + spacing * np.arange(nlat)
    lons = lon0 + spacing * np.arange(nlon)
    field = np.full((nlat, nlon), 1013.25)
    for i, lat in enumerate(lats):
        for j, lon in enumerate(lons):
            d = haversine_km(lat, lon, center_lat, center_lon)
            field[i, j] -= depth * math.exp(-(d * d) / (2 * sigma_km**2))
    return field


def test_uniform_field_no_centers():
    snap = snapshot(np.full((10, 12), 1013.25))
    assert detect_centers(snap) == []


def test_single_planted_depression():
    field = gaussian_depression(30, 40, 57.0, -18.0, depth=40.0, sigma_km=300.0)
    snap = snapshot(field)
    centers = detect_centers(snap)
    assert len(centers) == 1
    (center,) = centers
    # the detected node is the nearest grid node to the planted center
    assert haversine_km(center.lat, center.lon, 57.0, -18.0) <= 0.5 * 111.0 / math.sqrt(2)
    assert center.pressure < 1000.0
    assert center.timestamp == snap.timestamp
    i, j = center.grid_index
    assert 0 < i < snap.nlat - 1 and 0 < j < snap.nlon - 1


def test_two_depressions_far_apart():
    field = gaussian_depression(36, 110, 55.0, -15.0, 40.0, 300.0)
    extra = gaussian_depression(36, 110, 58.0, 18.0, 35.0, 300.0)
    combined = field + extra - 1013.25  # superpose the two depressions
    snap = snapshot(combined)
    centers = detect_centers(snap)
    assert len(centers) == 2
    assert centers == sorted(centers, key=lambda c: (c.lat, c.lon))


def test_border_cells_never_centers():
    values = np.full((5, 5), 1013.25)
    values[0, 2] = 900.0  # border minimum must be ignored
    assert interior_minima(values) == []


def test_plateau_is_not_strict_minimum():
    values = np.full((5, 5), 1013.25)
    values[2, 2] = values[2, 3] = 950.0
    assert interior_minima(values) == []


@settings(max_examples=150, deadline=None)
@given(
    st.integers(3, 24),
    st.integers(3, 24),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_matches_brute_force_oracle(nlat, nlon, seed, coarse):
    rng = np.random.default_rng(seed)
    values = rng.uniform(960.0, 1060.0, (nlat, nlon))
    if coarse:
        values = np.round(values, -1)  # provoke plateaus and ties
    got = interior_minima(values)
    assert got == brute_force_minima(values, 1000.0)
