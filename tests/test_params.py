import math

import numpy as np
import pytest

from dslake.cyclone.detect import detect_centers
from dslake.cyclone.grid import GridSnapshot, parse_grid_snapshot, render_grid_snapshot
from dslake.cyclone.params import parametrize, pressure_structure
from dslake.cyclone.track import track

from conftest import utc
from test_detect import gaussian_depression
from test_grid import snapshot


def quantized(snap: GridSnapshot) -> GridSnapshot:
    # engine-visible values go through the two-decimal text format
    return parse_grid_snapshot(render_grid_snapshot(snap))


def test_stationary_single_snapshot():
    ts = utc(2011, 1, 15)
    field = gaussian_depression(36, 110, 57.0, 2.0, depth=40.0, sigma_km=300.0)
    snap = quantized(snapshot(field, ts=ts))
    (c,) = detect_centers(snap)
    (path,) = track([(ts, [c])])
    params = parametrize(path, pressure_structure(snap, c.lat, c.lon))
    assert params.mean_speed_kmh == 0.0
    assert params.average_bearing is None
    assert params.direction_sector is None
    assert params.end_time == ts


def test_gaussian_radius_matches_analytic_contour():
    # the 0.75-depth contour of a planted Gaussian sits at
    # sigma * sqrt(2 ln 4) from the center; at low latitude the whole
    # 10x10 degree window boundary is far enough out in km that the
    # measured ambient is close to the true background
    ts = utc(2011, 1, 15)
    sigma = 300.0
    field = gaussian_depression(
        50, 100, 30.0, 0.0, depth=40.0, sigma_km=sigma, lat0=18.0, lon0=-25.0
    )
    snap = quantized(snapshot(field, lat0=18.0, lon0=-25.0, ts=ts))
    (c,) = detect_centers(snap)
    (path,) = track([(ts, [c])])
    params = parametrize(path, pressure_structure(snap, c.lat, c.lon))

    analytic = sigma * math.sqrt(2.0 * math.log(4.0))  # ~499.53 km
    assert params.radius_km == pytest.approx(analytic, rel=0.10)
    assert params.depth == pytest.approx(40.0, rel=0.10)
    assert params.central_pressure == pytest.approx(1013.25 - 40.0, abs=0.5)
    assert params.ambient_pressure == pytest.approx(1013.25, abs=2.5)


def test_moving_path_bearing_and_speed():
    t0, t1 = utc(2011, 1, 15, 0), utc(2011, 1, 15, 6)
    field0 = gaussian_depression(56, 116, 55.0, 20.0, 40.0, 300.0, lat0=40.0, lon0=0.0)
    field1 = gaussian_depression(56, 116, 60.0, 25.0, 40.0, 300.0, lat0=40.0, lon0=0.0)
    s0 = quantized(snapshot(field0, lat0=40.0, lon0=0.0, ts=t0))
    s1 = quantized(snapshot(field1, lat0=40.0, lon0=0.0, ts=t1))
    (c0,) = detect_centers(s0)
    (c1,) = detect_centers(s1)
    (path,) = track([(t0, [c0]), (t1, [c1])])
    params = parametrize(path, pressure_structure(s1, c1.lat, c1.lon))
    assert params.average_bearing == pytest.approx(26.2, abs=0.5)
    assert params.direction_sector == "north-east"
    assert params.end_time == t1
    # both endpoints fall on exact grid nodes, so the independently
    # computed great-circle length over 6 h is the speed oracle
    from test_geo import vector_distance_km

    expected_speed = vector_distance_km(55.0, 20.0, 60.0, 25.0) / 6.0
    assert params.mean_speed_kmh == pytest.approx(expected_speed, rel=1e-6)


def test_uniform_window_depth_zero():
    ts = utc(2011, 1, 15)
    values = np.full((20, 20), 995.0)
    values[10, 10] = 990.0
    snap = snapshot(values, ts=ts)
    (c,) = detect_centers(snap)
    (path,) = track([(ts, [c])])
    params = parametrize(path, pressure_structure(snap, c.lat, c.lon))
    assert params.depth == pytest.approx(5.0)
    assert params.radius_km > 0.0
