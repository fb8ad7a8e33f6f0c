import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dslake.errors import DegenerateBearing
from dslake.cyclone.geo import (
    EARTH_RADIUS_KM,
    classify_direction,
    destination_point,
    haversine_km,
    initial_bearing,
)

lats = st.floats(min_value=-85, max_value=85, allow_nan=False)
lons = st.floats(min_value=-179, max_value=179, allow_nan=False)


# --- an independent geodesic calculator (3-vector formulation) ---------------

def _unit(lat, lon):
    p, l = math.radians(lat), math.radians(lon)
    return (
        math.cos(p) * math.cos(l),
        math.cos(p) * math.sin(l),
        math.sin(p),
    )


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _norm(a):
    return math.sqrt(sum(x * x for x in a))


def vector_distance_km(lat1, lon1, lat2, lon2):
    a = _unit(lat1, lon1)
    b = _unit(lat2, lon2)
    dot = sum(x * y for x, y in zip(a, b))
    return EARTH_RADIUS_KM * math.atan2(_norm(_cross(a, b)), dot)


def vector_bearing(lat1, lon1, lat2, lon2):
    a = _unit(lat1, lon1)
    b = _unit(lat2, lon2)
    north = (0.0, 0.0, 1.0)
    great_circle = _cross(a, b)
    meridian = _cross(a, north)
    x = sum(p * q for p, q in zip(great_circle, meridian))
    y = sum(p * q for p, q in zip(_cross(great_circle, meridian), a))
    return (math.degrees(math.atan2(y, x))) % 360.0


def vector_resolves_bearing(lat1, lon1, lat2, lon2):
    """Whether the 3-vector oracle can tell the direction between two points.

    Unit-vector components carry ~1e-16 rounding, so the great-circle normal
    of two points within ~1e-8 rad (about 6 cm) of each other, or of each
    other's antipode, points anywhere: at 5e-324 degrees apart it is the
    zero vector and the oracle reads 0 for any step.
    """
    return _norm(_cross(_unit(lat1, lon1), _unit(lat2, lon2))) > 1e-8


def nearly_coincident(lat1, lon1, lat2, lon2):
    return sum(x * y for x, y in zip(_unit(lat1, lon1), _unit(lat2, lon2))) > 0.0


def planar_bearing(lat1, lon1, lat2, lon2):
    """Bearing of a step too short for the 3-vector oracle, on the flat local map."""
    east = (lon2 - lon1) * math.cos(math.radians(lat2))
    return math.degrees(math.atan2(east, lat2 - lat1)) % 360.0


def planar_tolerance(lat1, lon1, lat2, lon2):
    """Degrees by which initial_bearing may miss planar_bearing.

    The flat map ignores the meridians' convergence: under 4e-6 degrees for
    a step below 1e-8 rad at |lat| <= 85. initial_bearing works in radians,
    where every input and product carries a relative rounding of 2**-53, so
    the step it sees is blurred by about 2**-53 times the coordinates, and
    a subnormal step by whole units of 2**-1074: the direction is off by up
    to that blur over the step, 8x and 16x over here. At (0, 0) a step of
    1e-300 degrees resolves; one of 5e-324 vanishes in radians, and there
    initial_bearing raises DegenerateBearing.
    """
    step = math.hypot(lat2 - lat1, (lon2 - lon1) * math.cos(math.radians(lat2)))
    blur = 2**-50 * (abs(lat1) + abs(lat2) + abs(lon1) + abs(lon2) + step)
    blur += math.degrees(2**-1070)
    return 1e-5 + (math.degrees(blur / step) if step else 180.0)


def angles_close(a, b, tol):
    diff = abs(a - b) % 360.0
    return min(diff, 360.0 - diff) <= tol


# --- haversine ----------------------------------------------------------------

def test_haversine_zero():
    assert haversine_km(59.95, 30.30, 59.95, 30.30) == 0.0


def test_haversine_petersburg_tallinn():
    # Saint-Petersburg to Tallinn, checked against the vector formulation
    d = haversine_km(59.95, 30.30, 59.44, 24.75)
    assert d == pytest.approx(316.4, abs=0.5)
    assert d == pytest.approx(vector_distance_km(59.95, 30.30, 59.44, 24.75), abs=1e-6)


@settings(max_examples=300)
@given(lats, lons, lats, lons)
def test_haversine_symmetric(lat1, lon1, lat2, lon2):
    assert haversine_km(lat1, lon1, lat2, lon2) == pytest.approx(
        haversine_km(lat2, lon2, lat1, lon1), abs=1e-9
    )


@settings(max_examples=200)
@given(lats, lons, lats, lons)
def test_haversine_matches_vector_oracle(lat1, lon1, lat2, lon2):
    assert haversine_km(lat1, lon1, lat2, lon2) == pytest.approx(
        vector_distance_km(lat1, lon1, lat2, lon2), abs=1e-6
    )


# --- initial bearing -----------------------------------------------------------

def test_bearing_due_north():
    assert initial_bearing(10.0, 20.0, 30.0, 20.0) == 0.0


def test_bearing_known_value():
    b = initial_bearing(55.0, 20.0, 60.0, 25.0)
    assert b == pytest.approx(26.2, abs=0.1)
    assert b == pytest.approx(vector_bearing(55.0, 20.0, 60.0, 25.0), abs=1e-6)


def test_bearing_tiny_negative_angle_stays_below_360():
    # atan2 gives about -1.5e-211 degrees here; the modulo alone returns 360.0
    assert initial_bearing(0.0, 0.0, 8.320402373875375e-39, -2.1593612669819434e-251) == 0.0


def test_bearing_degenerate():
    with pytest.raises(DegenerateBearing):
        initial_bearing(55.0, 20.0, 55.0, 20.0)


@settings(max_examples=200)
@given(lats, lons, lats, lons)
@example(0.0, 0.0, -5e-324, 0.0)
@example(0.0, 0.0, -1e-300, 0.0)
@example(0.0, 0.0, 0.0, -1e-300)
@example(45.0, 10.0, 45.0, 10.0 + 1e-9)
@example(-60.0, 170.0, -60.0 - 1e-12, 170.0 + 1e-12)
@example(0.0, -90.0, 0.0, 90.0)
@example(0.0, 0.0, 0.0, -5e-324)
@example(45.3, 0.0, 45.3, 5e-324)
def test_bearing_matches_vector_oracle_both_ways(lat1, lon1, lat2, lon2):
    if not vector_resolves_bearing(lat1, lon1, lat2, lon2):
        # Below the oracle's resolution. Coincident points, and a step that
        # vanishes in radians, have no direction: DegenerateBearing. A step
        # that vanishes later in the arithmetic may raise it too, but only
        # where the flat local map cannot resolve it either. Otherwise a
        # bearing in range both ways, and for a short step the one the flat
        # local map gives. Nearly antipodal points have no one direction
        # between them.
        for a, b in (((lat1, lon1), (lat2, lon2)), ((lat2, lon2), (lat1, lon1))):
            if [math.radians(v) for v in a] == [math.radians(v) for v in b]:
                with pytest.raises(DegenerateBearing):
                    initial_bearing(*a, *b)
                continue
            try:
                bearing = initial_bearing(*a, *b)
            except DegenerateBearing:
                assert nearly_coincident(*a, *b) and planar_tolerance(*a, *b) >= 180.0
                continue
            assert 0.0 <= bearing < 360.0
            if nearly_coincident(*a, *b):
                assert angles_close(bearing, planar_bearing(*a, *b), planar_tolerance(*a, *b))
        return
    assert angles_close(
        initial_bearing(lat1, lon1, lat2, lon2),
        vector_bearing(lat1, lon1, lat2, lon2),
        1e-5,
    )
    assert angles_close(
        initial_bearing(lat2, lon2, lat1, lon1),
        vector_bearing(lat2, lon2, lat1, lon1),
        1e-5,
    )


# --- destination point ----------------------------------------------------------

@settings(max_examples=200)
@given(
    st.floats(min_value=-60, max_value=60),
    st.floats(min_value=-150, max_value=150),
    st.floats(min_value=0, max_value=359.99),
    st.floats(min_value=1.0, max_value=3000.0),
)
def test_destination_round_trip(lat, lon, bearing, distance):
    dlat, dlon = destination_point(lat, lon, bearing, distance)
    assert haversine_km(lat, lon, dlat, dlon) == pytest.approx(distance, rel=1e-9, abs=1e-6)
    assert angles_close(initial_bearing(lat, lon, dlat, dlon), bearing, 1e-6)


# --- direction sectors ------------------------------------------------------------

def test_sector_centers():
    assert classify_direction(45.0) == "north-east"
    assert classify_direction(0.0) == "north"
    assert classify_direction(90.0) == "east"
    assert classify_direction(135.0) == "south-east"
    assert classify_direction(180.0) == "south"
    assert classify_direction(225.0) == "south-west"
    assert classify_direction(270.0) == "west"
    assert classify_direction(315.0) == "north-west"


def test_sector_boundaries_half_open():
    assert classify_direction(22.5) == "north-east"
    assert classify_direction(67.5) == "east"
    assert classify_direction(337.5) == "north"
    assert classify_direction(22.499999) == "north"


def test_sector_from_bearing_example():
    assert classify_direction(26.2) == "north-east"


@settings(max_examples=200)
@given(st.floats(min_value=0, max_value=359.999), st.integers(-3, 3))
def test_sector_wraps(bearing, k):
    assert classify_direction(bearing + 360.0 * k) == classify_direction(bearing)
