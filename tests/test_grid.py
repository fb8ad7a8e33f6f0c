import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dslake.errors import FormatError
from dslake.cyclone.grid import (
    GridSnapshot,
    densify,
    parse_grid_snapshot,
    render_grid_snapshot,
)
from dslake.cyclone.plugin import extract_centers

from conftest import utc


def snapshot(values, lat0=48.0, lon0=-25.0, dlat=0.5, dlon=0.5, ts=None):
    values = np.asarray(values, dtype=np.float64)
    return GridSnapshot(
        lat0=lat0,
        lon0=lon0,
        dlat=dlat,
        dlon=dlon,
        nlat=values.shape[0],
        nlon=values.shape[1],
        timestamp=ts or utc(2011, 1, 1),
        values=values,
    )


def test_render_parse_round_trip():
    rng = np.random.default_rng(7)
    values = np.round(rng.uniform(950, 1050, size=(36, 116)), 2)
    snap = snapshot(values)
    parsed = parse_grid_snapshot(render_grid_snapshot(snap))
    assert parsed == snap
    assert parsed.timestamp == snap.timestamp


def test_header_fields():
    data = b"grid 48.0 -25.0 0.5 0.5 2 3 2011-01-01T00:00Z\n" + b"1000 1000 1000\n1000 1000 1000\n"
    snap = parse_grid_snapshot(data)
    assert (snap.nlat, snap.nlon) == (2, 3)
    assert snap.lat_of(1) == 48.5
    assert snap.lon_of(2) == -24.0


def test_short_row_is_format_error():
    data = b"grid 48.0 -25.0 0.5 0.5 2 3 2011-01-01T00:00Z\n" + b"1000 1000 1000\n1000 1000\n"
    with pytest.raises(FormatError) as err:
        parse_grid_snapshot(data)
    assert err.value.line == 3


def test_pressure_out_of_range():
    data = b"grid 48.0 -25.0 0.5 0.5 2 2 2011-01-01T00:00Z\n" + b"2000.0 1000 \n1000 1000\n"
    with pytest.raises(FormatError):
        parse_grid_snapshot(data)


def test_bad_header():
    with pytest.raises(FormatError) as err:
        parse_grid_snapshot(b"mesh 1 2 3\n")
    assert err.value.line == 1


def test_non_numeric_cell():
    data = b"grid 48.0 -25.0 0.5 0.5 2 2 2011-01-01T00:00Z\n" + b"1000 oops\n1000 1000\n"
    with pytest.raises(FormatError) as err:
        parse_grid_snapshot(data)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "parse",
    [parse_grid_snapshot, lambda data: extract_centers(data, {})],
    ids=["grid", "extractor"],
)
@pytest.mark.parametrize(
    "data, line",
    [
        (b"grid 48.0 -25.0 0.5 0.5 2 2 2011-01-01T00:00Z\xff\n1000 1000\n1000 1000\n", 1),
        (b"grid 48.0 -25.0 0.5 0.5 2 2 2011-01-01T00:00Z\n1000 1000\n1000 10\xe90\n", 3),
    ],
    ids=["header", "row"],
)
def test_bytes_that_are_not_utf8_name_their_line(parse, data, line):
    with pytest.raises(FormatError) as err:
        parse(data)
    assert (err.value.line, err.value.message) == (line, "not UTF-8 text")


def test_densify_identity():
    snap = snapshot(np.full((4, 5), 1013.25))
    assert densify(snap, 1) is snap


def test_densify_constant_field():
    snap = snapshot(np.full((4, 5), 1000.0))
    dense = densify(snap, 3)
    assert dense.nlat == 10 and dense.nlon == 13
    assert np.allclose(dense.values, 1000.0)
    assert dense.dlat == pytest.approx(snap.dlat / 3)


def test_densify_reproduces_bilinear_functions():
    # a field linear in lat and lon is reproduced exactly at dense nodes
    nlat, nlon, k = 5, 7, 4
    i = np.arange(nlat)[:, None]
    j = np.arange(nlon)[None, :]
    snap = snapshot(1000.0 + 3.0 * i + 2.0 * j)
    dense = densify(snap, k)
    ii = np.arange(dense.nlat)[:, None] / k
    jj = np.arange(dense.nlon)[None, :] / k
    assert np.allclose(dense.values, 1000.0 + 3.0 * ii + 2.0 * jj, atol=1e-12)


def test_densify_endpoints_preserved():
    rng = np.random.default_rng(3)
    snap = snapshot(np.round(rng.uniform(950, 1050, (6, 8)), 2))
    dense = densify(snap, 5)
    assert dense.values[0, 0] == snap.values[0, 0]
    assert dense.values[-1, -1] == snap.values[-1, -1]
    assert dense.values[::5, ::5] == pytest.approx(snap.values, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(2, 8),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_densify_within_coarse_hull(nlat, nlon, k, seed):
    # bilinear convexity: every dense value lies within the hull of the
    # four surrounding coarse values
    rng = np.random.default_rng(seed)
    values = rng.uniform(900, 1100, (nlat, nlon))
    snap = snapshot(values)
    dense = densify(snap, k)
    assert dense.values.min() >= values.min() - 1e-9
    assert dense.values.max() <= values.max() + 1e-9
    for ci in range(nlat - 1):
        for cj in range(nlon - 1):
            block = dense.values[ci * k : ci * k + k + 1, cj * k : cj * k + k + 1]
            corners = values[ci : ci + 2, cj : cj + 2]
            assert block.min() >= corners.min() - 1e-9
            assert block.max() <= corners.max() + 1e-9
