from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dslake.errors import DslakeError, FormatError
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


def _extracted(data, memo):
    """``extract_centers``'s result, or the line and message of its ``FormatError``."""
    try:
        return extract_centers(data, memo)
    except FormatError as exc:
        return exc.line, exc.message


_FIRST = render_grid_snapshot(
    snapshot([[1010, 1008, 1009, 1012], [1007, 990.25, 1006, 1011], [1013, 1009, 1004.5, 1010]],
             ts=utc(2011, 3, 4, 6))
)
_OTHER = render_grid_snapshot(snapshot(np.full((3, 4), 1013.0), ts=utc(2011, 3, 4, 0)))
_HEADER_END = _FIRST.index(b"\n")
# bytes an edit puts in: whitespace, line breaks, digits, other timestamps and
# shapes, a non-ASCII letter, and bytes that are not UTF-8
_PIECES = [
    b" ", b"  ", b"\t", b"\r", b"\n", b"\r\n", b"\x0c", b"\xc2\x85", b"\xc2\xa0", b"0", b"5",
    b"x", b"-", b"Z", b"T", b"+00:00", b"2011-03-04T12:00Z", b"2011-03-04T06:00:30Z",
    b"2011-03-04 06:00Z", b"2011-02-30T00:00Z", b" 3 4 ", b" 4 3 ", b" 3 5 ", b"\xc3\xa9",
    b"\xff", b"\xc3", b"\xe2\x80", b"1008.00", b"999.00",
]
# timestamp fields, some of them broken by whitespace that str.split sees
_STAMPS = [
    b"2011-03-04T12:00Z", b"2011-03-04T06:00:30Z", b"2011-03-04T06:00+00:00", b"2011-03-04",
    b"2011-03-04 06:00Z", b"2011-03-04T06:00Z\x0c", b"2011-03-04\xc2\x8506:00Z",
    b"2011-03-04\x1f06:00Z", b"2011-02-30T00:00Z", b"2011-03-04T06:00Z\r", b"",
]


@st.composite
def edited_snapshots(draw):
    """``_FIRST`` with a few edits: a piece put in or a span cut out, each in
    its header, its body or at its end."""
    data = _FIRST
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(["header", "stamp", "body", "end"]))
        line_end = data.find(b"\n") if b"\n" in data else len(data)
        cut = draw(st.integers(0, 4))
        if where == "header":
            start = draw(st.integers(0, line_end))
        elif where == "stamp":  # the last field of the first line, or it and its newline
            start = data.rfind(b" ", 0, line_end) + 1
            cut = line_end - start + draw(st.integers(0, 1))
        elif where == "body":
            start = draw(st.integers(min(_HEADER_END + 1, len(data)), len(data)))
        else:
            start, cut = len(data), 0
        piece = draw(st.sampled_from(_STAMPS if where == "stamp" else [b""] + _PIECES))
        data = data[:start] + piece + data[start + cut:]
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]  # a truncated copy
    return data


@settings(max_examples=400, deadline=None)
@given(edited_snapshots(), st.sampled_from([[_FIRST], [_FIRST, _OTHER], [_OTHER, _FIRST],
                                             [_FIRST.replace(b"Z\n", b"Z \r\n", 1)],
                                             [_FIRST.replace(b" ", b"\t", 3)]]))
def test_a_primed_extractor_gives_what_an_empty_one_gives(data, primers):
    # the memo's shortcuts (the last body used, a body seen before) change
    # no result and no error; an error is the one a whole-file parse raises
    memo = {}
    for primer in primers:
        extract_centers(primer, memo)
    expected = _extracted(data, {})
    assert _extracted(data, memo) == expected
    if not isinstance(expected[0], datetime):
        with pytest.raises(FormatError) as err:
            parse_grid_snapshot(data)
        assert (err.value.line, err.value.message) == expected


def test_a_grid_wider_than_any_float_is_a_format_error():
    data = b"grid 48.0 -25.0 0.5 0.5 " + b"9" * 400 + b" 2 2011-01-01T00:00Z\n1000 1000\n"
    for parse in (parse_grid_snapshot, lambda data: extract_centers(data, {})):
        with pytest.raises(FormatError) as err:
            parse(data)
        assert err.value.line == 1
        assert err.value.message == "grid box outside [-90, 90] x [-180, 180]"


# header and cell words: numbers at and past the edges of int and float,
# words that are no number, and bytes that are not UTF-8
_WORDS = st.sampled_from([
    b"grid", b"48.0", b"-25.0", b"0.5", b"-0.0", b"1e308", b"1e-320", b"nan", b"inf", b"-inf",
    b"2", b"3", b"0", b"-1", b"9" * 400, b"1_0", b"\xd9\xa3", b"2011-03-04T06:00Z",
    b"2011-03-04T06:00:00.5+01:00", b"9999-12-31T23:59+00:00", b"1000", b"990.25", b"1e999",
    b"\xff", b"\xe2\x80\xa8", b"",
]) | st.binary(max_size=6)


@st.composite
def grid_like_bytes(draw):
    """A header of seven to nine words and up to four rows of cells."""
    header = b" ".join(draw(st.lists(_WORDS, min_size=7, max_size=9)))
    rows = draw(st.lists(st.lists(_WORDS, max_size=5).map(b" ".join), max_size=4))
    return b"\n".join([header, *rows])


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=120) | grid_like_bytes() | edited_snapshots(),
       st.sampled_from([[], [_FIRST], [_OTHER, _FIRST]]))
def test_any_bytes_give_a_snapshot_or_a_dslake_error(data, primers):
    # the parser and the extractor, its memo empty or primed, are total:
    # a value or a DslakeError, never another exception
    memo = {}
    for primer in primers:
        extract_centers(primer, memo)
    for parse in (parse_grid_snapshot, lambda data: extract_centers(data, memo)):
        try:
            parse(data)
        except DslakeError:
            pass
