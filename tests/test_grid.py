import io
from datetime import datetime
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from dslake.errors import DslakeError, FormatError
from dslake.cyclone import grid
from dslake.cyclone.grid import (
    GridSnapshot,
    densify,
    parse_grid_snapshot,
    render_body,
    render_grid_snapshot,
    render_header,
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


def _general_parse(data):
    """``parse_grid_snapshot`` with its canonical path declined: the general
    parser alone, as it was before that path."""
    with mock.patch.object(grid, "_canonical_values", return_value=None):
        return parse_grid_snapshot(data)


def _parsed(parse, data):
    """What ``parse`` makes of ``data``: the snapshot's fields with its values'
    shape and bytes, or its ``FormatError``'s line and message."""
    try:
        snap = parse(data)
    except FormatError as exc:
        return exc.line, exc.message
    head = (snap.lat0, snap.lon0, snap.dlat, snap.dlon, snap.nlat, snap.nlon, snap.timestamp)
    return head, snap.values.shape, snap.values.dtype, snap.values.tobytes()


_HEAD = b"grid 48.0 -25.0 0.5 0.5 2 2 2011-01-01T00:00Z\n"
_BODY = b"1000.00 1000.00\n1000.00 1000.00\n"  # canonical


@pytest.mark.parametrize("data, line, message", [
    (b"mesh" + _HEAD[4:] + _BODY, 1, "header must be: grid lat0 lon0 dlat dlon nlat nlon time"),
    (_HEAD.replace(b"-25.0", b"x") + _BODY, 1,
     "bad header field: could not convert string to float: 'x'"),
    (_HEAD.replace(b"0.5 0.5", b"0.5 0"), 1, "grid spacing must be positive"),
    (_HEAD.replace(b" 2 2 ", b" 1 2 ") + _BODY[:16], 1, "grid must be at least 2x2"),
    (_HEAD.replace(b"48.0", b"95.0") + _BODY, 1, "grid box outside [-90, 90] x [-180, 180]"),
    (_HEAD + _BODY + _BODY[:16], 4, "expected 2 rows, found 3"),
    (_HEAD + b"1000 1000\n1000 1000\n1000 1000\n", 4, "expected 2 rows, found 3"),
    (_HEAD + _BODY[:16], 2, "expected 2 rows, found 1"),
    (_HEAD + b"1000 1000", 2, "expected 2 rows, found 1"),
    (_HEAD + b"1000.00 1000.00 1000.00 1000.00\n", 2, "expected 2 rows, found 1"),
    (_HEAD + b"1000.00 1000.00 1000.00\n1000.00\n", 2, "expected 2 values, found 3"),
    (_HEAD + b"1000.00 1000.00\n1000.00\n", 3, "expected 2 values, found 1"),
    (_HEAD + b"1000 1000\n1000\t\n", 3, "expected 2 values, found 1"),
    (_HEAD + b"1000.00 1000.00\n1000.00 10x0.00\n", 3, "non-numeric pressure value"),
    (_HEAD + b"1000 1000\n1000 oops\n", 3, "non-numeric pressure value"),
    (_HEAD + b"1000.00 1000,00\n1000.00 1000.00\n", 2, "non-numeric pressure value"),
    (_HEAD + b"1000.00 1000.00\n1000-00 1000.00\n", 3, "non-numeric pressure value"),
    (_HEAD + b"1000 nan\n1000 1000\n", 2, "non-finite pressure value"),
    (_HEAD + b"1000 1000\n-inf 1000\n", 2, "non-finite pressure value"),
    (_HEAD + b"2000.00 1000.00\n1000.00 1000.00\n", 2,
     "pressure outside [850, 1100] hPa: range [1000, 2000]"),
    (_HEAD + b"2000 1000\r\n1000 1000\r\n", 2,
     "pressure outside [850, 1100] hPa: range [1000, 2000]"),
    (_HEAD + b"1000.00 0.50\n1000.00 1000.00\n", 2,
     "pressure outside [850, 1100] hPa: range [0.5, 1000]"),
    (_HEAD + b"1000.00 123456.78\n1000.00 1000.00\n", 2,
     "pressure outside [850, 1100] hPa: range [1000, 123457]"),
    (_HEAD + b"1000.00 1000.00\n1000.00 10\xe90.00\n", 3, "not UTF-8 text"),
], ids=[
    "header", "header-field", "spacing", "shape", "box", "rows-long", "rows-long-general",
    "rows-short", "rows-short-general", "rows-one-line", "cells-long", "cells-short", "cells-short-general",
    "non-numeric", "non-numeric-general", "comma", "minus", "nan", "inf", "range-high", "range-high-general",
    "range-low", "six-digits", "utf8",
])
def test_each_parse_error_names_its_line(data, line, message):
    # a canonical-looking body and a general one give the same error, on
    # either path
    assert _parsed(parse_grid_snapshot, data) == (line, message)
    assert _parsed(_general_parse, data) == (line, message)


# cell values: every class of float64, ties and near-ties of the second
# decimal, and the edges of the canonical range
_CELLS = (
    st.floats(width=64)
    | st.floats(0, 10000)
    | st.integers(0, 80000).map(lambda k: k / 8)
    | st.sampled_from([
        -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 0.005, 0.015, 0.125, 0.375, 1.005, 2.675,
        9.995, 99.995, 999.995, 1013.25, 9999.994999999999, 9999.995, 10000.0, 1e300, -1013.25,
        float("nan"), float("inf"), float("-inf"),
    ])
)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=7), elements=_CELLS))
def test_render_body_writes_what_savetxt_writes(values):
    buf = io.BytesIO()
    np.savetxt(buf, values, fmt="%.2f", delimiter=" ", newline="\n")
    body = render_body(values)
    assert body == buf.getvalue()
    rows = values.reshape(len(values), -1) if values.size else None
    if rows is not None and np.all((values < 10000) & ~np.signbit(values)):
        # a canonical body: its values are float(cell), bit for bit
        cells = [[float(cell) for cell in row.split()] for row in body.decode().splitlines()]
        parsed = grid._canonical_values(body, *rows.shape)
        assert parsed.tobytes() == np.array(cells).tobytes()


# what an edit puts into a canonical body: separators, line breaks, other
# number spellings, non-ASCII digits and spaces, and bytes that are not UTF-8
_MUTATIONS = [
    b"", b" ", b"  ", b"\n", b"\n\n", b"\t", b"\r\n", b"\r", b"\x0c", b".", b"..", b"-", b"+",
    b"e1", b"E-1", b"0", b"9", b"00", b"1_0", b".5", b"123456", b"\xd9\xa3", b"\xc2\xa0", b"\xff",
    b"nan", b"inf",
]


@st.composite
def mutated_canonical_bodies(draw):
    """A canonical snapshot with up to three pieces put in over up to three
    bytes each."""
    nlat, nlon = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    cells = st.floats(850, 1100) | _CELLS.filter(lambda x: 0 <= x < 10000)
    values = draw(arrays(np.float64, (nlat, nlon), elements=cells))
    data = render_header(48.0, -25.0, 0.5, 0.5, nlat, nlon, utc(2011, 1, 1)) + render_body(values)
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(data.index(b"\n") + 1, len(data)))
        piece = draw(st.sampled_from(_MUTATIONS))
        data = data[:start] + piece + data[start + draw(st.integers(0, 3)):]
    return data


@settings(max_examples=500, deadline=None)
@given(mutated_canonical_bodies() | edited_snapshots() | grid_like_bytes())
def test_the_canonical_path_parses_as_the_general_parser(data):
    # the same values bit for bit, or the same error line and message
    assert _parsed(parse_grid_snapshot, data) == _parsed(_general_parse, data)
