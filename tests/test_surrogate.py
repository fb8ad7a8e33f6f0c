import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dslake.errors import FormatError, UnknownGauge
from dslake.cyclone.geo import SECTORS
from dslake.cyclone.params import CycloneParams
from dslake.cyclone.surrogate import bsm_surrogate
from dslake.report import render_value

from dslake.times import UTC

from conftest import key_value_texts, utc


def params(depth=53.0, bearing=45.0):
    return CycloneParams(
        end_time=utc(2005, 1, 9),
        central_pressure=1013.25 - depth,
        ambient_pressure=1013.25,
        depth=depth,
        radius_km=400.0,
        mean_speed_kmh=50.0,
        average_bearing=bearing,
        direction_sector=None if bearing is None else "north-east",
    )


def test_zero_depth_all_zero():
    series = bsm_surrogate(params(depth=0.0), utc(2005, 1, 7), 96)
    assert all(level == 0.0 for _, level in series)


def test_peak_and_efold():
    # level(t) = depth * exp(-((t - end)/12h)^2) * cos(bearing - 45deg)
    series = dict(bsm_surrogate(params(), utc(2005, 1, 7), 96))
    assert series[utc(2005, 1, 9)] == pytest.approx(53.0, rel=1e-12)
    one_sigma = 53.0 * math.exp(-1.0)  # 19.4976...
    assert series[utc(2005, 1, 9) - 12 * _hour()] == pytest.approx(one_sigma, rel=1e-12)
    assert series[utc(2005, 1, 9) + 12 * _hour()] == pytest.approx(one_sigma, rel=1e-12)
    assert one_sigma == pytest.approx(19.4976, abs=5e-4)


def _hour():
    from datetime import timedelta

    return timedelta(hours=1)


def test_perpendicular_bearing_zeroes_series():
    series = bsm_surrogate(params(bearing=135.0), utc(2005, 1, 7), 96)
    assert all(abs(level) < 1e-9 for _, level in series)


def test_undefined_bearing_zeroes_series():
    series = bsm_surrogate(params(bearing=None), utc(2005, 1, 7), 48)
    assert all(level == 0.0 for _, level in series)


def test_series_shape():
    series = bsm_surrogate(params(), utc(2005, 1, 7), 96)
    assert len(series) == 97
    assert series[0][0] == utc(2005, 1, 7)
    assert series[-1][0] == utc(2005, 1, 11)
    assert (series[1][0] - series[0][0]).total_seconds() == 3600


def test_unknown_gauge():
    with pytest.raises(UnknownGauge):
        bsm_surrogate(params(), utc(2005, 1, 7), 96, gauge=(1, 2))


def test_deterministic():
    a = bsm_surrogate(params(), utc(2005, 1, 7), 96)
    b = bsm_surrogate(params(), utc(2005, 1, 7), 96)
    assert a == b


@settings(max_examples=100)
@given(
    st.floats(min_value=0, max_value=359.9),
    st.integers(0, 96),
    st.lists(st.floats(min_value=0, max_value=120), min_size=2, max_size=6),
)
def test_monotone_in_depth(bearing, hour, depths):
    # at fixed time and bearing the level never decreases with depth
    start = utc(2005, 1, 7)
    levels = [
        bsm_surrogate(params(depth=d, bearing=bearing), start, 96)[hour][1]
        for d in sorted(depths)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(levels, levels[1:]))


@pytest.mark.parametrize("bearing", [45.0, None])
def test_portable_text_round_trip(bearing):
    original = params(bearing=bearing)
    assert CycloneParams.from_portable_text(original.portable_text()) == original


numbers = st.floats(allow_nan=False)


@settings(max_examples=100)
@given(st.builds(
    CycloneParams,
    end_time=st.datetimes(timezones=st.just(UTC)).map(lambda t: t.replace(microsecond=0)),
    central_pressure=numbers,
    ambient_pressure=numbers,
    depth=numbers,
    radius_km=numbers,
    mean_speed_kmh=numbers,
    average_bearing=st.none() | numbers,
    direction_sector=st.none() | st.sampled_from(SECTORS),
))
def test_any_params_read_back_from_portable_text(original):
    assert CycloneParams.from_portable_text(original.portable_text()) == original


@settings(max_examples=100, deadline=None)
@given(key_value_texts(
    params().portable_text(),
    list(CycloneParams._fields),
    ["none", "1.5", "nan", "-0.0", "2005-01-09T00:00:00Z", "0001-01-01T00:00+01:00", "east"],
    "=",
))
def test_any_portable_text_gives_params_or_a_format_error(text):
    try:
        CycloneParams.from_portable_text(text)
    except FormatError:
        pass


def test_params_are_an_immutable_keyword_built_record():
    p = params()
    assert CycloneParams._fields == (
        "end_time", "central_pressure", "ambient_pressure", "depth", "radius_km",
        "mean_speed_kmh", "average_bearing", "direction_sector",
    )
    assert CycloneParams.semantic_type == "cyclone-params"
    assert hash(p) == hash(params()) and p == params() and p != params(depth=1.0)
    with pytest.raises(AttributeError):
        p.depth = 1.0
    with pytest.raises(AttributeError):
        p.extra = 1.0
    assert repr(p) == (
        "CycloneParams(end_time=datetime.datetime(2005, 1, 9, 0, 0,"
        " tzinfo=datetime.timezone.utc), central_pressure=960.25,"
        " ambient_pressure=1013.25, depth=53.0, radius_km=400.0,"
        " mean_speed_kmh=50.0, average_bearing=45.0, direction_sector='north-east')"
    )


def test_params_render_as_sorted_fields():
    # how a requested ``Params[cyclone]`` reads in the canonical result text
    assert render_value(params()) == (
        "{ambient_pressure=1013.2500 average_bearing=45.0000 central_pressure=960.2500"
        " depth=53.0000 direction_sector=north-east end_time=2005-01-09T00:00:00Z"
        " mean_speed_kmh=50.0000 radius_km=400.0000}"
    )


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:3] + lines[4:], "line 8: missing key 'depth'"),
        (lambda lines: lines[:1] + ["average_bearing 45.0"] + lines[2:],
         "line 2: expected key=value, found 'average_bearing 45.0'"),
        (lambda lines: lines[:6] + ["mean_speed_kmh=fast"] + lines[7:],
         "line 7: mean_speed_kmh is not a number: 'fast'"),
        (lambda lines: lines[:5] + ["end_time=yesterday"] + lines[6:],
         "line 6: end_time is not a UTC time: 'yesterday'"),
        (lambda lines: lines[:5] + ["end_time=0001-01-01T00:00+01:00"] + lines[6:],
         "line 6: end_time is not a UTC time: '0001-01-01T00:00+01:00'"),
        (lambda lines: lines + ["depth=1.0"], "line 9: key 'depth' given twice"),
        (lambda lines: lines[:2] + ["colour=red"] + lines[2:],
         "line 3: unknown key 'colour'; keys are end_time, central_pressure, ambient_pressure,"
         " depth, radius_km, mean_speed_kmh, average_bearing, direction_sector"),
    ],
    ids=["missing-key", "no-equals", "bad-float", "bad-time", "time-before-year-1-in-utc",
         "repeated-key", "unknown-key"],
)
def test_malformed_portable_text_is_format_error(edit, message):
    lines = params().portable_text().splitlines()
    with pytest.raises(FormatError) as err:
        CycloneParams.from_portable_text("\n".join(edit(lines)) + "\n")
    assert str(err.value) == message
