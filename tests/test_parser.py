import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dslake.errors import DslakeError, LexError, ParseError
from dslake.lang.ast import (
    DurationLit,
    GeoBox,
    IntLit,
    Offset,
    OutItem,
    QueryAst,
    Ref,
    SelectStmt,
    SimulateStmt,
    TimeRange,
)
from dslake.lang.parser import parse


def test_fig5_golden_ast(fig5_script):
    ast = parse(fig5_script)
    assert ast.area == GeoBox(48.3416, -24.7851, 66.1605, 32.8710)
    assert ast.time == TimeRange(dt.date(2011, 1, 1), dt.date(2011, 12, 31))
    assert len(ast.statements) == 2

    select = ast.statements[0]
    assert select == SelectStmt(
        object_type="cyclon-path",
        filters=(("directon", "north-east"),),
        out=(OutItem(name="Params", indices=(Ref("EndTime"),)),),
    )
    simulate = ast.statements[1]
    assert simulate == SimulateStmt(
        package="BSM",
        options=(("semantic_association", "yes"),),
        in_bindings=(
            ("startTime", Offset(base=Ref("EndTime"), sign=-1, delta=DurationLit(48))),
        ),
        out=(OutItem(name="level", indices=(IntLit(440), IntLit(414))),),
    )


def test_minimal_select():
    ast = parse("select cyclone-path")
    assert ast.area is None and ast.time is None
    assert ast.statements == (SelectStmt(object_type="cyclone-path"),)


def test_simulate_without_with_is_error():
    with pytest.raises(ParseError) as err:
        parse("select x\nsimulate BSM")
    assert "with" in err.value.expected


def test_headers_in_any_order():
    a = parse("area 1.0,2.0 - 3.0,4.0\ntime 01.01.2011 - 02.01.2011\nselect x")
    b = parse("time 01.01.2011 - 02.01.2011\narea 1.0,2.0 - 3.0,4.0\nselect x")
    assert a == b


def test_duplicate_header_rejected():
    with pytest.raises(ParseError):
        parse("area 1.0,2.0 - 3.0,4.0\narea 1.0,2.0 - 3.0,4.0\nselect x")
    with pytest.raises(ParseError):
        parse("time 01.01.2011 - 02.01.2011\ntime 01.01.2011 - 02.01.2011\nselect x")


def test_headers_without_statement_rejected():
    with pytest.raises(ParseError):
        parse("area 1.0,2.0 - 3.0,4.0")


def test_empty_script_parses_empty():
    assert parse("") == QueryAst()
    assert parse("  \n# only a comment\n") == QueryAst()


def test_integer_coordinates_accepted():
    ast = parse("area 48,-25 - 66,33\nselect x")
    assert ast.area == GeoBox(48.0, -25.0, 66.0, 33.0)


def test_coordinate_bounds_are_inclusive():
    ast = parse("area -90.0,-180.0 - 90.0,180.0\nselect x")
    assert ast.area == GeoBox(-90.0, -180.0, 90.0, 180.0)


@pytest.mark.parametrize(
    "area, col, expected",
    [
        ("95.0,1.0 - 66.1605,32.8710", 6, "a latitude in [-90, 90]"),
        ("1.0,1.0 - -90.5,32.8710", 16, "a latitude in [-90, 90]"),
        ("1.0,180.0001 - 66.1605,32.8710", 6, "a longitude in [-180, 180]"),
        ("1.0,1.0 - 66.1605,-181.0", 16, "a longitude in [-180, 180]"),
        ("1.0,1.0 - 66,200", 16, "a longitude in [-180, 180]"),
        ("1" + "0" * 400 + ".0,1.0 - 66.1605,32.8710", 6, "a latitude in [-90, 90]"),
    ],
    ids=["lat-high", "lat-low", "lon-high", "lon-low", "integer-pair", "inf"],
)
def test_coordinate_out_of_range_rejected_at_its_token(area, col, expected):
    # a latitude too long for a float would read as inf, which the
    # formatter writes as text parse refuses
    with pytest.raises(ParseError) as err:
        parse(f"area {area}\nselect x")
    assert (err.value.line, err.value.col, err.value.expected) == (1, col, expected)


def test_corners_normalized():
    ast = parse("area 66.0,33.0 - 48.0,-25.0\nselect x")
    assert ast.area == GeoBox(48.0, -25.0, 66.0, 33.0)


def test_duration_days_equal_hours():
    a = parse("select x\nsimulate\n  with P\n  in(t: E - 2d)")
    b = parse("select x\nsimulate\n  with P\n  in(t: E - 48h)")
    assert a == b


def test_offset_chain():
    ast = parse("select x\nsimulate\n  with P\n  in(t: E - 2d + 1h)")
    binding = ast.statements[1].in_bindings[0][1]
    assert binding == Offset(
        base=Offset(base=Ref("E"), sign=-1, delta=DurationLit(48)),
        sign=1,
        delta=DurationLit(1),
    )


def test_offset_on_integer_rejected():
    with pytest.raises(ParseError):
        parse("select x\nsimulate\n  with P\n  in(t: 5 - 48h)")


def test_duration_with_a_non_ascii_digit_rejected():
    with pytest.raises(ParseError) as err:
        parse("select x\nsimulate\n  with P\n  in(t: E - 1\u0665h)")
    assert (err.value.line, err.value.col) == (4, 13)


def test_bad_calendar_date():
    with pytest.raises(ParseError):
        parse("time 32.01.2011 - 31.12.2011\nselect x")


def test_reversed_time_range_rejected_at_its_second_date():
    with pytest.raises(ParseError) as err:
        parse("time 31.12.2011 - 01.01.2011\nselect x")
    assert (err.value.line, err.value.col) == (1, 19)
    assert err.value.expected == "a date on or after 31.12.2011"
    one_day = parse("time 05.03.2011 - 05.03.2011\nselect x").time
    assert one_day == TimeRange(dt.date(2011, 3, 5), dt.date(2011, 3, 5))


JANUARY = TimeRange(dt.date(2011, 1, 2), dt.date(2011, 1, 31))
PLUS_ONE = dt.timezone(dt.timedelta(hours=1))


@pytest.mark.parametrize(
    "ts, inside",
    [
        (dt.datetime(2011, 1, 2, tzinfo=dt.timezone.utc), True),
        (dt.datetime(2011, 1, 31, 23, 59, 59, tzinfo=dt.timezone.utc), True),
        (dt.datetime(2011, 2, 1, tzinfo=dt.timezone.utc), False),
        (dt.datetime(2011, 1, 1, 23, 59, 59, tzinfo=dt.timezone.utc), False),
        (dt.datetime(2011, 1, 2, 0, 30, tzinfo=PLUS_ONE), False),  # 01.01 23:30 UTC
        (dt.datetime(2011, 2, 1, 0, 30, tzinfo=PLUS_ONE), True),  # 31.01 23:30 UTC
    ],
    ids=["first-midnight", "last-second", "next-midnight", "day-before",
         "aware-before", "aware-last-day"],
)
def test_time_range_contains_whole_utc_days(ts, inside):
    assert JANUARY.contains(ts) is inside


def test_error_positions_inside_source():
    cases = [
        "select",
        "select x out(",
        "simulate",
        "select x\nsimulate with",
        "area 1.0,2.0\nselect x",
        "out(x)",
    ]
    for script in cases:
        with pytest.raises(ParseError) as err:
            parse(script)
        lines = script.split("\n")
        assert 1 <= err.value.line <= len(lines)
        assert 1 <= err.value.col <= len(lines[err.value.line - 1]) + 1


@settings(max_examples=300)
@given(st.text(max_size=80))
def test_grammar_totality_on_arbitrary_text(script):
    # parse returns an AST or raises a single structured error, never crashes
    try:
        ast = parse(script)
    except (ParseError, LexError) as err:
        assert isinstance(err, DslakeError)
        return
    assert isinstance(ast, QueryAst)
    if script.strip() and not all(
        line.lstrip().startswith("#") or not line.strip()
        for line in script.split("\n")
    ):
        assert ast.statements
