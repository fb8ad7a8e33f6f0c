import hashlib
import math
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings

from dslake.errors import SpecError
from dslake.lang.ast import GeoBox
from dslake.cyclone import synthetic
from dslake.cyclone.detect import detect_centers
from dslake.cyclone.grid import parse_grid_snapshot
from dslake.cyclone.synthetic import (
    MAX_GRID_POINTS,
    PlantedCyclone,
    SyntheticSpec,
    _plant_random,
    detection_is_clean,
    generate_synthetic,
    parse_spec_text,
)
from dslake.cyclone.track import track

from conftest import FIG5_AREA, key_value_texts, utc


def base_spec(**overrides):
    defaults = dict(
        dataset="d1",
        area=FIG5_AREA,
        start=utc(2011, 2, 1),
        end=utc(2011, 2, 20),
        step_hours=6,
        spacing_deg=0.5,
    )
    defaults.update(overrides)
    return SyntheticSpec(**defaults)


def test_no_cyclones_uniform_background():
    files, truth = generate_synthetic(base_spec(end=utc(2011, 2, 3)))
    assert truth.paths == ()
    assert len(files) == 9
    for f in files:
        snap = parse_grid_snapshot(f.data)
        assert np.all(snap.values == 1013.25)
        assert f.t0 == f.t1 == snap.timestamp


def test_deterministic_per_seed():
    spec = base_spec(random_count=2, random_north_east=1)
    a_files, a_truth = generate_synthetic(spec, seed=42)
    b_files, b_truth = generate_synthetic(spec, seed=42)
    assert [f.file_id for f in a_files] == [f.file_id for f in b_files]
    assert a_truth == b_truth
    c_files, _ = generate_synthetic(spec, seed=43)
    assert [f.file_id for f in a_files] != [f.file_id for f in c_files]


def test_single_cyclone_recovered_with_matching_sector():
    spec = base_spec(random_count=1, random_north_east=1)
    files, truth = generate_synthetic(spec, seed=5)
    (gt,) = truth.paths
    assert gt.sector == "north-east"

    sets = []
    for f in sorted(files, key=lambda f: f.t0):
        snap = parse_grid_snapshot(f.data)
        sets.append((snap.timestamp, detect_centers(snap)))
    paths = [p for p in track(sets) if len(p.centers) > 1]
    assert len(paths) == 1
    assert gt.matches(paths[0], tolerance_km=60.0)


def test_overlapping_cyclones_rejected():
    twin = dict(
        t_start=utc(2011, 2, 3),
        t_end=utc(2011, 2, 5),
        bearing=45.0,
        speed_kmh=30.0,
        depth_hpa=30.0,
        sigma_km=300.0,
    )
    spec = base_spec(
        cyclones=(
            PlantedCyclone(lat=55.0, lon=0.0, **twin),
            PlantedCyclone(lat=55.5, lon=1.0, **twin),  # well inside 3 sigma
        )
    )
    with pytest.raises(SpecError):
        generate_synthetic(spec)


def test_random_plant_respects_requested_sector_mix():
    spec = base_spec(
        start=utc(2011, 1, 1), end=utc(2011, 6, 30), random_count=5, random_north_east=2
    )
    files, truth = generate_synthetic(spec, seed=11)
    sectors = [p.sector for p in truth.paths]
    assert sectors.count("north-east") == 2
    assert len(sectors) == 5
    assert detection_is_clean(files, [p.cyclone for p in truth.paths], spec)


def year_spec():
    # the year of acceptance criterion 2
    return base_spec(
        start=utc(2011, 1, 1), end=utc(2011, 12, 31, 18), random_count=5, random_north_east=2
    )


@pytest.mark.parametrize("seed", [29, 42])
def test_year_seeds_plant_after_redraws(seed):
    # each seed draws a dirty cyclone, which is redrawn from the seed's
    # one stream
    spec = year_spec()
    files, truth = generate_synthetic(spec, seed=seed)
    assert len(files) == len(spec.snapshot_times())
    assert detection_is_clean(files, [p.cyclone for p in truth.paths], truth.spec)


def test_files_equal_the_accepted_plan_rendered_explicitly():
    # the plan is checked on its live snapshots and the background is
    # rendered afterwards; merging the two must drop, duplicate and
    # reorder nothing
    spec = year_spec()
    files, truth = generate_synthetic(spec, seed=42)
    explicit, _ = generate_synthetic(truth.spec)
    assert [f.t0 for f in files] == spec.snapshot_times()
    assert [f.file_id for f in files] == [f.file_id for f in explicit]


def test_listed_and_random_cyclones_render_as_the_accepted_plan():
    # snapshots where only the listed cyclone is alive are never rendered
    # while the random ones are placed; the final pass renders and checks them.
    # Seeds 3, 25 and 30 draw a random cyclone onto the listed one unless
    # the planner keeps clear of it.
    listed = PlantedCyclone(
        t_start=utc(2011, 2, 2), t_end=utc(2011, 2, 4), lat=55.0, lon=0.0,
        bearing=45.0, speed_kmh=30.0, depth_hpa=40.0, sigma_km=250.0,
    )
    spec = base_spec(cyclones=(listed,), random_count=2, random_north_east=1)
    for seed in (4, 3, 25, 30):
        files, truth = generate_synthetic(spec, seed=seed)
        explicit, _ = generate_synthetic(truth.spec)
        assert truth.spec.cyclones[0] == listed and len(truth.spec.cyclones) == 3
        assert [f.file_id for f in files] == [f.file_id for f in explicit]
        assert detection_is_clean(files, list(truth.spec.cyclones), truth.spec)


def test_first_clean_plan_draws_from_the_seed_itself():
    spec = year_spec()
    _, truth = generate_synthetic(spec, seed=2)
    assert truth.spec.cyclones == tuple(_plant_random(spec, 2, lambda c, placed: True))


@pytest.mark.parametrize("seed", range(8))
def test_every_year_file_passes_the_oracle(seed):
    # the benchmark's generator seeds: the candidate checks must leave no
    # live snapshot that the whole-dataset oracle refuses
    files, truth = generate_synthetic(year_spec(), seed=seed)
    assert len(files) == len(year_spec().snapshot_times())
    assert detection_is_clean(files, list(truth.spec.cyclones), truth.spec)


def test_year_seed_with_clean_first_plan_keeps_its_bytes():
    files, _ = generate_synthetic(year_spec(), seed=2)
    digest = hashlib.sha256("\n".join(f.file_id for f in files).encode()).hexdigest()
    assert digest == "e2180d6227c84c138b6b037d8580554b40f1e65538428a6dd39247460e7aff92"


def test_refused_candidate_is_redrawn_keeping_the_cyclones_before_it(monkeypatch):
    # seed 2 draws no dirty cyclone; refuse the first draw of its third
    # cyclone once and only that cyclone is drawn again, from the same stream
    spec = year_spec()
    first_plan = _plant_random(spec, 2, lambda c, placed: True)
    refused = []
    oracle = synthetic.detection_is_clean

    def refuse_third_once(files, cyclones, spec):
        if len(cyclones) == 3 and not refused:
            refused.append(cyclones[-1])
            return False
        return oracle(files, cyclones, spec)

    monkeypatch.setattr(synthetic, "detection_is_clean", refuse_third_once)
    files, truth = generate_synthetic(spec, seed=2)
    assert refused == [first_plan[2]]
    planted = truth.spec.cyclones
    assert len(planted) == 5
    assert planted[:2] == tuple(first_plan[:2])
    assert first_plan[2] not in planted
    assert oracle(files, list(planted), truth.spec)


def counting_oracle(monkeypatch, verdict=None):
    """Patch the generator's oracle; return the list its calls are appended to."""
    calls = []
    oracle = synthetic.detection_is_clean

    def counted(*args):
        calls.append(args)
        return oracle(*args) if verdict is None else verdict

    monkeypatch.setattr(synthetic, "detection_is_clean", counted)
    return calls


def test_exhausted_redraws_name_seed_and_budget(monkeypatch):
    calls = counting_oracle(monkeypatch, verdict=False)
    spec = base_spec(end=utc(2011, 2, 8), random_count=1)
    with pytest.raises(SpecError, match="cyclone 0 for seed 7 in 10 draws; relax the spec"):
        generate_synthetic(spec, seed=7)
    assert len(calls) == synthetic._CYCLONE_REDRAWS


@pytest.mark.parametrize("seed", range(5))
def test_undetectable_listed_cyclone_fails_at_once(monkeypatch, seed):
    # 5 hPa below the background never drops under the 1000 hPa threshold,
    # so no draw of the random cyclone can make the listed one detectable
    shallow = PlantedCyclone(
        t_start=utc(2011, 2, 2), t_end=utc(2011, 2, 4), lat=55.0, lon=0.0,
        bearing=45.0, speed_kmh=30.0, depth_hpa=5.0, sigma_km=250.0,
    )
    spec = base_spec(cyclones=(shallow,), random_count=1)
    calls = counting_oracle(monkeypatch)
    with pytest.raises(SpecError, match="listed cyclones are not cleanly detectable"):
        generate_synthetic(spec, seed=seed)
    assert len(calls) <= synthetic._CYCLONE_REDRAWS + 1
    # a spec of listed cyclones alone is rendered as written, unchecked
    files, truth = generate_synthetic(replace(spec, random_count=0), seed=seed)
    assert truth.spec.cyclones == (shallow,)
    assert len(files) == len(spec.snapshot_times())


def test_ground_truth_canonical_text_stable():
    spec = base_spec(random_count=2, random_north_east=1)
    _, truth_a = generate_synthetic(spec, seed=3)
    _, truth_b = generate_synthetic(spec, seed=3)
    assert truth_a.canonical_text() == truth_b.canonical_text()
    assert truth_a.canonical_text().startswith("GROUND-TRUTH\n")


def test_parse_spec_text_round_trip_fields():
    text = """\
# demo spec
dataset d9
area 48.0 -25.0 66.0 33.0
time 2011-01-01T00:00Z 2011-01-10T18:00Z
step 6
spacing 0.5
cyclone t_start=2011-01-02T00:00Z t_end=2011-01-04T00:00Z lat=55 lon=0 bearing=45 speed=40 depth=40 sigma=300
random-cyclones count=3 northeast=1
"""
    spec = parse_spec_text(text)
    assert spec.dataset == "d9"
    assert spec.area == GeoBox(48.0, -25.0, 66.0, 33.0)
    assert spec.step_hours == 6
    assert len(spec.cyclones) == 1
    assert spec.cyclones[0].bearing == 45.0
    assert (spec.random_count, spec.random_north_east) == (3, 1)


def test_parse_spec_unknown_key():
    with pytest.raises(SpecError):
        parse_spec_text("dataset d\nwind strong\n")


def test_parse_spec_missing_required():
    with pytest.raises(SpecError):
        parse_spec_text("dataset d\narea 1 2 3 4\n")


SPEC_HEAD = "dataset d\narea 48 -25 66 33\ntime 2011-01-01T00:00Z 2011-01-10T18:00Z\n"
CYCLONE = (
    "cyclone t_start=2011-01-02T00:00Z t_end=2011-01-04T00:00Z lat=55 lon=0"
    " bearing=45 speed=40 depth=40 sigma=300"
)


AREA_ROW = "four numbers lat_min lon_min lat_max lon_max in [-90, 90] x [-180, 180]"
TIME_ROW = "two UTC times, start no later than end"


@pytest.mark.parametrize(
    "text, message",
    [
        (SPEC_HEAD + "cyclone lat\n", "line 4: expected key=value, found 'lat'"),
        (SPEC_HEAD + "step six\n", "line 4: step is not a whole number of hours > 0: 'six'"),
        (SPEC_HEAD + "spacing half\n", "line 4: spacing is not a number of degrees > 0: 'half'"),
        (SPEC_HEAD + "background high\n",
         "line 4: background is not a pressure in [850, 1100] hPa: 'high'"),
        ("dataset d\narea 48 -25 66 x\ntime 2011-01-01T00:00Z 2011-01-10T18:00Z\n",
         f"line 2: area is not {AREA_ROW}: '48 -25 66 x'"),
        ("dataset d\narea 48 -25 66\ntime 2011-01-01T00:00Z 2011-01-10T18:00Z\n",
         f"line 2: area is not {AREA_ROW}: '48 -25 66'"),
        (SPEC_HEAD + "random-cyclones count=x\n", "line 4: count is not a whole number >= 0: 'x'"),
        (SPEC_HEAD + "random-cyclones count=2 northeast=one\n",
         "line 4: northeast is not a whole number >= 0: 'one'"),
        ("dataset d\narea 48 -25 66 33\ntime 2011-01-01T00:00Z\n",
         f"line 3: time is not {TIME_ROW}: '2011-01-01T00:00Z'"),
        ("dataset d\narea 48 -25 66 33\ntime a b c\n", f"line 3: time is not {TIME_ROW}: 'a b c'"),
        (SPEC_HEAD + CYCLONE.replace("lat=55", "lat=north") + "\n",
         "line 4: lat is not a number: 'north'"),
        (SPEC_HEAD + CYCLONE.replace("2011-01-04T00:00Z", "soon") + "\n",
         "line 4: t_end is not a UTC time: 'soon'"),
        (SPEC_HEAD + CYCLONE.replace(" sigma=300", "") + "\n", "line 4: missing key 'sigma'"),
        # values that parse but that the generator or the engine cannot use
        (SPEC_HEAD + "step 0\n", "line 4: step is not a whole number of hours > 0: '0'"),
        (SPEC_HEAD + "step -6\n", "line 4: step is not a whole number of hours > 0: '-6'"),
        (SPEC_HEAD + "spacing 0\n", "line 4: spacing is not a number of degrees > 0: '0'"),
        (SPEC_HEAD + "spacing -0.5\n", "line 4: spacing is not a number of degrees > 0: '-0.5'"),
        (SPEC_HEAD + "spacing nan\n", "line 4: spacing is not a number of degrees > 0: 'nan'"),
        ("dataset d\narea 48 -25 66 33\ntime 2011-01-10T00:00Z 2011-01-01T00:00Z\n",
         f"line 3: time is not {TIME_ROW}: '2011-01-10T00:00Z 2011-01-01T00:00Z'"),
        ("dataset d\narea 48 -25 100 33\ntime 2011-01-01T00:00Z 2011-01-10T18:00Z\n",
         f"line 2: area is not {AREA_ROW}: '48 -25 100 33'"),
        ("dataset d\narea 48 -25 48.2 33\ntime 2011-01-01T00:00Z 2011-01-10T18:00Z\n",
         "line 2: spacing 0.5 leaves the area under 2 x 2 grid points"),
        (SPEC_HEAD + "spacing 40\n",
         "line 4: spacing 40 leaves the area under 2 x 2 grid points"),
        (SPEC_HEAD + "background 2000\n",
         "line 4: background is not a pressure in [850, 1100] hPa: '2000'"),
        (SPEC_HEAD + "background nan\n",
         "line 4: background is not a pressure in [850, 1100] hPa: 'nan'"),
        (SPEC_HEAD + CYCLONE.replace("sigma=300", "sigma=0") + "\n",
         "line 4: sigma is not a number > 0: '0'"),
        (SPEC_HEAD + "random-cyclones count=-2\n",
         "line 4: count is not a whole number >= 0: '-2'"),
        ("dataset d\narea 48 -25 66 33\ntime 0001-01-01T00:00+01:00 2011-01-01T00:00Z\n",
         f"line 3: time is not {TIME_ROW}: '0001-01-01T00:00+01:00 2011-01-01T00:00Z'"),
        # each of these parsed, and then failed in the generator
        (SPEC_HEAD + "step 10000000000000\n",
         "line 4: step 10000000000000 hours reaches past the years 1 to 9999 from"
         " 2011-01-01T00:00:00Z or 2011-01-10T18:00:00Z"),
        ("dataset d\narea 48 -25 66 33\ntime 9999-12-31T00:00Z 9999-12-31T23:00Z\n",
         "line 3: step 6 hours reaches past the years 1 to 9999 from"
         " 9999-12-31T00:00:00Z or 9999-12-31T23:00:00Z"),
        (SPEC_HEAD + "random-cyclones count=1 northeast=2\n",
         "line 4: northeast 2 exceeds count 1"),
        (SPEC_HEAD + "spacing 0.0001\n",
         "line 4: spacing 0.0001 gives the area over 1000000 grid points"),
        ("dataset d\narea 48 -25 66 33\ntime 0001-01-03T00:00Z 0001-01-03T12:00Z\n"
         "random-cyclones count=1\n",
         "line 4: a random cyclone lives up to 72 hours, which with step 6 hours reaches past"
         " the years 1 to 9999 from 0001-01-03T00:00:00Z or 0001-01-03T12:00:00Z"),
        ("dataset d\narea 48 -25 66 33\ntime 9999-12-30T00:00Z 9999-12-31T12:00Z\n"
         "random-cyclones count=1\n",
         "line 4: a random cyclone lives up to 72 hours, which with step 6 hours reaches past"
         " the years 1 to 9999 from 9999-12-30T00:00:00Z or 9999-12-31T12:00:00Z"),
    ],
    ids=["field-without-equals", "step", "spacing", "background", "area-word", "area-short",
         "count", "northeast", "time-one-field", "time-word", "cyclone-float",
         "cyclone-time", "cyclone-missing", "step-zero", "step-negative", "spacing-zero",
         "spacing-negative", "spacing-nan", "time-reversed", "area-outside-the-globe",
         "grid-under-2x2", "spacing-over-the-area", "background-high", "background-nan",
         "sigma-zero", "count-negative", "time-before-year-1-in-utc", "step-past-the-years",
         "default-step-past-the-years", "northeast-over-count", "grid-over-the-points",
         "random-life-before-year-1", "random-life-past-year-9999"],
)
def test_parse_spec_malformed_line_names_it(text, message):
    with pytest.raises(SpecError) as err:
        parse_spec_text(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        (SPEC_HEAD + "random-cyclones count=3 north-east=1\n",
         "line 4: unknown key 'north-east'; keys are count, northeast"),
        (SPEC_HEAD + "random-cyclones cnt=3\n", "line 4: unknown key 'cnt'; keys are count, northeast"),
        (SPEC_HEAD + CYCLONE + " colour=red\n", "line 4: unknown key 'colour';"
         " keys are t_start, t_end, lat, lon, bearing, speed, depth, sigma"),
        (SPEC_HEAD + "step 6\nstep 12\n", "line 5: key 'step' given twice"),
        (SPEC_HEAD + "dataset e\n", "line 4: key 'dataset' given twice"),
        (SPEC_HEAD + "random-cyclones count=1\nrandom-cyclones count=2\n",
         "line 5: key 'random-cyclones' given twice"),
        (SPEC_HEAD + "random-cyclones count=1 count=2\n", "line 4: key 'count' given twice"),
        (SPEC_HEAD + CYCLONE + " lat=56\n", "line 4: key 'lat' given twice"),
    ],
    ids=["misspelt-northeast", "misspelt-count", "cyclone-extra-field", "second-step",
         "second-dataset", "second-random-cyclones", "count-twice", "cyclone-field-twice"],
)
def test_parse_spec_refuses_unknown_and_repeated_fields(text, message):
    with pytest.raises(SpecError) as err:
        parse_spec_text(text)
    assert str(err.value) == message


def test_grid_points_are_capped_at_the_constant():
    # 500 x 2000 points is the most a snapshot may have; one column more is refused
    head = "dataset d\ntime 2011-01-01T00:00Z 2011-01-10T18:00Z\nspacing 0.125\n"
    spec = parse_spec_text(head + "area 0 -100 62.375 149.875\n")
    assert spec.grid_shape() == (500, 2000) and 500 * 2000 == MAX_GRID_POINTS
    with pytest.raises(SpecError, match="line 3: spacing 0.125 gives the area over 1000000"):
        parse_spec_text(head + "area 0 -100 62.375 150\n")


def test_parse_spec_takes_many_cyclone_lines():
    spec = parse_spec_text(SPEC_HEAD + CYCLONE + "\n" + CYCLONE.replace("lat=55", "lat=60") + "\n")
    assert [c.lat for c in spec.cyclones] == [55.0, 60.0]


SPEC_WORDS = [
    "d", "48", "-25", "66", "33", "100", "48.2", "nan", "inf", "-0.5", "0", "6", "-6", "0.5",
    "1e-320", "1013.25", "2000", "2011-01-01T00:00Z", "2011-01-10T18:00Z",
    "0001-01-01T00:00+01:00", "count=3", "northeast=1", "count=-2", "cnt=1", "sigma=0",
    "10000000000000", "0.0001", "northeast=4", "9999-12-31T23:00Z",
    CYCLONE.partition(" ")[2],
]


@settings(max_examples=150, deadline=None)
@given(key_value_texts(
    SPEC_HEAD,
    ["dataset", "area", "time", "step", "spacing", "background", "cyclone", "random-cyclones"],
    SPEC_WORDS,
    " ",
))
def test_any_spec_text_gives_a_usable_spec_or_a_spec_error(text):
    try:
        spec = parse_spec_text(text)
    except SpecError:
        return
    box = spec.area
    assert spec.step_hours > 0 and spec.start <= spec.end
    assert min(box.lat_max - box.lat_min, box.lon_max - box.lon_min) / spec.spacing_deg >= 1
    assert -90 <= box.lat_min and box.lat_max <= 90 and -180 <= box.lon_min and box.lon_max <= 180
    assert 850 <= spec.background_hpa <= 1100
    assert 0 <= spec.random_north_east <= spec.random_count
    assert math.prod(spec.grid_shape()) <= MAX_GRID_POINTS
    step = timedelta(hours=spec.step_hours)  # the generator's reach either side
    assert spec.start - step and spec.end + step
    assert all(c.sigma_km > 0 for c in spec.cyclones)
