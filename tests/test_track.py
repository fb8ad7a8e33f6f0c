from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dslake.errors import NonmonotonicTimestamps
from dslake.cyclone.detect import CycloneCenter
from dslake.cyclone.geo import destination_point
from dslake.cyclone.track import track

from conftest import utc


def hours(h):
    return utc(2011, 1, 1) + timedelta(hours=h)


def center(lat, lon, ts, pressure=990.0):
    return CycloneCenter(lat=lat, lon=lon, pressure=pressure, timestamp=ts, grid_index=(1, 1))


def test_single_snapshot_three_centers():
    ts = utc(2011, 1, 1)
    paths = track([(ts, [center(50, 0, ts), center(55, 5, ts), center(60, 10, ts)])])
    assert len(paths) == 3
    assert all(len(p.centers) == 1 for p in paths)


def test_moving_center_chains_within_gate():
    # 200 km per 6 h step is far below the 720 km gate
    times = [hours(6 * i) for i in range(4)]
    lat, lon = 55.0, 0.0
    sets = []
    for ts in times:
        sets.append((ts, [center(lat, lon, ts)]))
        lat, lon = destination_point(lat, lon, 45.0, 200.0)
    paths = track(sets)
    assert len(paths) == 1
    assert len(paths[0].centers) == 4
    assert [c.timestamp for c in paths[0].centers] == times


def test_jump_beyond_gate_splits():
    # 900 km in 6 h exceeds the 120 km/h gate
    t0, t1 = utc(2011, 1, 1), utc(2011, 1, 1, 6)
    far_lat, far_lon = destination_point(55.0, 0.0, 90.0, 900.0)
    paths = track([(t0, [center(55, 0, t0)]), (t1, [center(far_lat, far_lon, t1)])])
    assert len(paths) == 2
    assert all(len(p.centers) == 1 for p in paths)


def test_gap_terminates_path():
    t = [hours(6 * i) for i in range(3)]
    sets = [
        (t[0], [center(55, 0, t[0])]),
        (t[1], []),
        (t[2], [center(55, 0.2, t[2])]),
    ]
    paths = track(sets)
    assert len(paths) == 2


def test_nearest_center_wins_with_pressure_tiebreak():
    t0, t1 = utc(2011, 1, 1), utc(2011, 1, 1, 6)
    a = center(55.0, 0.0, t1, pressure=985.0)
    b = center(55.0, 0.0, t1, pressure=990.0)  # same place, higher pressure
    paths = track([(t0, [center(55.0, 0.0, t0)]), (t1, [a, b])])
    extended = next(p for p in paths if len(p.centers) == 2)
    assert extended.centers[1].pressure == 985.0


def test_nonmonotonic_timestamps_rejected():
    t0 = utc(2011, 1, 1)
    with pytest.raises(NonmonotonicTimestamps):
        track([(t0, []), (t0, [])])


def test_path_ids_distinct_and_stable():
    ts = utc(2011, 1, 1)
    sets = [(ts, [center(50, 0, ts), center(60, 10, ts)])]
    first = track(sets)
    second = track(sets)
    assert [p.path_id for p in first] == [p.path_id for p in second]
    assert len({p.path_id for p in first}) == 2


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_tracking_partition(data):
    # every center lands in exactly one path; all centers are accounted for
    n_steps = data.draw(st.integers(1, 6))
    times = [hours(6 * i) for i in range(n_steps)]
    all_centers = []
    sets = []
    for ts in times:
        step_centers = []
        for _ in range(data.draw(st.integers(0, 4))):
            lat = data.draw(st.integers(-800, 800)) / 10.0
            lon = data.draw(st.integers(-1700, 1700)) / 10.0
            pressure = data.draw(st.integers(9300, 9990)) / 10.0
            c = center(lat, lon, ts, pressure)
            step_centers.append(c)
            all_centers.append(c)
        sets.append((ts, step_centers))
    paths = track(sets)
    emitted = [c for p in paths for c in p.centers]
    assert len(emitted) == len(all_centers)
    assert sorted(
        (c.timestamp, c.lat, c.lon, c.pressure) for c in emitted
    ) == sorted((c.timestamp, c.lat, c.lon, c.pressure) for c in all_centers)
    for p in paths:
        stamps = [c.timestamp for c in p.centers]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_empty_instants_end_every_path(data):
    # centers close enough to chain, in runs of instants separated by one or
    # more empty instants: the paths are those of each run tracked alone
    runs, sets, step = [], [], 0
    for _ in range(data.draw(st.integers(1, 4))):
        run = []
        for _ in range(data.draw(st.integers(1, 4))):
            ts = hours(6 * step)
            step += 1
            run.append((ts, [
                center(55 + data.draw(st.integers(-10, 10)) / 10.0,
                       data.draw(st.integers(-10, 10)) / 10.0, ts,
                       data.draw(st.integers(9800, 9990)) / 10.0)
                for _ in range(data.draw(st.integers(1, 3)))
            ]))
        runs.append(run)
        sets.extend(run)
        for _ in range(data.draw(st.integers(1, 3))):
            sets.append((hours(6 * step), []))
            step += 1
    if data.draw(st.booleans()):
        sets.insert(0, (hours(-6), []))
    separately = sorted(
        (p for run in runs for p in track(run)),
        key=lambda p: (p.start_time, p.centers[0].lat, p.centers[0].lon, p.centers[0].pressure),
    )
    assert [(p.path_id, p.centers) for p in track(sets)] == [
        (p.path_id, p.centers) for p in separately
    ]
