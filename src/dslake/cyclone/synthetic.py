"""Ground-truthed synthetic pressure datasets.

Each snapshot is a uniform background minus one Gaussian depression per
alive cyclone,

    p(x, t) = background - sum_i depth_i * exp(-d(x, c_i(t))^2 / (2 sigma_i^2))

with centers moving along great circles at constant speed and bearing.
The generator refuses overlapping cyclones: planted tracks must keep a
mutual distance of at least 3 * max(sigma) (and, for the random planner,
a tracking-safe floor) at all observation times.

Randomness enters only through the optional random planner; explicitly
listed cyclones always produce the exact fields above, so a spec with no
cyclones yields identical uniform snapshots whatever the seed.

A random plan is accepted only if every planted cyclone is cleanly
detectable in the rendered bytes of every snapshot it is alive in. Each
random cyclone is checked as it is placed, on its own alive snapshots
rendered with every cyclone placed before it; a dirty one is redrawn from
the same stream, so the cyclones placed before it stay. A cyclone that
stays dirty through a fixed number of draws fails the spec: the planner
draws from one stream, seeded by the seed itself.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace
from datetime import datetime, timedelta

import numpy as np

from dslake.errors import Row, SpecError, read_keys
from dslake.lang.ast import GeoBox
from dslake.storage import DataFile
from dslake.times import iso_seconds, parse_utc
from dslake.cyclone.rng import SplitMix64
from dslake.cyclone.geo import (
    classify_direction,
    destination_point,
    haversine_grid_km,
    haversine_km,
    initial_bearing,
)
from dslake.cyclone.detect import detect_centers
from dslake.cyclone.grid import (
    PRESSURE_MAX_HPA,
    PRESSURE_MIN_HPA,
    GridSnapshot,
    parse_grid_snapshot,
    render_body,
    render_grid_snapshot,
    render_header,
)
from dslake.cyclone.track import CyclonePath

BACKGROUND_HPA = 1013.25

# the most points a snapshot's grid may have: the generator allocates a
# float64 field (8 MB) and renders ~8 MB of text per snapshot at this size
MAX_GRID_POINTS = 1_000_000

# the random planner keeps cyclones inside the area by this margin and
# mutually apart by the tracking-safe floor below
PLANT_MARGIN_DEG = 2.0
TRACKING_SAFE_KM = 1300.0

# the shortest and the longest life, in hours, of a randomly planted cyclone
RANDOM_LIFETIME_H = (36.0, 72.0)


@dataclass(frozen=True)
class PlantedCyclone:
    t_start: datetime
    t_end: datetime
    lat: float
    lon: float
    bearing: float
    speed_kmh: float
    depth_hpa: float
    sigma_km: float

    def alive(self, ts: datetime) -> bool:
        return self.t_start <= ts <= self.t_end

    def center_at(self, ts: datetime) -> tuple[float, float]:
        hours = (ts - self.t_start).total_seconds() / 3600.0
        return destination_point(self.lat, self.lon, self.bearing, self.speed_kmh * hours)

    def clamped_center_at(self, ts: datetime) -> tuple[float, float]:
        ts = min(max(ts, self.t_start), self.t_end)
        return self.center_at(ts)


@dataclass(frozen=True)
class SyntheticSpec:
    dataset: str
    area: GeoBox
    start: datetime
    end: datetime
    step_hours: int = 6
    spacing_deg: float = 0.5
    background_hpa: float = BACKGROUND_HPA
    cyclones: tuple[PlantedCyclone, ...] = ()
    random_count: int = 0  # extra randomly planted cyclones
    random_north_east: int = 0  # how many of those head north-east

    def snapshot_times(self) -> list[datetime]:
        times = []
        ts = self.start
        while ts <= self.end:
            times.append(ts)
            ts = ts + timedelta(hours=self.step_hours)
        return times

    def grid_shape(self) -> tuple[int, int]:
        nlat = int((self.area.lat_max - self.area.lat_min) / self.spacing_deg) + 1
        nlon = int((self.area.lon_max - self.area.lon_min) / self.spacing_deg) + 1
        return nlat, nlon


@dataclass(frozen=True)
class GroundTruthPath:
    cyclone: PlantedCyclone
    times: tuple[datetime, ...]  # snapshot times the cyclone is observable
    positions: tuple[tuple[float, float], ...]  # true (unsnapped) centers
    end_time: datetime  # last observable snapshot time
    bearing: float | None  # first-to-last observed bearing
    sector: str | None

    def matches(self, path: CyclonePath, tolerance_km: float) -> bool:
        if len(path.centers) != len(self.times):
            return False
        for center, ts, (lat, lon) in zip(path.centers, self.times, self.positions):
            if center.timestamp != ts:
                return False
            if haversine_km(center.lat, center.lon, lat, lon) > tolerance_km:
                return False
        return True


@dataclass(frozen=True)
class GroundTruth:
    spec: SyntheticSpec
    seed: int
    paths: tuple[GroundTruthPath, ...]

    def paths_in_sector(self, sector: str) -> tuple[GroundTruthPath, ...]:
        return tuple(p for p in self.paths if p.sector == sector)

    def canonical_text(self) -> str:
        lines = ["GROUND-TRUTH"]
        for p in sorted(self.paths, key=lambda p: (p.times[0], p.positions[0])):
            bearing = "none" if p.bearing is None else f"{p.bearing:.4f}"
            lines.append(f"cyclone {iso_seconds(p.times[0])}")
            lines.append(f"  bearing {bearing}")
            lines.append(f"  depth {p.cyclone.depth_hpa:.4f}")
            lines.append(f"  end_time {iso_seconds(p.end_time)}")
            lines.append(f"  sector {p.sector or 'none'}")
            lines.append(f"  snapshots {len(p.times)}")
        return "\n".join(lines) + "\n"


# dirty draws of one random cyclone after which the spec is refused
_CYCLONE_REDRAWS = 10

# a live snapshot's time -> (its alive cyclones, its render)
_Renders = dict[datetime, tuple[tuple[PlantedCyclone, ...], DataFile]]


def generate_synthetic(
    spec: SyntheticSpec, seed: int = 0
) -> tuple[list[DataFile], GroundTruth]:
    """Produce snapshot files plus the planted truth used as a test oracle.

    Randomly planted cyclones are verified against the rendered bytes:
    every alive snapshot must show exactly one detectable minimum near
    the true center (two-decimal quantization can tie neighbor cells on
    a Gaussian's flat top, hiding the minimum from the strict 8-neighbor
    rule). Each random cyclone is checked while it is placed, on its alive
    snapshots rendered with every cyclone placed so far, and a dirty one
    is redrawn from the same stream. A clean render is kept with its alive
    cyclones, so a snapshot is rendered and parsed again only when a
    cyclone placed later is alive in it too. The final pass renders the
    snapshots where only listed cyclones are alive, and checks them when
    the spec plants random ones. The uniform background snapshots are
    rendered once, for the accepted plan.

    Raises ``SpecError``, naming the seed, when one random cyclone is
    still dirty after ``_CYCLONE_REDRAWS`` draws, and when a snapshot
    where only listed cyclones are alive is dirty: no draw can mend that.
    """
    times = spec.snapshot_times()
    renders: _Renders = {}
    cyclones = list(spec.cyclones)
    if spec.random_count:

        def clean_with(candidate: PlantedCyclone, placed: list[PlantedCyclone]) -> bool:
            return _render_checked(
                spec, [*cyclones, *placed, candidate], _alive_times(candidate, times), renders
            )

        cyclones.extend(_plant_random(spec, seed, clean_with))
    _check_separation(cyclones, times, spec.step_hours)
    live_times = sorted({ts for c in cyclones for ts in _alive_times(c, times)})
    if not _render_checked(spec, cyclones, live_times, renders, check=bool(spec.random_count)):
        raise SpecError(
            "listed cyclones are not cleanly detectable where no random cyclone"
            f" is alive (seed {seed}); relax the spec"
        )
    background = _render_background(spec, [ts for ts in times if ts not in renders])
    files = sorted([*(f for _, f in renders.values()), *background], key=lambda f: f.t0)

    truth_paths = []
    for c in cyclones:
        observed = _alive_times(c, times)
        if not observed:
            raise SpecError("planted cyclone observable in no snapshot")
        positions = tuple(c.center_at(ts) for ts in observed)
        if len(observed) > 1 and positions[0] != positions[-1]:
            bearing = initial_bearing(*positions[0], *positions[-1])
            sector = classify_direction(bearing)
        else:
            bearing = None
            sector = None
        truth_paths.append(
            GroundTruthPath(
                cyclone=c,
                times=tuple(observed),
                positions=positions,
                end_time=observed[-1],
                bearing=bearing,
                sector=sector,
            )
        )
    truth = GroundTruth(
        spec=replace(spec, cyclones=tuple(cyclones), random_count=0, random_north_east=0),
        seed=seed,
        paths=tuple(truth_paths),
    )
    return files, truth


def _alive_times(cyclone: PlantedCyclone, times: list[datetime]) -> list[datetime]:
    """The times of the sorted ``times`` at which ``cyclone`` is alive."""
    return times[bisect_left(times, cyclone.t_start) : bisect_right(times, cyclone.t_end)]


def _render_checked(
    spec: SyntheticSpec,
    cyclones: list[PlantedCyclone],
    times: list[datetime],
    renders: _Renders,
    check: bool = True,
) -> bool:
    """Render the snapshots at ``times`` that ``renders`` holds with other
    alive ``cyclones`` or not at all, and check them in one
    ``detection_is_clean`` call.

    The verdict on a snapshot depends only on its bytes and its alive
    cyclones, so one already kept with the same alive cyclones is neither
    rendered nor parsed again. Clean (or, without ``check``, unchecked)
    renders are kept in ``renders``; a dirty batch leaves it as it was.
    """
    stale = {}
    for ts in times:
        alive = tuple(c for c in cyclones if c.alive(ts))
        if renders.get(ts, (None,))[0] != alive:
            stale[ts] = alive
    checked, kept = itertools.tee(_render_live(spec, stale))
    if check and stale and not detection_is_clean(checked, cyclones, spec):
        return False
    renders.update((f.t0, (stale[f.t0], f)) for f in kept)
    return True


def _render_live(
    spec: SyntheticSpec, snapshots: dict[datetime, tuple[PlantedCyclone, ...]]
) -> Iterator[DataFile]:
    """Render the snapshot at each time of ``snapshots`` with its alive cyclones.

    Lazy, so that a check which stops at a dirty snapshot also stops the
    rendering of the rest.
    """
    nlat, nlon = spec.grid_shape()
    lats = spec.area.lat_min + spec.spacing_deg * np.arange(nlat)
    lons = spec.area.lon_min + spec.spacing_deg * np.arange(nlon)

    for ts, alive in snapshots.items():
        field = np.full((nlat, nlon), spec.background_hpa)
        for c in alive:
            clat, clon = c.center_at(ts)
            d = haversine_grid_km(clat, clon, lats, lons)
            field -= c.depth_hpa * np.exp(-(d * d) / (2.0 * c.sigma_km**2))
        snapshot = GridSnapshot(
            lat0=spec.area.lat_min,
            lon0=spec.area.lon_min,
            dlat=spec.spacing_deg,
            dlon=spec.spacing_deg,
            nlat=nlat,
            nlon=nlon,
            timestamp=ts,
            values=field,
        )
        yield DataFile.from_bytes(spec.dataset, ts, ts, render_grid_snapshot(snapshot))


def _render_background(spec: SyntheticSpec, times: list[datetime]) -> list[DataFile]:
    """Render the uniform snapshot at each of ``times``: one shared body."""
    nlat, nlon = spec.grid_shape()
    body = render_body(np.full((nlat, nlon), spec.background_hpa))
    box = (spec.area.lat_min, spec.area.lon_min, spec.spacing_deg, spec.spacing_deg, nlat, nlon)
    return [
        DataFile.from_bytes(spec.dataset, ts, ts, render_header(*box, ts) + body) for ts in times
    ]


def detection_is_clean(
    files: Iterable[DataFile],
    cyclones: list[PlantedCyclone],
    spec: SyntheticSpec,
) -> bool:
    """Check that each alive cyclone shows as exactly one strict minimum.

    Works on the parsed-back bytes so it sees exactly what the engine
    will see, quantization included.
    """
    tolerance_km = 1.5 * spec.spacing_deg * 111.0
    for f in files:
        alive = [c for c in cyclones if c.alive(f.t0)]
        if not alive:
            continue
        centers = detect_centers(parse_grid_snapshot(f.data))
        if len(centers) != len(alive):
            return False
        for c in alive:
            truth = c.center_at(f.t0)
            near = [
                p for p in centers if haversine_km(*truth, p.lat, p.lon) <= tolerance_km
            ]
            if len(near) != 1:
                return False
    return True


def _check_separation(
    cyclones: list[PlantedCyclone], times: list[datetime], step_hours: int
) -> None:
    step = timedelta(hours=step_hours)
    sigma_max = max((c.sigma_km for c in cyclones), default=0.0)
    required = 3.0 * sigma_max
    for i, a in enumerate(cyclones):
        for b in cyclones[i + 1 :]:
            if a.t_start > b.t_end + step or b.t_start > a.t_end + step:
                continue  # lifespans (plus one step) disjoint
            for ts in times:
                in_a = a.t_start - step <= ts <= a.t_end + step
                in_b = b.t_start - step <= ts <= b.t_end + step
                if not (in_a and in_b):
                    continue
                pa = a.clamped_center_at(ts)
                pb = b.clamped_center_at(ts)
                if haversine_km(*pa, *pb) <= required:
                    raise SpecError(
                        f"cyclones overlap at {iso_seconds(ts)}:"
                        f" separation <= 3 * max sigma ({required:.0f} km)"
                    )


def _plant_random(
    spec: SyntheticSpec,
    seed: int,
    accept: Callable[[PlantedCyclone, list[PlantedCyclone]], bool],
) -> list[PlantedCyclone]:
    """Randomly place cyclones that the tracker can provably keep apart.

    ``accept(candidate, placed)`` judges each candidate that keeps its
    distance from the spec's listed cyclones and the ones placed before it;
    a refused candidate is redrawn from the same stream. Raises
    ``SpecError`` once one cyclone has been refused ``_CYCLONE_REDRAWS``
    times.
    """
    if spec.random_north_east > spec.random_count:
        raise SpecError("more north-east cyclones requested than total")
    rng = SplitMix64(seed)
    box = spec.area
    lat_lo = box.lat_min + PLANT_MARGIN_DEG
    lat_hi = box.lat_max - PLANT_MARGIN_DEG
    lon_lo = box.lon_min + PLANT_MARGIN_DEG
    lon_hi = box.lon_max - PLANT_MARGIN_DEG
    if lat_lo >= lat_hi or lon_lo >= lon_hi:
        raise SpecError("area too small for random planting")
    horizon_h = (spec.end - spec.start).total_seconds() / 3600.0
    shortest_h, longest_h = RANDOM_LIFETIME_H

    planted: list[PlantedCyclone] = []
    other_sectors = (0.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0)
    for k in range(spec.random_count):
        north_east = k < spec.random_north_east
        refused = 0
        for _ in range(4000):
            if north_east:
                bearing = 30.0 + 30.0 * rng.next_unit()
            else:
                center = other_sectors[rng.next_u64() % len(other_sectors)]
                bearing = (center - 10.0 + 20.0 * rng.next_unit()) % 360.0
            duration_h = shortest_h + (longest_h - shortest_h) * rng.next_unit()
            speed = 25.0 + (min(70.0, 2200.0 / duration_h) - 25.0) * rng.next_unit()
            length_km = speed * duration_h
            # approximate displacement to sample a feasible start point
            dlat = length_km * math.cos(math.radians(bearing)) / 111.0
            s_lat_lo = max(lat_lo, lat_lo - min(0.0, dlat))
            s_lat_hi = min(lat_hi, lat_hi - max(0.0, dlat))
            if s_lat_lo >= s_lat_hi:
                continue
            lat = s_lat_lo + (s_lat_hi - s_lat_lo) * rng.next_unit()
            coslat = math.cos(math.radians(lat + dlat / 2.0))
            dlon = length_km * math.sin(math.radians(bearing)) / (111.0 * max(coslat, 0.2))
            s_lon_lo = max(lon_lo, lon_lo - min(0.0, dlon))
            s_lon_hi = min(lon_hi, lon_hi - max(0.0, dlon))
            if s_lon_lo >= s_lon_hi:
                continue
            lon = s_lon_lo + (s_lon_hi - s_lon_lo) * rng.next_unit()
            start_offset_h = (horizon_h - duration_h) * rng.next_unit()
            t_start = spec.start + timedelta(hours=start_offset_h)
            candidate = PlantedCyclone(
                t_start=t_start,
                t_end=t_start + timedelta(hours=duration_h),
                lat=lat,
                lon=lon,
                bearing=bearing,
                speed_kmh=speed,
                depth_hpa=25.0 + 30.0 * rng.next_unit(),
                sigma_km=180.0 + 140.0 * rng.next_unit(),
            )
            end_lat, end_lon = candidate.center_at(candidate.t_end)
            if not (lat_lo <= end_lat <= lat_hi and lon_lo <= end_lon <= lon_hi):
                continue
            if not _safe_against(candidate, [*spec.cyclones, *planted], spec):
                continue
            if accept(candidate, planted):
                planted.append(candidate)
                break
            refused += 1
            if refused == _CYCLONE_REDRAWS:
                raise SpecError(
                    f"could not plant a cleanly detectable cyclone {k} for seed {seed}"
                    f" in {_CYCLONE_REDRAWS} draws; relax the spec"
                )
        else:
            raise SpecError(
                f"could not place cyclone {k} without overlap; relax the spec"
            )
    return planted


def _safe_against(
    candidate: PlantedCyclone, others: list[PlantedCyclone], spec: SyntheticSpec
) -> bool:
    step = timedelta(hours=spec.step_hours)
    for other in others:
        if candidate.t_start > other.t_end + step or other.t_start > candidate.t_end + step:
            continue
        lo = min(candidate.t_start, other.t_start) - step
        hi = max(candidate.t_end, other.t_end) + step
        required = max(3.0 * max(candidate.sigma_km, other.sigma_km), TRACKING_SAFE_KM)
        ts = lo
        while ts <= hi:
            pa = candidate.clamped_center_at(ts)
            pb = other.clamped_center_at(ts)
            if haversine_km(*pa, *pb) <= required:
                return False
            ts += step
    return True


def parse_spec_text(text: str) -> SyntheticSpec:
    """Parse the synthetic-spec format, ``<key> <value>`` lines read by the
    table ``_SPEC`` (each key once but ``cyclone``; see ``read_keys``):

        dataset d1
        area <lat_min> <lon_min> <lat_max> <lon_max>   # in [-90, 90] x [-180, 180]
        time <ISO start> <ISO end>                     # start <= end
        step <hours>                                   # optional: > 0, default 6
        spacing <degrees>                              # optional: > 0, default 0.5
        background <hPa>                               # optional: in [850, 1100]
        cyclone t_start=<ISO> t_end=<ISO> lat=<deg> lon=<deg> bearing=<deg>
                speed=<km/h> depth=<hPa> sigma=<km>    # sigma > 0
        random-cyclones count=<n> northeast=<m>        # optional: n, m >= 0

    The spacing must leave the area a grid of at least 2 x 2 points and at
    most ``MAX_GRID_POINTS``. A step must reach from the earliest listed
    time back, and from the latest forward, without leaving the years 1 to
    9999 that a ``datetime`` holds; with random cyclones, also by their
    longest life beyond that, and forward by one more step, since a random
    cyclone may start its life before ``start`` or end it after ``end``.
    At most ``count`` random cyclones head north-east. Each refusal is a
    ``SpecError`` naming the line.
    """
    values, lines = read_keys(
        text, _SPEC, " ", lambda line, message: SpecError(f"line {line}: {message}")
    )
    (start, end), random = values["time"], values.get("random-cyclones", {})
    spec = SyntheticSpec(
        dataset=values["dataset"],
        area=GeoBox.from_corners(values["area"][:2], values["area"][2:]),
        start=start,
        end=end,
        step_hours=values.get("step", 6),
        spacing_deg=values.get("spacing", 0.5),
        background_hpa=values.get("background", BACKGROUND_HPA),
        cyclones=tuple(PlantedCyclone(*map(c.get, _CYCLONE)) for c in values.get("cyclone", ())),
        random_count=random.get("count", 0),
        random_north_east=random.get("northeast", 0),
    )
    box = spec.area
    rows = (box.lat_max - box.lat_min) / spec.spacing_deg
    cols = (box.lon_max - box.lon_min) / spec.spacing_deg
    spacing = f"line {lines.get('spacing', lines['area'])}: spacing {spec.spacing_deg:g}"
    if min(rows, cols) < 1:
        raise SpecError(f"{spacing} leaves the area under 2 x 2 grid points")
    # rows * cols may be inf, which int() refuses, and never exceeds the
    # grid's point count (grid_shape's rows times its columns)
    if rows * cols > MAX_GRID_POINTS or (int(rows) + 1) * (int(cols) + 1) > MAX_GRID_POINTS:
        raise SpecError(f"{spacing} gives the area over {MAX_GRID_POINTS} grid points")
    listed = [spec.start, spec.end, *(t for c in spec.cyclones for t in (c.t_start, c.t_end))]
    earliest, latest = min(listed), max(listed)
    try:
        step = timedelta(hours=spec.step_hours)
        # the generator's reach either side of the listed times; a datetime
        # past the years 1 to 9999 raises OverflowError
        reach_lo, reach_hi = earliest - step, latest + step
    except OverflowError:
        raise SpecError(
            f"line {lines.get('step', lines['time'])}: step {spec.step_hours} hours"
            f" reaches past the years 1 to 9999 from {iso_seconds(earliest)}"
            f" or {iso_seconds(latest)}"
        ) from None
    if spec.random_count:
        try:
            # a random cyclone's life reaches past the listed times, and the
            # planner's overlap test steps once past the later of two ends
            longest = timedelta(hours=RANDOM_LIFETIME_H[1])
            reach_lo - longest, reach_hi + longest + step
        except OverflowError:
            raise SpecError(
                f"line {lines['random-cyclones']}: a random cyclone lives up to"
                f" {RANDOM_LIFETIME_H[1]:g} hours, which with step {spec.step_hours} hours"
                f" reaches past the years 1 to 9999 from {iso_seconds(earliest)}"
                f" or {iso_seconds(latest)}"
            ) from None
    if spec.random_north_east > spec.random_count:
        raise SpecError(f"line {lines['random-cyclones']}: northeast {spec.random_north_east}"
                        f" exceeds count {spec.random_count}")
    return spec


_NUMBER = Row("a number", float, required=True)
_TIME = Row("a UTC time", parse_utc, required=True)
_COUNT = Row("a whole number >= 0", int, lambda n: n >= 0)
_CYCLONE = {  # in the order of PlantedCyclone's fields
    "t_start": _TIME,
    "t_end": _TIME,
    "lat": _NUMBER,
    "lon": _NUMBER,
    "bearing": _NUMBER,
    "speed": _NUMBER,
    "depth": _NUMBER,
    "sigma": Row("a number > 0", float, lambda km: km > 0, required=True),
}
_SPEC = {
    "dataset": Row("a name", required=True),
    "area": Row(
        "four numbers lat_min lon_min lat_max lon_max in [-90, 90] x [-180, 180]",
        lambda text: [float(x) for x in text.split()],
        lambda c: len(c) == 4 and all(abs(x) <= 90 for x in c[::2])
        and all(abs(x) <= 180 for x in c[1::2]),
        required=True,
    ),
    "time": Row(
        "two UTC times, start no later than end",
        lambda text: [parse_utc(t) for t in text.split()],
        lambda t: len(t) == 2 and t[0] <= t[1],
        required=True,
    ),
    "step": Row("a whole number of hours > 0", int, lambda hours: hours > 0),
    "spacing": Row("a number of degrees > 0", float, lambda deg: deg > 0),
    "background": Row(f"a pressure in [{PRESSURE_MIN_HPA:g}, {PRESSURE_MAX_HPA:g}] hPa", float,
                      lambda hpa: PRESSURE_MIN_HPA <= hpa <= PRESSURE_MAX_HPA),
    "cyclone": Row("key=value fields", _CYCLONE, repeatable=True),
    "random-cyclones": Row("key=value fields", {"count": _COUNT, "northeast": _COUNT}),
}
