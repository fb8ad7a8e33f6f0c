"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or
``-rA``); the assertions carry the actual checks. Run with::

    pytest tests/test_acceptance.py -v -s
"""

import math
import random
import time
from datetime import timedelta

import numpy as np

from dslake.engine import (
    EngineConfig,
    TaskRequest,
    run_map,
    run_reduce,
    submit,
)
from dslake.hybrid import invoke, output_at
from dslake.lang.ast import DurationLit, GeoBox, IntLit, Offset, OutItem, Ref, TimeRange
from dslake.lang.formatter import format_query
from dslake.lang.parser import parse
from dslake.lang.validate import validate
from dslake.registry import KnowledgeRegistry
from dslake.storage import StorageLayout
from dslake.cyclone.detect import interior_minima
from dslake.cyclone.rng import SplitMix64
from dslake.cyclone.plugin import bsm_external_descriptor, register_cyclone_domain
from dslake.cyclone.surrogate import bsm_surrogate
from dslake.cyclone.synthetic import SyntheticSpec, generate_synthetic
from dslake.cyclone.params import CycloneParams
from dslake.cyclone.track import track

from conftest import FIG5_AREA, FIG5_SCRIPT, utc
from test_detect import brute_force_minima


def report(criterion: int, label: str):
    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                print(f"\n[acceptance] criterion {criterion} ({label}): FAIL")
                raise
            print(f"\n[acceptance] criterion {criterion} ({label}): PASS")

        run.__name__ = fn.__name__
        return run

    return wrap


def fresh_registry() -> KnowledgeRegistry:
    return register_cyclone_domain(KnowledgeRegistry())


def year_spec(dataset="d1") -> SyntheticSpec:
    # one simulated year, 6-hourly snapshots, 0.5 degree grid over the
    # published area, five cyclones of which two head north-east
    return SyntheticSpec(
        dataset=dataset,
        area=FIG5_AREA,
        start=utc(2011, 1, 1),
        end=utc(2011, 12, 31, 18),
        step_hours=6,
        spacing_deg=0.5,
        random_count=5,
        random_north_east=2,
    )


def fig5_request(node_count, replication=2, script=FIG5_SCRIPT):
    return TaskRequest(
        dataset="d1",
        script=script,
        engine_config=EngineConfig(
            node_count=node_count, replication=min(replication, node_count)
        ),
    )


# -- 1. golden parse -----------------------------------------------------------

@report(1, "golden parse of the published script")
def test_criterion_1_golden_parse():
    started = time.perf_counter()
    registry = fresh_registry()
    ast = parse(FIG5_SCRIPT)

    assert ast.area == GeoBox(48.3416, -24.7851, 66.1605, 32.8710)
    import datetime as dt

    assert ast.time == TimeRange(dt.date(2011, 1, 1), dt.date(2011, 12, 31))
    select, simulate = ast.statements
    assert select.object_type == "cyclon-path"
    assert select.filters == (("directon", "north-east"),)
    assert select.out == (OutItem(name="Params", indices=(Ref("EndTime"),)),)
    assert simulate.package == "BSM"
    assert simulate.options == (("semantic_association", "yes"),)
    assert simulate.in_bindings == (
        ("startTime", Offset(base=Ref("EndTime"), sign=-1, delta=DurationLit(48))),
    )
    assert simulate.out == (OutItem(name="level", indices=(IntLit(440), IntLit(414))),)

    vq = validate(ast, registry)
    assert vq.selects[0].knowledge.info.name == "cyclone-path"
    assert vq.selects[0].filters[0].procedure is registry.procedures["cyclone.filter_direction"]
    assert vq.simulates[0].package.name == "BSM"
    assert ("cyclone", Ref("cyclone")) in vq.simulates[0].bindings  # semantic association

    assert parse(format_query(ast)) == ast
    assert time.perf_counter() - started < 1.0


# -- 2. distribution transparency ------------------------------------------------

@report(2, "distribution transparency over 50 seeded year-long datasets")
def test_criterion_2_distribution_transparency():
    started = time.perf_counter()
    registry = fresh_registry()
    extract = registry.procedures["cyclone.extract_centers"]
    extracted = []

    def counting(data, memo):
        extracted.append(data)
        return extract(data, memo)

    registry.procedures["cyclone.extract_centers"] = counting
    node_counts = (1, 2, 4, 8)
    for seed in range(50):
        files, _ = generate_synthetic(year_spec(), seed=seed)
        layout = StorageLayout(node_count=8, replication=2).ingest(files)
        texts = set()
        # the layouts share one memo, so only the first node count maps;
        # rotating it gives each node count the real map on a quarter of the seeds
        for k, n in enumerate(node_counts[seed % 4:] + node_counts[:seed % 4]):
            extracted.clear()
            doc = submit(fig5_request(node_count=n), registry, layout)
            texts.add(doc.canonical_text())
            if k == 0:
                assert sorted(extracted) == sorted(f.data for f in files), f"seed {seed}"
                assert doc.diagnostics.files_read == len(files), f"seed {seed}"
            else:
                assert extracted == [], f"seed {seed}: {n} nodes extracted again"
                assert doc.diagnostics.files_read == 0, f"seed {seed}"
        assert len(texts) == 1, f"seed {seed}: node counts disagree"
    elapsed = time.perf_counter() - started
    print(f"\n[acceptance] criterion 2 runtime: {elapsed:.1f}s over 50 seeds x 4 layouts")
    assert elapsed < 60.0


# -- 3. planted-truth recall and precision -----------------------------------------

@report(3, "recall/precision 1.0 on planted north-east cyclones, 20 seeds")
def test_criterion_3_recall_precision():
    registry = fresh_registry()
    # also request StartTime so recovered objects can be identified
    # one-to-one against planted paths
    script = FIG5_SCRIPT.replace("out(Params[EndTime])", "out(Params[EndTime], Params[StartTime])")
    for seed in range(100, 120):
        files, truth = generate_synthetic(year_spec(), seed=seed)
        layout = StorageLayout(node_count=4, replication=2).ingest(files)
        doc = submit(fig5_request(node_count=4, script=script), registry, layout)

        truth_ne = truth.paths_in_sector("north-east")
        assert len(truth_ne) == 2
        expected = {(p.times[0], p.end_time) for p in truth_ne}
        got = {
            (obj.requested_params["StartTime"], obj.requested_params["EndTime"])
            for obj in doc.objects
        }
        # recall 1.0: every planted north-east path recovered;
        # precision 1.0: nothing else selected
        assert got == expected, f"seed {seed}: {got} != {expected}"
        assert len(doc.objects) == 2
        assert len(doc.simulations) == 2
        assert all(sim.status == "ok" for sim in doc.simulations)


# -- 4. detection oracle ------------------------------------------------------------

@report(4, "strict-minimum detection equals brute force on 1000 grids")
def test_criterion_4_detection_oracle():
    rng = np.random.default_rng(20050109)
    mismatches = 0
    for trial in range(1000):
        nlat = int(rng.integers(3, 51))
        nlon = int(rng.integers(3, 51))
        values = rng.uniform(955.0, 1065.0, (nlat, nlon))
        if trial % 3 == 0:
            values = np.round(values, -1)  # plateaus and exact ties
        if interior_minima(values) != brute_force_minima(values, 1000.0):
            mismatches += 1
    assert mismatches == 0


# -- 5. stitching oracle --------------------------------------------------------------

@report(5, "cross-node stitching equals the single-node run, 20 assignments")
def test_criterion_5_stitching_oracle():
    registry = fresh_registry()
    spec = SyntheticSpec(
        dataset="d1",
        area=FIG5_AREA,
        start=utc(2011, 2, 1),
        end=utc(2011, 2, 14, 18),
        random_count=1,
        random_north_east=1,
    )
    files, truth = generate_synthetic(spec, seed=77)
    query = validate(parse(FIG5_SCRIPT), registry)

    def paths_for(layout):
        grouped: dict = {}
        for fragment in run_map(layout, "d1", query)[0]:
            grouped.setdefault(fragment.payload_time, []).extend(fragment.payload)
        sets = [(ts, grouped[ts]) for ts in sorted(grouped)]
        return [p for p in track(sets) if len(p.centers) > 1]

    single = StorageLayout(node_count=1, replication=1).ingest(files)
    baseline_paths = paths_for(single)
    assert len(baseline_paths) == 1
    assert truth.paths[0].matches(baseline_paths[0], tolerance_km=60.0)
    baseline_doc = submit(fig5_request(node_count=1), registry, single).canonical_text()

    rng = random.Random(55)
    for assignment in range(20):
        layout = StorageLayout(node_count=3, replication=1).ingest(files)
        for f in files:  # an arbitrary assignment in place of rendezvous placement
            layout.placements[f.file_id] = tuple(rng.sample(range(3), 1))
        spread = {layout.placements[f.file_id][0] for f in files}
        paths = paths_for(layout)
        assert len(paths) == 1
        # center-by-center identity with the single-node run
        assert paths[0].centers == baseline_paths[0].centers
        assert paths[0].path_id == baseline_paths[0].path_id
        request = TaskRequest(
            dataset="d1", script=FIG5_SCRIPT,
            engine_config=EngineConfig(node_count=3, replication=1),
        )
        assert submit(request, registry, layout).canonical_text() == baseline_doc
        assert len(spread) >= 2  # the cyclone's snapshots really span nodes


# -- 6. fault equivalence ----------------------------------------------------------------

@report(6, "single-node failure leaves the result bytes unchanged, 10 seeds")
def test_criterion_6_fault_equivalence():
    registry = fresh_registry()
    for seed in range(200, 210):
        spec = SyntheticSpec(
            dataset="d1",
            area=FIG5_AREA,
            start=utc(2011, 3, 1),
            end=utc(2011, 3, 31, 18),
            random_count=2,
            random_north_east=1,
        )
        files, _ = generate_synthetic(spec, seed=seed)
        layout = StorageLayout(node_count=4, replication=2).ingest(files)
        baseline = submit(fig5_request(node_count=4), registry, layout).canonical_text()
        failed_node = seed % 4  # replication 2 makes any single failure survivable
        # a fresh layout has an empty memo, so the degraded submit reads
        # every file it maps, and fails over those first placed on failed_node
        degraded_layout = StorageLayout(node_count=4, replication=2).ingest(files)
        degraded_layout.fail_node(failed_node)
        read, served = degraded_layout.read, []

        def counting_read(file_id):
            served.append(file_id)
            return read(file_id)

        degraded_layout.read = counting_read
        degraded_doc = submit(fig5_request(node_count=4), registry, degraded_layout)
        degraded = degraded_doc.canonical_text()
        assert degraded_doc.diagnostics.files_read == len(files), f"seed {seed}"
        assert any(degraded_layout.placements[f][0] == failed_node for f in served), (
            f"seed {seed}: no read failed over"
        )
        assert degraded == baseline, f"seed {seed}: failure changed the bytes"


# -- 7. surrogate determinism and shape -------------------------------------------------

@report(7, "surrogate zero/peak values exact and monotone in depth")
def test_criterion_7_surrogate_shape():
    def params(depth, bearing=45.0):
        return CycloneParams(
            end_time=utc(2005, 1, 9),
            central_pressure=1013.25 - depth,
            ambient_pressure=1013.25,
            depth=depth,
            radius_km=400.0,
            mean_speed_kmh=50.0,
            average_bearing=bearing,
            direction_sector="north-east",
        )

    start = utc(2005, 1, 7)
    assert all(v == 0.0 for _, v in bsm_surrogate(params(0.0), start, 96))

    for depth in (1.0, 13.7, 53.0, 88.25):
        for bearing in (0.0, 26.2, 45.0, 66.0):
            series = dict(bsm_surrogate(params(depth, bearing), start, 96))
            peak = series[utc(2005, 1, 9)]
            expected = 1.0 * depth * max(0.0, math.cos(math.radians(bearing - 45.0)))
            assert abs(peak - expected) <= 1e-9 * max(expected, 1.0)

    sweep = [depth * 1.2 for depth in range(100)]
    for hour in (0, 24, 48, 60, 96):
        at_fixed_t = [
            bsm_surrogate(params(depth), start, 96)[hour][1] for depth in sweep
        ]
        assert all(a <= b + 1e-12 for a, b in zip(at_fixed_t, at_fixed_t[1:]))

    again = bsm_surrogate(params(53.0), start, 96)
    assert again == bsm_surrogate(params(53.0), start, 96)


# -- 8. scheduling independence ------------------------------------------------------------

@report(8, "one digest across 1000 fragment arrival orders")
def test_criterion_8_scheduling_independence():
    registry = fresh_registry()
    spec = SyntheticSpec(
        dataset="d1",
        area=FIG5_AREA,
        start=utc(2011, 4, 1),
        end=utc(2011, 4, 10, 18),
        random_count=1,
        random_north_east=1,
    )
    files, _ = generate_synthetic(spec, seed=31)
    layout = StorageLayout(node_count=4, replication=2).ingest(files)
    query = validate(parse(FIG5_SCRIPT), registry)
    fragments, files_read = run_map(layout, "d1", query)
    assert files_read == len(files)  # in memory: no index serves a record

    digests = set()
    rng = random.Random(2011)
    for _ in range(1000):
        arrival = fragments[:]
        rng.shuffle(arrival)
        doc = run_reduce(arrival, query)
        doc.task_id = "fixed"
        digests.add(doc.digest())
    assert len(digests) == 1


# -- 9. mode equivalence ----------------------------------------------------------------------

@report(9, "builtin and external BSM agree on 10 random parameter sets")
def test_criterion_9_mode_equivalence():
    registry = fresh_registry()
    external = bsm_external_descriptor(name="BSM-X")
    registry.register_package(external)
    builtin = registry.resolve_package("BSM")

    rng = SplitMix64(414440)
    for _ in range(10):
        depth = 80.0 * rng.next_unit()
        bearing = 360.0 * rng.next_unit()
        end = utc(2005, 1, 9) + timedelta(hours=int(rng.next_u64() % 72))
        cyclone = CycloneParams(
            end_time=end,
            central_pressure=1013.25 - depth,
            ambient_pressure=1013.25,
            depth=depth,
            radius_km=100.0 + 500.0 * rng.next_unit(),
            mean_speed_kmh=120.0 * rng.next_unit(),
            average_bearing=bearing,
            direction_sector=None,
        )
        bindings = {
            "startTime": end - timedelta(hours=48),
            "cyclone": cyclone,
            "horizon": timedelta(hours=96),
        }
        a = invoke(builtin, registry.procedures["cyclone.bsm"], dict(bindings))
        b = invoke(external, None, dict(bindings))
        series_a = output_at(a, "level", (440, 414))
        series_b = output_at(b, "level", (440, 414))
        # exact at the documented fixed-precision serialization
        rendered_a = [(t, f"{v:.4f}") for t, v in series_a]
        rendered_b = [(t, f"{v:.4f}") for t, v in series_b]
        assert rendered_a == rendered_b
