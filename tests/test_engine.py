import dataclasses
import itertools
import random
import shutil
import threading
from datetime import timedelta
from pathlib import Path

import pytest

import dslake.cyclone.plugin as plugin
import dslake.engine as engine
from dslake.errors import (
    CombinerFailure,
    ExtractorFailure,
    ParseError,
    StorageError,
    UnreadableFile,
    ValidationError,
)
from dslake.hybrid import IndexedSeries
from dslake.engine import (
    EngineConfig,
    Fragment,
    TaskRequest,
    run_map,
    run_reduce,
    submit,
)
from dslake.lang.parser import parse
from dslake.lang.validate import validate
from dslake.registry import (
    ExecutionMode,
    KnowledgeRegistry,
    PackageDescriptor,
    PackageInput,
    PackageOutputDecl,
    Placement,
)
from dslake.storage import DataFile, StorageLayout
from dslake.cyclone.plugin import bsm_external_descriptor, register_cyclone_domain
from dslake.cyclone.grid import parse_grid_snapshot, render_grid_snapshot
from dslake.cyclone.params import pressure_structure
from dslake.cyclone.synthetic import PlantedCyclone, SyntheticSpec, generate_synthetic
from dslake.lang.ast import GeoBox

from conftest import FIG5_AREA, FIG5_SCRIPT, REFUSED_SCRIPTS, utc
from test_detect import gaussian_depression
from test_grid import snapshot
from test_storage import replica


def synthetic_layout(seed=1, count=5, north_east=2, end=(2011, 12, 31, 18),
                     node_count=4, replication=2):
    spec = SyntheticSpec(
        dataset="d1",
        area=FIG5_AREA,
        start=utc(2011, 1, 1),
        end=utc(*end),
        random_count=count,
        random_north_east=north_east,
    )
    files, truth = generate_synthetic(spec, seed=seed)
    layout = StorageLayout(node_count=node_count, replication=replication)
    layout.ingest(files)
    return layout, truth


def fig5_request(node_count=4, replication=2):
    return TaskRequest(
        dataset="d1",
        script=FIG5_SCRIPT,
        engine_config=EngineConfig(node_count=node_count, replication=replication),
    )


def test_fig5_selects_planted_north_east_paths(registry):
    # the synthetic generator's ground truth is the oracle: the published
    # script must return exactly the north-east planted cyclones, each
    # with its EndTime and one BSM simulation
    layout, truth = synthetic_layout(seed=3, end=(2011, 3, 31, 18))
    doc = submit(fig5_request(), registry, layout)

    ne_truth = truth.paths_in_sector("north-east")
    assert len(doc.objects) == len(ne_truth) == 2
    ends = sorted(obj.requested_params["EndTime"] for obj in doc.objects)
    assert ends == sorted(p.end_time for p in ne_truth)

    assert len(doc.simulations) == len(doc.objects)
    for sim in doc.simulations:
        assert sim.package == "BSM"
        assert sim.status == "ok"
        series = sim.outputs["level[440,414]"]
        assert len(series) == 97
        assert sim.provenance  # contributing snapshot files recorded
        assert sim.object_id in {obj.object_id for obj in doc.objects}


def test_empty_dataset_empty_document(registry):
    layout = StorageLayout(node_count=2, replication=1)
    doc = submit(fig5_request(node_count=2, replication=1), registry, layout)
    assert doc.objects == [] and doc.simulations == []
    assert doc.diagnostics.files_mapped == 0
    assert "OBJECTS\nSIMULATIONS\n" in doc.canonical_text()


def test_submit_twice_byte_identical(registry):
    layout, _ = synthetic_layout(seed=4, end=(2011, 2, 28, 18))
    a = submit(fig5_request(), registry, layout)
    b = submit(fig5_request(), registry, layout)
    assert a.canonical_text() == b.canonical_text()
    assert a.task_id == b.task_id


def test_task_id_ignores_engine_shape(registry):
    assert fig5_request(node_count=1, replication=1).task_id() == fig5_request(
        node_count=8
    ).task_id()
    assert (
        TaskRequest(dataset="d1", script="select cyclone-path").task_id()
        != TaskRequest(dataset="d2", script="select cyclone-path").task_id()
    )


def test_distribution_transparency_small(registry):
    layout, _ = synthetic_layout(seed=5, count=3, north_east=1, end=(2011, 2, 28, 18))
    texts = {
        submit(fig5_request(node_count=n, replication=min(2, n)), registry, layout)
        .canonical_text()
        for n in (1, 2, 4, 8)
    }
    assert len(texts) == 1


def test_direction_filter_by_bearing(registry):
    # one north-east path (bearing near 45) and one south-bound path;
    # only the first passes the direction filter
    layout, truth = synthetic_layout(seed=6, count=2, north_east=1, end=(2011, 2, 28, 18))
    doc = submit(fig5_request(), registry, layout)
    (ne_path,) = truth.paths_in_sector("north-east")
    assert len(doc.objects) == 1
    assert doc.objects[0].requested_params["EndTime"] == ne_path.end_time


def test_reduce_orders_its_own_input(registry):
    # the combiner is given each fragment's (instant, file id, payload) in
    # (t0, file_id) order, however the fragments arrive; "c" reports
    # instant 0 from a file that starts at 3
    def frag(t0_hour, fid, instant_hour):
        t0, ts = utc(2011, 1, 1, t0_hour), utc(2011, 1, 1, instant_hour)
        return Fragment(file_id=fid, node=0, t0=t0, payload=[fid], payload_time=ts)

    seen = []

    def recording(center_sets):
        seen.append(center_sets)
        return []

    registry.procedures["cyclone.combine_paths"] = recording
    query = validate(parse(FIG5_SCRIPT), registry)
    fragments = [frag(6, "b", 6), frag(0, "z", 0), frag(6, "a", 6), frag(3, "c", 0)]
    for arrival in itertools.permutations(fragments):
        run_reduce(list(arrival), query)
    expected = [
        (utc(2011, 1, 1, 0), "z", ["z"]),
        (utc(2011, 1, 1, 0), "c", ["c"]),
        (utc(2011, 1, 1, 6), "a", ["a"]),
        (utc(2011, 1, 1, 6), "b", ["b"]),
    ]
    assert seen == [expected] * 24
    run_reduce([], query)
    assert seen[-1] == []


def test_reduce_invariant_under_fragment_permutation(registry):
    layout, _ = synthetic_layout(seed=7, count=2, north_east=1, end=(2011, 1, 31, 18))
    query = validate(parse(FIG5_SCRIPT), registry)
    fragments, _ = run_map(layout, "d1", query)
    baseline = run_reduce(fragments, query).canonical_text()
    rng = random.Random(11)
    for _ in range(50):
        shuffled = fragments[:]
        rng.shuffle(shuffled)
        assert run_reduce(shuffled, query).canonical_text() == baseline


def test_the_plan_runs_without_the_registry(registry):
    # validation resolves every procedure the task calls, so the plan runs to
    # a submit's bytes with the registry's procedures and packages gone
    request = fig5_request()
    layout, _ = synthetic_layout(seed=3, end=(2011, 3, 31, 18))
    expected = submit(request, register_cyclone_domain(KnowledgeRegistry()), layout)
    plan = validate(parse(request.script), registry)
    registry.procedures.clear()
    registry.packages.clear()
    fresh, _ = synthetic_layout(seed=3, end=(2011, 3, 31, 18))
    doc = run_reduce(run_map(fresh, "d1", plan)[0], plan, task_id=request.task_id())
    assert doc.canonical_text() == expected.canonical_text()
    assert [sim.status for sim in doc.simulations] == ["ok", "ok"]


def test_binding_offset_past_the_datetime_range(registry):
    # a literal no timedelta holds is refused by the parser; an offset that
    # leaves the years 1 to 9999 fails its simulation, not the submit
    layout, _ = synthetic_layout(seed=3, end=(2011, 3, 31, 18))
    huge = FIG5_SCRIPT.replace("EndTime - 48h", "EndTime + 99999999999999999999h")
    with pytest.raises(ParseError) as err:
        submit(TaskRequest("d1", huge), registry, layout)
    assert str(err.value).endswith(
        "expected a duration of at most 23999999999h, found '99999999999999999999h'"
    )
    far = FIG5_SCRIPT.replace("EndTime - 48h", "EndTime + 99999999h")
    doc = submit(TaskRequest("d1", far), registry, layout)
    assert [sim.status for sim in doc.simulations] == ["failed", "failed"]
    for sim in doc.simulations:
        assert sim.failure_reason.endswith("+ 99999999h leaves the years 1 to 9999")


def test_run_map_time_prefilter(registry):
    layout, _ = synthetic_layout(seed=8, count=1, north_east=1, end=(2011, 2, 28, 18))
    script = FIG5_SCRIPT.replace("time 01.01.2011 - 31.12.2011", "time 01.06.2011 - 30.06.2011")
    query = validate(parse(script), registry)
    metas = layout.dataset_files("d1")  # january and february, outside june
    fragments, _ = run_map(layout, "d1", query)
    assert [f.file_id for f in fragments] == [m.file_id for m in metas]
    assert all(f.payload == [] for f in fragments)
    assert [f.payload_time for f in fragments] == [m.t0 for m in metas]
    assert [f.node for f in fragments] == [layout.serving_node(m.file_id) for m in metas]


def test_run_map_corrupted_snapshot(registry):
    # a map record depends on the file alone, so a snapshot that does not
    # parse fails the map even where the time range excludes its instant
    june = FIG5_SCRIPT.replace("time 01.01.2011 - 31.12.2011", "time 01.06.2011 - 30.06.2011")
    bad_body = b"grid 48.0 -25.0 0.5 0.5 2 2 2011-01-01T00:00Z\n1000 oops\n1000 1000\n"
    for script in (FIG5_SCRIPT, june):
        query = validate(parse(script), registry)
        # corrupt, of an unknown kind, and corrupt after a valid header
        for data in (b"grid nonsense\n", b"blob 1 2\n", bad_body):
            bad = DataFile.from_bytes("d1", utc(2011, 1, 1), utc(2011, 1, 1), data)
            layout = StorageLayout(node_count=1, replication=1).ingest([bad])
            with pytest.raises(ExtractorFailure, match=bad.file_id):
                run_map(layout, "d1", query)


def test_run_map_keeps_the_centers_inside_the_area(registry):
    # one record per file; each query's area selects from it
    field = gaussian_depression(30, 40, 57.0, -18.0, 40.0, 300.0)
    data = render_grid_snapshot(snapshot(field, ts=utc(2011, 1, 1)))
    layout = StorageLayout(node_count=1, replication=1).ingest(
        [DataFile.from_bytes("d1", utc(2011, 1, 1), utc(2011, 1, 1), data)]
    )
    inside = validate(parse("area 50.0,-25.0 - 62.0,-10.0\nselect cyclone-path"), registry)
    outside = validate(parse("area 50.0,0.0 - 62.0,10.0\nselect cyclone-path"), registry)
    (fragment,), _ = run_map(layout, "d1", inside)
    (center,) = fragment.payload
    assert inside.ast.area.contains(center.lat, center.lon)
    (fragment,), _ = run_map(layout, "d1", outside)
    assert fragment.payload == []
    (fragment,), _ = run_map(layout, "d1", validate(parse("select cyclone-path"), registry))
    assert fragment.payload == [center]


@pytest.mark.parametrize("name", REFUSED_SCRIPTS)
def test_submit_of_a_refused_script_reads_no_file(station_registry, monkeypatch, name):
    layout, _ = synthetic_layout(count=0, north_east=0, end=(2011, 1, 2, 0))
    reads = []
    monkeypatch.setattr(StorageLayout, "read", lambda self, file_id: reads.append(file_id))
    request = TaskRequest(dataset="d1", script=REFUSED_SCRIPTS[name])
    with pytest.raises(ValidationError):
        submit(request, station_registry, layout)
    assert layout.dataset_files("d1") and reads == []


def test_combiner_exception_is_a_combiner_failure(registry):
    def broken(center_sets):
        raise Exception("combiner bug")

    registry.procedures["cyclone.combine_paths"] = broken
    layout, _ = synthetic_layout(count=0, north_east=0, end=(2011, 1, 2, 0))
    with pytest.raises(CombinerFailure, match="combiner bug"):
        submit(fig5_request(), registry, layout)


def test_fault_equivalence_smoke(registry):
    layout, _ = synthetic_layout(seed=9, count=2, north_east=1, end=(2011, 2, 28, 18))
    baseline = submit(fig5_request(), registry, layout).canonical_text()
    layout.fail_node(1)  # replication 2: any single failure is survivable
    degraded = submit(fig5_request(), registry, layout).canonical_text()
    assert degraded == baseline
    layout.recover_node(1)


def test_unreadable_file_propagates(registry):
    layout, _ = synthetic_layout(
        seed=10, count=1, north_east=1, end=(2011, 1, 10, 18), replication=1
    )
    layout.fail_node(0)
    layout.fail_node(1)
    layout.fail_node(2)
    layout.fail_node(3)
    with pytest.raises(UnreadableFile):
        submit(fig5_request(node_count=4, replication=1), registry, layout)


def test_a_memo_or_index_hit_with_no_surviving_replica_fails_the_submit(
    tmp_path, registry, monkeypatch
):
    # a memo or index hit reads no replica, but its fragment names the node
    # that serves the file: with every placement node of a file failed,
    # there is none, and the submit fails with the typed error
    warm, expected = saved_store(tmp_path, registry)
    miss = submit(fig5_request(), registry, StorageLayout.load(tmp_path))
    assert miss.canonical_text() == expected  # and the map index is written
    hit = StorageLayout.load(tmp_path)

    def refuse(self, file_id):
        raise AssertionError(f"read {file_id}")

    monkeypatch.setattr(StorageLayout, "read", refuse)
    for run in (warm, hit):
        file_id = run.dataset_files("d1")[0].file_id
        for node in run.placements[file_id]:
            run.fail_node(node)
        with pytest.raises(UnreadableFile) as err:
            submit(fig5_request(), registry, run)
        assert str(err.value) == f"no surviving replica of {file_id}"


def saved_store(tmp_path, registry):
    """A two-month store saved at ``tmp_path``, its in-memory layout, and the
    canonical text of the Fig. 5 query over it."""
    layout, _ = synthetic_layout(seed=12, count=2, north_east=2, end=(2011, 2, 28, 18))
    layout.save(tmp_path)
    return layout, submit(fig5_request(), registry, layout).canonical_text()


@pytest.mark.parametrize("fault", ["altered", "missing"])
def test_a_saved_store_with_bad_first_replicas_gives_the_intact_bytes(tmp_path, registry, fault):
    layout, expected = saved_store(tmp_path, registry)
    for meta in layout.dataset_files("d1"):
        path = tmp_path / replica(meta.file_id, layout.placements[meta.file_id][0])
        if fault == "altered":
            path.write_bytes(path.read_bytes().replace(b"2011", b"2012", 1))
        else:
            path.unlink()
    loaded = StorageLayout.load(tmp_path)
    assert loaded.blobs == {}
    assert submit(fig5_request(), registry, loaded).canonical_text() == expected
    assert loaded.blobs == {}  # a loaded layout holds no file bytes, before or after


def test_a_file_with_no_intact_replica_fails_the_submit(tmp_path, registry):
    layout, _ = saved_store(tmp_path, registry)
    file_id = layout.dataset_files("d1")[40].file_id
    first, second = layout.placements[file_id]
    (tmp_path / replica(file_id, first)).write_bytes(b"grid 0 0 1 1 2 2 x\n")
    (tmp_path / replica(file_id, second)).unlink()
    with pytest.raises(UnreadableFile) as err:
        engine.Engine(registry, StorageLayout.load(tmp_path)).submit(fig5_request())
    assert str(err.value) == (
        f"no intact replica of {file_id}: node {first} digest mismatch, node {second} missing"
    )


def test_a_loaded_store_reports_the_replica_that_served(tmp_path, registry, monkeypatch):
    # the first replica of a path's final snapshot is gone from disk: the
    # fragment, nodes_used and an ON_NODE run name the second, cold and warm
    layout, _ = synthetic_layout(seed=13, count=1, north_east=1, end=(2011, 2, 28, 18))
    descriptor = PackageDescriptor(
        name="NODEPKG",
        inputs=(PackageInput("cyclone", "cyclone-params", required=True),),
        outputs=(PackageOutputDecl("surge", "float"),),
        execution_mode=ExecutionMode.BUILTIN,
        placement=Placement.ON_NODE,
    )
    registry.register_package(descriptor, procedure=lambda bindings: {"surge": 2.0})
    script = (
        "select cyclone-path\n"
        "simulate\n  with NODEPKG\n  semantic_association yes\n  out(surge)\n"
    )
    request = TaskRequest(dataset="d1", script=script, engine_config=EngineConfig(4, 2))
    (sim,) = submit(request, registry, layout).simulations
    file_id = sim.provenance[-1]
    first, second = layout.placements[file_id]
    layout.save(tmp_path)
    (tmp_path / replica(file_id, first)).unlink()

    maps, real_run_map = [], engine.run_map

    def recorded(*args):
        maps.append(real_run_map(*args))
        return maps[-1]

    monkeypatch.setattr(engine, "run_map", recorded)
    loaded = engine.Engine(registry, StorageLayout.load(tmp_path))
    for submit_kind in ("cold", "warm"):
        doc = loaded.submit(request)
        (fragment,) = [f for f in maps[-1][0] if f.file_id == file_id]
        assert fragment.payload and fragment.node == second, submit_kind
        assert second in doc.diagnostics.nodes_used
        (sim,) = doc.simulations
        assert (sim.provenance[-1], sim.node) == (file_id, second), submit_kind


def test_partial_failure_keeps_other_objects(registry):
    # a package that refuses one specific object must not take down the
    # simulations of the others
    layout, truth = synthetic_layout(seed=12, count=2, north_east=2, end=(2011, 2, 28, 18))
    doomed_end = min(p.end_time for p in truth.paths)

    def moody(bindings):
        if bindings["cyclone"].end_time == doomed_end:
            raise ValueError("refusing this cyclone")
        return {"surge": 1.0}

    descriptor = PackageDescriptor(
        name="MOODY",
        inputs=(PackageInput("cyclone", "cyclone-params", required=True),),
        outputs=(PackageOutputDecl("surge", "float"),),
        execution_mode=ExecutionMode.BUILTIN,
    )
    registry.register_package(descriptor, procedure=moody)
    script = (
        "area 48.3416,-24.7851 - 66.1605,32.8710\n"
        "time 01.01.2011 - 31.12.2011\n"
        "select cyclone-path\n"
        "simulate\n  with MOODY\n  semantic_association yes\n  out(surge)\n"
    )
    doc = submit(
        TaskRequest(dataset="d1", script=script, engine_config=EngineConfig(4, 2)),
        registry,
        layout,
    )
    assert len(doc.simulations) == 2
    by_status = {sim.status for sim in doc.simulations}
    assert by_status == {"ok", "failed"}
    failed = next(sim for sim in doc.simulations if sim.status == "failed")
    assert "refusing" in failed.failure_reason
    ok = next(sim for sim in doc.simulations if sim.status == "ok")
    assert ok.outputs["surge"] == 1.0


def test_on_node_placement_recorded_in_diagnostics_only(registry):
    layout, _ = synthetic_layout(seed=13, count=1, north_east=1, end=(2011, 2, 28, 18))

    def fixed(bindings):
        return {"surge": 2.0}

    descriptor = PackageDescriptor(
        name="NODEPKG",
        inputs=(PackageInput("cyclone", "cyclone-params", required=True),),
        outputs=(PackageOutputDecl("surge", "float"),),
        execution_mode=ExecutionMode.BUILTIN,
        placement=Placement.ON_NODE,
    )
    registry.register_package(descriptor, procedure=fixed)
    script = (
        "select cyclone-path\n"
        "simulate\n  with NODEPKG\n  semantic_association yes\n  out(surge)\n"
    )
    request = TaskRequest(dataset="d1", script=script, engine_config=EngineConfig(4, 2))
    doc = submit(request, registry, layout)
    (sim,) = doc.simulations
    assert sim.node is not None  # executed next to the final snapshot
    assert sim.outputs["surge"] == 2.0
    assert "node" not in doc.canonical_text().split("SIMULATIONS")[1].split("DIAGNOSTICS")[0]


@pytest.mark.parametrize(
    "span, outcome",
    [
        (timedelta(hours=96), "output span 96h"),
        (timedelta(minutes=90),
         "SPAN: output 'span': duration 1.5h is not a whole, non-negative number of hours"),
        (timedelta(minutes=-30),
         "SPAN: output 'span': duration -0.5h is not a whole, non-negative number of hours"),
    ],
    ids=["whole-hours", "ninety-minutes", "minus-half-hour"],
)
def test_a_duration_output_that_text_cannot_hold_fails_its_simulation(registry, span, outcome):
    # the canonical text writes a duration in whole hours: a value it would
    # round fails the simulation record instead of rendering another value
    layout, _ = synthetic_layout(seed=13, count=1, north_east=1, end=(2011, 2, 28, 18))
    descriptor = PackageDescriptor(
        name="SPAN",
        outputs=(PackageOutputDecl("span", "duration"),),
        execution_mode=ExecutionMode.BUILTIN,
    )
    registry.register_package(descriptor, procedure=lambda bindings: {"span": span})
    script = "select cyclone-path\nsimulate\n  with SPAN\n  out(span)\n"
    request = TaskRequest(dataset="d1", script=script, engine_config=EngineConfig(4, 2))
    doc = submit(request, registry, layout)
    (sim,) = doc.simulations
    text = doc.canonical_text()
    if sim.status == "ok":
        assert f"  {outcome}\n" in text
    else:
        assert (sim.failure_reason, sim.outputs) == (outcome, {})
        assert "output span" not in text


def test_diagnostics_counts(registry):
    layout, _ = synthetic_layout(seed=14, count=1, north_east=1, end=(2011, 1, 10, 18))
    doc = submit(fig5_request(), registry, layout)
    n_files = len(layout.dataset_files("d1"))
    assert doc.diagnostics.files_mapped == n_files
    assert doc.diagnostics.fragments == n_files
    assert doc.diagnostics.nodes_used <= set(range(4))
    text = doc.canonical_text()
    assert f"files_mapped {n_files}" in text
    assert "nodes_used" not in text  # node-dependent, excluded from bytes


def test_map_stage_runs_on_the_submitting_thread(registry, monkeypatch):
    # extraction holds the interpreter lock, so map threads cost CPU and
    # save nothing: a submit at 4 nodes must map on the calling thread, and
    # no option may size a map pool; the script is the whole task, so no
    # request field or procedure context carries settings either
    layout, _ = synthetic_layout(seed=14, count=1, north_east=1, end=(2011, 1, 10, 18))

    def refuse(thread):
        raise AssertionError(f"submit started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    doc = submit(fig5_request(node_count=4), registry, layout)
    assert doc.diagnostics.files_mapped == len(layout.dataset_files("d1"))
    fields = {
        cls.__name__: [f.name for f in dataclasses.fields(cls)]
        for cls in (EngineConfig, TaskRequest)
    }
    assert fields == {
        "EngineConfig": ["node_count", "replication"],
        "TaskRequest": ["dataset", "script", "engine_config"],
    }


def test_unstartable_external_package_is_a_failed_simulation(registry):
    layout, _ = synthetic_layout(seed=13, count=1, north_east=1, end=(2011, 2, 28, 18))
    descriptor = PackageDescriptor(
        name="GHOST",
        inputs=(PackageInput("cyclone", "cyclone-params", required=True),),
        outputs=(PackageOutputDecl("surge", "float"),),
        execution_mode=ExecutionMode.EXTERNAL_COMMAND,
        command_template="no-such-program-xyz {input:cyclone} {outdir}",
    )
    registry.register_package(descriptor)
    script = (
        "select cyclone-path\n"
        "simulate\n  with GHOST\n  semantic_association yes\n  out(surge)\n"
    )
    request = TaskRequest(dataset="d1", script=script, engine_config=EngineConfig(4, 2))
    doc = submit(request, registry, layout)
    (sim,) = doc.simulations
    assert sim.status == "failed" and sim.outputs == {}
    assert "GHOST could not start 'no-such-program-xyz'" in sim.failure_reason
    assert str(sim.scratch) not in sim.failure_reason  # which the canonical text prints
    assert (sim.scratch / "cyclone.txt").exists()  # the materialized input
    shutil.rmtree(sim.scratch)


def test_external_package_sees_the_task_id(registry, tmp_path):
    import sys

    probe = tmp_path / "task_probe.py"
    probe.write_text(
        "import os, sys, pathlib\n"
        "out = pathlib.Path(sys.argv[1])\n"
        "(out / 'outputs.tsv').write_text(f\"task\\t{os.environ['DSLAKE_TASK_ID']}\\n\")\n"
    )
    registry.register_package(
        PackageDescriptor(
            name="PROBE",
            outputs=(PackageOutputDecl("task", "string"),),
            execution_mode=ExecutionMode.EXTERNAL_COMMAND,
            command_template=f"{sys.executable} {probe} {{outdir}}",
        )
    )
    layout, _ = synthetic_layout(seed=13, count=1, north_east=1, end=(2011, 2, 28, 18))
    script = "select cyclone-path\nsimulate\n  with PROBE\n  out(task)\n"
    doc = submit(
        TaskRequest(dataset="d1", script=script, engine_config=EngineConfig(4, 2)),
        registry,
        layout,
    )
    (sim,) = doc.simulations
    assert sim.status == "ok"
    assert sim.outputs["task"] == doc.task_id != ""


def test_object_without_a_bound_parameter_is_a_failed_simulation(registry):
    # an input bound by name to an object parameter is a reference like any
    # other: an object that lacks it fails its simulation, not the submit
    layout, _ = synthetic_layout(seed=3, end=(2011, 3, 31, 18))
    combine = registry.procedures["cyclone.combine_paths"]

    def combine_without_cyclone(center_sets):
        objects = combine(center_sets)
        for obj in objects:
            del obj.params["cyclone"]
        return objects

    registry.procedures["cyclone.combine_paths"] = combine_without_cyclone
    doc = submit(fig5_request(), registry, layout)
    assert len(doc.simulations) == 2
    for sim in doc.simulations:
        assert sim.status == "failed"
        assert sim.failure_reason == "UnboundReference: 'cyclone'"


def test_submit_refuses_to_reshape_a_layout_with_failed_nodes(registry):
    # failed nodes belong to the stored fabric: a submit at another node
    # count must not silently serve every replica again
    layout, _ = synthetic_layout(
        seed=10, count=1, north_east=1, end=(2011, 1, 10, 18), node_count=8
    )
    for node in range(8):
        layout.fail_node(node)
    with pytest.raises(StorageError, match=r"nodes \[0, 1, 2, 3, 4, 5, 6, 7\] of 8 .* 4 nodes"):
        submit(fig5_request(node_count=4), registry, layout)


def test_payloads_are_not_shared_across_registries(registry):
    # the memo keys payloads by extractor function, not by procedure id: a
    # second registry whose extractor finds nothing sees no centers
    layout, _ = synthetic_layout(seed=6, count=2, north_east=1, end=(2011, 2, 28, 18))
    assert len(submit(fig5_request(), registry, layout).objects) == 1

    blind = register_cyclone_domain(KnowledgeRegistry())
    extract = blind.procedures["cyclone.extract_centers"]
    blind.procedures["cyclone.extract_centers"] = lambda data, memo: (extract(data, memo)[0], [])
    assert submit(fig5_request(), blind, layout).objects == []


def test_each_layout_extracts_each_file_once(registry):
    layout, _ = synthetic_layout(
        seed=5, count=3, north_east=1, end=(2011, 2, 28, 18), node_count=8
    )
    extract = registry.procedures["cyclone.extract_centers"]
    calls = []

    def counting(data, memo):
        calls.append(data)
        return extract(data, memo)

    registry.procedures["cyclone.extract_centers"] = counting
    metas = layout.dataset_files("d1")
    texts = {
        submit(fig5_request(node_count=n, replication=min(2, n)), registry, layout)
        .canonical_text()
        for n in (1, 2, 4, 8)
    }
    assert len(texts) == 1
    assert len(calls) == len(metas)

    # the memo goes with the layout: a fresh one holding the same files
    # extracts them again
    fresh = StorageLayout(node_count=8, replication=2).ingest(
        DataFile(m.file_id, m.dataset, m.t0, m.t1, layout.read(m.file_id)) for m in metas
    )
    assert submit(fig5_request(), registry, fresh).canonical_text() in texts
    assert len(calls) == 2 * len(metas)


def test_new_area_and_time_reuse_each_files_record(registry):
    # a warm engine maps each file once: a new area or time range selects
    # from the records, every memo namespace stays within its bound, and
    # the combiner keeps none
    layout, _ = synthetic_layout(seed=5, count=3, north_east=1, end=(2011, 2, 28, 18))
    extract = registry.procedures["cyclone.extract_centers"]
    calls = []

    def counting(data, memo):
        calls.append(data)
        return extract(data, memo)

    registry.procedures["cyclone.extract_centers"] = counting
    warm = engine.Engine(registry, layout)
    time_clause = "time 01.01.2011 - 31.12.2011\n"
    scripts = [
        FIG5_SCRIPT,
        FIG5_SCRIPT.replace("area 48.3416,-24.7851", "area 52.0,-15.0"),
        FIG5_SCRIPT.replace(time_clause, "time 01.01.2011 - 31.01.2011\n"),
        FIG5_SCRIPT.replace(time_clause, ""),
    ]
    metas = layout.dataset_files("d1")
    for script in scripts:
        fresh = StorageLayout(node_count=4, replication=2).ingest(
            DataFile(m.file_id, m.dataset, m.t0, m.t1, layout.read(m.file_id)) for m in metas
        )
        expected = submit(TaskRequest("d1", script), register_cyclone_domain(KnowledgeRegistry()),
                          fresh).canonical_text()
        assert warm.submit(TaskRequest("d1", script)).canonical_text() == expected
    assert len(calls) == len(metas)
    assert len(layout.memo[(counting,)]) == len(metas)
    bodies = {layout.read(m.file_id).partition(b"\n")[2] for m in metas}
    assert len(layout.memo[counting]) <= len(bodies)  # centers, keyed by body and geometry
    assert registry.procedures["cyclone.combine_paths"] not in layout.memo


def test_a_cropped_path_is_parametrized_anew(registry, monkeypatch):
    # a time or area clause that crops a path into other centers gives the
    # bytes of a submit on a fresh layout
    layout, _ = synthetic_layout(seed=5, count=3, north_east=1, end=(2011, 2, 28, 18))
    parametrize, calls = plugin.parametrize, []

    def counting(path, structure):
        calls.append(path.centers)
        return parametrize(path, structure)

    monkeypatch.setattr(plugin, "parametrize", counting)
    warm = engine.Engine(registry, layout)
    select = "select cyclone-path\n  out(Params[EndTime])\n"
    warm.submit(TaskRequest("d1", select))
    assert len(set(calls)) == 3
    # the last path, which ends on a later day than it starts
    path = calls[-1]
    first = path[0]
    assert first.timestamp.date() < path[-1].timestamp.date()
    crops = [
        f"time 01.01.2011 - {first.timestamp:%d.%m.%Y}\n",
        f"area {first.lat - 0.1:.4f},{first.lon - 0.1:.4f}"
        f" - {first.lat + 0.1:.4f},{first.lon + 0.1:.4f}\n",
    ]
    metas = layout.dataset_files("d1")
    for crop in crops:
        calls.clear()
        request = TaskRequest("d1", crop + select)
        text = warm.submit(request).canonical_text()
        assert any(c[0] == first and len(c) < len(path) for c in calls)
        fresh = StorageLayout(node_count=4, replication=2).ingest(
            DataFile(m.file_id, m.dataset, m.t0, m.t1, layout.read(m.file_id)) for m in metas
        )
        assert text == submit(request, registry, fresh).canonical_text()


def test_the_reduce_never_alters_a_memo_record(registry):
    # two files report one instant, each with a center; with no area clause
    # each fragment's payload is its file's record, which grouping must copy
    ts = utc(2011, 1, 1)
    files = [
        DataFile.from_bytes("d1", ts, ts, render_grid_snapshot(
            snapshot(gaussian_depression(30, 40, lat, lon, 40.0, 300.0), ts=ts)))
        for lat, lon in [(57.0, -18.0), (53.0, -8.0)]
    ]
    layout = StorageLayout(node_count=2, replication=1).ingest(files)
    warm = engine.Engine(registry, layout)
    request = TaskRequest("d1", "select cyclone-path\n  out(Params[EndTime])\n",
                          EngineConfig(2, 1))
    first = warm.submit(request).canonical_text()
    assert first.count("\nobject ") == 2
    assert warm.submit(request).canonical_text() == first
    records = layout.memo[(registry.procedures["cyclone.extract_centers"],)]
    assert [len(records[f.file_id][1]) for f in files] == [1, 1]


# the canonical text of the files below as the combiner gave it when it
# parsed the final center's first file itself
EQUAL_CENTER_TEXT = """\
RESULT 7f7578ea00f7c875
OBJECTS
object 0219ebe45f516244
  type cyclone-path
  param Depth 40.0000
  param EndTime 2011-01-01T12:00:00Z
  param Pressure 973.2500
  param Radius 248.6689
object 0283070e2d1958e6
  type cyclone-path
  param Depth 40.0000
  param EndTime 2011-01-01T12:00:00Z
  param Pressure 973.2500
  param Radius 248.6689
SIMULATIONS
DIAGNOSTICS
  files_mapped 4
  fragments 4
"""


def test_an_equal_center_of_two_files_takes_the_first_files_structure(registry, tmp_path):
    # two files of the last instant list an equal center, planted on one grid
    # node, but their depressions differ in width, so the windows around it
    # and the structures differ. Both paths that end there, one tracked to
    # the first file's center and one started by the second's, take their
    # parameters and provenance from the first file in (t0, file id) order.
    def grid_file(hour, lat, lon, sigma_km):
        ts = utc(2011, 1, 1, hour)
        return DataFile.from_bytes("d1", ts, ts, render_grid_snapshot(
            snapshot(gaussian_depression(30, 40, lat, lon, 40.0, sigma_km), ts=ts)))

    files = [grid_file(0, 55.0, -15.0, 300.0), grid_file(6, 55.5, -14.5, 300.0),
             grid_file(12, 56.0, -14.0, 300.0), grid_file(12, 56.0, -14.0, 150.0)]
    first, second = sorted(files[2:], key=lambda f: f.file_id)
    script = (
        "select cyclone-path\n"
        "  out(Params[EndTime], Params[Pressure], Params[Depth], Params[Radius])\n"
    )
    layout = StorageLayout(node_count=2, replication=1).ingest(files)
    fragments, _ = run_map(layout, "d1", validate(parse(script), registry))
    payloads = {f.file_id: f.payload for f in fragments}
    (last,), (other,) = payloads[first.file_id], payloads[second.file_id]
    assert last == other and last.structure != other.structure
    central, ambient, radius = pressure_structure(
        parse_grid_snapshot(first.data), last.lat, last.lon
    )
    center_sets = [(f.payload_time, f.file_id, f.payload)
                   for f in sorted(fragments, key=lambda f: (f.t0, f.file_id))]
    objects = plugin.combine_paths(center_sets)
    assert len(objects) == 2
    for obj in objects:
        assert obj.provenance[-1] == first.file_id
        params = obj.params
        assert (params["Pressure"], params["Depth"], params["Radius"]) == (
            central, ambient - central, radius
        )
    request = TaskRequest("d1", script, EngineConfig(2, 1))
    assert submit(request, registry, layout).canonical_text() == EQUAL_CENTER_TEXT
    # and on a saved store, extracting and then from its map index
    layout.save(tmp_path)
    for files_read in (4, 0):
        doc = engine.Engine(registry, StorageLayout.load(tmp_path)).submit(request)
        assert (doc.diagnostics.files_read, doc.canonical_text()) == (files_read, EQUAL_CENTER_TEXT)


WEST, EAST = GeoBox(48, -25, 66, 0), GeoBox(48, 5, 66, 32)
TILE_SCRIPT = (
    "select cyclone-path\n  out(Params[EndTime], Params[cyclone])\n"
    "simulate\n  with BSM\n  semantic_association yes\n"
    "  in(startTime: EndTime - 48h)\n  out(level[440,414])\n"
    "simulate\n  with NODEPKG\n  semantic_association yes\n  out(surge)\n"
)


def tile(area, lat, lon, bearing):
    """Three days of snapshots over ``area``, with one listed cyclone alive
    from 06h of the first day to 00h of the third."""
    cyclone = PlantedCyclone(utc(2011, 1, 1, 6), utc(2011, 1, 3), lat, lon, bearing,
                             speed_kmh=20.0, depth_hpa=30.0, sigma_km=300.0)
    spec = SyntheticSpec("d1", area, utc(2011, 1, 1), utc(2011, 1, 3, 18), cyclones=(cyclone,))
    return generate_synthetic(spec)[0]


def results(doc):
    """A document's objects and simulations: ids, parameters, outputs and provenance."""
    objects = {o.object_id: o.requested_params for o in doc.objects}
    sims = {(s.object_id, s.package): (s.status, s.outputs, s.provenance) for s in doc.simulations}
    return objects, sims


@pytest.mark.parametrize("nodes", [1, 2, 4, 8])
def test_tiles_of_one_instant_each_parametrize_their_own_paths(registry, tmp_path, nodes):
    # two tiles over the same instants, one cyclone in each, ingested as one
    # dataset: each path is parametrized from its own tile's grid, in memory
    # and through a saved store, and the document is the union of the tiles
    # submitted alone; an ON_NODE run is placed on its final file's node
    descriptor = PackageDescriptor(
        name="NODEPKG",
        inputs=(PackageInput("cyclone", "cyclone-params", required=True),),
        outputs=(PackageOutputDecl("surge", "float"),),
        execution_mode=ExecutionMode.BUILTIN,
        placement=Placement.ON_NODE,
    )
    registry.register_package(
        descriptor, procedure=lambda bindings: {"surge": bindings["cyclone"].central_pressure}
    )
    west, east = tile(WEST, 54.0, -18.0, 60.0), tile(EAST, 56.0, 15.0, 110.0)
    replication = min(2, nodes)
    request = TaskRequest("d1", TILE_SCRIPT, EngineConfig(nodes, replication))

    def layout_of(files):
        return StorageLayout(node_count=nodes, replication=replication).ingest(files)

    union = {}, {}
    for files in (west, east):
        objects, sims = results(submit(request, registry, layout_of(files)))
        assert len(objects) == 1 and len(sims) == 2
        union[0].update(objects)
        union[1].update(sims)

    both = layout_of(west + east)
    both.save(tmp_path)
    in_memory = engine.Engine(registry, both)
    runs = [in_memory, in_memory]  # cold, then warm
    runs += [engine.Engine(registry, StorageLayout.load(tmp_path)) for _ in ("miss", "hit")]
    for run in runs:
        doc = run.submit(request)
        assert results(doc) == union
        for sim in doc.simulations:
            if sim.package == "NODEPKG":
                assert sim.node == run.layout.serving_node(sim.provenance[-1])
    assert doc.diagnostics.files_read == 0  # the second load's submit hit the index


@pytest.mark.parametrize("module", [engine, plugin], ids=["engine", "plugin"])
def test_no_module_level_cache(module):
    # derived results live in the layout's memo; upper-case names are
    # constant tables (the gauges the plugin imports)
    mutable = (dict, list, set, bytearray, type(threading.Lock()))
    state = [
        name
        for name, value in vars(module).items()
        if not (name.startswith("__") or name.isupper()) and isinstance(value, mutable)
    ]
    assert state == []


def test_submit_refuses_another_replication_on_failed_nodes(registry):
    # the shape of a layout is its node count and its replication: a submit
    # at the same node count but another replication reshapes, so a failed
    # node is refused rather than silently run at the stored replication
    layout, _ = synthetic_layout(seed=10, count=1, north_east=1, end=(2011, 1, 10, 18))
    layout.fail_node(0)
    with pytest.raises(StorageError, match=r"nodes \[0\] of 4 are failed"):
        submit(fig5_request(node_count=4, replication=1), registry, layout)


def test_submit_reshapes_to_the_requested_replication(registry, monkeypatch):
    layout, _ = synthetic_layout(seed=10, count=1, north_east=1, end=(2011, 1, 10, 18))
    reshaped = StorageLayout.reshaped
    shapes = []

    def spy(self, node_count, replication=None):
        shapes.append((node_count, replication))
        return reshaped(self, node_count, replication)

    monkeypatch.setattr(StorageLayout, "reshaped", spy)
    submit(fig5_request(node_count=4, replication=2), registry, layout)
    assert shapes == []
    submit(fig5_request(node_count=4, replication=3), registry, layout)
    assert shapes == [(4, 3)]


def test_perfbench_spans_see_the_map_stage():
    # perfbench/spans.py times a submit from outside: it wraps the names
    # dslake.engine looks up and derives the map stage from the gap between
    # dataset_files and run_reduce. A child interpreter runs it on one
    # small traced submit, so a refactor that moves those names fails here.
    import json
    import os
    import subprocess
    import sys
    import textwrap

    import dslake

    probe = textwrap.dedent(f"""\
        import json, spans
        tracer = spans.Tracer()
        tracer.install()
        from datetime import datetime, timezone
        from dslake.cyclone.plugin import register_cyclone_domain
        from dslake.cyclone.synthetic import SyntheticSpec, generate_synthetic
        from dslake.engine import Engine, EngineConfig, TaskRequest
        from dslake.lang.ast import GeoBox
        from dslake.registry import KnowledgeRegistry
        from dslake.storage import StorageLayout

        def utc(*args):
            return datetime(*args, tzinfo=timezone.utc)

        area = GeoBox(*{dataclasses.astuple(FIG5_AREA)!r})
        spec = SyntheticSpec("d1", area, utc(2011, 1, 1), utc(2011, 1, 3, 18),
                             random_count=1, random_north_east=1)
        files, _ = generate_synthetic(spec, seed=3)
        layout = StorageLayout(node_count=4, replication=2).ingest(files)
        registry = register_cyclone_domain(KnowledgeRegistry())
        tracer.wrap_registry(registry)
        request = TaskRequest("d1", {FIG5_SCRIPT!r}, EngineConfig(4, 2))
        tracer.request("cold", Engine(registry, layout).submit, request)
        staged = spans.with_map_stage(tracer.spans)
        (stage,) = [s for s in staged if s[spans.NAME] == "engine.map"]
        under = [s[spans.NAME] for s in staged if s[spans.PARENT] == stage[spans.ID]]
        metrics = spans.request_metrics(tracer.spans)
        print(json.dumps({{
            "files": len(files),
            "under": sorted(set(under)),
            "extracts": under.count("proc.cyclone.extract_centers"),
            "reads": under.count("storage.read"),
            "calls": metrics["engine.extractor_calls"],
            "wall_ms": metrics["engine.map_wall_ms"],
        }}))
    """)
    src = Path(dslake.__file__).parent.parent
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(perfbench)])}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["under"] == ["proc.cyclone.extract_centers", "storage.read"]
    assert found["extracts"] == found["reads"] == found["calls"] == found["files"] == 12
    assert found["wall_ms"] > 0


def _four_decimals(value):
    if isinstance(value, IndexedSeries):
        return {index: _four_decimals(series) for index, series in value.by_index.items()}
    return [(ts, f"{level:.4f}") for ts, level in value]


@pytest.mark.parametrize("output", ["level", "level[440,414]"])
def test_builtin_and_external_bsm_give_equal_outputs(registry, output):
    # an external package's indexed lines are read into the IndexedSeries
    # the builtin returns, so an un-indexed request works in both modes
    registry.register_package(bsm_external_descriptor(name="BSM-X"))
    layout, _ = synthetic_layout(seed=3, count=2, north_east=1, end=(2011, 2, 28, 18))
    outputs = {}
    for package in ("BSM", "BSM-X"):
        script = FIG5_SCRIPT.replace("with BSM", f"with {package}").replace(
            "out(level[440,414])", f"out({output})"
        )
        request = TaskRequest(dataset="d1", script=script, engine_config=EngineConfig(4, 2))
        sims = submit(request, registry, layout).simulations
        assert sims and all(sim.status == "ok" for sim in sims)
        outputs[package] = [
            {name: _four_decimals(value) for name, value in sim.outputs.items()} for sim in sims
        ]
    assert outputs["BSM"] == outputs["BSM-X"]
