import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from dslake.cli import _build_parser, _resolve_config, main
from dslake.errors import ConfigError

from conftest import FIG5_SCRIPT, REFUSED_SCRIPTS, STATION_KD, key_value_texts
from test_storage import replica

SPEC_TEXT = """\
dataset d1
area 48.3416 -24.7851 66.1605 32.8710
time 2011-01-01T00:00Z 2011-02-28T18:00Z
step 6
spacing 0.5
random-cyclones count=2 northeast=1
"""


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DSLAKE_STORAGE_ROOT", raising=False)
    monkeypatch.delenv("DSLAKE_NODES", raising=False)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_prints_canonical_script(workdir, capsys):
    script = workdir / "fig5.dq"
    script.write_text(FIG5_SCRIPT)
    code, out, err = run(capsys, "validate", str(script))
    assert code == 0
    assert out.startswith("area 48.3416,-24.7851 - 66.1605,")
    assert "select cyclon-path" in out
    # validate is a pure front-end path: no storage root appears
    assert not (workdir / "dslake-storage").exists()


def test_validate_unknown_object_exit_one(workdir, capsys):
    script = workdir / "bad.dq"
    script.write_text("select martian-storm")
    code, out, err = run(capsys, "validate", str(script))
    assert code == 1
    assert "martian-storm" in err
    assert out == ""


@pytest.mark.parametrize("name", REFUSED_SCRIPTS)
def test_validate_refuses_what_the_engine_cannot_run(workdir, capsys, name):
    (workdir / "stations.kd").write_text(STATION_KD)
    script = workdir / "bad.dq"
    script.write_text(REFUSED_SCRIPTS[name])
    code, out, err = run(capsys, "--registry", "stations.kd", "validate", str(script))
    assert code == 1
    assert err.startswith("error: ValidationError:")
    assert out == ""


def test_missing_script_exit_two(workdir, capsys):
    code, out, err = run(capsys, "submit", "--dataset", "d1", "missing.dq")
    assert code == 2
    assert "missing.dq" in err


@pytest.mark.parametrize(
    "relpath, argv",
    [
        ("sub", ["ingest", "m.tsv"]),
        ("", ["ingest", "m.tsv"]),
        (None, ["ingest", "sub"]),
        (None, ["validate", "sub"]),
        (None, ["gen-synthetic", "sub"]),
        (None, ["--config", "sub", "registry", "list"]),
        (None, ["--registry", "sub", "registry", "list"]),
    ],
    ids=["manifest-path", "manifest-empty-path", "manifest", "script", "spec", "config",
         "registry"],
)
def test_directory_for_a_file_exit_two(workdir, capsys, relpath, argv):
    (workdir / "sub").mkdir()
    if relpath is not None:
        times = "2011-01-01T00:00Z\t2011-01-01T00:00Z"
        (workdir / "m.tsv").write_text(f"abc\td1\t{times}\t{relpath}\n")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Is a directory" in err


def test_usage_error_exit_two(workdir, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["submit"])  # --dataset is required
    assert exit_info.value.code == 2


def test_submit_empty_dataset_zero_objects(workdir, capsys):
    # a dataset the store does not list is empty: zero objects
    run(capsys, "ingest", str(_generated(capsys, workdir, "d1", 9)))
    script = workdir / "fig5.dq"
    script.write_text(FIG5_SCRIPT)
    code, out, err = run(capsys, "submit", "--dataset", "d2", str(script))
    assert (code, err) == (0, "")
    assert "OBJECTS\nSIMULATIONS" in out


def test_submit_without_a_store_exit_one(workdir, capsys):
    # a mistyped root is not an empty store: refused, and nothing is written
    script = workdir / "fig5.dq"
    script.write_text(FIG5_SCRIPT)
    code, out, err = run(capsys, "--storage-root", "nostore", "submit", "--dataset", "d1",
                         str(script))
    assert (code, out, err) == (1, "", "error: no fabric at nostore\n")
    assert sorted(workdir.iterdir()) == [script]


@pytest.mark.parametrize(
    "conf, manifest, message",
    [
        ("replication=2\n", "", "fabric.conf:2: missing key 'node_count'"),
        ("node_count=2\nreplication=2\n", "abc\td\n",
         "datasets/d1/manifest.tsv:1: expected 5 tab-separated columns, found 2"),
    ],
    ids=["fabric", "manifest"],
)
def test_submit_on_malformed_storage_exit_one(workdir, capsys, conf, manifest, message):
    root = workdir / "dslake-storage"
    (root / "datasets" / "d1").mkdir(parents=True)
    (root / "fabric.conf").write_text(conf)
    (root / "datasets" / "d1" / "manifest.tsv").write_text(manifest)
    script = workdir / "fig5.dq"
    script.write_text(FIG5_SCRIPT)
    code, out, err = run(capsys, "submit", "--dataset", "d1", str(script))
    assert (code, out) == (1, "")
    assert err == f"error: dslake-storage/{message}\n"


def test_submit_on_manifest_that_is_not_utf8_exit_one(workdir, capsys):
    root = workdir / "dslake-storage"
    (root / "datasets" / "d1").mkdir(parents=True)
    (root / "fabric.conf").write_text("node_count=2\nreplication=2\n")
    (root / "datasets" / "d1" / "manifest.tsv").write_bytes(b"\xff\xfeabc\n")
    script = workdir / "fig5.dq"
    script.write_text(FIG5_SCRIPT)
    code, out, err = run(capsys, "submit", "--dataset", "d1", str(script))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.rstrip().endswith("manifest.tsv:1: not UTF-8 text")


@pytest.mark.parametrize("verb", ["validate", "submit"])
def test_script_that_is_not_utf8_exit_one(workdir, capsys, verb):
    script = workdir / "fig5.dq"
    script.write_bytes(FIG5_SCRIPT.encode() + b"\n  \xe9\n")
    extra = ["--dataset", "d1"] if verb == "submit" else []
    code, out, err = run(capsys, verb, *extra, str(script))
    line = FIG5_SCRIPT.count("\n") + 2
    assert (code, out) == (1, "")
    assert err == f"error: {line}:3: expected UTF-8 text, found byte 0xe9 in {script}\n"


@pytest.mark.parametrize(
    "spec_bytes, message",
    [
        (SPEC_TEXT.encode().replace(b"dataset d1", b"dataset d\xff"), "spec.txt:1: not UTF-8 text"),
        (SPEC_TEXT.encode() + b"cyclone lat\n", "line 7: expected key=value, found 'lat'"),
    ],
    ids=["not-utf8", "field-without-equals"],
)
def test_gen_synthetic_malformed_spec_exit_one(workdir, capsys, spec_bytes, message):
    spec = workdir / "spec.txt"
    spec.write_bytes(spec_bytes)
    code, out, err = run(capsys, "gen-synthetic", str(spec), "--out", "src-data")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err
    assert not (workdir / "src-data").exists()


def test_full_pipeline_and_determinism(workdir, capsys):
    spec = workdir / "spec.txt"
    spec.write_text(SPEC_TEXT)
    code, out, _ = run(capsys, "gen-synthetic", str(spec), "--seed", "11", "--out", "src-data")
    assert code == 0
    manifest = Path(out.strip())
    assert manifest.exists()
    assert (manifest.parent / "groundtruth.txt").read_text().startswith("GROUND-TRUTH")

    code, _, err = run(capsys, "ingest", str(manifest))
    assert code == 0
    assert "ingested" in err

    script = workdir / "fig5.dq"
    script.write_text(FIG5_SCRIPT)
    code, first, _ = run(capsys, "submit", "--dataset", "d1", str(script))
    assert code == 0
    assert first.startswith("RESULT ")
    assert "simulation" in first

    # identical invocation over the identical storage root: identical bytes
    code, second, _ = run(capsys, "submit", "--dataset", "d1", str(script))
    assert code == 0
    assert second == first

    task_id = first.split("\n", 1)[0].split()[1]
    code, stored, _ = run(capsys, "results", task_id)
    assert code == 0
    assert stored == first

    code, listing, _ = run(capsys, "registry", "list")
    assert code == 0
    assert "object cyclone-path" in listing
    assert "package BSM" in listing


def test_submit_of_a_binding_offset_past_the_datetime_range(workdir, capsys):
    spec = workdir / "spec.txt"
    spec.write_text(SPEC_TEXT)
    code, out, _ = run(capsys, "gen-synthetic", str(spec), "--seed", "11", "--out", "src-data")
    assert run(capsys, "ingest", out.strip())[0] == 0
    script = workdir / "far.dq"
    # a literal no timedelta holds: a parse error at the literal
    script.write_text(FIG5_SCRIPT.replace("EndTime - 48h", "EndTime + 99999999999999999999h"))
    code, out, err = run(capsys, "submit", "--dataset", "d1", str(script))
    assert (code, out) == (1, "")
    assert err == (
        "error: 11:27: expected a duration of at most 23999999999h,"
        " found '99999999999999999999h'\n"
    )
    # an offset past the year 9999: a failed simulation
    script.write_text(FIG5_SCRIPT.replace("EndTime - 48h", "EndTime + 99999999h"))
    code, out, err = run(capsys, "submit", "--dataset", "d1", str(script))
    assert (code, err) == (0, "")
    assert "+ 99999999h leaves the years 1 to 9999\n" in out


def test_ingest_of_an_unstorable_file_id_exit_one(workdir, capsys):
    # the id would put the replica outside node-<k>/: refused
    # before anything is written, and the store stays loadable
    spec = workdir / "spec.txt"
    spec.write_text(SPEC_TEXT)
    _, out, _ = run(capsys, "gen-synthetic", str(spec), "--seed", "3", "--out", "src-data")
    manifest = Path(out.strip())
    code, _, _ = run(capsys, "ingest", str(manifest))
    assert code == 0
    _, *rest = manifest.read_text().splitlines()[0].split("\t")
    bad = workdir / "bad.tsv"
    bad.write_text("\t".join(["../../../escaped", *rest[:3], str(manifest.parent / rest[3])]))
    before = {p: p.read_bytes() for p in workdir.rglob("*") if p.is_file()}
    code, out, err = run(capsys, "ingest", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith("error: file '../../../escaped' of dataset 'd1': ")
    assert {p: p.read_bytes() for p in workdir.rglob("*") if p.is_file()} == before
    assert not (workdir / "escaped.snap").exists()
    script = workdir / "fig5.dq"
    script.write_text(FIG5_SCRIPT)
    code, out, _ = run(capsys, "submit", "--dataset", "d1", str(script))
    assert code == 0 and out.startswith("RESULT ")


def test_ingest_of_a_manifest_line_with_t0_after_t1_exit_one(workdir, capsys):
    (workdir / "abc.snap").write_bytes(b"")
    (workdir / "m.tsv").write_text("abc\td1\t2011-01-02T00:00Z\t2011-01-01T00:00Z\tabc.snap\n")
    code, out, err = run(capsys, "ingest", "m.tsv")
    assert (code, out) == (1, "")
    assert err == "error: m.tsv:1: t0 2011-01-02T00:00Z is after t1 2011-01-01T00:00Z\n"
    assert not (workdir / "dslake-storage").exists()


def test_ingest_of_a_manifest_that_lists_a_file_twice_exit_one(workdir, capsys):
    manifest = _generated(capsys, workdir, "d1", 9)
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join([*lines, lines[2]]) + "\n")
    code, out, err = run(capsys, "ingest", str(manifest))
    assert (code, out) == (1, "")
    file_id = lines[2].split("\t", 1)[0]
    assert err == f"error: {manifest}:{len(lines) + 1}: file {file_id!r} is listed twice\n"
    assert not (workdir / "dslake-storage").exists()


def test_ingest_of_a_file_that_does_not_hash_to_its_id_exit_one(workdir, capsys):
    # stored under a wrong id, every later read of the dataset would fail
    # its digest check: refused before anything is written
    spec = workdir / "spec.txt"
    spec.write_text(SPEC_TEXT)
    _, out, _ = run(capsys, "gen-synthetic", str(spec), "--seed", "3", "--out", "src-data")
    manifest = Path(out.strip())
    _, *rest = manifest.read_text().splitlines()[0].split("\t")
    bad = workdir / "bad.tsv"
    bad.write_text("\t".join(["deadbeef", *rest[:3], str(manifest.parent / rest[3])]))
    code, out, err = run(capsys, "ingest", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: file 'deadbeef' of dataset 'd1': {bad} names it,")
    assert not (workdir / "dslake-storage").exists()
    code, _, _ = run(capsys, "ingest", str(manifest))
    assert code == 0
    script = workdir / "fig5.dq"
    script.write_text(FIG5_SCRIPT)
    code, out, _ = run(capsys, "submit", "--dataset", "d1", str(script))
    assert code == 0 and out.startswith("RESULT ")


def test_emit_csv(workdir, capsys):
    spec = workdir / "spec.txt"
    spec.write_text(SPEC_TEXT)
    _, out, _ = run(capsys, "gen-synthetic", str(spec), "--seed", "3", "--out", "src-data")
    run(capsys, "ingest", out.strip())
    script = workdir / "fig5.dq"
    script.write_text(FIG5_SCRIPT)
    code, _, _ = run(capsys, "submit", "--dataset", "d1", str(script), "--emit-csv", "levels.csv")
    assert code == 0
    import csv

    with open(workdir / "levels.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["object_id", "package", "output", "time", "value"]
    assert len(rows) > 1
    assert rows[1][1] == "BSM"
    assert rows[1][2] == "level[440,414]"


def test_emit_csv_expands_an_unindexed_indexable_output(workdir, capsys):
    # out(level) asks for every gauge of BSM; the CSV has one row per gauge
    # and instant, like the canonical text, not the repr of the series map
    spec = workdir / "spec.txt"
    spec.write_text(SPEC_TEXT)
    _, out, _ = run(capsys, "gen-synthetic", str(spec), "--seed", "3", "--out", "src-data")
    run(capsys, "ingest", out.strip())
    import csv

    rows = {}
    for output in ("level", "level[440,414]"):
        script = workdir / "fig5.dq"
        script.write_text(FIG5_SCRIPT.replace("out(level[440,414])", f"out({output})"))
        code, text, _ = run(
            capsys, "submit", "--dataset", "d1", str(script), "--emit-csv", "levels.csv"
        )
        assert code == 0 and "output level[440,414] series 97" in text
        with open(workdir / "levels.csv", newline="") as handle:
            rows[output] = list(csv.reader(handle))
    assert len(rows["level"]) > 97
    assert rows["level"] == rows["level[440,414]"]


def test_emit_csv_renders_a_scalar_as_the_canonical_text_does(workdir, capsys):
    # a float output is four decimals in the CSV row as in the canonical text
    import csv
    import sys

    from dslake.descriptors import dump_descriptors
    from dslake.registry import ExecutionMode, PackageDescriptor, PackageInput, PackageOutputDecl

    command = workdir / "peak.py"
    command.write_text(
        "import pathlib, sys\n"
        "(pathlib.Path(sys.argv[1]) / 'outputs.tsv').write_text('peak\\t1.23456789\\n')\n"
    )
    peak = PackageDescriptor(
        name="PEAK",
        inputs=(PackageInput("startTime", "datetime", required=True),),
        outputs=(PackageOutputDecl("peak", "float"),),
        execution_mode=ExecutionMode.EXTERNAL_COMMAND,
        command_template=f"{sys.executable} {command} {{outdir}}",
    )
    kd = workdir / "peak.kd"
    kd.write_text(dump_descriptors([], [peak]))
    spec = workdir / "spec.txt"
    spec.write_text(SPEC_TEXT)
    _, out, _ = run(capsys, "gen-synthetic", str(spec), "--seed", "3", "--out", "src-data")
    run(capsys, "ingest", out.strip())
    script = workdir / "peak.dq"
    script.write_text(
        FIG5_SCRIPT.replace("with BSM", "with PEAK").replace("out(level[440,414])", "out(peak)")
    )
    code, text, err = run(
        capsys, "--registry", str(kd), "submit", "--dataset", "d1", str(script),
        "--emit-csv", "peak.csv",
    )
    assert code == 0, err
    assert "output peak 1.2346" in text
    with open(workdir / "peak.csv", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert rows and all(row[2:] == ["peak", "", "1.2346"] for row in rows)


def test_config_precedence_env_and_flags(workdir, capsys, monkeypatch):
    spec = workdir / "spec.txt"
    spec.write_text(SPEC_TEXT)
    _, out, _ = run(capsys, "gen-synthetic", str(spec), "--seed", "5", "--out", "src-data")

    (workdir / "dslake.conf").write_text("storage_root=conf-root\nnodes=3\n")
    monkeypatch.setenv("DSLAKE_STORAGE_ROOT", str(workdir / "env-root"))
    code, _, err = run(capsys, "ingest", out.strip())
    assert code == 0
    assert (workdir / "env-root").exists()  # env overrides config file
    assert not (workdir / "conf-root").exists()
    assert "3 nodes" in err  # nodes from config file still applies

    monkeypatch.delenv("DSLAKE_STORAGE_ROOT")
    code, _, err = run(
        capsys, "--storage-root", str(workdir / "flag-root"), "--nodes", "2",
        "ingest", out.strip(),
    )
    assert code == 0
    assert (workdir / "flag-root").exists()  # flag overrides everything
    assert "2 nodes" in err


def test_fail_node_does_not_change_output(workdir, capsys):
    spec = workdir / "spec.txt"
    spec.write_text(SPEC_TEXT)
    _, out, _ = run(capsys, "gen-synthetic", str(spec), "--seed", "9", "--out", "src-data")
    run(capsys, "ingest", out.strip())
    script = workdir / "fig5.dq"
    script.write_text(FIG5_SCRIPT)
    _, baseline, _ = run(capsys, "submit", "--dataset", "d1", str(script))
    # the baseline wrote the map index; without it the degraded submit reads
    # every snapshot past the failed node, and with it, the index serves
    derived = workdir / "dslake-storage" / "derived"
    assert derived.is_dir()
    shutil.rmtree(derived)
    code, degraded, _ = run(capsys, "submit", "--dataset", "d1", str(script), "--fail-node", "0")
    assert (code, degraded) == (0, baseline)
    assert derived.is_dir()
    code, indexed, _ = run(capsys, "submit", "--dataset", "d1", str(script), "--fail-node", "0")
    assert (code, indexed) == (0, baseline)


def _generated(capsys, workdir, dataset: str, seed: int, start="01-01", end="02-28") -> Path:
    """The manifest of a synthetic dataset from ``start`` to ``end`` of 2011,
    written by gen-synthetic."""
    spec = workdir / f"{dataset}.txt"
    spec.write_text(
        SPEC_TEXT.replace("dataset d1", f"dataset {dataset}")
        .replace("2011-01-01T", f"2011-{start}T")
        .replace("2011-02-28T", f"2011-{end}T")
    )
    code, out, _ = run(capsys, "gen-synthetic", str(spec), "--seed", str(seed), "--out", dataset)
    assert code == 0
    return Path(out.strip())


def _stamps(paths) -> dict:
    """Each file's inode and modification time, by path."""
    return {path: (path.stat().st_ino, path.stat().st_mtime_ns) for path in paths}


def _aged_stamps(paths) -> dict:
    """``_stamps`` of ``paths`` once each is dated far from now, so that a
    rewrite shows even within the file system's time resolution."""
    paths = list(paths)
    for path in paths:
        os.utime(path, ns=(10**18, 10**18))
    return _stamps(paths)


def _data_files(manifest: Path) -> list:
    """The files a gen-synthetic manifest lists, read from its directory."""
    from dslake.storage import DataFile, read_manifest

    return [
        DataFile(m.file_id, m.dataset, m.t0, m.t1, (manifest.parent / m.relative_path).read_bytes())
        for m in read_manifest(manifest)
    ]


def test_ingest_into_a_store_leaves_its_replicas_alone(workdir, capsys, registry):
    from dslake.engine import TaskRequest, submit
    from dslake.storage import StorageLayout

    # other months: the two datasets share no snapshot
    manifests = [_generated(capsys, workdir, "d1", 9),
                 _generated(capsys, workdir, "d2", 10, "03-01", "04-30")]
    assert run(capsys, "ingest", str(manifests[0]))[0] == 0
    before = _aged_stamps((workdir / "dslake-storage").glob(replica()))
    assert before
    assert run(capsys, "ingest", str(manifests[1]))[0] == 0
    assert _stamps(before) == before

    fresh = StorageLayout(node_count=4, replication=2).ingest(
        f for manifest in manifests for f in _data_files(manifest)
    )
    script = workdir / "fig5.dq"
    script.write_text(FIG5_SCRIPT)
    for dataset in ("d1", "d2"):
        code, out, _ = run(capsys, "submit", "--dataset", dataset, str(script))
        assert code == 0
        assert out == submit(TaskRequest(dataset, FIG5_SCRIPT), registry, fresh).canonical_text()
        assert "simulation" in out


def test_submit_of_a_file_with_no_intact_replica_exit_one(workdir, capsys):
    from dslake.storage import StorageLayout

    run(capsys, "ingest", str(_generated(capsys, workdir, "d1", 9)))
    root = workdir / "dslake-storage"
    layout = StorageLayout.load(root)
    file_id = layout.dataset_files("d1")[100].file_id
    first, second = layout.placements[file_id]
    (root / replica(file_id, first)).write_bytes(b"other bytes")
    (root / replica(file_id, second)).unlink()
    script = workdir / "fig5.dq"
    script.write_text(FIG5_SCRIPT)
    code, out, err = run(capsys, "submit", "--dataset", "d1", str(script))
    assert (code, out) == (1, "")
    assert err == (
        f"error: no intact replica of {file_id}: node {first} digest mismatch,"
        f" node {second} missing\n"
    )
    assert not (root / "results").exists()


def test_ingest_of_a_snapshot_stored_in_another_dataset_stores_it_once(workdir, capsys, registry):
    # the same months under two seeds share every all-background snapshot
    from dslake.engine import TaskRequest, submit
    from dslake.storage import StorageLayout

    manifests = [_generated(capsys, workdir, "d1", 9), _generated(capsys, workdir, "d2", 10)]
    files = [_data_files(manifest) for manifest in manifests]
    first, second = ({f.file_id for f in listed} for listed in files)
    assert first & second and second - first
    root = workdir / "dslake-storage"
    assert run(capsys, "ingest", str(manifests[0]))[:2] == (0, "")
    before = _aged_stamps(root.glob(replica()))
    assert run(capsys, "ingest", str(manifests[1]))[:2] == (0, "")
    assert _stamps(before) == before
    # each stored file once on each of the 2 nodes, whatever datasets list it
    assert len(list(root.glob(replica()))) == 2 * len(first | second)
    script = workdir / "fig5.dq"
    script.write_text(FIG5_SCRIPT)
    for manifest, listed in zip(manifests, files):
        alone = StorageLayout(node_count=4, replication=2).ingest(listed)
        dataset = manifest.parent.name
        code, out, _ = run(capsys, "submit", "--dataset", dataset, str(script))
        assert code == 0
        assert out == submit(TaskRequest(dataset, FIG5_SCRIPT), registry, alone).canonical_text()


def test_fail_node_outside_the_fabric_exit_one(workdir, capsys):
    run(capsys, "ingest", str(_generated(capsys, workdir, "d1", 9)))
    script = workdir / "fig5.dq"
    script.write_text(FIG5_SCRIPT)
    code, out, err = run(capsys, "submit", "--dataset", "d1", str(script), "--fail-node", "9")
    assert (code, out) == (1, "")
    assert err == "error: node 9 is not a node of this 2-node fabric (0-1)\n"


def test_fail_node_with_other_node_count_exit_one(workdir, capsys):
    # a failed node is a node of the stored fabric, so a submit that
    # reshapes the store must refuse it rather than serve every replica
    spec = workdir / "spec.txt"
    spec.write_text(SPEC_TEXT)
    _, out, _ = run(capsys, "gen-synthetic", str(spec), "--seed", "9", "--out", "src-data")
    run(capsys, "--nodes", "8", "ingest", out.strip())
    script = workdir / "fig5.dq"
    script.write_text(FIG5_SCRIPT)
    code, out, err = run(
        capsys, "--nodes", "4", "submit", "--dataset", "d1", str(script), "--fail-node", "0"
    )
    assert (code, out) == (1, "")
    assert err == "error: nodes [0] of 8 are failed; cannot reshape to 4 nodes\n"


def test_submit_defaults_to_the_stored_fabric_shape(workdir, capsys):
    # without --nodes a submit runs at the stored node count, and without
    # --replication at the stored replication capped by the node count
    spec = workdir / "spec.txt"
    spec.write_text(SPEC_TEXT)
    _, out, _ = run(capsys, "gen-synthetic", str(spec), "--seed", "9", "--out", "src-data")
    run(capsys, "--nodes", "8", "ingest", out.strip())
    script = workdir / "fig5.dq"
    script.write_text(FIG5_SCRIPT)
    submit = ["submit", "--dataset", "d1", str(script)]
    code, reference, _ = run(capsys, "--nodes", "8", *submit)
    assert code == 0 and reference.startswith("RESULT ")
    for argv in ([*submit, "--fail-node", "0"], ["--nodes", "1", *submit]):
        shutil.rmtree(workdir / "dslake-storage" / "derived")  # each submit reads its files
        code, out, err = run(capsys, *argv)
        assert (code, out) == (0, reference), err


@pytest.mark.parametrize(
    "kd_bytes, message",
    [
        (b"[package P]\ninput x duration optional 9x\noutput y float\n",
         "package P: input 'x' has a malformed duration default '9x'"),
        (b"[package P]\n# \xff\n", "bad.kd:2: not UTF-8 text"),
        (b"[package Ghost]\nmode builtin\nprocedure nope.missing\n",
         "package Ghost: procedure 'nope.missing' not registered"),
        (b"[library L]\nobject x atomic\ncombiner ghost cyclone.combine_paths\n",
         "bad.kd:3: combiner names object 'ghost', not declared in this library"),
    ],
    ids=["malformed-default", "not-utf8", "builtin-procedure-missing", "undeclared-type"],
)
@pytest.mark.parametrize("verb", ["registry", "submit"])
def test_malformed_descriptor_file_exit_one(workdir, capsys, kd_bytes, message, verb):
    kd = workdir / "bad.kd"
    kd.write_bytes(kd_bytes)
    script = workdir / "fig5.dq"
    script.write_text(FIG5_SCRIPT)
    argv = ["list"] if verb == "registry" else ["--dataset", "d1", str(script)]
    code, out, err = run(capsys, "--registry", str(kd), verb, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.rstrip().endswith(message)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "conf, env, argv, message",
    [
        (b"nodes=2\n\xff\n", {}, [], "dslake.conf:2: not UTF-8 text"),
        (b"# fabric\nnodes = x\n", {}, [], "dslake.conf:2: nodes is not an integer: 'x'"),
        (None, {"DSLAKE_REPLICATION": "two"}, [],
         "environment variable DSLAKE_REPLICATION: replication is not an integer: 'two'"),
        (None, {}, ["--nodes", "4.5"], "flag --nodes: nodes is not an integer: '4.5'"),
        (b"seed=1\n", {"DSLAKE_SEED": "-"}, [],
         "environment variable DSLAKE_SEED: seed is not an integer: '-'"),
        (b"# fabric\nnodes 4\n", {}, [], "dslake.conf:2: expected key=value, found 'nodes 4'"),
        (b"node=3\n", {}, [], "dslake.conf:1: unknown key 'node';"
         " keys are storage_root, nodes, replication, seed, registry"),
        (b"nodes=2\nrepliction = 1  # typo\n", {}, [],
         "dslake.conf:2: unknown key 'repliction';"
         " keys are storage_root, nodes, replication, seed, registry"),
        (b"nodes=2\n# again\nnodes = 3\n", {}, [], "dslake.conf:3: key 'nodes' given twice"),
    ],
    ids=["not-utf8", "file-line", "env", "flag", "env-over-file",
         "no-equals", "unknown-key", "misspelt-key", "repeated-key"],
)
def test_malformed_config_value_exit_one(workdir, capsys, monkeypatch, conf, env, argv, message):
    if conf is not None:
        (workdir / "dslake.conf").write_bytes(conf)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = run(capsys, *argv, "registry", "list")
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("source", ["flag", "environment", "config", "fabric"])
def test_a_node_count_past_the_bound_exit_one(workdir, capsys, monkeypatch, source):
    # however the node count is given, one past the bound is refused with
    # one error line, before any placement at that count
    import dslake.storage as storage

    place_all = storage.place_all

    def bounded(file_ids, node_count, replication):
        assert node_count <= storage.MAX_NODES, f"placed at {node_count} nodes"
        return place_all(file_ids, node_count, replication)

    monkeypatch.setattr(storage, "place_all", bounded)
    run(capsys, "ingest", str(_generated(capsys, workdir, "d1", 9)))
    script = workdir / "fig5.dq"
    script.write_text(FIG5_SCRIPT)
    huge, argv = "100000000000000000000", []
    if source == "flag":
        argv = ["--nodes", huge]
    elif source == "environment":
        monkeypatch.setenv("DSLAKE_NODES", huge)
    elif source == "config":
        (workdir / "dslake.conf").write_text(f"nodes={huge}\n")
    else:
        (workdir / "dslake-storage" / "fabric.conf").write_text(
            f"node_count={huge}\nreplication=2\n"
        )
    code, out, err = run(capsys, *argv, "submit", "--dataset", "d1", str(script))
    assert (code, out) == (1, "")
    assert err == f"error: node count {huge} not in [1, {storage.MAX_NODES}]\n"


def test_submit_and_results_are_utf8_whatever_the_locale(workdir, capsys):
    # under the C locale, with UTF-8 mode off, the locale's encoding is
    # ASCII; the stored result and the CSV are UTF-8 all the same, so a
    # failure reason or a string output beyond ASCII neither breaks submit
    # nor reads back otherwise
    import csv
    import subprocess
    import sys

    import dslake
    from dslake.descriptors import dump_descriptors
    from dslake.registry import ExecutionMode, PackageDescriptor, PackageInput, PackageOutputDecl

    command = workdir / "uber.py"
    command.write_text(
        "import pathlib, sys\n"
        "if sys.argv[1] == 'fail':\n"
        "    sys.stderr.buffer.write('Überlauf\\n'.encode())\n"
        "    sys.exit(3)\n"
        "(pathlib.Path(sys.argv[2]) / 'outputs.tsv').write_bytes('note\\tÜberlauf\\n'.encode())\n",
        encoding="utf-8",
    )
    packages = [
        PackageDescriptor(
            name=name,
            inputs=(PackageInput("startTime", "datetime", required=True),),
            outputs=(PackageOutputDecl("note", "string"),),
            execution_mode=ExecutionMode.EXTERNAL_COMMAND,
            command_template=f"{sys.executable} {command} {mode} {{outdir}}",
        )
        for name, mode in (("FAILS", "fail"), ("NOTES", "note"))
    ]
    (workdir / "uber.kd").write_text(dump_descriptors([], packages))
    run(capsys, "ingest", str(_generated(capsys, workdir, "d1", 3)))
    select, simulate = FIG5_SCRIPT.split("simulate")
    simulate = "simulate" + simulate.replace("out(level[440,414])", "out(note)")
    script = workdir / "uber.dq"
    script.write_text(select + simulate.replace("BSM", "FAILS") + simulate.replace("BSM", "NOTES"))
    env = {**os.environ, "LC_ALL": "C", "PYTHONIOENCODING": "utf-8",
           "PYTHONPATH": str(Path(dslake.__file__).parent.parent)}
    env.pop("PYTHONUTF8", None)

    def dslake_cli(*argv):
        return subprocess.run([sys.executable, "-X", "utf8=0", "-m", "dslake", *argv],
                              cwd=workdir, env=env, capture_output=True, timeout=120)

    submitted = dslake_cli("--registry", "uber.kd", "submit", "--dataset", "d1", "uber.dq",
                           "--emit-csv", "notes.csv")
    assert submitted.returncode == 0, submitted.stderr.decode(errors="replace")
    text = submitted.stdout.decode()
    assert "  status failed FAILS exited 3: Überlauf\n" in text
    # a failed run keeps its scratch directory and names it on stderr
    kept = _kept_scratch(submitted.stderr.decode())
    assert kept
    for scratch in kept:
        shutil.rmtree(scratch)
    task_id = text.split("\n", 1)[0].removeprefix("RESULT ")
    stored = dslake_cli("results", task_id)
    assert (stored.returncode, stored.stdout) == (0, submitted.stdout)
    with open(workdir / "notes.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert rows and all(row[1:] == ["NOTES", "note", "", "Überlauf"] for row in rows)


def _kept_scratch(stderr: str) -> list[Path]:
    """The scratch directories a submit's stderr names, one line each."""
    lines = stderr.splitlines()
    assert all(": scratch kept at " in line for line in lines)
    return [Path(line.partition(": scratch kept at ")[2]) for line in lines]


def test_identical_submits_whose_package_fails_print_identical_bytes(workdir, capsys):
    # each failed run keeps a scratch directory of its own and names it on
    # stderr, out of the canonical text, which is the same for every submit
    from dslake.descriptors import dump_descriptors
    from dslake.registry import ExecutionMode, PackageDescriptor, PackageInput, PackageOutputDecl

    package = PackageDescriptor(
        name="FAILS",
        inputs=(PackageInput("startTime", "datetime", required=True),),
        outputs=(PackageOutputDecl("note", "string"),),
        execution_mode=ExecutionMode.EXTERNAL_COMMAND,
        command_template="sh -c 'echo overflow >&2; exit 3' {outdir}",
    )
    (workdir / "fails.kd").write_text(dump_descriptors([], [package]))
    run(capsys, "ingest", str(_generated(capsys, workdir, "d1", 3)))
    select, simulate = FIG5_SCRIPT.split("simulate")
    simulate = "simulate" + simulate.replace("BSM", "FAILS").replace("level[440,414]", "note")
    (workdir / "fails.dq").write_text(select + simulate)
    documents, kept = set(), []
    for _ in range(2):
        code, out, err = run(capsys, "--registry", "fails.kd", "submit", "--dataset", "d1",
                             "fails.dq")
        assert code == 0
        task_id = out.split("\n", 1)[0].removeprefix("RESULT ")
        stored = workdir / "dslake-storage" / "results" / f"{task_id}.txt"
        documents.add((out, stored.read_text(encoding="utf-8")))
        kept.append(_kept_scratch(err))
        assert len(kept[-1]) == out.count("  status failed FAILS exited 3: overflow\n") > 0
    (out, stored), = documents
    assert out == stored
    assert set(kept[0]).isdisjoint(kept[1])
    for scratch in kept[0] + kept[1]:
        assert scratch.is_dir()
        shutil.rmtree(scratch)


def test_results_that_are_not_utf8_exit_one(workdir, capsys):
    results = workdir / "dslake-storage" / "results"
    results.mkdir(parents=True)
    (results / "0123456789abcdef.txt").write_bytes(b"RESULT 0123456789abcdef\n\xfe\n")
    code, out, err = run(capsys, "results", "0123456789abcdef")
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert err.rstrip().endswith("0123456789abcdef.txt:2: not UTF-8 text")


@pytest.mark.parametrize(
    "task_id", ["../zz", "../results/0123456789abcdef", "0123456789ABCDEF", "0123456789abcde",
                "0123456789abcdef0", "", "0123456789abcde\n"],
)
def test_results_of_a_task_id_submit_cannot_print_exit_two(workdir, capsys, task_id):
    # a task id is 16 lowercase hex digits: no other name reaches a file,
    # inside results/ or out of it
    root = workdir / "dslake-storage"
    (root / "results").mkdir(parents=True)
    for name in ("zz.txt", "results/0123456789abcdef.txt", "results/0123456789ABCDEF.txt"):
        (root / name).write_text("RESULT stored\n")
    code, out, err = run(capsys, "results", task_id)
    assert (code, out) == (2, "")
    assert err == f"error: task id {task_id!r} is not 16 lowercase hex digits\n"


def test_registry_list_is_descriptor_text(workdir, capsys):
    # the listing is the registry's libraries and packages as .kd text, in
    # name order, so it loads back as exactly them
    from dslake.cyclone.plugin import bsm_descriptor, bsm_external_descriptor, library_descriptor
    from dslake.descriptors import dump_descriptors, load_descriptors

    external = bsm_external_descriptor(name="A-BSM")
    kd = workdir / "extra.kd"
    kd.write_text(dump_descriptors([], [external]))
    code, listing, err = run(capsys, "--registry", str(kd), "registry", "list")
    assert (code, err) == (0, "")
    assert load_descriptors(listing) == ([library_descriptor()], [external, bsm_descriptor()])


@settings(max_examples=100, deadline=None)
@given(key_value_texts(
    "storage_root=store\nnodes=3\n",
    ["storage_root", "nodes", "replication", "seed", "registry"],
    ["2", "-1", "x", "store", "a.kd,b.kd"],
    "=",
))
def test_any_dslake_conf_gives_a_config_or_a_config_error(text):
    with tempfile.TemporaryDirectory() as scratch:
        conf = Path(scratch, "dslake.conf")
        conf.write_text(text, encoding="utf-8")
        try:
            _resolve_config(_build_parser().parse_args(["--config", str(conf), "registry", "list"]))
        except ConfigError:
            pass
