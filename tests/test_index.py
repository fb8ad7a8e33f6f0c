"""The map index: a loaded store's map records persisted under ``derived/``
and read back by the submit that opens the extractor set's memo namespace."""

import builtins
import functools
import hashlib
import io
import os
import shutil
from collections import Counter
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dslake import engine
from dslake.engine import Engine, EngineConfig, TaskRequest, submit
from dslake.errors import DslakeError
from dslake.registry import KnowledgeRegistry
from dslake.storage import StorageLayout
from dslake.cyclone.detect import CycloneCenter
from dslake.cyclone.grid import render_body
from dslake.cyclone.plugin import (
    bsm_builtin,
    bsm_descriptor,
    combine_paths,
    extract_centers,
    filter_direction,
    library_descriptor,
    read_centers,
    register_cyclone_domain,
    write_centers,
)
from dslake.cyclone.synthetic import SyntheticSpec, generate_synthetic

from conftest import FIG5_AREA, FIG5_SCRIPT, utc
from test_storage import replica

TIME_CLAUSE = "time 01.01.2011 - 31.12.2011\n"
AREA_CLAUSE = "area 48.3416,-24.7851 - 66.1605,32.8710\n"
SCRIPTS = {
    "fig5": FIG5_SCRIPT,
    "all-paths": FIG5_SCRIPT.replace("         directon north-east\n", ""),
    "area": FIG5_SCRIPT.replace(AREA_CLAUSE, "area 52.0,-15.0 - 66.1605,32.8710\n"),
    "time": FIG5_SCRIPT.replace(TIME_CLAUSE, "time 15.01.2011 - 20.02.2011\n"),
    "neither": FIG5_SCRIPT.replace(AREA_CLAUSE, "").replace(TIME_CLAUSE, ""),
}


def two_months(seed, dataset="d1", start=(2011, 1, 1), end=(2011, 2, 28, 18)):
    spec = SyntheticSpec(dataset, FIG5_AREA, utc(*start), utc(*end),
                         random_count=2, random_north_east=1)
    return generate_synthetic(spec, seed=seed)[0]


def saved_store(root, seed, node_count=4):
    """Save a two-month dataset ``d1`` at ``root``; its files."""
    files = two_months(seed)
    StorageLayout(node_count=node_count, replication=2).ingest(files).save(root)
    return files


def cold(root, registry, script=FIG5_SCRIPT, nodes=4, failed=(), dataset="d1"):
    """A submit of a new engine on the store at ``root``, as a new process makes it."""
    layout = StorageLayout.load(root)
    for node in failed:
        layout.fail_node(node)
    request = TaskRequest(dataset, script, EngineConfig(nodes, min(2, nodes)))
    return Engine(registry, layout).submit(request)


def index_path(root, kind="map"):
    (path,) = (root / "derived").glob(f"{kind}-*")
    return path


@pytest.mark.parametrize("seed", [3, 12, 21])
def test_an_index_hit_gives_the_bytes_of_a_miss(tmp_path, registry, seed):
    files = saved_store(tmp_path, seed, node_count=8)
    in_memory = StorageLayout(node_count=8, replication=2).ingest(files)
    for name, script in SCRIPTS.items():
        shutil.rmtree(tmp_path / "derived", ignore_errors=True)
        miss = cold(tmp_path, registry, script, nodes=8)
        assert miss.diagnostics.files_read == len(files), name
        expected = miss.canonical_text()
        request = TaskRequest("d1", script, EngineConfig(8, 2))
        assert submit(request, registry, in_memory).canonical_text() == expected
        for nodes, failed in ((1, ()), (2, ()), (4, ()), (8, ()), (8, (3,))):
            hit = cold(tmp_path, registry, script, nodes, failed)
            assert hit.diagnostics.files_read == 0, (name, nodes, failed)
            assert hit.canonical_text() == expected, (name, nodes, failed)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A saved store, its file count, the Fig. 5 bytes over it, and the path
    and bytes of the index its first submit wrote."""
    root = tmp_path_factory.mktemp("store")
    count = len(saved_store(root, 5))
    registry = register_cyclone_domain(KnowledgeRegistry())
    expected = cold(root, registry).canonical_text()
    assert "simulation" in expected
    path = index_path(root)
    return root, count, expected, path, path.read_bytes()


def assert_ignored_and_rewritten(store, damaged: bytes):
    """With ``damaged`` as its index, a submit reads every file and gives
    the store's bytes, and leaves the valid index, which the next one reads."""
    root, count, expected, path, valid = store
    path.write_bytes(damaged)
    registry = register_cyclone_domain(KnowledgeRegistry())
    doc = cold(root, registry)
    assert (doc.diagnostics.files_read, doc.canonical_text()) == (count, expected)
    assert path.read_bytes() == valid
    doc = cold(root, registry)
    assert (doc.diagnostics.files_read, doc.canonical_text()) == (0, expected)


def _header_and_body(valid: bytes):
    header, _, body = valid.partition(b"\n")
    return header.split(b" "), body


def test_an_index_under_another_stamp_is_ignored(store):
    (magic, stamp, digest), body = _header_and_body(store[-1])
    other = bytes(reversed(stamp))
    assert other != stamp
    assert_ignored_and_rewritten(store, b" ".join([magic, other, digest]) + b"\n" + body)


@pytest.mark.parametrize("keep", [0, 10, 100, 0.5, -1])
def test_a_truncated_index_is_ignored(store, keep):
    valid = store[-1]
    keep = int(len(valid) * keep) if isinstance(keep, float) else keep % len(valid)
    assert_ignored_and_rewritten(store, valid[:keep])


@pytest.mark.parametrize("where", [0, 20, 90, 0.5, -2])
def test_an_index_with_one_byte_flipped_is_ignored(store, where):
    valid = bytearray(store[-1])
    at = int(len(valid) * where) if isinstance(where, float) else where % len(valid)
    valid[at] ^= 0x01
    assert_ignored_and_rewritten(store, bytes(valid))


# entries whose text the codec refuses, or of a kind without a codec
_BAD_ENTRIES = st.sampled_from([
    "", "x", "\t", "0\tgrid", "0\tgrib\t2011-01-01T00:00:00+00:00", "0\tgrid\tx",
    "0\tgrid\t2011-01-01T00:00:00+00:00 1.0", "0\tgrid\t2011-13-01T00:00:00+00:00",
]) | st.text(alphabet=st.characters(blacklist_characters="\t\n"), max_size=12)


def digested(stamp: bytes, entries: list[str]) -> bytes:
    """An index of ``entries`` under ``stamp``, with the digest of its body."""
    body = "".join(f"{entry}\n" for entry in entries).encode("utf-8", "surrogatepass")
    digest = hashlib.sha256(body).hexdigest().encode()
    return b"dslake-index " + stamp + b" " + digest + b"\n" + body


@pytest.mark.parametrize("bad", ["0\tgrid\tx", "0\tgrib\t2011-01-01T00:00:00+00:00", "x"])
def test_an_index_with_one_entry_that_does_not_read_back_is_ignored_whole(store, bad):
    (_, stamp, _), body = _header_and_body(store[-1])
    assert_ignored_and_rewritten(store, digested(stamp, [*body.decode().splitlines(), bad]))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.data_too_large])
@given(data=st.data())
def test_arbitrary_index_bytes_are_ignored(store, data):
    # arbitrary bytes, or an index under the right stamp and digest whose
    # entries, valid or not, include one that does not read back
    (_, stamp, _), body = _header_and_body(store[-1])
    entry = st.sampled_from(body.decode().splitlines()) | st.text(max_size=30).filter(
        lambda t: "\n" not in t
    )
    entries = data.draw(st.lists(entry, max_size=4))
    entries.insert(data.draw(st.integers(0, len(entries))), data.draw(_BAD_ENTRIES))
    damaged = data.draw(st.binary(max_size=300) | st.just(digested(stamp, entries)))
    assert_ignored_and_rewritten(store, damaged)


def test_a_derived_that_is_a_file_leaves_the_submit_as_it_is(tmp_path, registry):
    files = saved_store(tmp_path, 5)
    (tmp_path / "derived").write_bytes(b"not a directory\n")
    expected = submit(TaskRequest("d1", FIG5_SCRIPT, EngineConfig(4, 2)), registry,
                      StorageLayout(node_count=4, replication=2).ingest(files)).canonical_text()
    for _ in range(2):
        doc = cold(tmp_path, registry)
        assert (doc.diagnostics.files_read, doc.canonical_text()) == (len(files), expected)
    assert (tmp_path / "derived").read_bytes() == b"not a directory\n"


@pytest.mark.parametrize("nodes", [4, 2])
def test_a_warm_submit_after_an_index_load_opens_no_file(tmp_path, registry, monkeypatch, nodes):
    saved_store(tmp_path, 5)
    cold(tmp_path, registry)  # writes the index
    engine = Engine(registry, StorageLayout.load(tmp_path))
    request = TaskRequest("d1", FIG5_SCRIPT, EngineConfig(nodes, 2))
    first = engine.submit(request)
    assert first.diagnostics.files_read == 0 and first.simulations

    def refuse(*args, **kwargs):
        raise AssertionError(f"a warm submit opened {args[0]!r}")

    for owner in (os, io, builtins):
        monkeypatch.setattr(owner, "open", refuse)
    try:
        second = engine.submit(request)
    finally:
        monkeypatch.undo()
    assert second.diagnostics.files_read == 0
    assert second.canonical_text() == first.canonical_text()


def test_an_ingest_leaves_the_index_valid(tmp_path, registry):
    # records are functions of content-addressed file ids: a dataset
    # ingested later adds entries, and invalidates none
    d1 = saved_store(tmp_path, 9)
    assert cold(tmp_path, registry).diagnostics.files_read == len(d1)
    d2 = two_months(10, "d2", start=(2011, 3, 1), end=(2011, 4, 30, 18))
    StorageLayout.load(tmp_path).ingest(d2).save(tmp_path)
    assert cold(tmp_path, registry).diagnostics.files_read == 0
    assert cold(tmp_path, registry, dataset="d2").diagnostics.files_read == len(d2)
    for dataset in ("d1", "d2"):
        assert cold(tmp_path, registry, dataset=dataset).diagnostics.files_read == 0


def test_a_snapshot_two_datasets_share_is_mapped_once(tmp_path, registry):
    # the same months under two seeds share every all-background snapshot;
    # a submit of d2 after d1 reads only the snapshots d1 does not list,
    # past memo hits in one process and index hits in the next
    d1, d2 = two_months(9), two_months(10, "d2")
    StorageLayout(node_count=8, replication=2).ingest(d1 + d2).save(tmp_path)
    first, second = {f.file_id for f in d1}, {f.file_id for f in d2}
    assert first & second and second - first
    for file_id in first & second:
        assert len(list(tmp_path.glob(replica(file_id)))) == 2
    alone = {
        dataset: submit(TaskRequest(dataset, FIG5_SCRIPT), registry,
                        StorageLayout(node_count=4, replication=2).ingest(files)).canonical_text()
        for dataset, files in (("d1", d1), ("d2", d2))
    }
    assert "simulation" in alone["d2"]
    for nodes in (1, 2, 4, 8):
        shutil.rmtree(tmp_path / "derived", ignore_errors=True)
        engine = Engine(registry, StorageLayout.load(tmp_path))
        runs = [engine.submit(TaskRequest(dataset, FIG5_SCRIPT, EngineConfig(nodes, min(2, nodes))))
                for dataset in ("d1", "d2")]
        shutil.rmtree(tmp_path / "derived")
        runs += [cold(tmp_path, registry, nodes=nodes, dataset=dataset) for dataset in ("d1", "d2")]
        assert [(doc.diagnostics.files_read, doc.canonical_text()) for doc in runs] == [
            (len(first), alone["d1"]), (len(second - first), alone["d2"])
        ] * 2, nodes


def test_the_stamp_covers_the_module_of_an_extractor_outside_the_package(tmp_path, registry):
    # an extractor that this module defines puts this module's source in the
    # stamp; one that only wraps the package's, through __wrapped__, does not
    files = saved_store(tmp_path, 5)
    extract = registry.procedures["cyclone.extract_centers"]

    def wrapping(data, memo):
        return extract(data, memo)

    @functools.wraps(extract)
    def wrapped(data, memo):
        return extract(data, memo)

    def registry_with(extractor):
        other = register_cyclone_domain(KnowledgeRegistry())
        other.procedures["cyclone.extract_centers"] = extractor
        return other

    runs = [(registry, len(files)), (registry_with(wrapped), 0),
            (registry_with(wrapping), len(files)), (registry, len(files)), (registry, 0)]
    texts = set()
    for run_registry, files_read in runs:
        doc = cold(tmp_path, run_registry)
        assert doc.diagnostics.files_read == files_read
        texts.add(doc.canonical_text())
    assert len(texts) == 1


def test_a_plan_without_a_codec_writes_no_index(tmp_path):
    registry = KnowledgeRegistry().register_domain_library(
        replace(library_descriptor(), record_codecs=()),
        {"cyclone.extract_centers": extract_centers, "cyclone.combine_paths": combine_paths,
         "cyclone.filter_direction": filter_direction},
    )
    registry.register_package(bsm_descriptor(), procedure=bsm_builtin)
    files = saved_store(tmp_path, 5)
    for _ in range(2):
        assert cold(tmp_path, registry).diagnostics.files_read == len(files)
    assert not (tmp_path / "derived").exists()


def test_an_index_hit_reads_no_file(tmp_path, registry, monkeypatch):
    # the map index holds every file's record, the pressure structures of
    # its centers included, so a repeat submit, at any node count, reads no
    # replica at all
    saved_store(tmp_path, 5)
    expected = cold(tmp_path, registry).canonical_text()
    assert "simulation" in expected

    def refuse(self, file_id):
        raise AssertionError(f"an index hit read {file_id}")

    monkeypatch.setattr(StorageLayout, "read", refuse)
    for nodes in (4, 2, 8):
        doc = cold(tmp_path, registry, nodes=nodes)
        assert (doc.diagnostics.files_read, doc.canonical_text()) == (0, expected)


def test_an_index_miss_reads_each_file_once(tmp_path, registry, monkeypatch):
    # what the reduce needs of a file is in the file's record, so a submit
    # without derived/ reads each file once, in the map stage, and the
    # reduce reads none, the final files of its paths included
    files = saved_store(tmp_path, 5)
    read, reduce, reads, in_reduce = StorageLayout.read, engine.run_reduce, [], []

    def counting(self, file_id):
        reads.append(file_id)
        return read(self, file_id)

    def reducing(*args, **kwargs):
        before = len(reads)
        try:
            return reduce(*args, **kwargs)
        finally:
            in_reduce.extend(reads[before:])

    monkeypatch.setattr(StorageLayout, "read", counting)
    monkeypatch.setattr(engine, "run_reduce", reducing)
    doc = cold(tmp_path, registry)
    assert doc.simulations and doc.diagnostics.files_read == len(files)
    assert Counter(reads) == Counter(f.file_id for f in files)
    assert in_reduce == []


def _without_structures(line: str) -> str:
    """A map index line as a release that kept pressure structures out of
    the records wrote it: five fields per center, not eight."""
    file_id, kind, text = line.split("\t")
    stamp, *fields = text.split(" ")
    kept = [field for at, field in enumerate(fields) if at % 8 < 5]
    return "\t".join((file_id, kind, " ".join([stamp, *kept])))


def test_a_store_indexed_by_an_older_release_submits_the_same_bytes(
    tmp_path, registry, monkeypatch
):
    # an older release wrote its map records without pressure structures,
    # under its own stamp, and kept the structure of each final center in a
    # second index, derived/combine-*: a submit ignores the first and
    # rewrites it once, and neither reads nor removes the second
    files = saved_store(tmp_path, 5)
    expected = submit(TaskRequest("d1", FIG5_SCRIPT, EngineConfig(4, 2)), registry,
                      StorageLayout(node_count=4, replication=2).ingest(files)).canonical_text()
    cold(tmp_path, registry)
    path = index_path(tmp_path)
    valid = path.read_bytes()
    _, body = _header_and_body(valid)
    lines = body.decode().splitlines()
    path.write_bytes(digested(b"0" * 64, [_without_structures(line) for line in lines]))
    structures = [
        repr(((file_id, *center.grid_index), center.structure))
        for file_id, _, text in (line.split("\t") for line in lines)
        for center in read_centers(text)[1]
    ]
    assert structures
    combine = tmp_path / "derived" / f"combine-{'ab' * 8}"
    combine.write_bytes(digested(b"1" * 64, sorted(structures)))
    orphan = combine.read_bytes()
    read_bytes, opened = Path.read_bytes, []

    def recording(self):
        opened.append(self.name)
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", recording)
    doc = cold(tmp_path, registry)
    assert (doc.diagnostics.files_read, doc.canonical_text()) == (len(files), expected)
    assert path.read_bytes() == valid
    rewritten = path.stat().st_ino
    doc = cold(tmp_path, registry)
    assert (doc.diagnostics.files_read, doc.canonical_text()) == (0, expected)
    assert path.stat().st_ino == rewritten
    assert combine.read_bytes() == orphan
    assert opened.count(combine.name) == 1  # this test's own read above
    assert sorted(p.name for p in (tmp_path / "derived").iterdir()) == sorted(
        [path.name, combine.name]
    )


# -- the cyclone record codec ---------------------------------------------------


@st.composite
def snapshots(draw):
    """Snapshot bytes over a random box and instant, microseconds included,
    whose field has minima below the detection threshold."""
    nlat, nlon = draw(st.integers(3, 7)), draw(st.integers(3, 7))
    dlat, dlon = draw(st.floats(0.01, 2.0)), draw(st.floats(0.01, 2.0))
    lat0 = draw(st.floats(-90.0, 90.0 - nlat * dlat))
    lon0 = draw(st.floats(-180.0, 180.0 - nlon * dlon))
    ts = draw(st.datetimes(datetime(1, 1, 2), datetime(9999, 12, 30),
                           timezones=st.just(timezone.utc)))
    values = draw(st.lists(st.floats(950.0, 1050.0), min_size=nlat * nlon,
                           max_size=nlat * nlon))
    header = f"grid {lat0!r} {lon0!r} {dlat!r} {dlon!r} {nlat} {nlon} {ts.isoformat()}\n"
    return header.encode() + render_body(np.reshape(values, (nlat, nlon)))


@settings(max_examples=300, deadline=None)
@given(snapshots())
def test_the_codec_reads_back_an_extracted_record_bit_for_bit(data):
    record = extract_centers(data, {})
    text = write_centers(record)
    assert "\n" not in text and "\t" not in text
    again = read_centers(text)
    assert again == record
    assert repr(again) == repr(record)  # floats, signs of zeros and the time zone too


def test_the_codec_reads_back_the_records_of_two_months():
    files = two_months(4)
    memo, centers = {}, 0
    for f in files:
        record = extract_centers(f.data, memo)
        assert repr(read_centers(write_centers(record))) == repr(record)
        centers += len(record[1])
    assert centers > 10


def test_the_codec_refuses_a_center_of_another_instant():
    center = CycloneCenter(57.0, -18.0, 980.5, utc(2011, 1, 1, 6), (4, 5))
    with pytest.raises(ValueError):
        write_centers((utc(2011, 1, 1), [center]))


def test_the_codec_refuses_a_center_without_its_structure():
    center = CycloneCenter(57.0, -18.0, 980.5, utc(2011, 1, 1), (4, 5), (980.5, 1013.0, 1e2))
    assert read_centers(write_centers((utc(2011, 1, 1), [center]))) == (utc(2011, 1, 1), [center])
    with pytest.raises(ValueError):
        write_centers((utc(2011, 1, 1), [replace(center, structure=None)]))


def test_the_codec_reads_a_record_without_centers_as_written():
    ts = utc(2011, 3, 4, 18)
    text = write_centers((ts, []))
    assert text == "2011-03-04T18:00:00+00:00"
    assert repr(read_centers(text)) == repr((ts, []))


@pytest.mark.parametrize("text", [
    "2011-03-04T18:00:00",  # naive
    "2011-03-04T18:00:00+01:00",
    "2011-03-04T18:00:00+00:00 ",  # a trailing space: one empty field
    " ".join(["2011-03-04T18:00:00+00:00", *["1.0"] * 7]),
    " ".join(["2011-03-04T18:00:00+00:00", *["1.0"] * 9]),
])
def test_the_codec_refuses_a_stamp_not_utc_or_fields_not_eight_per_center(text):
    with pytest.raises(ValueError):
        read_centers(text)


def test_the_stamp_digests_the_files_rglob_finds_in_the_package(monkeypatch):
    package = Path(engine.__file__).resolve().parent
    files_digest, seen = engine._files_digest, []

    def recording(sources):
        seen.append(dict(sources))
        return files_digest(sources)

    monkeypatch.setattr(engine, "_files_digest", recording)
    ours = engine._source_digest([extract_centers]).split("\n")[0]
    found = {path.relative_to(package).as_posix(): path for path in package.rglob("*.py")}
    assert "cyclone/plugin.py" in found and "engine.py" in found
    assert {name: Path(path) for name, path in seen[0].items()} == found
    assert files_digest(found) == ours


def test_the_stamp_is_none_when_a_source_cannot_be_read(monkeypatch):
    real_open = builtins.open

    def refusing(path, *args, **kwargs):
        if str(path).endswith(os.path.join("cyclone", "track.py")):
            raise PermissionError(13, "Permission denied", str(path))
        return real_open(path, *args, **kwargs)

    assert engine._source_digest([extract_centers]) is not None
    monkeypatch.setattr(builtins, "open", refusing)
    assert engine._source_digest([extract_centers]) is None


_FIELDS = st.sampled_from([
    "2011-01-01T00:00:00+00:00", "2011-01-01T00:00Z", "1.5", "-0.0", "nan", "1e999", "3", "-1",
    "9" * 5000, "x", "", " ", "٣", "2011-02-30T00:00:00+00:00",
])


@settings(max_examples=400, deadline=None)
@given(st.text(max_size=60) | st.lists(_FIELDS, max_size=12).map(" ".join))
def test_the_codec_reader_gives_a_record_or_a_value_error(text):
    try:
        ts, centers = read_centers(text)
    except (ValueError, DslakeError):
        return
    assert all(center.timestamp is ts for center in centers)
