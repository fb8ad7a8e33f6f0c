import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dslake
from dslake.errors import (
    DuplicateFile,
    InvalidReplication,
    StorageError,
    UnknownNode,
    UnreadableFile,
)
from dslake.storage import (
    MAX_NODES,
    DataFile,
    FileMeta,
    StorageLayout,
    _ranked,
    _scores,
    place_all,
    read_manifest,
)

from conftest import key_value_texts, utc


def reference_fnv1a64(data: bytes) -> int:
    # independent re-statement of the documented hash
    h = 14695981039346656037
    for byte in data:
        h = ((h ^ byte) * 1099511628211) % 2**64
    return h


def reference_ranking(file_id: str, node_count: int) -> list[int]:
    # rendezvous hashing as documented: score node n by the hash of the id
    # followed by n in decimal; highest score first, ties by node id
    scores = [
        (reference_fnv1a64(file_id.encode() + str(node).encode()), node)
        for node in range(node_count)
    ]
    return [node for _, node in sorted(scores, key=lambda sn: (-sn[0], sn[1]))]


HEX = "0123456789abcdef"

# file ids are content addresses: SHA-256 digests of varied bytes, and the
# least and greatest 64 hex digits
HEX_IDS = [
    "0" * 64,
    "f" * 64,
    *(
        hashlib.sha256(data).hexdigest()
        for data in (b"", b"a", b"f1", "日本語ファイル".encode(), b"ab\x00c", b"x" * 100)
    ),
    hashlib.sha256(b"grid payload 0").hexdigest(),
    *(hashlib.sha256(str(i).encode()).hexdigest() for i in range(24)),
]


def make_file(i: int, dataset: str = "d") -> DataFile:
    data = f"grid payload {i}".encode()
    return DataFile.from_bytes(dataset, utc(2011, 1, 1, i % 24), utc(2011, 1, 1, i % 24), data)


def replica(file_id: str = "*", node: int | str = "*") -> str:
    """Where a store keeps its copy of ``file_id`` on ``node``, relative to
    its root; the defaults make a pattern for ``Path.glob``."""
    return f"node-{node}/{file_id}.snap"


def test_fnv_reference_vectors():
    # classic FNV-1a test vectors pin the reference, and the vectorized
    # scores are the reference hash of each id followed by each node id
    assert reference_fnv1a64(b"") == 0xCBF29CE484222325
    assert reference_fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    scores = _scores(HEX_IDS, 3)
    for row, file_id in enumerate(HEX_IDS):
        for node in range(3):
            expected = reference_fnv1a64(file_id.encode() + str(node).encode())
            assert scores[row][node] == expected


def test_place_deterministic():
    assert place_all(HEX_IDS, 4, 2) == place_all(HEX_IDS, 4, 2)
    assert place_all(HEX_IDS, 4, 2) == [place_all([fid], 4, 2)[0] for fid in HEX_IDS]


def test_place_all_nodes_when_replication_equals_node_count():
    for file_id in HEX_IDS:
        nodes = place_all([file_id], 5, 5)[0]
        assert sorted(nodes) == [0, 1, 2, 3, 4]
        # ordered by descending score
        scores = [reference_fnv1a64(f"{file_id}{n}".encode()) for n in nodes]
        assert scores == sorted(scores, reverse=True)


def test_place_prefix_consistency():
    # the highest-score subset is stable as replication grows
    for file_id in HEX_IDS:
        assert place_all([file_id], 8, 2)[0] == place_all([file_id], 8, 4)[0][:2]


def test_invalid_replication():
    with pytest.raises(InvalidReplication):
        place_all(HEX_IDS[:1], 4, 5)
    with pytest.raises(InvalidReplication):
        place_all(HEX_IDS[:1], 4, 0)
    with pytest.raises(InvalidReplication):
        StorageLayout(node_count=2, replication=3)


def test_the_node_count_is_bounded(tmp_path, monkeypatch):
    # placement scores every (file, node) pair: a layout past MAX_NODES is
    # refused, whether built, reshaped or loaded, before it places a file
    import dslake.storage as storage

    place_all, shapes = storage.place_all, []

    def bounded(file_ids, node_count, replication, prefixes=None):
        assert node_count <= MAX_NODES, f"placed at {node_count} nodes"
        shapes.append(node_count)
        return place_all(file_ids, node_count, replication, prefixes)

    monkeypatch.setattr(storage, "place_all", bounded)
    f = make_file(0)
    layout = StorageLayout(node_count=MAX_NODES, replication=2).ingest([f])
    assert len(set(layout.placements[f.file_id])) == 2
    layout.save(tmp_path)
    for count in (0, MAX_NODES + 1):
        message = f"node count {count} not in [1, {MAX_NODES}]"
        with pytest.raises(InvalidReplication) as err:
            StorageLayout(node_count=count, replication=1)
        assert str(err.value) == message
        with pytest.raises(InvalidReplication, match=re.escape(message)):
            layout.reshaped(count, 1)
        (tmp_path / "fabric.conf").write_text(f"node_count={count}\nreplication=1\n")
        with pytest.raises(InvalidReplication, match=re.escape(message)):
            StorageLayout.load(tmp_path)
    assert shapes == [MAX_NODES]


def test_place_all_matches_reference_at_1_to_20_nodes():
    # node ids from 10 on hash two suffix bytes
    for node_count in range(1, 21):
        ranked = [reference_ranking(fid, node_count) for fid in HEX_IDS]
        for replication in range(1, node_count + 1):
            expected = [tuple(r[:replication]) for r in ranked]
            assert place_all(HEX_IDS, node_count, replication) == expected
        assert [list(place_all([fid], node_count, node_count)[0]) for fid in HEX_IDS] == ranked


def hex_ids():
    """Hypothesis strategy for file ids: 64 lowercase hex digits."""
    return st.text(HEX, min_size=64, max_size=64)


@settings(max_examples=60)
@given(st.lists(hex_ids(), max_size=12), st.integers(1, 20), st.data())
def test_place_all_matches_reference_on_any_ids(file_ids, node_count, data):
    replication = data.draw(st.integers(1, node_count))
    expected = [tuple(reference_ranking(fid, node_count)[:replication]) for fid in file_ids]
    assert place_all(file_ids, node_count, replication) == expected


def test_ranking_ties_go_to_the_lower_node():
    # 64-bit scores practically never tie, so pin the tie rule on the ranking
    scores = [(5, 7, 7, 5), (2**64 - 1, 0, 2**63, 2**63)]
    assert _ranked(scores) == [[1, 2, 0, 3], [0, 2, 3, 1]]


def test_load_balance_10k_files():
    # statistical check re-derived from the documented hash itself: with
    # 10000 files on 8 nodes (replication 1) the max load stays within
    # 1.35x of the mean
    rng = random.Random(20110109)
    loads = [0] * 8
    file_ids = [hashlib.sha256(str(rng.random()).encode()).hexdigest() for _ in range(10000)]
    for (node,) in place_all(file_ids, 8, 1):
        loads[node] += 1
    mean = sum(loads) / 8
    assert max(loads) <= 1.35 * mean


def test_ingest_counts():
    files = [make_file(i) for i in range(300)]
    layout = StorageLayout(node_count=4, replication=2).ingest(files)
    for f in files:
        nodes = layout.placements[f.file_id]
        assert len(nodes) == 2 and len(set(nodes)) == 2


def test_ingest_empty_noop():
    layout = StorageLayout(node_count=4, replication=2)
    before = dict(layout.placements)
    layout.ingest([])
    assert layout.placements == before


def test_ingest_duplicate_file():
    f = make_file(1)
    layout = StorageLayout(node_count=4, replication=2).ingest([f])
    with pytest.raises(DuplicateFile) as err:
        layout.ingest([make_file(2), f])
    assert str(err.value) == f"file {f.file_id} is already listed in dataset d"
    g = make_file(2, dataset="e")
    with pytest.raises(DuplicateFile) as err:
        layout.ingest([g, make_file(1, dataset="e"), g])
    assert str(err.value) == f"file {g.file_id} is given twice for dataset e"


def test_a_file_listed_by_two_datasets_is_stored_once(tmp_path):
    f = make_file(1)
    layout = StorageLayout(node_count=4, replication=2).ingest([f])
    stored = layout.blobs[f.file_id]
    # listed anew, with its own times; the stored bytes stay as they are
    again = DataFile(f.file_id, "e", utc(2011, 2, 1), utc(2011, 2, 2), b"other bytes")
    g, h = make_file(2, dataset="e"), make_file(3, dataset="a")
    layout.ingest([again, g, h, DataFile(h.file_id, "b", h.t0, h.t1, h.data)])
    assert layout.blobs[f.file_id] is stored
    assert layout.blobs.keys() == layout.placements.keys() == {f.file_id, g.file_id, h.file_id}
    listed = {name: [(m.file_id, m.t0, m.t1) for m in metas]
              for name, metas in layout.by_dataset.items()}
    assert listed == {
        "d": [(f.file_id, f.t0, f.t1)],
        "e": [(g.file_id, g.t0, g.t1), (f.file_id, again.t0, again.t1)],
        "a": [(h.file_id, h.t0, h.t1)],
        "b": [(h.file_id, h.t0, h.t1)],
    }
    layout.save(tmp_path)
    for file_id, nodes in layout.placements.items():
        assert sorted(tmp_path.glob(replica(file_id))) == sorted(
            tmp_path / replica(file_id, node) for node in nodes
        )
    loaded = StorageLayout.load(tmp_path)
    assert loaded.placements == layout.placements
    assert {name: [(m.file_id, m.t0, m.t1) for m in metas]
            for name, metas in loaded.by_dataset.items()} == listed
    assert loaded.read(f.file_id) == f.data


def _contents(layout):
    return dict(layout.placements), dict(layout.blobs), dict(layout.by_dataset)


@pytest.mark.parametrize("batch", [[2, 1], [2, 2], [2, 3, 2]], ids=["stored", "twice", "twice-later"])
def test_refused_ingest_records_nothing(batch):
    layout = StorageLayout(node_count=4, replication=2).ingest([make_file(1)])
    before = _contents(layout)
    with pytest.raises(DuplicateFile):
        layout.ingest(make_file(i) for i in batch)
    assert _contents(layout) == before


@pytest.mark.parametrize(
    "file_id, dataset",
    [
        ("../../../escaped", "d"),
        (None, ""),
        (None, "."),
        (None, ".."),
        (None, "a/b"),
        (None, "/etc"),
        ("tab\tid", "d"),
        ("line\nid", "d"),
        ("line\u2028id", "d"),
        ("nul\0id", "d"),
        (None, "tab\td"),
        (None, "line\nd"),
        (None, "line\u2028d"),
        (None, "nul\0d"),
    ],
    ids=["id-with-slash", "no-dataset", "dot", "dot-dot", "nested", "absolute", "tab",
         "newline", "line-separator", "nul", "dataset-tab", "dataset-newline",
         "dataset-line-separator", "dataset-nul"],
)
def test_ingest_refuses_what_save_could_not_store(tmp_path, file_id, dataset):
    # a dataset case carries the id of its bytes, so the dataset rule alone refuses it
    layout = StorageLayout(node_count=3, replication=2).ingest([make_file(1)])
    layout.save(tmp_path / "store")
    before = _contents(layout)
    file_id = file_id or hashlib.sha256(b"bytes").hexdigest()
    bad = DataFile(file_id, dataset, utc(2011, 1, 1), utc(2011, 1, 1), b"bytes")
    with pytest.raises(StorageError) as err:
        layout.ingest([make_file(2), bad])
    assert str(err.value).startswith(f"file {file_id!r} of dataset {dataset!r}: ")
    assert _contents(layout) == before
    layout.save(tmp_path / "store")
    assert StorageLayout.load(tmp_path / "store").placements == layout.placements


def not_file_ids():
    """Hypothesis strategy for strings that are not content addresses: 64
    hex digits with uppercase ones, 63 or 65 lowercase hex digits, or 64
    characters of which some are not hex digits."""
    def put(id_at_char):
        file_id, at, char = id_at_char
        return file_id[:at] + char + file_id[at + 1:]

    def spliced(chars):
        return st.tuples(hex_ids(), st.integers(0, 63), chars).map(put)

    upper = spliced(st.sampled_from("ABCDEF")) | hex_ids().map(str.upper).filter(
        lambda file_id: file_id != file_id.lower()
    )
    lengths = st.text(HEX, min_size=63, max_size=63) | st.text(HEX, min_size=65, max_size=65)
    not_hex = spliced(st.characters().filter(lambda c: c not in HEX)) | st.text(
        min_size=64, max_size=64
    ).filter(lambda text: set(text) - set(HEX))
    return upper | lengths | not_hex


@settings(max_examples=80, deadline=None)
@given(not_file_ids())
def test_an_id_that_is_not_a_content_address_is_refused(file_id):
    layout = StorageLayout(node_count=3, replication=2).ingest([make_file(1)])
    before = _contents(layout)
    bad = DataFile(file_id, "d", utc(2011, 1, 1), utc(2011, 1, 1), b"bytes")
    with pytest.raises(StorageError) as err:
        layout.ingest([make_file(2), bad])
    assert str(err.value).startswith(f"file {file_id!r} of dataset 'd': ")
    assert _contents(layout) == before
    with tempfile.TemporaryDirectory() as root:
        layout.save(Path(root))
        manifest = Path(root, "datasets", "d", "manifest.tsv")
        _, _, t0, t1, _ = manifest.read_text().rstrip("\n").split("\t")
        line = "\t".join((file_id, "d", t0, t1, f"{file_id}.snap"))
        manifest.write_text(f"{line}\n", encoding="utf-8")
        with pytest.raises(StorageError) as err:
            StorageLayout.load(Path(root))
    if len(line.split("\t")) == 5 and len(f"{line}.".splitlines()) == 1:
        # the line reads back: its stored-path check refuses the id
        assert str(err.value).startswith(f"{manifest}: file {file_id!r} of dataset 'd' at ")


def test_a_save_cut_short_leaves_the_stored_manifests_whole(tmp_path, monkeypatch):
    old = [make_file(0), make_file(1)]
    layout = StorageLayout(node_count=3, replication=2).ingest(old)
    layout.save(tmp_path)
    manifest = tmp_path / "datasets" / "d" / "manifest.tsv"
    stored = {p: p.read_bytes() for p in (manifest, tmp_path / "fabric.conf")}
    new = [make_file(2), make_file(3, dataset="e")]
    layout.ingest(new)
    replace = os.replace

    def failing(source, target):
        if Path(target).name == "manifest.tsv":
            raise OSError(28, "No space left on device")
        replace(source, target)

    monkeypatch.setattr(os, "replace", failing)
    with pytest.raises(OSError):
        layout.save(tmp_path)
    monkeypatch.undo()
    assert {p: p.read_bytes() for p in stored} == stored
    loaded = StorageLayout.load(tmp_path)
    assert {name: [m.file_id for m in metas] for name, metas in loaded.by_dataset.items()} == {
        "d": [m.file_id for m in layout.dataset_files("d") if m.file_id != new[0].file_id]
    }
    assert [loaded.read(f.file_id) for f in old] == [f.data for f in old]
    # the replicas went first: the new files' copies are all written
    for f in new:
        for node in layout.placements[f.file_id]:
            assert (tmp_path / replica(f.file_id, node)).read_bytes() == f.data
    assert [p for p in tmp_path.rglob("*") if p.name.startswith(".")] == []


def test_read_survives_one_failure_with_replication_two():
    f = make_file(1)
    layout = StorageLayout(node_count=4, replication=2).ingest([f])
    first, second = layout.placements[f.file_id]
    layout.fail_node(first)
    assert layout.read(f.file_id) == f.data
    assert layout.serving_node(f.file_id) == second


def test_read_unreadable_when_sole_replica_fails():
    f = make_file(1)
    layout = StorageLayout(node_count=4, replication=1).ingest([f])
    (only,) = layout.placements[f.file_id]
    layout.fail_node(only)
    with pytest.raises(UnreadableFile):
        layout.read(f.file_id)


def test_fail_then_recover_bytes_identical():
    files = [make_file(i) for i in range(20)]
    layout = StorageLayout(node_count=4, replication=2).ingest(files)
    baseline = {f.file_id: layout.read(f.file_id) for f in files}
    layout.fail_node(0)
    layout.recover_node(0)
    assert {f.file_id: layout.read(f.file_id) for f in files} == baseline


def test_unknown_node():
    layout = StorageLayout(node_count=2, replication=1)
    with pytest.raises(UnknownNode) as err:
        layout.fail_node(2)
    assert str(err.value) == "node 2 is not a node of this 2-node fabric (0-1)"
    with pytest.raises(UnknownNode) as err:
        layout.recover_node(-1)
    assert str(err.value) == "node -1 is not a node of this 2-node fabric (0-1)"


def test_read_verifies_content_address():
    # every read checks: a blob altered after a good read fails the next one
    f = make_file(1)
    layout = StorageLayout(node_count=2, replication=1).ingest([f])
    assert layout.read(f.file_id) == f.data
    layout.blobs[f.file_id] = b"tampered"
    (node,) = layout.placements[f.file_id]
    with pytest.raises(UnreadableFile) as err:
        layout.read(f.file_id)
    assert str(err.value) == f"no intact replica of {f.file_id}: node {node} digest mismatch"


def test_reshape_refuses_failed_nodes():
    layout = StorageLayout(node_count=8, replication=2).ingest(make_file(i) for i in range(8))
    layout.fail_node(3)
    with pytest.raises(StorageError, match=r"nodes \[3\] of 8 are failed; cannot reshape to 4"):
        layout.reshaped(4, 2)
    layout.recover_node(3)
    view = layout.reshaped(4, 2)
    assert view.node_count == 4 and view.failed == set()
    assert view.memo is layout.memo  # derived results go with the content


def test_ingest_into_a_reshaped_view_leaves_its_parent_alone():
    a, b = make_file(1), make_file(2)
    parent = StorageLayout(node_count=8, replication=2).ingest([a])
    before = _contents(parent)
    view = parent.reshaped(4, 2).ingest([b])
    assert view.read(b.file_id) == b.data
    assert _contents(parent) == before
    assert [m.file_id for m in parent.dataset_files("d")] == [a.file_id]
    with pytest.raises(UnreadableFile, match="unknown file"):
        parent.serving_node(b.file_id)
    # the parent's b is its own: its read checks that copy
    parent.ingest([DataFile(b.file_id, "d", b.t0, b.t1, b"tampered")])
    first, second = parent.placements[b.file_id]
    with pytest.raises(UnreadableFile) as err:
        parent.read(b.file_id)
    assert str(err.value) == (
        f"no intact replica of {b.file_id}: node {first} digest mismatch,"
        f" node {second} digest mismatch"
    )


def test_dataset_files_sorted():
    files = [make_file(i) for i in range(30)]
    layout = StorageLayout(node_count=2, replication=1).ingest(files)
    metas = layout.dataset_files("d")
    assert [(m.t0, m.file_id) for m in metas] == sorted(
        (m.t0, m.file_id) for m in metas
    )
    assert layout.dataset_files("missing") == []


def test_on_disk_round_trip(tmp_path):
    files = [make_file(i) for i in range(12)]
    layout = StorageLayout(node_count=3, replication=2).ingest(files)
    layout.save(tmp_path)
    assert (tmp_path / "datasets" / "d" / "manifest.tsv").exists()
    loaded = StorageLayout.load(tmp_path)
    assert loaded.node_count == 3 and loaded.replication == 2
    assert loaded.placements == layout.placements
    for f in files:
        assert loaded.read(f.file_id) == f.data


def test_load_reads_no_snapshot(tmp_path):
    files = [make_file(i) for i in range(6)]
    layout = StorageLayout(node_count=3, replication=2).ingest(files)
    layout.save(tmp_path)
    for snap in tmp_path.glob(replica()):
        snap.unlink()
    loaded = StorageLayout.load(tmp_path)
    assert loaded.placements == layout.placements and loaded.blobs == {}
    f = files[0]
    first, second = layout.placements[f.file_id]
    with pytest.raises(UnreadableFile) as err:
        loaded.read(f.file_id)
    assert str(err.value) == (
        f"no intact replica of {f.file_id}: node {first} missing, node {second} missing"
    )


@pytest.mark.parametrize("fault", ["altered", "missing", "directory"])
def test_a_loaded_read_fails_over_to_the_next_replica(tmp_path, fault):
    files = [make_file(i) for i in range(6)]
    layout = StorageLayout(node_count=3, replication=2).ingest(files)
    layout.save(tmp_path)
    for f in files:
        path = tmp_path / replica(f.file_id, layout.placements[f.file_id][0])
        if fault == "altered":
            path.write_bytes(b"other bytes")
        else:
            path.unlink()
        if fault == "directory":
            path.mkdir()
    loaded = StorageLayout.load(tmp_path)
    for f in files:
        assert loaded.read(f.file_id) == f.data
        # the serving node is the one that served, past the bad first replica
        assert loaded.serving_node(f.file_id) == layout.placements[f.file_id][1]
    assert loaded.blobs == {}


def test_a_loaded_read_skips_failed_nodes_and_names_each_replica_tried(tmp_path):
    f = make_file(1)
    layout = StorageLayout(node_count=4, replication=3).ingest([f])
    layout.save(tmp_path)
    first, second, third = layout.placements[f.file_id]
    (tmp_path / replica(f.file_id, second)).write_bytes(b"other bytes")
    (tmp_path / replica(f.file_id, third)).unlink()
    loaded = StorageLayout.load(tmp_path)
    assert loaded.read(f.file_id) == f.data
    loaded.fail_node(first)
    with pytest.raises(UnreadableFile) as err:
        loaded.read(f.file_id)
    assert str(err.value) == (
        f"no intact replica of {f.file_id}: node {second} digest mismatch, node {third} missing"
    )
    # a view reads the stored replicas, not its own simulated nodes
    loaded.recover_node(first)
    view = loaded.reshaped(9, 1)
    (tmp_path / replica(f.file_id, first)).write_bytes(b"other bytes")
    with pytest.raises(UnreadableFile, match=f"node {first} digest mismatch, node {second}"):
        view.read(f.file_id)


FATES = {
    "altered": "digest mismatch",
    "missing": "missing",
    "directory": "unreadable (Is a directory)",
}


def spoil(path: Path, fault: str) -> None:
    """Give one stored replica ``fault``: none, altered, missing or directory."""
    if fault == "altered":
        path.write_bytes(b"other bytes")
    elif fault != "none":
        path.unlink()
        if fault == "directory":
            path.mkdir()


def check_read(layout: StorageLayout, f: DataFile, faults: list[str]) -> None:
    """``read`` serves the first intact replica on a surviving node, and
    ``serving_node`` then names it; with none, the error names the fate of
    every surviving replica in placement order."""
    surviving = [
        (node, fault) for node, fault in zip(layout.placements[f.file_id], faults)
        if node not in layout.failed
    ]
    intact = [node for node, fault in surviving if fault == "none"]
    if intact:
        assert layout.read(f.file_id) == f.data
        assert layout.serving_node(f.file_id) == intact[0]
        return
    with pytest.raises(UnreadableFile) as err:
        layout.read(f.file_id)
    tried = ", ".join(f"node {node} {FATES[fault]}" for node, fault in surviving)
    assert str(err.value) == (
        f"no intact replica of {f.file_id}: {tried}" if surviving
        else f"no surviving replica of {f.file_id}"
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_read_serves_the_first_intact_replica_on_a_surviving_node(data):
    node_count = data.draw(st.integers(3, 5), label="node_count")
    replication = data.draw(st.integers(2, 3), label="replication")
    f = make_file(data.draw(st.integers(0, 23), label="file"))
    layout = StorageLayout(node_count=node_count, replication=replication).ingest([f])
    faults = data.draw(
        st.lists(st.sampled_from(["none", *FATES]), min_size=replication, max_size=replication),
        label="faults",
    )
    failed = data.draw(st.sets(st.integers(0, node_count - 1)), label="failed")
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        layout.save(root)
        for node, fault in zip(layout.placements[f.file_id], faults):
            spoil(root / replica(f.file_id, node), fault)
        loaded = StorageLayout.load(root)
        for node in failed:
            loaded.fail_node(node)
        check_read(loaded, f, faults)
    # in memory every node's copy is the one blob, altered or not
    if data.draw(st.booleans(), label="blob altered"):
        layout.blobs[f.file_id] = b"other bytes"
        faults = ["altered"] * replication
    else:
        faults = ["none"] * replication
    for node in failed:
        layout.fail_node(node)
    check_read(layout, f, faults)


def test_a_view_reads_a_loaded_file_in_one_read_call(tmp_path, monkeypatch):
    # perfbench wraps StorageLayout.read and counts one read per call
    f = make_file(1)
    StorageLayout(node_count=4, replication=2).ingest([f]).save(tmp_path)
    view = StorageLayout.load(tmp_path).reshaped(2, 1)
    calls, read = [], StorageLayout.read

    def counted(layout, file_id):
        calls.append(file_id)
        return read(layout, file_id)

    monkeypatch.setattr(StorageLayout, "read", counted)
    assert view.read(f.file_id) == f.data
    assert calls == [f.file_id]


def test_a_restored_replica_serves_again(tmp_path):
    f = make_file(1)
    layout = StorageLayout(node_count=3, replication=2).ingest([f])
    layout.save(tmp_path)
    first, second = layout.placements[f.file_id]
    path = tmp_path / replica(f.file_id, first)
    path.rename(tmp_path / "aside")
    loaded = StorageLayout.load(tmp_path)
    assert loaded.read(f.file_id) == f.data and loaded.serving_node(f.file_id) == second
    (tmp_path / "aside").rename(path)
    assert loaded.read(f.file_id) == f.data and loaded.serving_node(f.file_id) == first


def test_save_of_a_loaded_layout_writes_only_the_files_it_holds(tmp_path):
    old = [make_file(i) for i in range(6)]
    root = tmp_path / "store"
    StorageLayout(node_count=3, replication=2).ingest(old).save(root)
    stored = sorted(root.glob(replica()))
    for path in stored:
        path.write_bytes(b"other bytes")  # what a rewrite of the replicas would mend
    loaded = StorageLayout.load(root)
    new = make_file(6)
    loaded.ingest([new]).save(root)
    assert {p.read_bytes() for p in stored} == {b"other bytes"}
    assert loaded.blobs.keys() == {new.file_id}
    reloaded = StorageLayout.load(root)
    assert reloaded.read(new.file_id) == new.data
    assert [m.file_id for m in reloaded.dataset_files("d")] == [
        m.file_id for m in loaded.dataset_files("d")
    ]


def test_an_ingest_rewrites_only_the_manifests_it_changes(tmp_path):
    # an ingest of d2 into a store holding d1 leaves d1's manifest and
    # fabric.conf as they were, inode and mtime; one into d1, or a missing
    # fabric.conf, has them written again
    StorageLayout(node_count=4, replication=2).ingest(make_file(i, "d1") for i in range(6)).save(
        tmp_path
    )
    kept = [tmp_path / "datasets" / "d1" / "manifest.tsv", tmp_path / "fabric.conf"]

    def stats():
        return [(path.stat().st_ino, path.stat().st_mtime_ns) for path in kept]

    before = stats()
    StorageLayout.load(tmp_path).ingest(make_file(i, "d2") for i in range(6, 12)).save(tmp_path)
    assert stats() == before
    loaded = StorageLayout.load(tmp_path)
    assert {name: len(metas) for name, metas in loaded.by_dataset.items()} == {"d1": 6, "d2": 6}
    kept[1].unlink()
    loaded.ingest([make_file(12, "d1")]).save(tmp_path)
    assert kept[0].stat().st_ino != before[0][0]
    assert kept[1].read_text() == "node_count=4\nreplication=2\n"
    assert {name: len(metas) for name, metas in StorageLayout.load(tmp_path).by_dataset.items()} \
        == {"d1": 7, "d2": 6}


def test_place_all_imports_no_numpy():
    # placement is pure Python: with numpy unimportable, a new interpreter
    # places every id as the reference ranks it
    probe = (
        "import json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from dslake.storage import place_all\n"
        "ids = sys.argv[1].split(',')\n"
        "print(json.dumps([place_all(ids, n, n) for n in range(1, 21)]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dslake.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", probe, ",".join(HEX_IDS)],
                          capture_output=True, text=True, check=True, env=env)
    assert json.loads(proc.stdout) == [
        [reference_ranking(file_id, n) for file_id in HEX_IDS] for n in range(1, 21)
    ]


def test_save_of_a_loaded_layout_elsewhere_copies_intact_bytes(tmp_path):
    files = [make_file(i) for i in range(6)]
    layout = StorageLayout(node_count=3, replication=2).ingest(files)
    layout.save(tmp_path / "a")
    first = files[0].file_id
    (tmp_path / "a" / replica(first, layout.placements[first][0])).write_bytes(b"other bytes")
    loaded = StorageLayout.load(tmp_path / "a")
    loaded.save(tmp_path / "b")
    loaded.reshaped(4, 3).save(tmp_path / "a")  # the same root at another shape
    for root, shape in ((tmp_path / "b", (3, 2)), (tmp_path / "a", (4, 3))):
        copy = StorageLayout.load(root)
        assert (copy.node_count, copy.replication) == shape
        for f in files:
            nodes = copy.placements[f.file_id]
            assert {(root / replica(f.file_id, node)).read_bytes() for node in nodes} == {f.data}


@pytest.mark.parametrize("node_count", [1, 2, 9, 10, 11, 20])
def test_load_reproduces_placements(tmp_path, node_count):
    files = [make_file(i) for i in range(12)]
    for replication in sorted({1, min(2, node_count), node_count}):
        root = tmp_path / f"r{replication}"
        layout = StorageLayout(node_count=node_count, replication=replication).ingest(files)
        layout.save(root)
        loaded = StorageLayout.load(root)
        assert loaded.placements == layout.placements
        assert loaded.reshaped(node_count, replication).placements == layout.placements


def test_reshape_places_like_an_ingest_at_the_new_node_count():
    files = [make_file(i) for i in range(40)]
    view = StorageLayout(node_count=8, replication=2).ingest(files).reshaped(13, 3)
    direct = StorageLayout(node_count=13, replication=3).ingest(files)
    assert view.placements == direct.placements


def _counting_place_all(monkeypatch) -> list[str]:
    placed = []

    def counting(file_ids, node_count, replication, prefixes=None):
        placed.extend(file_ids)
        return place_all(file_ids, node_count, replication, prefixes)

    monkeypatch.setattr("dslake.storage.place_all", counting)
    return placed


def test_a_second_view_at_a_shape_places_nothing(monkeypatch):
    layout = StorageLayout(node_count=8, replication=2).ingest(make_file(i) for i in range(40))
    first = layout.reshaped(4, 2)
    placed = _counting_place_all(monkeypatch)
    second = layout.reshaped(4, 2)
    assert placed == []
    assert second.placements == first.placements
    assert second.placements is not first.placements


def test_the_next_view_places_a_file_ingested_since(monkeypatch):
    parent = StorageLayout(node_count=8, replication=2).ingest(make_file(i) for i in range(20))
    parent.reshaped(4, 2)
    new = make_file(20)
    parent.ingest([new])
    placed = _counting_place_all(monkeypatch)
    view = parent.reshaped(4, 2)
    assert placed == [new.file_id]
    assert view.placements[new.file_id] == place_all([new.file_id], 4, 2)[0]
    assert view.placements == StorageLayout(node_count=4, replication=2).ingest(
        [make_file(i) for i in range(21)]
    ).placements


def test_views_sharing_a_memo_keep_their_shapes_and_file_order():
    def in_order(layout):
        metas = layout.dataset_files("d")
        return [(m.t0, m.file_id) for m in metas] == sorted((m.t0, m.file_id) for m in metas)

    files = [make_file(i) for i in range(30)]
    parent = StorageLayout(node_count=8, replication=2).ingest(files[:10])
    narrow, wide = parent.reshaped(4, 2), parent.reshaped(13, 3)
    assert narrow.memo is wide.memo is parent.memo
    parent.ingest(files[10:20])  # into the parent: its views keep what they had
    narrow.ingest(files[20:25])  # into a view: its parent and sibling stay as they were
    for layout, shape, held in ((parent, (8, 2), 20), (narrow, (4, 2), 15), (wide, (13, 3), 10)):
        metas = layout.dataset_files("d")
        assert len(metas) == len(layout.placements) == held and in_order(layout)
        ids = [m.file_id for m in metas]
        assert [layout.placements[i] for i in ids] == place_all(ids, *shape)
    later = parent.reshaped(4, 2)
    assert in_order(later) and len(later.placements) == 20
    # one placement per file per shape in use: the parent's 20 and the view's 5
    assert len(parent.memo[("placements", 4, 2)]) == 25


@st.composite
def layout_shapes(draw):
    """Hypothesis strategy for a shape: a node count and a replication."""
    node_count = draw(st.integers(1, 20))
    return node_count, draw(st.integers(1, node_count))


@settings(max_examples=20, deadline=None)
@given(st.lists(hex_ids(), max_size=40, unique=True), st.lists(layout_shapes(), min_size=1, max_size=6),
       st.data())
def test_a_shared_prefix_memo_places_as_the_reference_at_every_shape(file_ids, shapes, data):
    # a chain of views sharing one memo, each ingest or reshape the next
    # step; ids ingested after a reshape are hashed into the same memo
    cuts = sorted(data.draw(st.lists(st.integers(0, len(file_ids)), max_size=4)))
    batches = [file_ids[a:b] for a, b in zip([0, *cuts], [*cuts, len(file_ids)])]
    layout = StorageLayout(*shapes[0])
    steps = [("ingest", batch) for batch in batches] + [("reshape", shape) for shape in shapes[1:]]
    held = []
    for kind, arg in data.draw(st.permutations(steps)):
        if kind == "ingest":
            layout.ingest(DataFile(i, "d", utc(2011, 1, 1), utc(2011, 1, 1), b"") for i in arg)
            held += arg
        else:
            layout = layout.reshaped(*arg)
        node_count, replication = layout.node_count, layout.replication
        expected = [tuple(reference_ranking(i, node_count)[:replication]) for i in held]
        assert [layout.placements[i] for i in held] == expected
        assert place_all(held, node_count, replication) == expected
        assert len(layout.memo.get("prefixes", {})) == len(held)


def test_a_reshape_of_a_loaded_store_hashes_no_id_again(tmp_path, monkeypatch):
    import dslake.storage as storage

    files = [make_file(i) for i in range(30)]
    StorageLayout(node_count=8, replication=2).ingest(files).save(tmp_path)
    loaded = StorageLayout.load(tmp_path)
    new = make_file(30)
    ids = [f.file_id for f in [*files, new]]
    expected = place_all(ids[:-1], 4, 2), place_all(ids, 13, 3)
    fnv_prefixes, hashed = storage._fnv_prefixes, []

    def spying(file_ids):
        hashed.extend(file_ids)
        return fnv_prefixes(file_ids)

    monkeypatch.setattr(storage, "_fnv_prefixes", spying)
    view = loaded.reshaped(4, 2)
    assert hashed == []
    assert [view.placements[i] for i in ids[:-1]] == expected[0]
    view.ingest([new])
    assert hashed == [new.file_id]
    wider = view.reshaped(13, 3)
    assert hashed == [new.file_id]
    assert [wider.placements[i] for i in ids] == expected[1]
    assert len(loaded.memo["prefixes"]) == 31  # one per file id, whatever the shapes


@pytest.mark.parametrize(
    "file_id, dataset, relpath",
    [
        (None, "d", ""),
        (None, "d", "d"),
        (None, "d", "/etc/hostname"),
        (None, "d", "../../fabric.conf"),
        (None, "d", "d/../../fabric.conf"),
        ("x/../../../fabric", "d", "x/../../../fabric.snap"),
        ("nul\0id", "d", "nul\0id.snap"),
        (None, "e", "{fid}.snap"),
        (None, "d", "d/{fid}.snap"),
    ],
    ids=["empty", "dataset-dir", "absolute", "parent", "inner-parent", "id-with-slash",
         "id-with-nul", "other-dataset", "old-layout"],
)
def test_load_refuses_path_save_would_not_write(tmp_path, file_id, dataset, relpath):
    f = make_file(0)
    StorageLayout(node_count=3, replication=2).ingest([f]).save(tmp_path)
    manifest = tmp_path / "datasets" / "d" / "manifest.tsv"
    fid = file_id or f.file_id
    _, _, t0, t1, _ = manifest.read_text().rstrip("\n").split("\t")
    manifest.write_text("\t".join((fid, dataset, t0, t1, relpath.format(fid=fid))) + "\n")
    with pytest.raises(StorageError) as err:
        StorageLayout.load(tmp_path)
    assert str(err.value).startswith(f"{manifest}: file {fid!r} ")


@pytest.mark.parametrize(
    "conf, message",
    [
        ("replication=2\n", "fabric.conf:2: missing key 'node_count'"),
        ("node_count=3\n", "fabric.conf:2: missing key 'replication'"),
        ("node_count=three\nreplication=2\n",
         "fabric.conf:1: node_count is not an integer: 'three'"),
        ("node_count=3\nreplication=\n", "fabric.conf:2: replication is not an integer: ''"),
        ("node_count=2\nnode_count=3\nreplication=2\n", "fabric.conf:2: key 'node_count' given twice"),
        ("node_count=3\nnode-count=9\nreplication=2\n",
         "fabric.conf:2: unknown key 'node-count'; keys are node_count, replication"),
    ],
    ids=["no-nodes", "no-replication", "word", "empty", "repeated-key", "unknown-key"],
)
def test_load_rejects_bad_fabric_conf(tmp_path, conf, message):
    (tmp_path / "fabric.conf").write_text(conf)
    with pytest.raises(StorageError) as err:
        StorageLayout.load(tmp_path)
    assert str(err.value) == f"{tmp_path}/{message}"


@pytest.mark.parametrize(
    "line, message",
    [
        ("abc\td", "expected 5 tab-separated columns, found 2"),
        ("abc\td\t2011-01-01T00:00Z\t2011-01-01T00:00Z\td/abc.snap\textra",
         "expected 5 tab-separated columns, found 6"),
        ("abc\td\t2011-01-01T00:00Z\t2011-13-01T00:00Z\td/abc.snap", "bad timestamp: "),
        ("abc\td\t2011-01-02T00:00Z\t2011-01-01T00:00Z\td/abc.snap",
         "t0 2011-01-02T00:00Z is after t1 2011-01-01T00:00Z"),
        ("{fid}\td\t2011-01-02T00:00Z\t2011-01-03T00:00Z\t{fid}.snap",
         "file '{fid}' is listed twice"),
    ],
    ids=["short", "long", "time", "reversed-times", "listed-twice"],
)
def test_load_rejects_bad_manifest_line(tmp_path, line, message):
    f = make_file(0)
    StorageLayout(node_count=3, replication=2).ingest([f]).save(tmp_path)
    manifest = tmp_path / "datasets" / "d" / "manifest.tsv"
    manifest.write_text(manifest.read_text() + line.format(fid=f.file_id) + "\n")
    with pytest.raises(StorageError) as err:
        StorageLayout.load(tmp_path)
    assert str(err.value).startswith(f"{manifest}:2: {message.format(fid=f.file_id)}")


@settings(max_examples=100, deadline=None)
@given(key_value_texts(
    "node_count=3\nreplication=2\n",
    ["node_count", "replication"],
    ["1", "2", "3", "0", "-1", "x", "2.5"],
    "=",
))
def test_any_fabric_conf_gives_a_layout_or_a_storage_error(text):
    with tempfile.TemporaryDirectory() as root:
        Path(root, "fabric.conf").write_text(text, encoding="utf-8")
        try:
            layout = StorageLayout.load(Path(root))
        except StorageError:
            return
    assert 1 <= layout.replication <= layout.node_count


MANIFEST_FIELDS = [
    "abc", "d", "d/abc.snap", "", " ", "2011-01-01T00:00Z", "2011-01-01T06:00:00+00:00",
    "2011-01-01 06:00+05:00", "0001-01-01T00:00+01:00", "9999-12-31T23:59-01:00",
    "2011-13-01T00:00Z", "2011-01-01T00:00:00.5Z", "Z", "+00:00",
]


def manifest_bytes():
    """Hypothesis strategy for manifest files: lines of mostly five fields,
    each a known field or arbitrary text, joined by tabs or another
    separator; or arbitrary bytes."""
    field = st.sampled_from(MANIFEST_FIELDS) | st.text(max_size=8)
    line = st.tuples(
        st.lists(field, min_size=4, max_size=6), st.sampled_from(["\t", "\t", "\t", " ", ""])
    ).map(lambda fields_sep: fields_sep[1].join(fields_sep[0]))
    lines = st.lists(line | st.text(max_size=16), max_size=5).map("\n".join)
    return lines.map(lambda text: text.encode("utf-8", "surrogatepass")) | st.binary(max_size=64)


@settings(max_examples=300, deadline=None)
@given(manifest_bytes())
def test_any_manifest_gives_file_metas_or_a_storage_error(raw):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "manifest.tsv")
        path.write_bytes(raw)
        try:
            metas = read_manifest(path)
        except StorageError:
            return
    assert all(isinstance(m, FileMeta) and m.t0 <= m.t1 for m in metas)


def test_load_rejects_fabric_conf_that_is_not_utf8(tmp_path):
    (tmp_path / "fabric.conf").write_bytes(b"node_count=3\nreplication=\xff2\n")
    with pytest.raises(StorageError) as err:
        StorageLayout.load(tmp_path)
    assert str(err.value) == f"{tmp_path}/fabric.conf:2: not UTF-8 text"


def test_load_rejects_manifest_that_is_not_utf8(tmp_path):
    StorageLayout(node_count=3, replication=2).ingest([make_file(0)]).save(tmp_path)
    manifest = tmp_path / "datasets" / "d" / "manifest.tsv"
    manifest.write_bytes(manifest.read_bytes() + b"\xff\xfeabc\n")
    with pytest.raises(StorageError) as err:
        StorageLayout.load(tmp_path)
    assert str(err.value) == f"{manifest}:2: not UTF-8 text"



def test_load_lists_one_file_in_two_datasets(tmp_path):
    # a file is stored once, whatever datasets list it: both keep it
    f, g = make_file(0, dataset="a"), make_file(1, dataset="b")
    layout = StorageLayout(node_count=3, replication=2).ingest([f, g])
    layout.save(tmp_path)
    first, second = (tmp_path / "datasets" / name / "manifest.tsv" for name in "ab")
    second.write_text(second.read_text() + first.read_text().replace("\ta\t", "\tb\t"))
    loaded = StorageLayout.load(tmp_path)
    assert loaded.placements == layout.placements
    assert [m.file_id for m in loaded.dataset_files("a")] == [f.file_id]
    assert [m.file_id for m in loaded.dataset_files("b")] == [f.file_id, g.file_id]
    assert loaded.read(f.file_id) == f.data


@settings(max_examples=60)
@given(hex_ids(), st.integers(1, 9), st.data())
def test_replication_invariant(file_id, node_count, data):
    replication = data.draw(st.integers(1, node_count))
    nodes = place_all([file_id], node_count, replication)[0]
    assert len(set(nodes)) == replication
    # any failed set smaller than the replication factor keeps it readable
    blob = file_id.encode()
    real_id = hashlib.sha256(blob).hexdigest()
    layout = StorageLayout(node_count=node_count, replication=replication)
    layout.ingest([DataFile.from_bytes("d", utc(2011, 1, 1), utc(2011, 1, 1), blob)])
    failed = data.draw(
        st.lists(st.integers(0, node_count - 1), max_size=replication - 1, unique=True)
    )
    for node in failed:
        layout.fail_node(node)
    assert layout.read(real_id) == blob
