"""Simulated multi-node file storage with deterministic placement.

Nodes live in one process. Placement is rendezvous hashing: for each node
n the score is a 64-bit FNV-1a hash of the file id concatenated with the
node id rendered in decimal, and a file's replicas go to the
``replication`` highest-scoring nodes in descending score order (ties by
ascending node id). File ids are content addresses: the SHA-256 hex
digest of the file bytes.

On-disk layout (used by the CLI):

    <root>/fabric.conf                    # node_count=.. replication=..
    <root>/node-<k>/<dataset>/<fid>.snap  # one copy per placement node
    <root>/datasets/<dataset>/manifest.tsv

Manifest columns (tab-separated): file_id, dataset, t0, t1, relative_path;
times are ISO-8601 UTC.

Mutations (ingest, fail, recover) are serialized by the caller; reads are
safe to run concurrently with other reads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import datetime
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Sequence

from dslake.errors import (
    DuplicateFile,
    InvalidReplication,
    StorageError,
    UnknownNode,
    UnreadableFile,
    read_utf8,
)
from dslake.times import iso_seconds, parse_utc

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes, state: int = _FNV_OFFSET) -> int:
    h = state
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


@lru_cache(maxsize=65536)
def _prefix_hash(file_id: str) -> int:
    return fnv1a64(file_id.encode())


def placement_scores(file_id: str, node_count: int) -> list[tuple[int, int]]:
    """(score, node) pairs, highest score first, ties by node id."""
    prefix = _prefix_hash(file_id)
    scored = [
        (fnv1a64(str(node).encode(), prefix), node) for node in range(node_count)
    ]
    scored.sort(key=lambda sn: (-sn[0], sn[1]))
    return scored


def place(file_id: str, node_count: int, replication: int) -> list[int]:
    """Deterministic rendezvous placement of one file."""
    if not 1 <= replication <= node_count:
        raise InvalidReplication(
            f"replication {replication} not in [1, {node_count}]"
        )
    return [node for _, node in placement_scores(file_id, node_count)[:replication]]


@dataclass(frozen=True)
class DataFile:
    file_id: str
    dataset: str
    t0: datetime
    t1: datetime
    data: bytes

    def __post_init__(self):
        if self.t0 > self.t1:
            raise StorageError(f"degenerate time range for {self.file_id}")

    @staticmethod
    def from_bytes(dataset: str, t0: datetime, t1: datetime, data: bytes) -> "DataFile":
        return DataFile(
            file_id=hashlib.sha256(data).hexdigest(),
            dataset=dataset,
            t0=t0,
            t1=t1,
            data=data,
        )


@dataclass(frozen=True)
class FileMeta:
    file_id: str
    dataset: str
    t0: datetime
    t1: datetime
    relative_path: str


@dataclass
class StorageLayout:
    """The simulated node set, file placement, and failure state.

    ``placements`` holds each file's replica nodes in placement order; a
    read is served by the first that has not failed.

    ``memo`` holds results derived from the stored content: one dict per
    owner, a procedure function or a library's extractor functions. Each
    entry is a pure function of its owner, file bytes and query inputs, and
    file ids are content addresses, so none goes stale. Entries are bounded
    by the layout's files times its distinct query keys and are dropped
    with the layout; reshaped views share them. Memory grows with the
    number of distinct bodies too: the cyclone extractor keys minima on the
    body text, so a dataset whose bodies are all distinct keeps a second
    copy of its text here, plus every snapshot the combiner parsed. No
    lock: an engine runs one submit at a time, and two concurrent readers
    at worst compute a value twice.
    """

    node_count: int
    replication: int
    placements: dict[str, tuple[int, ...]] = field(default_factory=dict)
    failed: set[int] = field(default_factory=set)
    blobs: dict[str, bytes] = field(default_factory=dict)
    meta: dict[str, FileMeta] = field(default_factory=dict)
    _verified: set[str] = field(default_factory=set)
    memo: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.node_count < 1:
            raise InvalidReplication("need at least one node")
        if not 1 <= self.replication <= self.node_count:
            raise InvalidReplication(
                f"replication {self.replication} not in [1, {self.node_count}]"
            )

    # -- ingestion ---------------------------------------------------------

    def ingest(
        self,
        files: Iterable[DataFile],
        placement_fn: Callable[[str, int, int], Sequence[int]] | None = None,
    ) -> "StorageLayout":
        """Record placements and store bytes on every placement node.

        ``placement_fn`` overrides rendezvous placement; tests use it to
        exercise arbitrary file-to-node assignments.
        """
        chooser = placement_fn or place
        for f in files:
            if f.file_id in self.blobs:
                raise DuplicateFile(f.file_id)
            nodes = tuple(chooser(f.file_id, self.node_count, self.replication))
            if len(set(nodes)) != len(nodes):
                raise StorageError(f"placement nodes not distinct: {nodes}")
            self.placements[f.file_id] = nodes
            self.blobs[f.file_id] = f.data
            self.meta[f.file_id] = FileMeta(
                file_id=f.file_id,
                dataset=f.dataset,
                t0=f.t0,
                t1=f.t1,
                relative_path=f"{f.dataset}/{f.file_id}.snap",
            )
        return self

    # -- failure injection ---------------------------------------------------

    def fail_node(self, node: int) -> "StorageLayout":
        if not 0 <= node < self.node_count:
            raise UnknownNode(str(node))
        self.failed.add(node)
        return self

    def recover_node(self, node: int) -> "StorageLayout":
        if not 0 <= node < self.node_count:
            raise UnknownNode(str(node))
        self.failed.discard(node)
        return self

    # -- reads ---------------------------------------------------------------

    def serving_node(self, file_id: str) -> int:
        """First surviving node in placement order."""
        nodes = self.placements.get(file_id)
        if nodes is None:
            raise UnreadableFile(f"unknown file {file_id}")
        for node in nodes:
            if node not in self.failed:
                return node
        raise UnreadableFile(f"no surviving replica of {file_id}")

    def read(self, file_id: str) -> bytes:
        self.serving_node(file_id)
        data = self.blobs[file_id]
        if file_id not in self._verified:
            digest = hashlib.sha256(data).hexdigest()
            if digest != file_id:
                raise UnreadableFile(
                    f"content digest mismatch for {file_id}: {digest}"
                )
            self._verified.add(file_id)
        return data

    def dataset_files(self, dataset: str) -> list[FileMeta]:
        """Dataset metadata ordered by (t0, file_id); empty if unknown."""
        found = [m for m in self.meta.values() if m.dataset == dataset]
        found.sort(key=lambda m: (m.t0, m.file_id))
        return found

    # -- on-disk mode ----------------------------------------------------------

    def save(self, root: Path) -> None:
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        (root / "fabric.conf").write_text(
            f"node_count={self.node_count}\nreplication={self.replication}\n"
        )
        datasets: dict[str, list[FileMeta]] = {}
        for meta in self.meta.values():
            datasets.setdefault(meta.dataset, []).append(meta)
        for dataset, metas in datasets.items():
            metas.sort(key=lambda m: (m.t0, m.file_id))
            manifest_dir = root / "datasets" / dataset
            manifest_dir.mkdir(parents=True, exist_ok=True)
            write_manifest(manifest_dir / "manifest.tsv", metas)
        for file_id, nodes in self.placements.items():
            for node in nodes:
                target = root / f"node-{node}" / self.meta[file_id].relative_path
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(self.blobs[file_id])

    @staticmethod
    def load(root: Path) -> "StorageLayout":
        root = Path(root)
        conf_path = root / "fabric.conf"
        if not conf_path.exists():
            raise StorageError(f"no fabric at {root}")
        conf: dict[str, int] = {}
        text = read_utf8(conf_path, StorageError)
        for lineno, line in enumerate(text.splitlines(), start=1):
            key, _, value = line.partition("=")
            if key in ("node_count", "replication"):
                try:
                    conf[key] = int(value)
                except ValueError:
                    raise StorageError(
                        f"{conf_path}:{lineno}: {key} is not an integer: {value!r}"
                    ) from None
        for key in ("node_count", "replication"):
            if key not in conf:
                raise StorageError(f"{conf_path}: no {key}")
        layout = StorageLayout(**conf)
        datasets_dir = root / "datasets"
        if not datasets_dir.exists():
            return layout
        for manifest in sorted(datasets_dir.glob("*/manifest.tsv")):
            for meta in read_manifest(manifest):
                file_id = meta.file_id
                nodes = tuple(place(file_id, layout.node_count, layout.replication))
                data = None
                for node in nodes:
                    candidate = root / f"node-{node}" / meta.relative_path
                    if candidate.exists():
                        data = candidate.read_bytes()
                        break
                if data is None:
                    raise StorageError(f"no replica of {file_id} on disk")
                layout.placements[file_id] = nodes
                layout.blobs[file_id] = data
                layout.meta[file_id] = meta
        return layout

    # -- derived views ----------------------------------------------------------

    def reshaped(self, node_count: int, replication: int | None = None) -> "StorageLayout":
        """Same content re-placed onto a different simulated node set.

        Failed nodes are nodes of this layout, so a layout with any of them
        is not reshaped: the view would silently serve every replica.
        """
        if self.failed:
            raise StorageError(
                f"nodes {sorted(self.failed)} of {self.node_count} are failed;"
                f" cannot reshape to {node_count} nodes"
            )
        replication = replication or min(self.replication, node_count)
        view = StorageLayout(node_count=node_count, replication=replication)
        view.blobs = self.blobs  # shared: files are content-addressed
        view._verified = self._verified
        view.memo = self.memo
        view.meta = self.meta
        for file_id in self.meta:
            view.placements[file_id] = tuple(place(file_id, node_count, replication))
        return view


def read_manifest(path: Path) -> list[FileMeta]:
    """A manifest's entries in file order; a malformed line raises ``StorageError``."""
    metas = []
    for lineno, line in enumerate(read_utf8(path, StorageError).splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise StorageError(
                f"{path}:{lineno}: expected 5 tab-separated columns,"
                f" found {len(fields)}"
            )
        file_id, dataset, t0, t1, relpath = fields
        try:
            times = parse_utc(t0), parse_utc(t1)
        except ValueError as exc:
            raise StorageError(f"{path}:{lineno}: bad timestamp: {exc}") from None
        metas.append(FileMeta(file_id, dataset, *times, relpath))
    return metas


def write_manifest(path: Path, metas: Iterable[FileMeta]) -> None:
    """Write ``metas`` in the format ``read_manifest`` reads."""
    lines = [
        "\t".join(
            (m.file_id, m.dataset, iso_seconds(m.t0), iso_seconds(m.t1), m.relative_path)
        )
        for m in metas
    ]
    path.write_text("\n".join(lines) + "\n")
