"""Simulated multi-node file storage with deterministic placement.

Nodes live in one process. Placement is rendezvous hashing: for each node
n the score is a 64-bit FNV-1a hash of the file id's 64 hex digits
followed by the node id in decimal, and a file's replicas go to the
``replication`` highest-scoring nodes in descending score order (ties by
ascending node id). File ids are content addresses, the SHA-256 digest of
the file bytes in lowercase hex, so the store holds a file once, whatever
datasets list it: a dataset is its manifest over the stored files.

Placement is computed for a whole list of file ids at once (``place_all``),
in pure Python: each id's hash is a 128-bit lane of one int, masked to 64
bits after each multiply as FNV-1a's products wrap (``_scores``). It is a
pure function of the file id and the shape (node count and
replication), so the layout's memo keeps every placement per shape, and
once per id the hash of its 64 digits, the FNV-1a prefix every node
extends: ``ingest``, ``load`` and ``reshaped`` place, in one call, only
the ids not placed at their shape before, and hash again no id's digits.

On-disk layout (used by the CLI):

    <root>/fabric.conf                    # node_count=<n> and replication=<r>, each once
    <root>/node-<k>/<file_id>.snap        # one copy per placement node
    <root>/datasets/<dataset>/manifest.tsv
    <root>/derived/<name>                 # indexes of derived records (below)

Manifest columns (tab-separated): file_id, dataset, t0, t1, relative_path;
times are ISO-8601 UTC. A manifest lists a file id at most once. In a
stored manifest the file id is 64 lowercase hex digits, the dataset is the
manifest's directory and the relative path is ``<file_id>.snap``; ``ingest``
refuses a file that would not make such a line (``_STORED_FORM``), and
``load`` a line that is not one.

A loaded store holds no file bytes. ``load`` checks ``fabric.conf``, each
manifest line and its stored path, and places the files. It opens no
``.snap`` file: every read, in memory or on disk, takes the first copy in
placement order, past failed nodes, whose SHA-256 digest is the file id
(``StorageLayout.read``). ``save`` writes the files a layout holds in
memory, those ingested in this process, and copies a loaded file only to
a root or node its stored replicas are not at; then the manifests, then
``fabric.conf``, each replaced whole as an index is (below), so a save cut
short leaves no manifest cut or listing a replica not written. In the
loaded store's own root it writes only the manifests whose lists an ingest
changed, and ``fabric.conf`` only when it is missing or says otherwise.

``derived/`` holds indexes of results derived from the stored files: the
engine's map records, one index per extractor set, each record carrying
all that the engine's reduce needs of its file (``read_index``,
``write_index``). An index is a header line, ``dslake-index <stamp>
<SHA-256 of the body>``, then its body: one entry per line. Its writer
replaces it whole, through a temporary file and ``os.replace``. A reader
takes an index only when its header carries the reader's stamp and the
digest of the body that follows, and ignores it whole otherwise: missing,
truncated, damaged or stamped otherwise. A file there that no reader
opens, such as an index of an older kind, is left as it is. Entries are
functions of file ids, which are content addresses, so nothing
``ingest`` does invalidates one; a change to anything the stamp covers
does. The index is guarded against damage and staleness, not against
someone who can write the store, who can already rewrite its manifests.
Like a memo hit, an index hit reads no replica, so the file's fragment
names ``serving_node`` as it stands, whatever a read would have found.
To drop every index, delete ``<root>/derived/``.

Mutations (ingest, fail, recover) are serialized by the caller. Reads may
run concurrently: each bad replica a read meets is recorded in
``StorageLayout.lost`` by one dict operation, atomic in CPython, so no lock.
"""

from __future__ import annotations

import hashlib
import os
import re
import struct
import threading
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterable, Sequence

from dslake.errors import (
    DuplicateFile,
    InvalidReplication,
    StorageError,
    UnknownNode,
    Row,
    UnreadableFile,
    read_keys,
    read_utf8,
)
from dslake.times import iso_seconds, parse_utc

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = 2**64 - 1
_LANE = 16  # bytes of a hash's lane in ``_scores``
_LANE_ONE = (1).to_bytes(_LANE, "little")
_FILE_ID = re.compile("[0-9a-f]{64}")  # a content address: a SHA-256 hex digest
# the most nodes a layout has: placement scores every (file, node) pair, so
# its time and memory grow with the node count (1460 ids: ~1 s and 19 MiB
# at 256 nodes, 4 s and 108 MiB at 1024, on a 2-core x86_64 host)
MAX_NODES = 256


def _fnv_prefixes(file_ids: Sequence[str]) -> int:
    """The 64-bit FNV-1a hash of each id's 64 hex digits (see ``place_all``),
    in the 128-bit lanes of one Python int, little-endian, one lane per id:
    one pass per column XORs in every id's byte, multiplies by the FNV prime
    and masks each lane to 64 bits. A lane below 2**64 times the 41-bit
    prime stays below 2**105, so no product carries into the next lane."""
    count = len(file_ids)
    joined = "".join(file_ids).encode()
    ones = int.from_bytes(_LANE_ONE * count, "little")
    mask = _FNV_MASK * ones
    prefix = _FNV_OFFSET * ones
    column = bytearray(_LANE * count)
    for c in range(64):
        column[0::_LANE] = joined[c::64]
        prefix = ((prefix ^ int.from_bytes(column, "little")) * _FNV_PRIME) & mask
    return prefix


def _low_halves(lanes: int, count: int) -> tuple[int, ...]:
    """The low 64 bits of each of the ``count`` 128-bit lanes of ``lanes``."""
    return struct.unpack(f"<{2 * count}Q", lanes.to_bytes(_LANE * count, "little"))[0::2]


def _scores(
    file_ids: Sequence[str], node_count: int, prefixes: dict[str, int] | None = None
) -> list[tuple[int, ...]]:
    """Each file's rendezvous scores, one per node: the 64-bit FNV-1a hash
    of its id followed by each node id. An id's prefix, the hash of its
    digits, is computed only if ``prefixes`` lacks it, and kept there."""
    count = len(file_ids)
    ones = int.from_bytes(_LANE_ONE * count, "little")
    mask = _FNV_MASK * ones
    prefixes = {} if prefixes is None else prefixes
    new = [file_id for file_id in file_ids if file_id not in prefixes]
    lanes = _fnv_prefixes(new)  # every id's lane when none was known
    prefixes.update(zip(new, _low_halves(lanes, len(new))))
    if len(new) < count:
        flat = [0] * (2 * count)
        flat[0::2] = map(prefixes.__getitem__, file_ids)
        lanes = int.from_bytes(struct.pack(f"<{2 * count}Q", *flat), "little")
    by_node = []
    for node in range(node_count):
        h = lanes
        for byte in str(node).encode():
            h = ((h ^ byte * ones) * _FNV_PRIME) & mask
        by_node.append(_low_halves(h, count))
    return list(zip(*by_node))


def _ranked(scores: Iterable[Sequence[int]]) -> list[list[int]]:
    """Node ids of each row by descending score, ties by ascending node id
    (a reversed sort keeps equal keys in their order)."""
    return [sorted(range(len(row)), key=row.__getitem__, reverse=True) for row in scores]


def place_all(
    file_ids: Sequence[str], node_count: int, replication: int,
    prefixes: dict[str, int] | None = None,
) -> list[tuple[int, ...]]:
    """Rendezvous placement of every file of ``file_ids``, in their order.
    Each id must be 64 lowercase hex digits, as ``ingest`` and ``load`` ensure.
    ``prefixes``, if given, keeps each id's hash of its digits (``_scores``)."""
    if not 1 <= replication <= node_count:
        raise InvalidReplication(f"replication {replication} not in [1, {node_count}]")
    ranked = _ranked(_scores(file_ids, node_count, prefixes))
    return [tuple(nodes[:replication]) for nodes in ranked]


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

    ``placements`` holds each file's replica nodes in placement order. A
    node's copy of a file ingested in this process is the one ``bytes`` in
    ``blobs``; of a loaded file, its replica under ``root``, read on every
    read. ``lost`` maps each file to the replicas reads found bad and their
    fate; ``serving_node`` skips those and failed nodes, so after a read it
    names the node that served. A reshaped view of a loaded store, whose
    simulated nodes are not directories, checks its own ``serving_node``
    and then walks the stored placements of ``source``, the loaded layout,
    with that layout's failed and lost sets; ``save`` takes its root there,
    and ``derived`` its index directory.
    ``by_dataset`` holds each dataset's files in (t0, file_id) order, and a
    file may be listed by several datasets; an ingest replaces the lists it
    changes rather than altering them, so a reshaped view starts from its
    parent's lists without copying them, and ``save`` tells a changed list
    from the one ``stored_lists`` kept at ``load``.

    ``memo`` holds results derived from the stored content: one dict per
    owner, a procedure function or a library's extractor functions, one
    per shape, ``("placements", node_count, replication)``, holding every
    file's placement at that shape, and ``"prefixes"``, each placed file
    id's FNV-1a hash of its digits (``_scores``). Each entry is a pure
    function of its owner (or shape) and the file id or bytes, and file
    ids are content addresses, so none goes stale. A library's extractor
    functions own one map record per file, whatever the queries ask.
    Entries are dropped with the layout; reshaped views share them, so a
    view places only the files new at its shape and hashes no id again.
    Memory grows by one int per file id, at most one placement per file
    per shape in use, and with the number of distinct bodies too:
    the cyclone extractor keys its centers on the body bytes and the
    header's geometry, so its memo holds the only copy a loaded layout
    retains of each distinct body. No lock: an engine runs one submit at a
    time, and two concurrent readers at worst compute a value twice.
    """

    node_count: int
    replication: int
    placements: dict[str, tuple[int, ...]] = field(default_factory=dict)
    failed: set[int] = field(default_factory=set)
    blobs: dict[str, bytes] = field(default_factory=dict)
    by_dataset: dict[str, list[FileMeta]] = field(default_factory=dict)
    memo: dict = field(default_factory=dict)
    lost: dict[str, dict[int, str]] = field(default_factory=dict)
    root: Path | None = None  # a loaded store's, absolute
    # a loaded store's lists as its manifests hold them
    stored_lists: dict[str, list[FileMeta]] = field(default_factory=dict)
    source: StorageLayout | None = None  # a view's loaded layout

    def __post_init__(self):
        if not 1 <= self.node_count <= MAX_NODES:
            raise InvalidReplication(
                f"node count {self.node_count} not in [1, {MAX_NODES}]", "node_count"
            )
        if not 1 <= self.replication <= self.node_count:
            raise InvalidReplication(
                f"replication {self.replication} not in [1, {self.node_count}]"
            )

    # -- ingestion ---------------------------------------------------------

    def ingest(self, files: Iterable[DataFile]) -> "StorageLayout":
        """List each file in its dataset, in the dataset's file order, and
        place and hold the bytes of each file not stored before; a stored
        file is only listed, its bytes and replicas left as they are.

        All or nothing: before any file is recorded, a file that its
        dataset already lists or that the batch gives twice for one dataset
        raises ``DuplicateFile``, and a file ``save`` cannot store (see
        ``_STORED_FORM``) raises ``StorageError``.
        """
        files = list(files)
        given: dict[str, dict[str, FileMeta]] = {}  # each dataset's files of this batch
        for f in files:
            batch = given.setdefault(f.dataset, {})
            if f.file_id in batch:
                raise DuplicateFile(f"file {f.file_id} is given twice for dataset {f.dataset}")
            if not (_FILE_ID.fullmatch(f.file_id) and _storable(f.dataset)):
                raise StorageError(f"file {f.file_id!r} of dataset {f.dataset!r}: {_STORED_FORM}")
            batch[f.file_id] = FileMeta(f.file_id, f.dataset, f.t0, f.t1, f"{f.file_id}.snap")
        for dataset, batch in given.items():
            for m in self.by_dataset.get(dataset, ()):
                if m.file_id in batch:
                    raise DuplicateFile(f"file {m.file_id} is already listed in dataset {dataset}")
        new = {f.file_id: f.data for f in files if f.file_id not in self.placements}
        placed = self._placed(new)
        self.placements.update((file_id, placed[file_id]) for file_id in new)
        self.blobs.update(new)
        for dataset, batch in given.items():
            metas = [*batch.values(), *self.by_dataset.get(dataset, ())]
            self.by_dataset[dataset] = sorted(metas, key=_time_order)
        return self

    def _placed(self, file_ids: Iterable[str]) -> dict[str, tuple[int, ...]]:
        """The memo's placements at this layout's shape, holding every id
        of ``file_ids``; ids not placed at this shape before are placed in
        one ``place_all`` call."""
        known = self.memo.setdefault(("placements", self.node_count, self.replication), {})
        new = [file_id for file_id in file_ids if file_id not in known]
        if new:
            prefixes = self.memo.setdefault("prefixes", {})
            known.update(zip(new, place_all(new, self.node_count, self.replication, prefixes)))
        return known

    # -- failure injection ---------------------------------------------------

    def fail_node(self, node: int) -> "StorageLayout":
        self.failed.add(self._node(node))
        return self

    def recover_node(self, node: int) -> "StorageLayout":
        self.failed.discard(self._node(node))
        return self

    def _node(self, node: int) -> int:
        if not 0 <= node < self.node_count:
            raise UnknownNode(
                f"node {node} is not a node of this {self.node_count}-node fabric"
                f" (0-{self.node_count - 1})"
            )
        return node

    @property
    def derived(self) -> Path | None:
        """``<root>/derived`` of the loaded store this layout is or views;
        ``None`` for a layout held in memory."""
        root = (self if self.source is None else self.source).root
        return None if root is None else root / "derived"

    # -- reads ---------------------------------------------------------------

    def serving_node(self, file_id: str) -> int:
        """First node in placement order neither failed nor ``lost``."""
        nodes = self.placements.get(file_id)
        if nodes is None:
            raise UnreadableFile(f"unknown file {file_id}")
        lost = self.lost.get(file_id)
        fates = []
        for node in nodes:
            if node not in self.failed:
                fate = lost and lost.get(node)
                if not fate:
                    return node
                fates.append((node, fate))
        raise _unreadable(file_id, fates)

    def read(self, file_id: str) -> bytes:
        """The first intact copy of the file in placement order, past failed
        nodes; each bad copy tried goes to ``lost``, the one served leaves it."""
        data = self.blobs.get(file_id)
        layout = self
        if data is None and self.source is not None:
            self.serving_node(file_id)  # the view's own nodes allow the read
            layout = self.source  # whose stored placements and sets the walk takes
        nodes = layout.placements.get(file_id)
        if nodes is None:
            raise UnreadableFile(f"unknown file {file_id}")
        fates = []
        for node in nodes:
            if node in layout.failed:
                continue
            copy = data
            try:
                if copy is None:
                    fd = os.open(_replica(layout.root, node, file_id), os.O_RDONLY)
                    try:
                        copy = os.read(fd, os.fstat(fd).st_size)
                    finally:
                        os.close(fd)
            except FileNotFoundError:
                fate = "missing"
            except OSError as exc:
                fate = f"unreadable ({exc.strerror})"
            else:
                if hashlib.sha256(copy).hexdigest() == file_id:
                    layout.lost.get(file_id, {}).pop(node, None)
                    return copy
                fate = "digest mismatch"
            layout.lost.setdefault(file_id, {})[node] = fate
            fates.append((node, fate))
        raise _unreadable(file_id, fates)

    def dataset_files(self, dataset: str) -> list[FileMeta]:
        """Dataset metadata ordered by (t0, file_id); empty if unknown."""
        return list(self.by_dataset.get(dataset, ()))

    # -- on-disk mode ----------------------------------------------------------

    def save(self, root: Path) -> None:
        """Write every replica of the files held in ``blobs``, then the
        manifests, then ``fabric.conf``. A loaded file is copied, read
        through ``read`` so its digest is checked, only where its stored
        replicas are not: to another root, or onto nodes of another shape.
        In the loaded store's own root, a manifest is written only when an
        ingest changed its dataset's list since ``load``; ``fabric.conf`` is
        written only when it is missing or says otherwise. Each manifest and
        ``fabric.conf`` is replaced whole (``_replace``)."""
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        stored = self if self.source is None else self.source
        in_place = stored.root is not None and root.resolve() == stored.root
        made = set()  # the node directories made or found
        for file_id, nodes in self.placements.items():
            data = self.blobs.get(file_id)
            if data is None:
                if in_place and nodes == stored.placements[file_id]:
                    continue
                data = self.read(file_id)
            for node in nodes:
                if node not in made:
                    os.makedirs(f"{root}/node-{node}", exist_ok=True)
                    made.add(node)
                _write(_replica(root, node, file_id), data)
        unchanged = stored.stored_lists if in_place else {}
        for dataset, metas in self.by_dataset.items():
            if unchanged.get(dataset) is not metas:
                manifest_dir = root / "datasets" / dataset
                manifest_dir.mkdir(parents=True, exist_ok=True)
                write_manifest(manifest_dir / "manifest.tsv", metas)
        conf = f"node_count={self.node_count}\nreplication={self.replication}\n".encode()
        try:
            same = (root / "fabric.conf").read_bytes() == conf
        except OSError:
            same = False
        if not same:
            _replace(root / "fabric.conf", conf)

    @staticmethod
    def load(root: Path) -> "StorageLayout":
        """The store at ``root``: its fabric and manifests, every file placed
        and none of its bytes read (see ``read``)."""
        root = Path(root)
        conf_path = root / "fabric.conf"
        if not conf_path.exists():
            raise StorageError(f"no fabric at {root}")
        conf, lines = read_keys(
            read_utf8(conf_path, StorageError),
            {key: Row("an integer", int, required=True) for key in ("node_count", "replication")},
            "=", lambda line, message: StorageError(f"{conf_path}:{line}: {message}"),
        )
        try:
            layout = StorageLayout(**conf, root=root.resolve())
        except InvalidReplication as exc:
            raise InvalidReplication(f"{conf_path}:{lines[exc.key]}: {exc}", exc.key) from None
        for manifest in sorted((root / "datasets").glob("*/manifest.tsv")):
            metas = read_manifest(manifest)
            for meta in metas:
                _check_stored_path(manifest, meta)
            placed = layout._placed(meta.file_id for meta in metas)
            layout.placements.update((meta.file_id, placed[meta.file_id]) for meta in metas)
            if metas:
                layout.by_dataset[manifest.parent.name] = sorted(metas, key=_time_order)
        layout.stored_lists = dict(layout.by_dataset)
        return layout

    # -- derived views ----------------------------------------------------------

    def reshaped(self, node_count: int, replication: int) -> "StorageLayout":
        """Same content re-placed onto a different simulated node set; only
        files not placed at that shape before are placed (see ``memo``).

        Failed nodes are nodes of this layout, so a layout with any of them
        is not reshaped: the view would silently serve every replica.
        """
        if self.failed:
            raise StorageError(
                f"nodes {sorted(self.failed)} of {self.node_count} are failed;"
                f" cannot reshape to {node_count} nodes"
            )
        # Only the memo and the unaltered order lists are shared: a file
        # ingested into the view must not appear in this layout's tables.
        view = StorageLayout(
            node_count=node_count,
            replication=replication,
            blobs=dict(self.blobs),
            by_dataset=dict(self.by_dataset),
            memo=self.memo,
            source=self if self.root is not None else self.source,
        )
        placed = view._placed(self.placements)
        view.placements = {file_id: placed[file_id] for file_id in self.placements}
        return view


def _unreadable(file_id: str, fates: list[tuple[int, str]]) -> UnreadableFile:
    """No replica can serve: none survives, or ``fates`` of those that do."""
    if not fates:
        return UnreadableFile(f"no surviving replica of {file_id}")
    tried = ", ".join(f"node {node} {fate}" for node, fate in fates)
    return UnreadableFile(f"no intact replica of {file_id}: {tried}")


def _time_order(meta: FileMeta) -> tuple[datetime, str]:
    return meta.t0, meta.file_id


def _replica(root: Path, node: int, file_id: str) -> str:
    """The path of the copy of ``file_id`` on ``node`` of the store at ``root``."""
    return f"{root}/node-{node}/{file_id}.snap"


_STORED_FORM = (
    "a stored file is <file_id>.snap in a dataset's manifest, its id 64 lowercase hex"
    " digits and its dataset other than '.' and '..' with no '/', tab, NUL or line break"
)


def _storable(dataset: str) -> bool:
    """Whether ``dataset`` names a manifest directory and reads back from its lines."""
    return (
        dataset not in ("", ".", "..")
        and not any(c in dataset for c in "/\t\0")
        and len(f"{dataset}.".splitlines()) == 1
    )


def _check_stored_path(manifest: Path, meta: FileMeta) -> None:
    """Refuse a stored manifest entry that ``save`` would not have written:
    one whose dataset is not its directory (so storable, as a manifest field
    holds no tab or line break), whose id is not a content address, or whose
    relative path is not ``<file_id>.snap``."""
    if (
        meta.dataset != manifest.parent.name
        or not _FILE_ID.fullmatch(meta.file_id)
        or meta.relative_path != f"{meta.file_id}.snap"
    ):
        raise StorageError(
            f"{manifest}: file {meta.file_id!r} of dataset {meta.dataset!r} at"
            f" {meta.relative_path!r}: {_STORED_FORM}"
        )


def read_manifest(path: Path) -> list[FileMeta]:
    """A manifest's entries in file order; a malformed line, one whose t0
    is after its t1, or one whose file id an earlier line lists, raises
    ``StorageError`` at ``path:line``."""
    metas: dict[str, FileMeta] = {}
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
        if times[0] > times[1]:
            raise StorageError(f"{path}:{lineno}: t0 {t0} is after t1 {t1}")
        if file_id in metas:
            raise StorageError(f"{path}:{lineno}: file {file_id!r} is listed twice")
        metas[file_id] = FileMeta(file_id, dataset, *times, relpath)
    return list(metas.values())


_INDEX_HEADER = "dslake-index"


def read_index(path: Path, stamp: str) -> list[str] | None:
    """The entries of the index at ``path``, if its header carries ``stamp``
    and the SHA-256 digest of its body; ``None`` for any other index, one
    that is not UTF-8, or none."""
    try:
        data = path.read_bytes()
    except OSError:
        return None
    header, _, body = data.partition(b"\n")
    prefix = f"{_INDEX_HEADER} {stamp} ".encode()
    if not header.startswith(prefix) or header[len(prefix):] != _hex_digest(body):
        return None
    try:
        return body.decode().split("\n")[:-1]
    except UnicodeDecodeError:
        return None


def write_index(path: Path, stamp: str, entries: Iterable[str]) -> None:
    """Replace the index at ``path`` with ``entries``, one line each, under
    ``stamp``; creates ``path``'s directory. Raises ``OSError`` when it
    cannot write, and leaves the index as it was."""
    body = "".join(f"{entry}\n" for entry in entries).encode()
    path.parent.mkdir(exist_ok=True)
    _replace(path, f"{_INDEX_HEADER} {stamp} ".encode() + _hex_digest(body) + b"\n" + body)


def _replace(path: Path, data: bytes) -> None:
    """Replace ``path`` whole with ``data``: a reader sees the old file or the
    new one, and on an error both it and its directory stay as they were. One
    temporary name per writing thread lets concurrent writers each replace it whole."""
    temp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}")
    try:
        temp.write_bytes(data)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _write(path: str, data: bytes) -> None:
    """Create or truncate ``path`` and write ``data`` to it."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        written = os.write(fd, data)
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        os.close(fd)


def _hex_digest(data: bytes) -> bytes:
    return hashlib.sha256(data).hexdigest().encode()


def write_manifest(path: Path, metas: Iterable[FileMeta]) -> None:
    """Replace ``path`` whole with ``metas``, in the format ``read_manifest`` reads."""
    lines = [
        "\t".join(
            (m.file_id, m.dataset, iso_seconds(m.t0), iso_seconds(m.t1), m.relative_path)
        )
        for m in metas
    ]
    _replace(path, ("\n".join(lines) + "\n").encode())
