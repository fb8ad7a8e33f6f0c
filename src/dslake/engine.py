"""Fixed map/reduce execution of validated queries.

One map stage runs the domain extractor per file on the file's serving
node; one reduce stage stitches fragments into high-level objects,
applies filters, fans simulate statements out per selected object, and
assembles the result document. There is no shuffle and no multi-stage
chaining.

The engine runs the plan that validation returns (``ValidatedQuery``) and
refuses no script itself; ``dslake.lang.validate`` says what is refused.
From the plan it takes the extractor for each file's kind, the combiner,
each select's filter functions and parameters, and each simulate plan
with its package's procedure. Execution reads no registry: ``Engine``
keeps one only to validate each request against.

Determinism contract: for fixed (request, dataset bytes, registry) the
canonical result document is byte-identical whatever the node count, the
map completion order, or any survivable failure state. Everything the
reduce consumes is content-addressed, the reduce hands the combiner one
``(instant, file_id, payload)`` per fragment in (t0, file_id) order
whatever order the fragments arrive in, and node-dependent facts stay out
of the canonical text.

Derived results live in the layout's memo (``StorageLayout.memo``), not
in module state: each file's map record under the plan's extractor
functions and the file id, one namespace per extractor, passed to it as
its ``memo``, and the storage's own placements per shape (node count and
replication). A record is a function of the file's bytes alone, and holds
all that the reduce needs of the file, such as the cyclone extractor's
pressure structure around each center; the query's area and time select
from it. Reshaped views share the memo, so a file mapped once is not read
or extracted again, whatever the later queries ask or the datasets that
list it, and a submit at a shape used before places no file again. The
map stage walks the layout's per-dataset file order
(``StorageLayout.by_dataset``, through ``dataset_files``), kept by ingest
and load rather than sorted per submit, so a warm submit's map stage is
one memo lookup per file.

The reduce is a function of the fragments, the plan and the task id: it
reads no file and sees no layout. Each fragment names the node the map
stage found serving its file (``serving_node``: the node that served its
last read, or a reshaped view's own simulated node), and
``Diagnostics.nodes_used`` and an ``ON_NODE`` run take their nodes from
there.

On a loaded store a cold submit reads from disk only the files that the
store's map index does not cover. The submit that opens a layout's memo
namespace for an extractor set loads the index of that set (``MapIndex``)
into it, and a submit that extracts records rewrites the index, so a
repeat ``dslake submit`` reads no snapshot it has mapped before: one
whose records all come from the index reads no file at all. A warm
submit, whose records are all in the memo, reads none
(``StorageLayout.read``). ``Diagnostics.files_read`` counts the files the
map stage read. Like a memo hit, an index hit reads no replica, so its
fragment names ``serving_node`` as it stands, and a lost replica of a
file that the index covers goes unseen (ROADMAP, Fix first). Placements
are not persisted.

The map stage runs file after file on the submitting thread, and the
reduce is a single sequential stage. One submit at a time per engine
instance.
"""

from __future__ import annotations

import hashlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from dslake.errors import CombinerFailure, DslakeError, ExtractorFailure
from dslake.hybrid import evaluate_binding, invoke, output_at
from dslake.lang.parser import parse
from dslake.lang.validate import SimulatePlan, ValidatedQuery, validate
from dslake.registry import (
    DomainObject,
    KnowledgeRegistry,
    Placement,
)
from dslake.report import (
    Diagnostics,
    ObjectRecord,
    ResultDocument,
    SimulationRecord,
    indexed_name,
)
from dslake.storage import StorageLayout, read_index, write_index


@dataclass
class EngineConfig:
    node_count: int = 2
    replication: int = 2


@dataclass
class TaskRequest:
    dataset: str
    script: str
    engine_config: EngineConfig = field(default_factory=EngineConfig)

    def task_id(self) -> str:
        """Content digest of the request; engine shape does not affect it."""
        h = hashlib.sha256()
        h.update(self.dataset.encode())
        h.update(b"\x00")
        h.update(self.script.encode())
        return h.hexdigest()[:16]


class Fragment(NamedTuple):
    file_id: str
    node: int
    t0: datetime
    payload: list
    payload_time: datetime  # the snapshot instant reported by the extractor


_ARRIVAL_ORDER = itemgetter(2, 0)  # a fragment's (t0, file_id)
_CENTER_SET = itemgetter(4, 0, 3)  # a fragment's (payload_time, file_id, payload)

_INDEX_VERSION = 1  # of the map index's entries; part of its stamp


def run_map(
    layout: StorageLayout, dataset: str, query: ValidatedQuery
) -> tuple[list[Fragment], int]:
    """The map stage: one fragment per file of ``dataset``, each from its
    own file alone, reported on the node that serves the file, and the
    number of files it read.

    A file is read and extracted, by the plan's extractor for its kind, only
    when the layout's memo holds no record for it. Records are keyed by the
    plan's extractor functions, so registries that differ in them never
    share one. On a loaded store the memo's namespace starts from the map
    index (``MapIndex``), and a stage that extracted records of a kind with
    a codec rewrites it. The query selects from each record: an instant
    outside its time range gives an empty payload, and only items inside its
    area are kept. An empty payload, the common case, needs neither test.
    """
    key = tuple(query.extractors.values())
    records = layout.memo.get(key)
    if records is None:
        records = layout.memo[key] = {}
        if layout.derived is not None:
            layout.memo["map index", key] = MapIndex.load(layout, query, records)
    index = layout.memo.get(("map index", key))
    area, period = query.ast.area, query.ast.time
    fragments, extracted = [], []
    for meta in layout.dataset_files(dataset):
        file_id = meta.file_id
        record = records.get(file_id)
        if record is None:
            data = layout.read(file_id)
            kind = _file_kind(data)
            extractor = query.extractors.get(kind)
            if extractor is None:
                raise ExtractorFailure(file_id, f"no extractor for kind {kind!r}")
            try:
                record = records[file_id] = extractor(data, layout.memo.setdefault(extractor, {}))
            except DslakeError as exc:
                raise ExtractorFailure(file_id, str(exc)) from exc
            extracted.append((file_id, kind, record))
        payload_time, payload = record
        if payload:
            if period is not None and not period.contains(payload_time):
                payload = []
            elif area is not None:
                payload = [item for item in payload if area.contains(item.lat, item.lon)]
        fragments.append(
            Fragment(file_id, layout.serving_node(file_id), meta.t0, payload, payload_time)
        )
    if index is not None and extracted:
        index.save(extracted)
    return fragments, len(extracted)


class MapIndex:
    """The map records of one extractor set on a loaded store, persisted
    under ``<root>/derived/`` as ``map-<16 hex digits of its ids>`` (see
    ``storage.read_index``).

    Each entry is a line of three tab-separated fields, file id, file kind
    and the record as its kind's codec writes it, in file id order. The
    index's ids are the extractor and codec procedure ids per file kind.
    Its stamp covers the index version, the ids and the sources of the
    extractors and codecs (``_source_digest``). ``lines`` holds the line of
    every record the index holds or will hold, by file id, so a rewrite
    encodes only the new ones. It is opened once, when the layout's memo
    opens the extractor set's namespace.
    """

    def __init__(self, path: Path, stamp: str, codecs: dict):
        self.path = path
        self.stamp = stamp
        self.codecs = codecs
        self.lines: dict[str, str] = {}

    @staticmethod
    def load(layout: StorageLayout, query: ValidatedQuery, records: dict) -> "MapIndex | None":
        """The extractor set's index on ``layout``'s store, its records put
        in ``records``, the set's new memo namespace; ``None`` when no file
        kind has a codec or a procedure's source is not a file. An index
        that does not read back whole puts no record there and is rewritten
        by the next stage that extracts one."""
        codecs = query.record_codecs
        if not codecs:
            return None
        knowledge = query.selects[0].knowledge
        ids = "".join(
            f"{kind}\t{proc_id}\t{' '.join(knowledge.record_codecs.get(kind, ()))}\n"
            for kind, proc_id in knowledge.extractors.items()
        )
        sources = _source_digest(
            [*query.extractors.values(), *(fn for codec in codecs.values() for fn in codec)]
        )
        if sources is None:
            return None
        name = hashlib.sha256(ids.encode()).hexdigest()[:16]
        stamp = hashlib.sha256(f"{_INDEX_VERSION}\n{ids}{sources}".encode()).hexdigest()
        index = MapIndex(layout.derived / f"map-{name}", stamp, codecs)
        try:
            for line in read_index(index.path, stamp) or ():
                file_id, kind, text = line.split("\t", 2)
                records[file_id] = codecs[kind].read(text)
                index.lines[file_id] = line
        except (ValueError, KeyError, DslakeError):  # what a line that does not read back raises
            records.clear()
            index.lines.clear()
        return index

    def save(self, extracted: list[tuple[str, str, tuple]]) -> None:
        """Add the ``(file id, kind, record)`` of ``extracted`` whose kind has
        a codec, and replace the index. A record its codec cannot write, or
        an index that cannot be written, leaves the submit as it is."""
        try:
            added = 0
            for file_id, kind, record in extracted:
                codec = self.codecs.get(kind)
                if codec is not None:
                    text = codec.write(record)
                    if "\n" in text:
                        raise ValueError(f"a {kind} record's text holds a line break")
                    self.lines[file_id] = f"{file_id}\t{kind}\t{text}"
                    added += 1
            if added:
                # a file id holds no tab, so the lines sort as their file ids
                write_index(self.path, self.stamp, sorted(self.lines.values()))
        except (OSError, ValueError, DslakeError):
            pass  # the index is a cache: no result depends on it


def _source_digest(procedures: list) -> str | None:
    """The digest of the sources of ``procedures``: the ``dslake`` package's
    ``*.py`` files, and the source of each module outside the package that
    defines one of ``procedures``, through ``__wrapped__``; ``None`` if one
    of those modules has no source file or a source cannot be read."""
    package = Path(__file__).resolve().parent
    outside = {}
    for procedure in procedures:
        module = sys.modules.get(getattr(inspect.unwrap(procedure), "__module__", None))
        path = getattr(module, "__file__", None)
        if path is None:
            return None
        path = Path(path).resolve()
        if package not in path.parents:
            outside[module.__name__] = path
    ours = _files_digest(
        {path.relative_to(package).as_posix(): path for path in package.rglob("*.py")}
    )
    theirs = _files_digest(outside)
    return None if ours is None or theirs is None else f"{ours}\n{theirs}"


def _files_digest(sources: dict[str, Path]) -> str | None:
    """The SHA-256 of each ``name: path`` file of ``sources``, by name, with
    its name and length; ``None`` if one cannot be read."""
    digest = hashlib.sha256()
    for name, path in sorted(sources.items()):
        try:
            data = path.read_bytes()
        except OSError:
            return None
        digest.update(f"{name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def _file_kind(data: bytes) -> str:
    head = data[:64].split(None, 1)
    return head[0].decode("utf-8", "replace") if head else ""


class Engine:
    """Executes task requests over one layout and registry."""

    def __init__(self, registry: KnowledgeRegistry, layout: StorageLayout):
        self.registry = registry
        self.layout = layout

    def submit(self, request: TaskRequest) -> ResultDocument:
        config = request.engine_config
        layout = self.layout
        if (config.node_count, config.replication) != (layout.node_count, layout.replication):
            layout = layout.reshaped(config.node_count, config.replication)

        query = validate(parse(request.script), self.registry)
        fragments, files_read = run_map(layout, request.dataset, query)
        document = run_reduce(fragments, query, task_id=request.task_id())
        document.diagnostics.files_read = files_read
        return document


def submit(
    request: TaskRequest, registry: KnowledgeRegistry, layout: StorageLayout
) -> ResultDocument:
    return Engine(registry, layout).submit(request)


def run_reduce(
    fragments: list[Fragment], query: ValidatedQuery, task_id: str = ""
) -> ResultDocument:
    """Aggregate fragments, in whatever order they arrive, into the result
    document of task ``task_id``, which external packages see as
    ``DSLAKE_TASK_ID``.

    The reduce orders its own input: the combiner is given each fragment's
    ``(instant, file_id, payload)`` in (t0, file_id) order. What the
    combiner needs of a file is in that file's map record.
    """
    center_sets = list(map(_CENTER_SET, sorted(fragments, key=_ARRIVAL_ORDER)))
    try:
        objects: list[DomainObject] = query.combiner(center_sets)
    except DslakeError:
        raise
    except Exception as exc:
        raise CombinerFailure(str(exc)) from exc

    selected_per_select = [
        [obj for obj in objects if all(f.procedure(obj.params, f.value) for f in sel.filters)]
        for sel in query.selects
    ]

    object_records: dict[str, ObjectRecord] = {}
    for sel, kept in zip(query.selects, selected_per_select):
        for obj in kept:
            record = object_records.get(obj.object_id)
            if record is None:
                record = ObjectRecord(
                    object_id=obj.object_id, object_type=obj.object_type
                )
                object_records[obj.object_id] = record
            for name in sel.requested_params:
                record.requested_params[name] = obj.params.get(name)

    nodes = {f.file_id: f.node for f in fragments}
    simulations = [
        sim
        for plan in query.simulates
        for sim in _run_simulations(plan, selected_per_select[plan.select_index], nodes, task_id)
    ]

    return ResultDocument(
        task_id=task_id,
        objects=sorted(object_records.values(), key=lambda r: r.object_id),
        simulations=simulations,
        diagnostics=Diagnostics(
            files_mapped=len(fragments),
            fragments=len(fragments),
            nodes_used=set(nodes.values()),
        ),
    )


def _run_simulations(
    plan: SimulatePlan,
    selected: list[DomainObject],
    nodes: dict[str, int],  # the node of each file, as its fragment names it
    task_id: str,
) -> list[SimulationRecord]:
    records = []
    for obj in selected:
        record = SimulationRecord(
            object_id=obj.object_id,
            package=plan.package.name,
            statement_index=plan.statement_index,
            provenance=obj.provenance,
        )
        try:
            bindings = {name: evaluate_binding(expr, obj.params) for name, expr in plan.bindings}

            node = None
            if plan.package.placement is Placement.ON_NODE and obj.provenance:
                node = nodes[obj.provenance[-1]]

            started = time.perf_counter()
            outputs = invoke(plan.package, plan.procedure, bindings, task_id)
            record.wall_time_s = time.perf_counter() - started
            record.node = node
            for name, indices in plan.outputs:
                record.outputs[indexed_name(name, indices)] = output_at(outputs, name, indices)
        except DslakeError as exc:
            # partial-failure policy: record and keep processing the rest
            record.status = "failed"
            record.failure_reason = str(exc)
            record.scratch = getattr(exc, "scratch", None)
            record.outputs = {}
        records.append(record)
    return records
