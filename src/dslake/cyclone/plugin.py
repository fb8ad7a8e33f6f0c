"""Registration of the cyclone domain library and the BSM package.

Procedure contract with the engine:

  * extractor(data, memo) -> (timestamp, [items with .lat and .lon])
  * combiner([(instant, file id, [CycloneCenter])] in (t0, file id) order)
    -> [DomainObject]
  * filter(object params dict, value) -> bool
  * builtin package procedure(bindings dict) -> outputs dict

The script is the whole task: no procedure sees settings, so the extractor
detects below ``THRESHOLD_HPA`` and the combiner uses the defaults
of ``track`` and ``parametrize``. The extractor sees no query either: its
result is a function of the file's bytes, and the engine selects the
instants and centers a query's time and area clauses ask for.

The extractor's ``memo`` is its own namespace of the storage layout's
memo; it keeps there only pure functions of its inputs and the stored
bytes. The extractor decodes only the header line and keys its work on
the grid body bytes and the header's geometry, so identical bodies (the
common all-background case) are parsed and scanned once per layout. On first sight of a body it
computes the pressure structure around each center it finds
(``pressure_structure``: central and ambient pressure and radius, as
floats), which the center carries (``CycloneCenter.structure``) and the
record codec writes, so a loaded store's map index holds it too. Each
entry also keeps the bytes of its last header up to the timestamp, and a
hit moves it to the end of the memo. Before it hashes a body, the
extractor checks the newest entry, the body it used last: a snapshot
that ends with that body and starts with that header prefix, with one
timestamp field between them, needs only its timestamp parsed. Anything
else takes the full path, and a header that does not parse raises what
``parse_grid_snapshot`` raises.

The combiner tracks the centers of all files, one instant at a time, and
knows each center's file: a center that two files list is the first's,
and so is its structure. A path is parametrized from the structure its
final center's file gives, so files that share an instant, such as tiles
of one region, each serve their own paths, and a path's provenance is its
centers' files. The combiner reads no file and keeps nothing between
calls. Nothing this module imports at its top imports numpy: the
functions that compute grids import it when they run.
"""

from __future__ import annotations

import os
import shlex
import sys
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

import dslake
from dslake.errors import FormatError, RegistryError
from dslake.registry import (
    DomainLibraryDescriptor,
    DomainObject,
    ExecutionMode,
    KnowledgeRegistry,
    ObjectTypeInfo,
    PackageDescriptor,
    PackageInput,
    PackageOutputDecl,
    Placement,
    StructureLevel,
)
from dslake.hybrid import IndexedSeries
from dslake.cyclone.detect import CycloneCenter, centers_at, interior_minima
from dslake.cyclone.grid import parse_grid_snapshot, parse_header
from dslake.cyclone.params import parametrize, pressure_structure
from dslake.cyclone.surrogate import GAUGES, bsm_surrogate
from dslake.cyclone.track import track
from dslake.times import parse_utc

LIBRARY_NAME = "cyclone"
OBJECT_TYPE = "cyclone-path"
FILE_KIND = "grid"
_UTC_OFFSET = timedelta(0)

# each parameter of a path: its name, its semantic type and its source, the
# CycloneParams field it reads, the path's start ("start") or the
# parameters whole ("params")
OUTPUT_PARAMS = (
    ("Bearing", "float", "average_bearing"),
    ("Depth", "float", "depth"),
    ("Direction", "string", "direction_sector"),
    ("EndTime", "datetime", "end_time"),
    ("MeanSpeed", "float", "mean_speed_kmh"),
    ("Pressure", "float", "central_pressure"),
    ("Radius", "float", "radius_km"),
    ("StartTime", "datetime", "start"),
    ("cyclone", "cyclone-params", "params"),
)

def extract_centers(data: bytes, memo: dict) -> tuple[datetime, list[CycloneCenter]]:
    if memo:  # the newest entry holds the body used last
        key = next(reversed(memo))
        last_body = key[0]
        prefix, found = memo[key]
        if prefix is not None and data.endswith(last_body) and data.startswith(prefix):
            ts = _timestamp_line(data[len(prefix):len(data) - len(last_body)])
            if ts is not None:
                return ts, [replace(center, timestamp=ts) for center in found]
    head, _, body = data.partition(b"\n")
    try:
        header = head.decode()
        lat0, lon0, dlat, dlon, nlat, nlon, ts = parse_header(header)
    except (UnicodeDecodeError, FormatError):
        parse_grid_snapshot(data)  # raises as a whole-file parse does: a body not UTF-8 first
        raise
    key = (body, lat0, lon0, dlat, dlon, nlat, nlon)  # a structure depends on all of them
    entry = memo.pop(key, None)
    if entry is None:
        snapshot = parse_grid_snapshot(data)  # full validation on first sight
        found = [
            replace(center, structure=pressure_structure(snapshot, center.lat, center.lon))
            for center in centers_at(interior_minima(snapshot.values), lat0, lon0, dlat, dlon, ts)
        ]
    else:
        found = entry[1]
    last = header.split()[-1]
    prefix = head[: len(head) - len(last.encode())] if header.endswith(last) else None
    memo[key] = (prefix, found)
    return ts, [replace(center, timestamp=ts) for center in found]


def write_centers(record: tuple[datetime, list[CycloneCenter]]) -> str:
    """The record codec's writer: the record's instant in ISO-8601, then
    ``lat lon pressure i j central ambient radius`` of each center, the last
    three its structure, floats in ``repr``, which reads back bit for bit; a
    center of another instant or without a structure raises ``ValueError``."""
    ts, centers = record
    fields = [ts.isoformat()]
    for center in centers:
        if center.timestamp != ts:
            raise ValueError(f"a center at {center.timestamp} in the record of {ts}")
        if center.structure is None:
            raise ValueError(f"a center at {center.grid_index} without its structure")
        fields += map(repr, (float(center.lat), float(center.lon), float(center.pressure)))
        fields += map(str, center.grid_index)
        fields += map(repr, map(float, center.structure))
    return " ".join(fields)


def read_centers(text: str) -> tuple[datetime, list[CycloneCenter]]:
    """The record codec's reader: the record ``write_centers`` wrote as
    ``text``; other text raises ``ValueError``."""
    stamp, *fields = text.split(" ")
    ts = datetime.fromisoformat(stamp)  # reads what isoformat writes, ~3x faster than parse_utc
    if ts.utcoffset() != _UTC_OFFSET:
        raise ValueError(f"{stamp!r} is not a UTC instant")
    if not fields:  # most records: an instant with no center
        return ts, []
    if len(fields) % 8:
        raise ValueError(f"{len(fields)} center fields, not eight per center")
    return ts, [
        CycloneCenter(float(lat), float(lon), float(pressure), ts, (int(i), int(j)),
                      (float(central), float(ambient), float(radius)))
        for lat, lon, pressure, i, j, central, ambient, radius in zip(*[iter(fields)] * 8)
    ]


def _timestamp_line(line: bytes) -> datetime | None:
    """The instant of a line that is one field ``parse_utc`` reads and a
    newline; ``None`` for any other line."""
    try:
        text = line[:-1].decode()
        if line[-1:] == b"\n" and text.split() == [text]:
            return parse_utc(text)
    except ValueError:  # UnicodeDecodeError included
        pass
    return None


def combine_paths(
    center_sets: list[tuple[datetime, str, list[CycloneCenter]]]
) -> list[DomainObject]:
    by_instant: dict[datetime, list[CycloneCenter]] = {}
    # a center -> the first file listing it and that file's center, whose
    # structure an equal center of another file need not share
    first: dict[CycloneCenter, tuple[str, CycloneCenter]] = {}
    for ts, file_id, items in center_sets:
        if items:
            centers = by_instant.get(ts)
            if centers is None:
                # a new list: without an area clause the items are the memo record's list
                by_instant[ts] = list(items)
            else:
                centers += items
            for center in items:
                first.setdefault(center, (file_id, center))
        elif ts not in by_instant:  # most instants hold no center
            by_instant[ts] = []
    objects = []
    for path in track(sorted(by_instant.items())):  # instants are distinct keys
        provenance = []
        for center in path.centers:
            file_id = first[center][0]
            if not provenance or provenance[-1] != file_id:
                provenance.append(file_id)
        params = parametrize(path, first[path.centers[-1]][1].structure)
        sources = {**params._asdict(), "start": path.start_time, "params": params}
        objects.append(
            DomainObject(
                object_id=path.path_id,
                object_type=OBJECT_TYPE,
                params={name: sources[source] for name, _, source in OUTPUT_PARAMS},
                provenance=tuple(provenance),
            )
        )
    return objects


def filter_direction(params: dict, value: str) -> bool:
    return params.get("Direction") == value


def bsm_builtin(bindings: dict) -> dict:
    start = bindings["startTime"]
    cyclone = bindings["cyclone"]
    horizon: timedelta = bindings["horizon"]
    horizon_hours = int(horizon.total_seconds() // 3600)
    by_index = {
        gauge: bsm_surrogate(cyclone, start, horizon_hours, gauge) for gauge in GAUGES
    }
    return {"level": IndexedSeries(by_index)}


def library_descriptor() -> DomainLibraryDescriptor:
    return DomainLibraryDescriptor(
        name=LIBRARY_NAME,
        object_types=(
            ObjectTypeInfo(
                name=OBJECT_TYPE,
                aliases=("cyclon-path",),
                structure_level=StructureLevel.HIGH_LEVEL,
                output_params=tuple((name, kind) for name, kind, _ in OUTPUT_PARAMS),
                fragment_type="center-set",
            ),
        ),
        extractors=((FILE_KIND, "cyclone.extract_centers"),),
        record_codecs=((FILE_KIND, "cyclone.write_centers", "cyclone.read_centers"),),
        combiners=((OBJECT_TYPE, "cyclone.combine_paths"),),
        filters=((OBJECT_TYPE, "direction", "cyclone.filter_direction"),),
        keyword_aliases=(("directon", "direction"),),
    )


def bsm_descriptor() -> PackageDescriptor:
    return PackageDescriptor(
        name="BSM",
        inputs=(
            PackageInput("startTime", "datetime", required=True),
            PackageInput("cyclone", "cyclone-params", required=True),
            PackageInput("horizon", "duration", required=False, default="96h"),
        ),
        outputs=(PackageOutputDecl("level", "timeseries-cm", indexable=True),),
        execution_mode=ExecutionMode.BUILTIN,
        placement=Placement.ON_AGGREGATOR,
        procedure="cyclone.bsm",
    )


# run bsm_cmd with the source root, hex-encoded in the first argument, first on
# sys.path. The command runs this under -S: the child needs nothing from
# site-packages, and the site step's .pth files import re and pathlib, most of
# the child's start-up CPU. Not -I: it implies -E, which drops PYTHONPATH and
# PYTHONDONTWRITEBYTECODE, so a child would write __pycache__/ into the source
# tree even where the parent's environment forbids it.
_BSM_BOOT = (
    "import os, sys; sys.path.insert(0, os.fsdecode(bytes.fromhex(sys.argv.pop(1))));"
    " from dslake.cyclone.bsm_cmd import main; sys.exit(main())"
)


def bsm_external_descriptor(name: str = "BSM") -> PackageDescriptor:
    """BSM wrapped as an external command: the builtin's inputs and outputs,
    the same surrogate underneath. The command names the source root of
    this ``dslake`` in hex, which no directory name can turn into a
    placeholder or a ``.kd`` comment, so the child finds it from a checkout
    or an install whatever its environment."""
    if any(c in sys.executable for c in "{}#"):
        raise RegistryError(f"interpreter path {sys.executable!r} holds '{{', '}}' or '#'")
    root = os.fsencode(Path(dslake.__file__).resolve().parent.parent).hex()
    template = (
        f"{shlex.quote(sys.executable)} -S -c {shlex.quote(_BSM_BOOT)} {root}"
        " --start {input:startTime} --cyclone {input:cyclone}"
        " --horizon {input:horizon} --out {outdir}"
    )
    return replace(
        bsm_descriptor(),
        name=name,
        execution_mode=ExecutionMode.EXTERNAL_COMMAND,
        command_template=template,
        procedure=None,
    )


def register_cyclone_domain(registry: KnowledgeRegistry) -> KnowledgeRegistry:
    registry.register_domain_library(
        library_descriptor(),
        procedures={
            "cyclone.extract_centers": extract_centers,
            "cyclone.write_centers": write_centers,
            "cyclone.read_centers": read_centers,
            "cyclone.combine_paths": combine_paths,
            "cyclone.filter_direction": filter_direction,
        },
    )
    registry.register_package(bsm_descriptor(), procedure=bsm_builtin)
    return registry
