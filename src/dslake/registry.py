"""Knowledge registry: domain libraries and abstract package descriptions.

This is the single store the query interpreter consults. It holds two
namespaces: domain libraries (object types, extractors, combiners, filter
procedures, keyword shortcuts) and package descriptors (abstract software
services). Descriptors are declarative data; the executable side lives in
a procedure table populated by plugins at registration time.

Registration is the one gate for knowledge. It indexes each object type
once, under its name and each alias, into an ``ObjectKnowledge`` record
that answers every lookup a query makes of the type; the record holds
procedure ids, which validation resolves through the procedure table. A
key given twice in a descriptor, a combiner or filter of a type its
library does not declare, a record codec of a file kind with no
extractor, and a procedure id missing from the table, a builtin
package's included, raise a ``RegistryError`` and leave the
registry as it was.

The scalar semantic types are listed once, in ``SCALAR_TYPES``: for each,
the class of its values, how its text is read and how a value is written.
A package input's default, the semantic type of a binding, an external
command's inputs and its outputs all go through it.

The registry is built once at startup and treated as immutable afterwards;
lookups never mutate it.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from enum import Enum
from typing import Any, Callable, Iterable

from dslake.errors import (
    DuplicateName,
    MalformedTemplate,
    RegistryError,
    UnknownObjectType,
    UnknownPackage,
)
from dslake.times import duration_hours, iso_seconds, parse_utc


class StructureLevel(Enum):
    ATOMIC = "atomic"
    FILE_LEVEL = "file-level"
    HIGH_LEVEL = "high-level"


class ExecutionMode(Enum):
    BUILTIN = "builtin"
    EXTERNAL_COMMAND = "external"


class Placement(Enum):
    ON_AGGREGATOR = "aggregator"
    ON_NODE = "node"


@dataclass(frozen=True)
class ObjectTypeInfo:
    name: str
    aliases: tuple[str, ...] = ()
    structure_level: StructureLevel = StructureLevel.HIGH_LEVEL
    output_params: tuple[tuple[str, str], ...] = ()  # (name, semantic type)
    fragment_type: str | None = None


@dataclass(frozen=True)
class DomainLibraryDescriptor:
    name: str
    object_types: tuple[ObjectTypeInfo, ...] = ()
    extractors: tuple[tuple[str, str], ...] = ()  # file kind -> procedure id
    # (file kind, writer id, reader id): how a map record of the kind is
    # written as one line of text and read back (see ``RecordCodec``)
    record_codecs: tuple[tuple[str, str, str], ...] = ()
    combiners: tuple[tuple[str, str], ...] = ()  # object type -> procedure id
    filters: tuple[tuple[str, str, str], ...] = ()  # (object type, keyword, id)
    keyword_aliases: tuple[tuple[str, str], ...] = ()  # alias -> canonical


# A file kind's record codec: ``write(record)`` is one line of text with no
# line break, or raises ``ValueError``; ``read(text)`` gives back the record,
# or raises ``ValueError`` or a ``DslakeError`` for text that is not one.
RecordCodec = namedtuple("RecordCodec", "write read")


@dataclass(frozen=True)
class ObjectKnowledge:
    """What registration knows of one object type; procedures by id."""

    info: ObjectTypeInfo
    library: str
    params: dict[str, str]  # parameter name -> semantic type
    combiner: str | None
    extractors: dict[str, str]  # file kind -> extractor, in declaration order
    filters: dict[str, str]  # keyword or keyword alias -> filter
    record_codecs: dict[str, RecordCodec]  # file kind -> codec ids, for kinds with one


def _read_bool(text: str) -> bool:
    """``True`` or ``False``, as ``str`` writes them; other text raises ``ValueError``."""
    if text not in ("True", "False"):
        raise ValueError(f"not a bool: {text!r}")
    return text == "True"


def _write_duration(value: timedelta) -> str:
    """``<hours>h``; a duration that text cannot hold, one that is negative
    or not a whole number of hours, raises ``ValueError``."""
    hours, rest = divmod(value, timedelta(hours=1))
    if rest or hours < 0:
        raise ValueError(
            f"duration {value / timedelta(hours=1):g}h is not a whole, non-negative"
            " number of hours"
        )
    return f"{hours}h"


# The scalar semantic types, in the order semantic_type_of tries them (bool
# before int, its base class). Each gives the class of its values, the reader
# of its text (malformed text raises ValueError or OverflowError) and the
# writer of a value as text, which its reader reads back (a value no text
# holds raises ValueError).
ScalarType = namedtuple("ScalarType", "python_type read write")
SCALAR_TYPES = {
    "bool": ScalarType(bool, _read_bool, str),
    "datetime": ScalarType(datetime, parse_utc, iso_seconds),
    "duration": ScalarType(timedelta, lambda text: timedelta(hours=duration_hours(text)),
                           _write_duration),
    "int": ScalarType(int, int, str),
    "float": ScalarType(float, float, str),
    "string": ScalarType(str, str, str),
}


def read_text(semantic_type: str, text: str) -> Any:
    """``text`` read by its type's reader in ``SCALAR_TYPES``; the text of a
    type not in the table stays text."""
    scalar = SCALAR_TYPES.get(semantic_type)
    return text if scalar is None else scalar.read(text)


@dataclass(frozen=True)
class PackageInput:
    name: str
    semantic_type: str
    required: bool = True
    default: str | None = None

    def default_value(self) -> Any:
        """The default text read by ``read_text``, e.g. ``96h`` as a duration;
        malformed text raises ``ValueError`` or ``OverflowError``."""
        return read_text(self.semantic_type, self.default)


@dataclass(frozen=True)
class PackageOutputDecl:
    name: str
    semantic_type: str
    indexable: bool = False


def _unique(what: str, pairs: Iterable[tuple[Any, Any]]) -> dict:
    """``pairs`` as a dict; a key given twice raises ``DuplicateName``."""
    table = {}
    for key, value in pairs:
        if key in table:
            raise DuplicateName(f"{what} {key!r} declared twice")
        table[key] = value
    return table


_PLACEHOLDER_RE = re.compile(r"\{(input:([A-Za-z_][A-Za-z0-9_]*)|outdir)\}")


@dataclass(frozen=True)
class PackageDescriptor:
    name: str
    inputs: tuple[PackageInput, ...] = ()
    outputs: tuple[PackageOutputDecl, ...] = ()
    execution_mode: ExecutionMode = ExecutionMode.BUILTIN
    placement: Placement = Placement.ON_AGGREGATOR
    command_template: str | None = None
    procedure: str | None = None  # builtin procedure id; defaults to name

    @property
    def procedure_id(self) -> str:  # a builtin package's procedure: its own, else the name
        return self.procedure or self.name

    def input_named(self, name: str) -> PackageInput | None:
        return next((inp for inp in self.inputs if inp.name == name), None)

    def output_named(self, name: str) -> PackageOutputDecl | None:
        return next((out for out in self.outputs if out.name == name), None)

    def check(self) -> None:
        inputs = _unique(f"package {self.name}: input", ((inp.name, inp) for inp in self.inputs))
        _unique(f"package {self.name}: output", ((out.name, out) for out in self.outputs))
        for inp in self.inputs:
            if inp.default is None:
                continue
            try:
                inp.default_value()
            except (ValueError, OverflowError):
                raise RegistryError(
                    f"package {self.name}: input {inp.name!r} has a malformed"
                    f" {inp.semantic_type} default {inp.default!r}"
                ) from None
        if self.execution_mode is ExecutionMode.EXTERNAL_COMMAND:
            if not self.command_template:
                raise MalformedTemplate(
                    f"package {self.name}: external mode requires a command template"
                )
            for raw in re.findall(r"\{[^{}]*\}", self.command_template):
                m = _PLACEHOLDER_RE.fullmatch(raw)
                if not m:
                    raise MalformedTemplate(
                        f"package {self.name}: bad placeholder {raw}"
                    )
                if m.group(2) and m.group(2) not in inputs:
                    raise MalformedTemplate(
                        f"package {self.name}: placeholder references "
                        f"unknown input {m.group(2)!r}"
                    )


@dataclass
class DomainObject:
    """A combined high-level object handed from a combiner to the engine."""

    object_id: str
    object_type: str
    params: dict[str, Any]
    provenance: tuple[str, ...] = ()  # contributing file ids


ProcedureTable = dict[str, Callable]


@dataclass
class KnowledgeRegistry:
    libraries: dict[str, DomainLibraryDescriptor] = field(default_factory=dict)
    packages: dict[str, PackageDescriptor] = field(default_factory=dict)
    procedures: ProcedureTable = field(default_factory=dict)
    _object_index: dict[str, ObjectKnowledge] = field(default_factory=dict)

    def register_domain_library(
        self,
        descriptor: DomainLibraryDescriptor,
        procedures: ProcedureTable | None = None,
    ) -> "KnowledgeRegistry":
        if descriptor.name in self.libraries:
            raise DuplicateName(f"domain library {descriptor.name!r}")
        table = dict(self.procedures)
        for proc_id, fn in (procedures or {}).items():
            if proc_id in table:
                raise DuplicateName(f"procedure {proc_id!r}")
            table[proc_id] = fn
        extractors = _unique("extractor for file kind", descriptor.extractors)
        codecs = _unique("record codec for file kind", (
            (kind, RecordCodec(write, read)) for kind, write, read in descriptor.record_codecs
        ))
        combiners = _unique("combiner for object type", descriptor.combiners)
        filters = _unique("filter", (((otype, kw), p) for otype, kw, p in descriptor.filters))
        aliases = _unique("keyword alias", descriptor.keyword_aliases)
        for proc_id in (*extractors.values(), *combiners.values(), *filters.values(),
                        *(proc_id for codec in codecs.values() for proc_id in codec)):
            if proc_id not in table:
                raise RegistryError(f"procedure {proc_id!r} not registered")
        for kind in codecs:
            if kind not in extractors:
                raise RegistryError(f"a record codec names file kind {kind!r}, with no extractor")
        declared = {info.name for info in descriptor.object_types}
        for otype in (*combiners, *(otype for otype, _ in filters)):
            if otype not in declared:
                raise RegistryError(f"a combiner or filter names undeclared type {otype!r}")

        index: dict[str, ObjectKnowledge] = {}
        for info in descriptor.object_types:
            if info.structure_level is StructureLevel.HIGH_LEVEL:
                if info.name not in combiners:
                    raise RegistryError(
                        f"high-level type {info.name!r} declares no combiner"
                    )
                if info.fragment_type is None:
                    raise RegistryError(
                        f"high-level type {info.name!r} declares no fragment type"
                    )
            own = {kw: p for (otype, kw), p in filters.items() if otype == info.name}
            # an alias names its canonical keyword's filter, even over one of its own
            canonical = {kw: aliases.get(kw, kw) for kw in (*own, *aliases)}
            record = ObjectKnowledge(
                info, descriptor.name,
                _unique(f"parameter of {info.name}", info.output_params),
                combiners.get(info.name), extractors,
                {kw: own[c] for kw, c in canonical.items() if c in own}, codecs,
            )
            for key in (info.name, *info.aliases):
                if key in self._object_index or index.setdefault(key, record) is not record:
                    raise DuplicateName(f"object type or alias {key!r}")

        self.procedures = table
        self.libraries[descriptor.name] = descriptor
        self._object_index.update(index)
        return self

    def register_package(
        self,
        descriptor: PackageDescriptor,
        procedure: Callable | None = None,
    ) -> "KnowledgeRegistry":
        if descriptor.name in self.packages:
            raise DuplicateName(f"package {descriptor.name!r}")
        descriptor.check()
        proc_id = descriptor.procedure_id
        table = dict(self.procedures)
        if procedure is not None:
            if proc_id in table:
                raise DuplicateName(f"procedure {proc_id!r}")
            table[proc_id] = procedure
        if descriptor.execution_mode is ExecutionMode.BUILTIN and proc_id not in table:
            raise RegistryError(f"package {descriptor.name}: procedure {proc_id!r} not registered")
        self.procedures = table
        self.packages[descriptor.name] = descriptor
        return self

    # -- lookups (pure) ----------------------------------------------------

    def resolve_object_type(self, name: str) -> ObjectKnowledge:
        knowledge = self._object_index.get(name)
        if knowledge is None:
            raise UnknownObjectType(name)
        return knowledge

    def resolve_package(self, name: str) -> PackageDescriptor:
        pkg = self.packages.get(name)  # case-sensitive by contract
        if pkg is None:
            raise UnknownPackage(name)
        return pkg
