"""Knowledge registry: domain libraries and abstract package descriptions.

This is the single store the query interpreter consults. It holds two
namespaces: domain libraries (object types, extractors, combiners, filter
procedures, keyword shortcuts) and package descriptors (abstract software
services). Descriptors are declarative data; the executable side lives in
a procedure table populated by plugins at registration time.

The registry is built once at startup and treated as immutable afterwards;
lookups never mutate it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import timedelta
from enum import Enum
from typing import Any, Callable

from dslake.errors import (
    DuplicateName,
    MalformedTemplate,
    RegistryError,
    UnknownObjectType,
    UnknownPackage,
)
from dslake.times import duration_hours, parse_utc


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

    def param_type(self, name: str) -> str | None:
        for pname, ptype in self.output_params:
            if pname == name:
                return ptype
        return None


@dataclass(frozen=True)
class DomainLibraryDescriptor:
    name: str
    object_types: tuple[ObjectTypeInfo, ...] = ()
    extractors: tuple[tuple[str, str], ...] = ()  # file kind -> procedure id
    combiners: tuple[tuple[str, str], ...] = ()  # object type -> procedure id
    filters: tuple[tuple[str, str, str], ...] = ()  # (object type, keyword, id)
    keyword_aliases: tuple[tuple[str, str], ...] = ()  # alias -> canonical

    def combiner_for(self, object_type: str) -> str | None:
        for otype, proc_id in self.combiners:
            if otype == object_type:
                return proc_id
        return None

    def filter_for(self, object_type: str, keyword: str) -> str | None:
        for otype, kw, proc_id in self.filters:
            if otype == object_type and kw == keyword:
                return proc_id
        return None

    def canonical_keyword(self, keyword: str) -> str:
        for alias, canonical in self.keyword_aliases:
            if alias == keyword:
                return canonical
        return keyword


@dataclass(frozen=True)
class PackageInput:
    name: str
    semantic_type: str
    required: bool = True
    default: str | None = None

    def default_value(self) -> Any:
        """The default text as a value of the input's semantic type: ``96h``
        and ``4d`` are durations, datetimes are ISO-8601 UTC, and a type
        with no parser keeps the text. Malformed text raises ``ValueError``."""
        text = self.default
        if self.semantic_type == "duration":
            return timedelta(hours=duration_hours(text))
        if self.semantic_type == "datetime":
            return parse_utc(text)
        if self.semantic_type == "int":
            return int(text)
        if self.semantic_type == "float":
            return float(text)
        return text


@dataclass(frozen=True)
class PackageOutputDecl:
    name: str
    semantic_type: str
    indexable: bool = False


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

    def input_named(self, name: str) -> PackageInput | None:
        for inp in self.inputs:
            if inp.name == name:
                return inp
        return None

    def output_named(self, name: str) -> PackageOutputDecl | None:
        for out in self.outputs:
            if out.name == name:
                return out
        return None

    def check(self) -> None:
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
            input_names = {inp.name for inp in self.inputs}
            for raw in re.findall(r"\{[^{}]*\}", self.command_template):
                m = _PLACEHOLDER_RE.fullmatch(raw)
                if not m:
                    raise MalformedTemplate(
                        f"package {self.name}: bad placeholder {raw}"
                    )
                if m.group(2) and m.group(2) not in input_names:
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


@dataclass
class ReduceContext:
    """Aggregation-side services available to a combiner."""

    read_file: Callable[[str], bytes] = lambda file_id: b""
    file_for: Callable[[Any], str] = lambda ts: ""
    memo: dict = field(default_factory=dict)  # the combiner's namespace of StorageLayout.memo


ProcedureTable = dict[str, Callable]


@dataclass
class KnowledgeRegistry:
    libraries: dict[str, DomainLibraryDescriptor] = field(default_factory=dict)
    packages: dict[str, PackageDescriptor] = field(default_factory=dict)
    procedures: ProcedureTable = field(default_factory=dict)
    _object_index: dict[str, tuple[str, ObjectTypeInfo]] = field(default_factory=dict)

    def register_domain_library(
        self,
        descriptor: DomainLibraryDescriptor,
        procedures: ProcedureTable | None = None,
    ) -> "KnowledgeRegistry":
        if descriptor.name in self.libraries:
            raise DuplicateName(f"domain library {descriptor.name!r}")
        procedures = procedures or {}

        claimed: dict[str, int] = {}  # name or alias -> its object type's position
        for i, info in enumerate(descriptor.object_types):
            for key in (info.name, *info.aliases):
                if key in self._object_index or claimed.setdefault(key, i) != i:
                    raise DuplicateName(f"object type or alias {key!r}")
            if info.structure_level is StructureLevel.HIGH_LEVEL:
                if descriptor.combiner_for(info.name) is None:
                    raise RegistryError(
                        f"high-level type {info.name!r} declares no combiner"
                    )
                if info.fragment_type is None:
                    raise RegistryError(
                        f"high-level type {info.name!r} declares no fragment type"
                    )

        table = dict(self.procedures)
        for proc_id, fn in procedures.items():
            if proc_id in table:
                raise DuplicateName(f"procedure {proc_id!r}")
            table[proc_id] = fn
        for _, _, proc_id in descriptor.filters:
            if proc_id not in table:
                raise RegistryError(f"filter procedure {proc_id!r} not registered")
        for _, proc_id in descriptor.extractors:
            if proc_id not in table:
                raise RegistryError(f"extractor procedure {proc_id!r} not registered")
        for _, proc_id in descriptor.combiners:
            if proc_id not in table:
                raise RegistryError(f"combiner procedure {proc_id!r} not registered")

        self.procedures = table
        self.libraries[descriptor.name] = descriptor
        for info in descriptor.object_types:
            for key in (info.name, *info.aliases):
                self._object_index[key] = (descriptor.name, info)
        return self

    def register_package(
        self,
        descriptor: PackageDescriptor,
        procedure: Callable | None = None,
    ) -> "KnowledgeRegistry":
        if descriptor.name in self.packages:
            raise DuplicateName(f"package {descriptor.name!r}")
        descriptor.check()
        if procedure is not None:
            proc_id = descriptor.procedure or descriptor.name
            if proc_id in self.procedures:
                raise DuplicateName(f"procedure {proc_id!r}")
            self.procedures[proc_id] = procedure
        self.packages[descriptor.name] = descriptor
        return self

    # -- lookups (pure) ----------------------------------------------------

    def resolve_object_type(self, name: str) -> ObjectTypeInfo:
        entry = self._object_index.get(name)
        if entry is None:
            raise UnknownObjectType(name)
        return entry[1]

    def library_of(self, object_type_name: str) -> DomainLibraryDescriptor:
        entry = self._object_index.get(object_type_name)
        if entry is None:
            raise UnknownObjectType(object_type_name)
        return self.libraries[entry[0]]

    def resolve_package(self, name: str) -> PackageDescriptor:
        pkg = self.packages.get(name)  # case-sensitive by contract
        if pkg is None:
            raise UnknownPackage(name)
        return pkg

    def procedure(self, proc_id: str) -> Callable:
        fn = self.procedures.get(proc_id)
        if fn is None:
            raise RegistryError(f"procedure {proc_id!r} not registered")
        return fn
