"""Knowledge validation: resolve a parsed query against the registry.

Resolution covers object types (alias-aware), filter keywords (through
the library's keyword shortcuts), packages (case-sensitive), package
inputs and outputs, and every reference used in binding expressions. Each
select makes one registry lookup, for its type's ``ObjectKnowledge``
record, and reads the type's parameters, filters and procedures there.

The result, ``ValidatedQuery``, is the whole plan the engine runs, and
validation is the one place a script is refused. Besides an unknown name,
a ``ValidationError`` refuses a script with no select statement, selects
of more than one object type, and a selected type whose library declares
no combiner for it. The plan holds every procedure the task calls, looked
up in the procedure table on each call: the extractors by file kind, the
combiner, the filters and each builtin package's procedure, and the
record codecs by file kind, for the kinds whose library registers one.

Each simulate statement becomes a ``SimulatePlan``, everything the engine
needs to run its package once per object selected by the nearest
preceding select: the package and its procedure (``None`` when it runs as
an external command), one bindings table of (input, expression) pairs
naming only declared inputs, and the requested outputs with their indices
resolved to integers. Every required input without a default is bound.
``semantic_association yes`` lets bindings use the object's parameters:
those written in the script, and every input that an object parameter
matches by name and semantic type. It does not change how often the
package runs: once per selected object either way. Inputs left unbound
take their package default when the package runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from dslake.errors import (
    DanglingSimulate,
    UnboundReference,
    UnknownFilterKeyword,
    UnknownOptionKeyword,
    UnknownOutputName,
    UnknownPackageInput,
    ValidationError,
)
from dslake.lang.ast import (
    Expr,
    IntLit,
    Offset,
    QueryAst,
    Ref,
    SelectStmt,
    SimulateStmt,
)
from dslake.registry import (
    ExecutionMode,
    KnowledgeRegistry,
    ObjectKnowledge,
    PackageDescriptor,
    RecordCodec,
)

# Params[...] in a select out clause addresses the object's own parameters
OBJECT_PARAMS_NAME = "Params"

KNOWN_OPTIONS = frozenset({"semantic_association"})


@dataclass(frozen=True)
class FilterBinding:
    procedure: Callable  # (object params, value) -> keep the object
    value: str


@dataclass(frozen=True)
class SelectResolution:
    knowledge: ObjectKnowledge
    filters: tuple[FilterBinding, ...]
    requested_params: tuple[str, ...]  # parameter names to present


@dataclass(frozen=True)
class SimulatePlan:
    statement_index: int
    package: PackageDescriptor
    procedure: Callable | None  # the builtin package's; None for an external one
    select_index: int  # index into ValidatedQuery.selects
    bindings: tuple[tuple[str, Expr], ...]  # input name -> expression
    outputs: tuple[tuple[str, tuple[int, ...]], ...]  # output name, indices


@dataclass(frozen=True)
class ValidatedQuery:
    ast: QueryAst
    selects: tuple[SelectResolution, ...]
    simulates: tuple[SimulatePlan, ...]
    # file kind -> extractor, in the library's order of declaration; the
    # functions in this order key the map records in the layout's memo
    extractors: dict[str, Callable]
    combiner: Callable
    # file kind -> its record codec's functions; the map records of a kind
    # without one are not persisted
    record_codecs: dict[str, RecordCodec]


def validate(ast: QueryAst, registry: KnowledgeRegistry) -> ValidatedQuery:
    selects: list[SelectResolution] = []
    simulates: list[SimulatePlan] = []

    for index, stmt in enumerate(ast.statements):
        if isinstance(stmt, SelectStmt):
            select = _validate_select(stmt, registry)
            if selects and select.knowledge is not selects[0].knowledge:
                first = selects[0].knowledge.info.name
                raise ValidationError(
                    stmt.object_type,
                    detail=f"a task selects one object type, and {first} came first",
                )
            selects.append(select)
        else:
            simulates.append(_validate_simulate(stmt, index, selects, registry))

    if not selects:
        raise ValidationError("select", detail="the script has no select statement")
    knowledge = selects[0].knowledge
    if knowledge.combiner is None:
        raise ValidationError(
            knowledge.info.name,
            detail=f"library {knowledge.library} declares no combiner for it",
        )
    extractors = {kind: registry.procedures[p] for kind, p in knowledge.extractors.items()}
    combiner = registry.procedures[knowledge.combiner]
    codecs = {
        kind: RecordCodec(*(registry.procedures[p] for p in codec))
        for kind, codec in knowledge.record_codecs.items()
    }
    return ValidatedQuery(ast, tuple(selects), tuple(simulates), extractors, combiner, codecs)


def _validate_select(stmt: SelectStmt, registry: KnowledgeRegistry) -> SelectResolution:
    knowledge = registry.resolve_object_type(stmt.object_type)

    filters = []
    for keyword, value in stmt.filters:
        proc_id = knowledge.filters.get(keyword)
        if proc_id is None:
            raise UnknownFilterKeyword(keyword, detail=f"object type {knowledge.info.name}")
        filters.append(FilterBinding(registry.procedures[proc_id], value))

    requested = []
    for item in stmt.out:
        if item.name == OBJECT_PARAMS_NAME:
            for idx in item.indices:
                if not isinstance(idx, Ref):
                    raise UnknownOutputName(
                        str(idx), detail="Params[...] takes parameter names"
                    )
                if idx.name not in knowledge.params:
                    raise UnknownOutputName(
                        idx.name, detail=f"not a parameter of {knowledge.info.name}"
                    )
                requested.append(idx.name)
        else:
            if item.indices:
                raise UnknownOutputName(
                    item.name, detail="object parameters take no indices"
                )
            if item.name not in knowledge.params:
                raise UnknownOutputName(
                    item.name, detail=f"not a parameter of {knowledge.info.name}"
                )
            requested.append(item.name)

    return SelectResolution(
        knowledge=knowledge,
        filters=tuple(filters),
        requested_params=tuple(requested),
    )


def _validate_simulate(
    stmt: SimulateStmt,
    index: int,
    selects: list[SelectResolution],
    registry: KnowledgeRegistry,
) -> SimulatePlan:
    if not selects:
        raise DanglingSimulate(
            stmt.package, detail="simulate has no preceding select to consume"
        )
    select_index = len(selects) - 1
    knowledge = selects[select_index].knowledge

    package = registry.resolve_package(stmt.package)
    builtin = package.execution_mode is ExecutionMode.BUILTIN
    procedure = registry.procedures[package.procedure_id] if builtin else None

    fan_out = False
    for keyword, value in stmt.options:
        if keyword not in KNOWN_OPTIONS:
            raise UnknownOptionKeyword(keyword)
        if keyword == "semantic_association":
            if value not in ("yes", "no"):
                raise ValidationError(
                    value, detail="semantic_association takes yes or no"
                )
            fan_out = value == "yes"

    bindings: list[tuple[str, Expr]] = []
    for name, expr in stmt.in_bindings:
        if package.input_named(name) is None:
            raise UnknownPackageInput(
                name, detail=f"not an input of package {package.name}"
            )
        for ref in _refs_of(expr):
            if not fan_out:
                raise UnboundReference(
                    ref, detail="references need semantic_association yes"
                )
            if ref not in knowledge.params:
                raise UnboundReference(
                    ref, detail=f"not an output parameter of {knowledge.info.name}"
                )
        bindings.append((name, expr))

    bound_names = {name for name, _ in bindings}
    for inp in package.inputs:
        if inp.name in bound_names:
            continue
        if fan_out and knowledge.params.get(inp.name) == inp.semantic_type:
            bindings.append((inp.name, Ref(inp.name)))
        elif inp.default is None and inp.required:
            raise UnboundReference(
                inp.name,
                detail=f"required input of {package.name} cannot be bound",
            )

    outputs = []
    for item in stmt.out:
        out_decl = package.output_named(item.name)
        if out_decl is None:
            raise UnknownOutputName(
                item.name, detail=f"not an output of package {package.name}"
            )
        if item.indices:
            if not out_decl.indexable:
                raise ValidationError(
                    item.name, detail="output is not indexable"
                )
            for idx in item.indices:
                if not isinstance(idx, IntLit):
                    raise ValidationError(
                        item.name, detail="indices must be integer literals"
                    )
        outputs.append((item.name, tuple(idx.value for idx in item.indices)))

    return SimulatePlan(
        statement_index=index,
        package=package,
        procedure=procedure,
        select_index=select_index,
        bindings=tuple(bindings),
        outputs=tuple(outputs),
    )


def _refs_of(expr: Expr) -> list[str]:
    if isinstance(expr, Ref):
        return [expr.name]
    if isinstance(expr, Offset):
        return _refs_of(expr.base)
    return []
