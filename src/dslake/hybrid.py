"""Hybrid package execution: builtin procedures and external commands.

``invoke(package, bindings, registry, task_id)`` is one package run, a
plain call: it fills defaults, checks each binding against the descriptor
(``BindingError``), and returns the outputs as a dict by name, every
declared one present, or raises ``PackageFailure``. ``output_at`` picks a
requested output out of that dict. The engine times each run itself.

Builtin mode calls a registered procedure in-process. External mode
materializes inputs into a per-invocation scratch directory, expands the
command template, runs the command, and reads declared outputs back from
an ``outputs.tsv`` the command must write.

External output contract (all files tab-separated UTF-8):

    <outdir>/outputs.tsv      lines: <name> <TAB> <value-or-series-path>
    series files              lines: <ISO-8601 time> <TAB> <value>

Series values use fixed four-decimal rendering. An indexable output has
one line per index, e.g. ``level[440,414]``, and is read back as one
``IndexedSeries``, as a builtin procedure returns it. Template placeholders
are ``{input:<name>}`` (literal or materialized file path) and
``{outdir}``. The environment is passed through unchanged except
``DSLAKE_TASK_ID``, which holds the submit's task id. Scratch directories
are deleted on success and retained on failure.

Invocations are independent: no shared mutable state, safe to run
concurrently.
"""

from __future__ import annotations

import os
import re
import shlex
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Any

from dslake.errors import BindingError, PackageFailure, UnboundReference
from dslake.lang.ast import DateLit, DurationLit, Expr, IntLit, Offset, Ref
from dslake.registry import ExecutionMode, KnowledgeRegistry, PackageDescriptor
from dslake.times import UTC, iso_seconds, parse_utc

Series = list[tuple[datetime, float]]


@dataclass
class IndexedSeries:
    """A family of series addressed by integer index tuples."""

    by_index: dict[tuple[int, ...], Series]


def output_at(outputs: dict[str, Any], name: str, indices: tuple[int, ...] = ()) -> Any:
    """One run's output ``name``; with indices, its series at those indices."""
    if name not in outputs:
        raise PackageFailure(f"output {name} missing")
    value = outputs[name]
    if not indices:
        return value
    if not isinstance(value, IndexedSeries):
        raise PackageFailure(f"output {name} is not indexable")
    series = value.by_index.get(tuple(indices))
    if series is None:
        raise PackageFailure(f"no series at index {list(indices)}")
    return series


def evaluate_binding(expr: Expr, object_params: dict[str, Any]) -> Any:
    """Evaluate a binding expression against an object's parameters.

    Offsets apply duration arithmetic in UTC; 48h and 2d are both exactly
    48 hours of timedelta.
    """
    if isinstance(expr, Ref):
        if expr.name not in object_params:
            raise UnboundReference(expr.name)
        return object_params[expr.name]
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, DateLit):
        d = expr.value
        return datetime(d.year, d.month, d.day, tzinfo=UTC)
    if isinstance(expr, DurationLit):
        return timedelta(hours=expr.hours)
    if isinstance(expr, Offset):
        base = evaluate_binding(expr.base, object_params)
        if not isinstance(base, datetime):
            raise BindingError(f"offset applied to non-datetime value {base!r}")
        return base + expr.sign * timedelta(hours=expr.delta.hours)
    raise BindingError(f"cannot evaluate {expr!r}")


def semantic_type_of(value: Any) -> str:
    if isinstance(value, datetime):
        return "datetime"
    if isinstance(value, timedelta):
        return "duration"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "string"
    tag = getattr(value, "semantic_type", None)
    if tag:
        return tag
    return type(value).__name__


def invoke(
    package: PackageDescriptor,
    bindings: dict[str, Any],
    registry: KnowledgeRegistry,
    task_id: str = "",
) -> dict[str, Any]:
    """Run one package on ``bindings`` and return its outputs by name."""
    bindings = dict(bindings)
    for inp in package.inputs:
        if inp.name not in bindings:
            if inp.default is not None:
                bindings[inp.name] = inp.default_value()
            elif inp.required:
                raise BindingError(
                    f"required input {inp.name!r} of {package.name} not bound"
                )
    for name, value in bindings.items():
        declared = package.input_named(name)
        if declared is None:
            raise BindingError(f"{name!r} is not an input of {package.name}")
        actual = semantic_type_of(value)
        if actual != declared.semantic_type:
            raise BindingError(
                f"input {name!r} of {package.name} expects"
                f" {declared.semantic_type}, got {actual}"
            )

    if package.execution_mode is ExecutionMode.BUILTIN:
        proc = registry.procedure(package.procedure or package.name)
        try:
            outputs = proc(bindings)
        except PackageFailure:
            raise
        except Exception as exc:
            raise PackageFailure(f"{package.name}: {exc}") from exc
    else:
        outputs = _run_external(package, bindings, task_id)

    for decl in package.outputs:
        if decl.name not in outputs:
            raise PackageFailure(f"declared output {decl.name!r} missing")
    return outputs


# --- external command mode ----------------------------------------------------

_INDEX_RE = re.compile(r"\[(-?\d+(?:,-?\d+)*)\]")  # the index of a ``name[i,j]`` line


def _run_external(
    package: PackageDescriptor, bindings: dict[str, Any], task_id: str
) -> dict[str, Any]:
    # the scratch is removed once the outputs are read; a PackageFailure
    # leaves it in place and names it
    scratch = Path(tempfile.mkdtemp(prefix=f"dslake-{package.name}-"))
    substitutions = {"{outdir}": str(scratch)}
    for name, value in bindings.items():
        substitutions[f"{{input:{name}}}"] = _materialize(name, value, scratch)

    args = []
    for token in shlex.split(package.command_template):
        for placeholder, concrete in substitutions.items():
            token = token.replace(placeholder, concrete)
        args.append(token)

    env = dict(os.environ)
    env["DSLAKE_TASK_ID"] = task_id
    try:
        proc = subprocess.run(args, env=env, capture_output=True)
    except OSError as exc:
        raise PackageFailure(
            f"{package.name} could not start {args[0]!r}: {exc.strerror or exc}"
            f" (scratch kept at {scratch})"
        ) from exc
    if proc.returncode != 0:
        stderr = proc.stderr.decode(errors="replace").strip()[:500]
        raise PackageFailure(
            f"{package.name} exited {proc.returncode}: {stderr} (scratch kept at {scratch})"
        )

    manifest = scratch / "outputs.tsv"
    if not manifest.exists():
        raise PackageFailure(
            f"{package.name} wrote no outputs.tsv (scratch kept at {scratch})"
        )
    outputs: dict[str, Any] = {}
    indexed: dict[str, dict[tuple[int, ...], Any]] = {}
    for lineno, line in enumerate(manifest.read_bytes().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            name, raw = line.decode().split("\t", 1)
        except ValueError:
            raise PackageFailure(
                f"{package.name}: malformed outputs.tsv line {lineno}"
            ) from None
        base = name.split("[", 1)[0]
        decl = package.output_named(base)
        if decl is not None and decl.semantic_type.startswith("timeseries"):
            value = _read_series(scratch, raw, package.name)
        else:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        index = _INDEX_RE.fullmatch(name[len(base):])
        if decl is not None and decl.indexable and index:
            indexed.setdefault(base, {})[tuple(map(int, index[1].split(",")))] = value
        else:
            outputs[name] = value
    for base, by_index in indexed.items():
        outputs[base] = IndexedSeries(by_index)
    shutil.rmtree(scratch, ignore_errors=True)
    return outputs


def _read_series(scratch: Path, name: str, package_name: str) -> Series:
    path = scratch / name
    if not path.exists():
        raise PackageFailure(
            f"{package_name}: series file {name} missing (scratch kept at {scratch})"
        )
    series: Series = []
    for lineno, line in enumerate(path.read_bytes().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            ts, value = line.decode().split("\t")
            series.append((parse_utc(ts), float(value)))
        except ValueError:
            raise PackageFailure(
                f"{package_name}: series file {name} line {lineno}: expected"
                f" <time> TAB <value>, found {line!r} (scratch kept at {scratch})"
            ) from None
    return series


def _materialize(name: str, value: Any, scratch: Path) -> str:
    if isinstance(value, datetime):
        return iso_seconds(value)
    if isinstance(value, timedelta):
        hours = int(value.total_seconds() // 3600)
        return f"{hours}h"
    if isinstance(value, (int, float, str)):
        return str(value)
    text = getattr(value, "portable_text", None)
    if callable(text):
        target = scratch / f"{name}.txt"
        target.write_text(text())
        return str(target)
    raise BindingError(f"cannot materialize input {name!r} of type {type(value).__name__}")
