"""Hybrid package execution: builtin procedures and external commands.

``invoke(package, procedure, bindings, task_id)`` is one package run, a
plain call on a validated plan's bindings, which name only declared inputs
and bind every required input that has no default. It fills the defaults,
checks each value's semantic type (``BindingError``), and returns the
outputs as a dict by name, every declared one present, or raises
``PackageFailure``; so does a declared scalar output that its type's
writer refuses, such as a duration of 90 minutes. ``output_at`` picks a
requested output out of that dict. The engine times each run itself.

A builtin package's run calls its ``procedure`` in-process; an external
package, whose ``procedure`` is ``None``, materializes inputs into a
per-invocation scratch directory, expands the command template, runs the
command, and reads declared outputs back from an ``outputs.tsv`` the
command must write.

External output contract (all files tab-separated UTF-8):

    <outdir>/outputs.tsv      lines: <name> <TAB> <value-or-series-path>
    series files              lines: <ISO-8601 time> <TAB> <value>

A declared ``timeseries`` output names a series file. Any other declared
output is read by its semantic type's reader in ``registry.SCALAR_TYPES``,
and a value that does not read is a ``PackageFailure`` naming its line; a
type not in the table, and an undeclared name, keep the text. Series
values use fixed four-decimal rendering. An indexable output has one line
per index, e.g. ``level[440,414]``, and is read back as one
``IndexedSeries``, as a builtin procedure returns it. Template
placeholders are ``{input:<name>}`` and ``{outdir}``: a scalar input is
written by its type's writer, and a record with ``portable_text`` is
written to a file whose path replaces the placeholder. The environment is
passed through unchanged except ``DSLAKE_TASK_ID``, which holds the
submit's task id. A command that exits non-zero fails with the last 500
characters of its stderr; an unreadable ``outputs.tsv`` or series file
fails naming it. A scratch directory is deleted once the declared outputs
are read back; every ``PackageFailure`` of an external run keeps it and
names it as its ``scratch``, not in its message, so the failure reason of
a run is the same text whatever directory it was given.

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
from typing import Any, Callable

from dslake.errors import BindingError, PackageFailure, UnboundReference
from dslake.lang.ast import DateLit, DurationLit, Expr, IntLit, Offset, Ref
from dslake.registry import SCALAR_TYPES, PackageDescriptor, read_text
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
    48 hours of timedelta. An offset that leaves the years 1 to 9999 is a
    ``BindingError``.
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
        try:
            return base + expr.sign * timedelta(hours=expr.delta.hours)
        except OverflowError:
            sign = "+" if expr.sign > 0 else "-"
            raise BindingError(
                f"{iso_seconds(base)} {sign} {expr.delta.hours}h leaves the years 1 to 9999"
            ) from None
    raise BindingError(f"cannot evaluate {expr!r}")


def semantic_type_of(value: Any) -> str:
    """The first ``SCALAR_TYPES`` type of ``value``, else its own tag or class name."""
    for name, scalar in SCALAR_TYPES.items():
        if isinstance(value, scalar.python_type):
            return name
    return getattr(value, "semantic_type", None) or type(value).__name__


def invoke(
    package: PackageDescriptor,
    procedure: Callable | None,
    bindings: dict[str, Any],
    task_id: str = "",
) -> dict[str, Any]:
    """Run one package on ``bindings`` and return its outputs by name:
    ``procedure`` in-process, or the package's command when it is ``None``."""
    bindings = dict(bindings)
    for inp in package.inputs:
        if inp.name not in bindings and inp.default is not None:
            bindings[inp.name] = inp.default_value()
    for name, value in bindings.items():
        expected, actual = package.input_named(name).semantic_type, semantic_type_of(value)
        if actual != expected:
            raise BindingError(f"input {name!r} of {package.name} expects {expected}, got {actual}")

    if procedure is None:
        return _run_external(package, bindings, task_id)
    try:
        outputs = procedure(bindings)
    except PackageFailure:
        raise
    except Exception as exc:
        raise PackageFailure(f"{package.name}: {exc}") from exc
    _check_outputs(package, outputs)
    return outputs


def _check_outputs(package: PackageDescriptor, outputs: dict[str, Any]) -> None:
    """Every declared output is present, and a declared scalar output of its
    type's class is one its writer can write, so that the result document
    renders what the package returned."""
    for decl in package.outputs:
        if decl.name not in outputs:
            raise PackageFailure(f"{package.name}: declared output {decl.name!r} missing")
        scalar = SCALAR_TYPES.get(decl.semantic_type)
        value = outputs[decl.name]
        if scalar is not None and isinstance(value, scalar.python_type):
            try:
                scalar.write(value)
            except ValueError as exc:
                raise PackageFailure(f"{package.name}: output {decl.name!r}: {exc}") from None


# --- external command mode ----------------------------------------------------

_INDEX_RE = re.compile(r"\[(-?\d+(?:,-?\d+)*)\]")  # the index of a ``name[i,j]`` line


def _run_external(
    package: PackageDescriptor, bindings: dict[str, Any], task_id: str
) -> dict[str, Any]:
    # every PackageFailure of the run keeps the scratch and names it; the
    # scratch is removed once the declared outputs are read and checked
    scratch = Path(tempfile.mkdtemp(prefix=f"dslake-{package.name}-"))
    try:
        outputs = _run_in(scratch, package, bindings, task_id)
        _check_outputs(package, outputs)
    except PackageFailure as exc:
        exc.scratch = scratch
        raise
    shutil.rmtree(scratch, ignore_errors=True)
    return outputs


def _run_in(
    scratch: Path, package: PackageDescriptor, bindings: dict[str, Any], task_id: str
) -> dict[str, Any]:
    substitutions = {"{outdir}": str(scratch)}
    for name, value in bindings.items():
        substitutions[f"{{input:{name}}}"] = _materialize(name, value, scratch, package.name)

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
        ) from exc
    if proc.returncode != 0:
        # the tail, where a traceback puts its error
        stderr = proc.stderr.decode(errors="replace").strip()[-500:]
        raise PackageFailure(f"{package.name} exited {proc.returncode}: {stderr}")

    manifest = _read_scratch(scratch / "outputs.tsv", "outputs.tsv", package.name)
    outputs: dict[str, Any] = {}
    indexed: dict[str, dict[tuple[int, ...], Any]] = {}
    for lineno, line in enumerate(manifest.splitlines(), start=1):
        if not line.strip():
            continue
        try:  # an index past the interpreter's limit on digits is malformed too
            name, raw = line.decode().split("\t", 1)
            base = name.split("[", 1)[0]
            index = _INDEX_RE.fullmatch(name[len(base):])
            indices = index and tuple(map(int, index[1].split(",")))
        except ValueError:
            raise PackageFailure(
                f"{package.name}: malformed outputs.tsv line {lineno}"
            ) from None
        decl = package.output_named(base)
        if decl is not None and decl.semantic_type.startswith("timeseries"):
            value = _read_series(scratch, raw, package.name, lineno)
        else:
            try:  # an undeclared line keeps its text
                value = raw if decl is None else read_text(decl.semantic_type, raw)
            except (ValueError, OverflowError):
                raise PackageFailure(
                    f"{package.name}: outputs.tsv line {lineno}: malformed"
                    f" {decl.semantic_type} {raw!r}"
                ) from None
        if decl is not None and decl.indexable and indices:
            indexed.setdefault(base, {})[indices] = value
        else:
            outputs[name] = value
    for base, by_index in indexed.items():
        outputs[base] = IndexedSeries(by_index)
    return outputs


def _read_scratch(path: Path, what: str, package_name: str) -> bytes:
    """The bytes of ``path``; one that is missing or that cannot be read,
    such as a directory, is a ``PackageFailure`` naming ``what``."""
    try:
        return path.read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a name holding NUL
        reason = getattr(exc, "strerror", None) or exc
        raise PackageFailure(f"{package_name}: {what} unreadable ({reason})") from None


def _read_series(scratch: Path, name: str, package_name: str, outputs_line: int) -> Series:
    what = f"outputs.tsv line {outputs_line}: series file {name!r}"
    data = _read_scratch(scratch / name, what, package_name)
    series: Series = []
    for lineno, line in enumerate(data.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            ts, value = line.decode().split("\t")
            series.append((parse_utc(ts), float(value)))
        except ValueError:
            raise PackageFailure(
                f"{package_name}: series file {name} line {lineno}: expected"
                f" <time> TAB <value>, found {line!r}"
            ) from None
    return series


def _materialize(name: str, value: Any, scratch: Path, package_name: str) -> str:
    scalar = SCALAR_TYPES.get(semantic_type_of(value))
    if scalar is not None:
        try:
            return scalar.write(value)
        except ValueError as exc:
            raise PackageFailure(f"{package_name}: input {name!r}: {exc}") from None
    text = getattr(value, "portable_text", None)
    if callable(text):
        target = scratch / f"{name}.txt"
        target.write_text(text())
        return str(target)
    raise PackageFailure(
        f"{package_name}: cannot materialize input {name!r} of type {type(value).__name__}"
    )
