"""Canonical pretty-printer for query ASTs.

The layout is fixed: headers first (area before time), one clause per
line, two-space indent inside statements, blank lines between blocks.
``parse(format_query(ast)) == ast`` for structurally valid ASTs.
"""

from __future__ import annotations

import datetime as _dt

from dslake.lang.ast import (
    DateLit,
    DurationLit,
    Expr,
    IntLit,
    Offset,
    OutItem,
    QueryAst,
    Ref,
    SelectStmt,
    SimulateStmt,
)
from dslake.times import decimal_text


def format_query(ast: QueryAst) -> str:
    blocks: list[str] = []
    headers: list[str] = []
    if ast.area is not None:
        a = ast.area
        headers.append(
            f"area {decimal_text(a.lat_min)},{decimal_text(a.lon_min)}"
            f" - {decimal_text(a.lat_max)},{decimal_text(a.lon_max)}"
        )
    if ast.time is not None:
        headers.append(f"time {_date(ast.time.first_day)} - {_date(ast.time.last_day)}")
    if headers:
        blocks.append("\n".join(headers))

    for stmt in ast.statements:
        if isinstance(stmt, SelectStmt):
            blocks.append(_format_select(stmt))
        else:
            blocks.append(_format_simulate(stmt))

    return "\n\n".join(blocks) + "\n" if blocks else ""


def _format_select(stmt: SelectStmt) -> str:
    lines = [f"select {stmt.object_type}"]
    for keyword, value in stmt.filters:
        lines.append(f"  {keyword} {value}")
    if stmt.out:
        lines.append(f"  out({_out_list(stmt.out)})")
    return "\n".join(lines)


def _format_simulate(stmt: SimulateStmt) -> str:
    lines = ["simulate", f"  with {stmt.package}"]
    for keyword, value in stmt.options:
        lines.append(f"  {keyword} {value}")
    if stmt.in_bindings:
        parts = [f"{name}: {_expr(expr)}" for name, expr in stmt.in_bindings]
        lines.append(f"  in({', '.join(parts)})")
    if stmt.out:
        lines.append(f"  out({_out_list(stmt.out)})")
    return "\n".join(lines)


def _out_list(items: tuple[OutItem, ...]) -> str:
    parts = []
    for item in items:
        if item.indices:
            idx = ",".join(_expr(e) for e in item.indices)
            parts.append(f"{item.name}[{idx}]")
        else:
            parts.append(item.name)
    return ", ".join(parts)


def _expr(expr: Expr) -> str:
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, DateLit):
        return _date(expr.value)
    if isinstance(expr, DurationLit):
        return f"{expr.hours}h"
    if isinstance(expr, Offset):
        sign = "-" if expr.sign < 0 else "+"
        return f"{_expr(expr.base)} {sign} {_expr(expr.delta)}"
    raise TypeError(f"not an expression node: {expr!r}")


def _date(d: _dt.date) -> str:
    return f"{d.day:02d}.{d.month:02d}.{d.year:04d}"
