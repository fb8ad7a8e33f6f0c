"""Result documents and their canonical byte rendering.

The canonical text is the byte-equality surface for all determinism
checks: sections OBJECTS, SIMULATIONS, DIAGNOSTICS; entries and keys
sorted lexicographically; floats with exactly four decimals in fixed
notation; times ISO-8601 UTC. Placement-dependent facts (which nodes
served reads or executed packages, wall time) are diagnostics visible on
the in-memory document but deliberately excluded from the canonical
text, which must not change with node count or failure state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import Any

from dslake.registry import SCALAR_TYPES
from dslake.times import iso_seconds


@dataclass
class ObjectRecord:
    object_id: str
    object_type: str
    requested_params: dict[str, Any] = field(default_factory=dict)


@dataclass
class SimulationRecord:
    object_id: str
    package: str
    statement_index: int
    outputs: dict[str, Any] = field(default_factory=dict)
    provenance: tuple[str, ...] = ()
    status: str = "ok"  # "ok" or "failed"
    failure_reason: str | None = None
    node: int | None = None  # execution placement, diagnostic only
    wall_time_s: float = 0.0  # diagnostic only
    scratch: Path | None = None  # a failed external run's kept directory, diagnostic only


@dataclass
class Diagnostics:
    files_mapped: int = 0
    fragments: int = 0
    nodes_used: set[int] = field(default_factory=set)  # diagnostic only
    files_read: int = 0  # files the map stage read, not served by memo or index; diagnostic only


@dataclass
class ResultDocument:
    task_id: str
    objects: list[ObjectRecord] = field(default_factory=list)
    simulations: list[SimulationRecord] = field(default_factory=list)
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    def canonical_text(self) -> str:
        lines = [f"RESULT {self.task_id}", "OBJECTS"]
        for obj in sorted(self.objects, key=lambda o: o.object_id):
            lines.append(f"object {obj.object_id}")
            lines.append(f"  type {obj.object_type}")
            for name in sorted(obj.requested_params):
                _render_entry(lines, "param", name, obj.requested_params[name])
        lines.append("SIMULATIONS")
        sims = sorted(
            self.simulations,
            key=lambda s: (s.object_id, s.package, s.statement_index),
        )
        for sim in sims:
            lines.append(f"simulation {sim.object_id} {sim.package}")
            for name in sorted(sim.outputs):
                _render_entry(lines, "output", name, sim.outputs[name])
            lines.append(f"  provenance {','.join(sim.provenance)}")
            if sim.status == "ok":
                lines.append("  status ok")
            else:
                lines.append(f"  status failed {sim.failure_reason}")
        lines.append("DIAGNOSTICS")
        lines.append(f"  files_mapped {self.diagnostics.files_mapped}")
        lines.append(f"  fragments {self.diagnostics.fragments}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def indexed_name(name: str, indices: tuple[int, ...]) -> str:
    """The key of an indexed output, e.g. ``level[440,414]``; ``name`` alone
    when there are no indices."""
    return f"{name}[{','.join(map(str, indices))}]" if indices else name


def expanded(name: str, value: Any) -> list[tuple[str, Any]]:
    """``(name, value)`` as the entries it renders to: an un-indexed request
    for an indexable output gives one entry per index, e.g. ``level[440,414]``."""
    by_index = getattr(value, "by_index", None)
    if by_index is None:
        return [(name, value)]
    return [(indexed_name(name, indices), by_index[indices]) for indices in sorted(by_index)]


def _render_entry(lines: list[str], kind: str, name: str, value: Any) -> None:
    for name, value in expanded(name, value):
        if is_series(value):
            lines.append(f"  {kind} {name} series {len(value)}")
            for ts, level in value:
                lines.append(f"    {iso_seconds(ts)} {level:.4f}")
        else:
            lines.append(f"  {kind} {name} {render_value(value)}")


def render_value(value: Any) -> str:
    if value is None:
        return "none"
    if isinstance(value, datetime):
        return iso_seconds(value)
    if isinstance(value, timedelta):
        return SCALAR_TYPES["duration"].write(value)
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4f}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    # a record renders as its sorted fields: a dataclass, or a namedtuple
    # such as CycloneParams
    fields = getattr(value, "__dataclass_fields__", None) or getattr(value, "_fields", None)
    if fields:
        parts = [
            f"{name}={render_value(getattr(value, name))}" for name in sorted(fields)
        ]
        return "{" + " ".join(parts) + "}"
    return str(value)


def is_series(value: Any) -> bool:
    return (
        isinstance(value, list)
        and bool(value)
        and isinstance(value[0], tuple)
        and len(value[0]) == 2
        and isinstance(value[0][0], datetime)
    )
