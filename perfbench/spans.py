"""Spans recorded from outside the program, around calls into each layer.

The span model of Dapper (Sigelman et al., Google TR 2010), reduced to one
process: every wrapped call records (id, parent, request, name, layer,
start, end, thread, tags). A request is one timed operation of the
benchmark (a submit plus its canonical rendering, or the generation of one
year); every span it causes carries its id. Spans stay in memory until the
benchmark writes them out at the end.

Wrappers replace module attributes at the names the callers look up (for
example ``dslake.engine.parse``, not ``dslake.lang.parser.parse``) and the
entries of a registry's procedure table. No file of the program changes.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from collections import defaultdict

# The layers self time is reported for, in pipeline order.
LAYERS = (
    "engine",
    "lang",
    "storage",
    "cyclone.plugin",
    "cyclone.grid",
    "cyclone.detect",
    "cyclone.track",
    "cyclone.params",
    "hybrid",
    "cyclone.surrogate",
    "report",
)

# Span tuple fields.
ID, PARENT, REQUEST, NAME, LAYER, T0, T1, THREAD, TAGS = range(9)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request_span = 0
        self._request = 0
        self._files_seen: set[str] = set()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def request(self, name: str, fn, *args):
        """Run one timed operation as the root span of a new request."""
        self._request = self._request_span = next(self._ids)
        try:
            return self._record(self._request, 0, name, "bench", fn, args, {}, None)
        finally:
            self._request = self._request_span = 0

    def wrap(self, name: str, layer: str, fn, tag=None):
        """``fn`` recording a span per call; ``tag(args, result)`` adds tags."""

        def traced(*args, **kwargs):
            stack = self._stack()
            # map threads start with an empty stack: their spans hang off the
            # request that started them
            parent = stack[-1] if stack else self._request_span
            return self._record(next(self._ids), parent, name, layer, fn, args, kwargs, tag)

        traced.__wrapped__ = fn
        return traced

    def _record(self, span_id, parent, name, layer, fn, args, kwargs, tag):
        stack = self._stack()
        stack.append(span_id)
        tags = {}
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tags["error"] = type(exc).__name__
            raise
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                (span_id, parent, self._request, name, layer, t0, t1, threading.get_ident(), tags)
            )
        if tag is not None:
            tags.update(tag(args, result))
        return result

    # -- installing ------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, layer: str, tag=None) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self.wrap(name, layer, raw.__func__, tag)))
        else:
            setattr(owner, attr, self.wrap(name, layer, getattr(owner, attr), tag))

    def install(self) -> None:
        """Wrap the public entry points of every layer of ``dslake``."""
        import types

        import dslake.cyclone.plugin as plugin
        import dslake.cyclone.synthetic as synthetic
        import dslake.engine as engine
        import dslake.hybrid as hybrid
        import dslake.report as report
        import dslake.storage as storage

        layout = storage.StorageLayout
        self.patch(engine.Engine, "submit", "engine.submit", "engine")
        self.patch(engine, "parse", "lang.parse", "lang")
        self.patch(engine, "validate", "lang.validate", "lang")
        self.patch(engine, "run_reduce", "engine.reduce", "engine")
        self.patch(engine, "invoke", "hybrid.invoke", "hybrid")
        self.patch(layout, "reshaped", "storage.reshape", "storage")
        self.patch(layout, "dataset_files", "storage.dataset_files", "storage",
                   lambda a, r: {"files": len(r)})
        self.patch(layout, "read", "storage.read", "storage", self._read_tags)
        self.patch(layout, "load", "storage.load", "storage")
        self.patch(layout, "ingest", "storage.ingest", "storage")
        self.patch(layout, "save", "storage.save", "storage")
        self.patch(storage.DataFile, "from_bytes", "storage.hash", "storage")
        self.patch(plugin, "parse_grid_snapshot", "grid.parse", "cyclone.grid",
                   lambda a, r: {"bytes": len(a[0])})
        self.patch(plugin, "interior_minima", "detect.minima", "cyclone.detect")
        self.patch(plugin, "track", "track.track", "cyclone.track",
                   lambda a, r: {"paths": len(r)})
        self.patch(plugin, "parametrize", "params.parametrize", "cyclone.params")
        self.patch(plugin, "bsm_surrogate", "surrogate.bsm", "cyclone.surrogate")
        self.patch(report.ResultDocument, "canonical_text", "report.canonical", "report")
        self.patch(synthetic, "detection_is_clean", "synthetic.check", "cyclone.synthetic")
        self.patch(synthetic, "render_grid_snapshot", "grid.render", "cyclone.grid")
        self.patch(synthetic, "render_body", "grid.render", "cyclone.grid")
        # only the package runner's own subprocess calls are timed
        hybrid.subprocess = types.SimpleNamespace(
            run=self.wrap("hybrid.subprocess", "hybrid", hybrid.subprocess.run)
        )

    def wrap_registry(self, registry) -> None:
        """Wrap every procedure of ``registry`` (extractor, combiner, filters,
        builtin packages) in place."""
        for proc_id, fn in list(registry.procedures.items()):
            registry.procedures[proc_id] = self.wrap(f"proc.{proc_id}", "cyclone.plugin", fn)

    def _read_tags(self, args, result) -> dict:
        layout, file_id = args[0], args[1]
        first = file_id not in self._files_seen
        self._files_seen.add(file_id)
        return {
            "bytes": len(result),
            "first": first,
            "failover": layout.serving_node(file_id) != layout.placements[file_id][0],
        }


# -- analysis -------------------------------------------------------------------


def _ms(ns: int) -> float:
    return ns / 1e6


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total = 0
    end = None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def with_map_stage(spans: list[tuple]) -> list[tuple]:
    """Add the engine's inline map stage as a span of its own.

    The map stage runs between the end of ``dataset_files`` and the start of
    ``run_reduce`` inside ``Engine.submit``; the reads and extractor calls in
    that interval, on any thread, become its children.
    """
    kids: dict[int, dict[str, tuple]] = defaultdict(dict)
    for s in spans:
        if s[NAME] in ("storage.dataset_files", "engine.reduce"):
            kids[s[PARENT]][s[NAME]] = s
    stages = {}
    submit_of_request = {}
    out = []
    for s in spans:
        if s[NAME] == "engine.submit" and len(kids[s[ID]]) == 2:
            submit_of_request[s[PARENT]] = s[ID]
            t0 = kids[s[ID]]["storage.dataset_files"][T1]
            t1 = kids[s[ID]]["engine.reduce"][T0]
            stages[s[ID]] = (-s[ID], t0, t1)
            out.append((-s[ID], s[ID], s[REQUEST], "engine.map", "engine", t0, t1, s[THREAD], {}))
    for s in spans:
        stage = stages.get(s[PARENT])
        if stage is None:
            # map threads start with an empty stack and hang off the request
            stage = stages.get(submit_of_request.get(s[PARENT]))
        if (
            stage is not None
            and s[NAME] in ("storage.read", "proc.cyclone.extract_centers")
            and stage[1] <= s[T0] <= stage[2]
        ):
            s = (s[ID], stage[0]) + s[2:]
        out.append(s)
    return out


def self_times_ms(spans: list[tuple]) -> dict[str, float]:
    """Per layer: span durations minus the part their child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append((s[T0], s[T1]))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        clipped = [(max(a, s[T0]), min(b, s[T1])) for a, b in children.get(s[ID], ())]
        covered = _union_ns([(a, b) for a, b in clipped if b > a])
        out[s[LAYER]] += _ms(s[T1] - s[T0] - covered)
    return out


def request_metrics(spans: list[tuple]) -> dict[str, float]:
    """Layer counts and times of one submit request."""
    spans = with_map_stage(spans)
    named: dict[str, list[tuple]] = defaultdict(list)
    for s in spans:
        named[s[NAME]].append(s)

    def total(name):
        return sum(_ms(s[T1] - s[T0]) for s in named[name])

    ids_under_map = {s[ID] for s in named["engine.map"]}
    extract = named["proc.cyclone.extract_centers"]
    extract_ids = {s[ID] for s in extract}
    map_parses = [s for s in named["grid.parse"] if s[PARENT] in extract_ids]
    param_ids = {s[ID] for s in named["params.parametrize"]}
    reads = named["storage.read"]
    files = sum(s[TAGS].get("files", 0) for s in named["storage.dataset_files"])
    invokes = named["hybrid.invoke"]
    self_ms = self_times_ms(spans)
    extract_self = self_times_ms(
        [s for s in spans if s[ID] in extract_ids or s[PARENT] in extract_ids]
    ).get("cyclone.plugin", 0.0)
    metrics = {
        "lang.parse_validate_ms": total("lang.parse") + total("lang.validate"),
        "storage.reshape_ms": total("storage.reshape"),
        "storage.reads": len(reads),
        "storage.read_ms": total("storage.read"),
        "storage.read_mb": sum(s[TAGS].get("bytes", 0) for s in reads) / 1e6,
        "storage.first_reads": sum(1 for s in reads if s[TAGS].get("first")),
        "storage.failover_reads": sum(1 for s in reads if s[TAGS].get("failover")),
        "engine.map_wall_ms": total("engine.map"),
        "engine.map_busy_ms": total("proc.cyclone.extract_centers"),
        "engine.map_threads": len({s[THREAD] for s in extract if s[PARENT] in ids_under_map}),
        "engine.extractor_calls": len(extract),
        "engine.payload_hit_ratio": 1.0 - len(extract) / files if files else 0.0,
        "engine.reduce_ms": total("engine.reduce"),
        "plugin.extract_self_ms": extract_self,
        "plugin.dedupe_ratio": 1.0 - len(map_parses) / len(extract) if extract else 0.0,
        "grid.parses": len(map_parses),
        "grid.parse_ms": sum(_ms(s[T1] - s[T0]) for s in map_parses),
        "grid.parse_mb": sum(s[TAGS].get("bytes", 0) for s in map_parses) / 1e6,
        "detect.scans": len(named["detect.minima"]),
        "detect.minima_ms": total("detect.minima"),
        "track.ms": total("track.track"),
        "track.paths": sum(s[TAGS].get("paths", 0) for s in named["track.track"]),
        "params.parametrize_ms": total("params.parametrize"),
        "params.snapshot_parses": sum(1 for s in named["grid.parse"] if s[PARENT] in param_ids),
        "hybrid.invocations": len(invokes),
        "hybrid.invoke_ms": total("hybrid.invoke") / len(invokes) if invokes else 0.0,
        "hybrid.subprocess_ms": total("hybrid.subprocess"),
        "hybrid.failed": sum(1 for s in invokes if "error" in s[TAGS]),
        "surrogate.ms": total("surrogate.bsm"),
        "report.canonical_ms": total("report.canonical"),
    }
    for layer in LAYERS:
        metrics[f"self_ms.{layer}"] = self_ms.get(layer, 0.0)
    return metrics


# Which per-submit metrics are taken from the cold and which from the warm
# submits: each from the kind whose end-to-end metric it should move
# (METRICS.md).
COLD_METRICS = (
    "storage.reads", "storage.read_ms", "storage.read_mb", "storage.first_reads",
    "engine.map_wall_ms", "engine.map_busy_ms", "engine.map_threads",
    "engine.extractor_calls", "engine.payload_hit_ratio", "plugin.extract_self_ms",
    "plugin.dedupe_ratio", "grid.parses", "grid.parse_ms", "grid.parse_mb",
    "detect.scans", "detect.minima_ms",
)
WARM_METRICS = (
    "lang.parse_validate_ms", "storage.reshape_ms", "engine.reduce_ms", "track.ms",
    "track.paths", "params.parametrize_ms", "params.snapshot_parses", "hybrid.invocations",
    "hybrid.invoke_ms", "hybrid.subprocess_ms", "hybrid.failed", "surrogate.ms",
    "report.canonical_ms",
)


def pick(metrics: dict[str, float], kind: str) -> dict[str, float]:
    """The metrics of a ``kind`` ("cold" or "warm") submit that are reported,
    self times renamed to ``self_ms.<kind>.<layer>``."""
    names = COLD_METRICS if kind == "cold" else WARM_METRICS
    out = {name: metrics[name] for name in names}
    for layer in LAYERS:
        out[f"self_ms.{kind}.{layer}"] = metrics[f"self_ms.{layer}"]
    return out


def generation_metrics(spans: list[tuple]) -> dict[str, float]:
    """Counts and times of generating, ingesting and saving one year."""
    named: dict[str, list[tuple]] = defaultdict(list)
    for s in spans:
        named[s[NAME]].append(s)
    generate_ids = {s[ID] for s in named["synthetic.generate"]}

    def under_generate(name):
        return [s for s in named[name] if s[PARENT] in generate_ids]

    def total(items):
        return sum(_ms(s[T1] - s[T0]) for s in items)

    checks = under_generate("synthetic.check")
    renders = under_generate("grid.render")
    return {
        "synthetic.year_ms": total(named["synthetic.generate"]),
        "synthetic.attempts": len(checks),
        "synthetic.check_ms": total(checks) / len(checks) if checks else 0.0,
        "grid.renders": len(renders),
        "grid.render_ms": total(renders),
        "storage.hash_ms": total(under_generate("storage.hash")),
        "storage.ingest_ms": total(named["storage.ingest"]),
        "storage.save_ms": total(named["storage.save"]),
    }


def to_json(spans: list[tuple]) -> list[dict]:
    return [
        {"id": s[ID], "parent": s[PARENT], "request": s[REQUEST], "name": s[NAME],
         "layer": s[LAYER], "start_ns": s[T0], "end_ns": s[T1], "thread": s[THREAD],
         "tags": s[TAGS]}
        for s in spans
    ]


def from_json(items: list[dict]) -> list[tuple]:
    return [
        (d["id"], d["parent"], d["request"], d["name"], d["layer"], d["start_ns"],
         d["end_ns"], d["thread"], d["tags"])
        for d in items
    ]
