"""The dslake benchmark: the Fig. 5 query over a year of snapshots.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``dslake`` is imported from its ``src``.
Everything the run writes goes under ``.perfbench/`` in the checkout: the
storage roots and package scratch directories (removed at the end), and the
result file ``.perfbench/out/<workload>-seed<N>-trace<T>.json`` with the
provenance, every sample and, with ``--trace 1``, the spans.

Every gated time is CPU time (user + system, of every thread and of every
child process the work waited for, see ``common.cpu_s``; user time only for
``setup_s``): the benchmark runs on
a few cores of a shared host, whose other tenants moved the wall time of the
same work by half of its median between runs. Wall times are printed too,
not gated.

A run sets up the workload's inputs three times (``setup_s`` is the median),
checks the program's outputs, and then takes samples of four kinds for at
least ``--seconds`` and until each kind has its minimum count, interleaved by
fixed shares of the time. Load comes from this one process, which runs one
child at a time (a closed loop with one client):

* cold: a fresh interpreter loads the saved root, builds a new ``Engine``
  and submits once (``child.py``);
* warm: the same request again and again on one long-lived ``Engine``;
* cli: ``python -m dslake submit`` against the saved root;
* gen: the year of the next generator seed from 0 on (five of them, eight
  on ``fig5_year``), generated and ingested in memory.

Every timed submit includes the canonical rendering and its text is compared
with the in-process reference. Any mismatch makes ``correct`` false and the
exit status 1. ``--trace 1`` repeats the run with spans recorded around the
calls into each layer and reports the per-layer metrics instead (see
``METRICS.md``). The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import common

SETUP_REPS = 3
SETUP_SEED_TRIES = 12
CHILD_TIMEOUT_S = 120
# A run must end within 180 s; sampling stops early past this point.
HARD_STOP_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    script: str
    nodes: int  # node count of the submits; data is stored at 8 nodes, replication 2
    # share of the sampling time given to each sample kind (cold, warm, cli,
    # gen), and the fewest samples of each kind; slow samples need more of
    # them for a steady median
    shares: dict[str, float]
    min_samples: dict[str, int]
    external: bool = False  # BSM runs as the subprocess package
    textured: bool = False
    node_checks: bool = False  # bytes equal at 1/2/4/8 nodes and with a node failed
    ne_check: bool = False  # planted north-east paths recovered exactly


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig5_year", common.FIG5_SCRIPT, nodes=4,
                 shares={"cold": 0.31, "warm": 0.24, "cli": 0.27, "gen": 0.18},
                 min_samples={"cold": 8, "warm": 200, "cli": 6, "gen": 8},
                 node_checks=True, ne_check=True),
        Workload("fig5_year_textured", common.FIG5_SCRIPT, nodes=1,
                 shares={"cold": 0.48, "warm": 0.13, "cli": 0.31, "gen": 0.08},
                 min_samples={"cold": 7, "warm": 200, "cli": 4, "gen": 5},
                 textured=True, ne_check=True),
        Workload("fig5_year_external", common.EXTERNAL_SCRIPT, nodes=4,
                 shares={"cold": 0.34, "warm": 0.24, "cli": 0.38, "gen": 0.04},
                 min_samples={"cold": 6, "warm": 6, "cli": 6, "gen": 5}, external=True),
    )
}


@dataclass(frozen=True)
class Scale:
    months: int
    min_samples: dict[str, int] | None  # None: the workload's own


SCALES = {
    "year": Scale(12, None),
    # shrunken configuration for smoke.py
    "smoke": Scale(1, {"cold": 1, "warm": 3, "cli": 1, "gen": 1}),
}


@dataclass
class Run:
    workload: Workload
    seed: int
    seconds: float
    trace: bool
    scale: Scale
    work: Path
    started: float = field(default_factory=time.perf_counter)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    unplantable: list[str] = field(default_factory=list)  # seeds the generator refused
    mismatches: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    layer_samples: dict[str, list[float]] = field(default_factory=dict)
    spans: dict[str, list] = field(default_factory=dict)
    year_seeds: list[int] = field(default_factory=list)
    tracer: object = None
    registry_file: Path | None = None  # .kd file with the subprocess package

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def add_layers(self, values: dict[str, float]) -> None:
        for name, value in values.items():
            self.layer_samples.setdefault(name, []).append(value)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def mismatch(self, what: str) -> None:
        """A wrong output: a failed operation that also fails the run."""
        self.fail(what)
        self.mismatches.append(what)

    def expect(self, label: str, expected, actual) -> bool:
        if expected != actual:
            self.mismatch(f"{label}: output differs from the in-process reference")
            return False
        return True

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


# -- inputs ---------------------------------------------------------------------


class AttemptCounter:
    """Counts plan attempts: ``generate_synthetic`` calls the public
    ``detection_is_clean`` oracle once per plan it renders."""

    def __init__(self):
        from dslake.cyclone import synthetic

        self.calls = 0
        inner = synthetic.detection_is_clean

        def counted(*args, **kwargs):
            self.calls += 1
            return inner(*args, **kwargs)

        synthetic.detection_is_clean = counted


def build_year(run: Run, counter: AttemptCounter, year_seed: int, root: Path | None,
               texture: bool):
    """Generate (and texture) one year, ingest it at 8 nodes and save it to
    ``root`` (if given).

    Returns (truth, redraws), or None when the generator refuses the seed
    with ``SpecError`` (it found no cleanly detectable plan in its attempt
    budget). A refused seed is recorded in ``run.unplantable`` and reported,
    but it is not a failed operation of the benchmark: the generator behaved
    as documented, and its refusal rate is tier-1's acceptance criterion 2.
    Records the number of plan attempts and the wall time of ingest and save.
    """
    from dslake.cyclone.synthetic import generate_synthetic
    from dslake.errors import SpecError
    from dslake.storage import StorageLayout

    if run.tracer is not None:
        generate_synthetic = run.tracer.wrap("synthetic.generate", "cyclone.synthetic",
                                             generate_synthetic)
    run.attempted += 1
    counter.calls = 0
    try:
        files, truth = generate_synthetic(common.year_spec(run.scale.months), seed=year_seed)
    except SpecError as exc:
        run.unplantable.append(f"generate seed {year_seed}: {exc}")
        return None
    finally:
        run.add("generate_attempts", counter.calls)
    redraws = 0
    if texture:
        files, redraws = common.texture(files, truth, year_seed)
    ingest_start = time.perf_counter()
    layout = StorageLayout(node_count=common.STORE_NODES, replication=common.STORE_REPLICATION)
    layout.ingest(files)
    if root is not None:
        layout.save(root)
        run.add("ingest_s", time.perf_counter() - ingest_start)
    return truth, redraws


def traced_year(run, counter, year_seed, root, texture):
    if run.tracer is None:
        return build_year(run, counter, year_seed, root, texture)
    import spans

    before = len(run.tracer.spans)
    built = run.tracer.request("year", build_year, run, counter, year_seed, root, texture)
    layers = spans.generation_metrics(run.tracer.spans[before:])
    if root is None:  # nothing saved: the write side is measured in setup
        del layers["storage.ingest_ms"], layers["storage.save_ms"]
    run.add_layers(layers)
    return built


def setup(run: Run, counter: AttemptCounter):
    """Set up SETUP_REPS times, each time the year of the next generator seed
    from the workload seed on, into a new directory (a save over just-deleted
    files measures the file system more than the program). The last year is
    the one submitted; returns its planted truth and root.

    A seed the generator refuses is reported (see ``build_year``) and the
    next seed is used. ``setup_s`` is the user CPU time of one setup (see
    ``common.user_cpu_s``).
    """
    built = None
    year_seed = run.seed
    for rep in range(SETUP_REPS):
        while True:
            root = run.work / f"root-{year_seed}"
            started = common.user_cpu_s()
            wall = time.perf_counter()
            built = traced_year(run, counter, year_seed, root, run.workload.textured)
            year_seed += 1
            if built is not None:
                break
            if year_seed - run.seed > SETUP_SEED_TRIES:
                raise RuntimeError(f"no plantable year in seeds {run.seed}..{year_seed - 1}")
        run.add("setup_s", common.user_cpu_s() - started)
        run.add("setup_wall_s", time.perf_counter() - wall)
        run.year_seeds.append(year_seed - 1)
    truth, redraws = built
    run.add("texture_redraws", redraws)
    if run.workload.textured:
        confirm_clean(run, root, truth)
    return truth, root


def confirm_clean(run: Run, root: Path, truth) -> None:
    """The textured planting, as stored, passes ``detection_is_clean``."""
    from dslake.cyclone.synthetic import detection_is_clean
    from dslake.storage import DataFile, StorageLayout

    layout = StorageLayout.load(root)
    files = [
        DataFile(m.file_id, m.dataset, m.t0, m.t1, layout.read(m.file_id))
        for m in layout.dataset_files(common.DATASET)
    ]
    run.attempted += 1
    if not detection_is_clean(files, list(truth.spec.cyclones), truth.spec):
        run.mismatch("textured planting is not cleanly detectable")


# -- submits --------------------------------------------------------------------


def submit_doc(run: Run, engine, req, label: str):
    """One in-process submit; None if it raised. A failed simulation record
    is a failed operation."""
    run.attempted += 1
    try:
        doc = engine.submit(req)
    except Exception as exc:  # any exception is a failed operation
        run.mismatch(f"{label}: {type(exc).__name__}: {exc}")
        return None
    failed = [s for s in doc.simulations if s.status != "ok"]
    if failed:
        run.mismatch(f"{label}: simulation failed: {failed[0].failure_reason}")
    return doc


def run_child(run: Run, root: Path, script: Path, nodes: int, fail_node=None, trace=False):
    cmd = [sys.executable, str(Path(__file__).with_name("child.py")), "--root", str(root),
           "--script", str(script), "--nodes", str(nodes)]
    if fail_node is not None:
        cmd += ["--fail-node", str(fail_node)]
    if run.registry_file is not None:
        cmd += ["--registry", str(run.registry_file)]
    if trace:
        cmd.append("--trace")
    run.attempted += 1
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"ok": False, "error": f"child exited {proc.returncode}: {proc.stderr[-500:]}"}
    if not out["ok"]:
        run.mismatch(f"cold submit at {nodes} nodes: {out['error']}")
        return None
    return out


def rendered_series(doc) -> dict:
    return {
        sim.object_id: {name: [(t, f"{v:.4f}") for t, v in series]
                        for name, series in sim.outputs.items()}
        for sim in doc.simulations
    }


def checks(run: Run, root: Path, script: Path, reference_doc, truth, engine):
    """Correctness checks beyond comparing every timed submit with the reference."""
    from dslake.engine import Engine

    reference = reference_doc.canonical_text()
    digest = hashlib.sha256(reference.encode()).hexdigest()
    w = run.workload
    node_counts = [n for n in (1, 2, 8) if n != w.nodes] if w.node_checks else []
    for nodes in node_counts:
        out = run_child(run, root, script, nodes)
        if out is not None and out["sha256"] != digest:
            run.mismatch(f"bytes at {nodes} nodes differ from {w.nodes} nodes")
    # one node down, submitted at the stored node count so that no reshape
    # hides it; traced on every workload for the failover count
    out = None
    if w.node_checks or run.tracer is not None:
        out = run_child(run, root, script, common.STORE_NODES,
                        fail_node=run.seed % common.STORE_NODES, trace=run.tracer is not None)
    if out is not None:
        if out["sha256"] != digest:
            run.mismatch("bytes with one node failed differ")
        if run.tracer is not None:
            import spans

            failover = spans.request_metrics(spans.from_json(out["spans"]))
            run.add_layers({"storage.failover_reads": failover["storage.failover_reads"]})

    if w.ne_check:
        # recall and precision 1.0, as acceptance criterion 3 states them
        doc = submit_doc(run, engine, common.request(common.STARTS_SCRIPT, w.nodes), "ne check")
        if doc is not None:
            expected = sorted((p.times[0], p.end_time) for p in truth.paths_in_sector("north-east"))
            got = sorted(
                (o.requested_params["StartTime"], o.requested_params["EndTime"])
                for o in doc.objects
            )
            if got != expected or len(doc.simulations) != len(expected):
                run.mismatch(f"planted north-east paths not recovered: {got} != {expected}")

    if w.external:
        # external and builtin BSM series agree at the four-decimal rendering,
        # as acceptance criterion 9 states it
        builtin = submit_doc(run, Engine(common.registry(), engine.layout),
                             common.request(common.ALL_PATHS_SCRIPT, w.nodes), "builtin BSM")
        if builtin is not None:
            run.expect("builtin vs external BSM series", rendered_series(builtin),
                       rendered_series(reference_doc))


def cli_command(run: Run, root: Path, script: Path) -> list[str]:
    """``dslake submit`` of the workload's script against the saved root."""
    w = run.workload
    cmd = [sys.executable, "-m", "dslake", "--storage-root", str(root),
           "--nodes", str(w.nodes), "--replication", str(min(common.STORE_REPLICATION, w.nodes))]
    if run.registry_file is not None:
        cmd += ["--registry", str(run.registry_file)]
    return cmd + ["submit", "--dataset", common.DATASET, str(script)]


def cli_sample(run: Run, cmd: list[str], expected: str) -> None:
    run.attempted += 1
    cpu = common.children_cpu_s()
    started = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=run.work)
    wall = time.perf_counter() - started
    cpu = common.children_cpu_s() - cpu
    if proc.returncode != 0:
        run.mismatch(f"cli exited {proc.returncode}: {proc.stderr[-300:]}")
        return
    if run.expect("cli stdout", expected, proc.stdout):
        run.add("cli_submit_cpu_ms", cpu * 1000.0)
        run.add("cli_submit_ms", wall * 1000.0)


# -- phases ---------------------------------------------------------------------


def sample_loop(run: Run, kinds: dict) -> None:
    """Take samples until each kind has its minimum count and for at least
    --seconds (unless the hard stop is near). The kinds are interleaved, each
    getting its share of the time, so that the samples of every kind spread
    over the whole phase and a slow spell of the shared machine falls on all
    of them alike. A kind stops at its minimum while others still lack
    theirs, so that one slow sample cannot stretch the run; past all the
    minimums, all kinds but gen fill up --seconds. Gen takes exactly its
    count, so that every run generates the same years."""
    shares = run.workload.shares
    least = run.scale.min_samples or run.workload.min_samples
    spent = dict.fromkeys(kinds, 0.0)
    counts = dict.fromkeys(kinds, 0)
    deadline = time.perf_counter() + run.seconds
    while run.elapsed() < HARD_STOP_S:
        pool = [k for k in kinds if counts[k] < least[k]]
        if not pool and time.perf_counter() < deadline:
            pool = [k for k in kinds if k != "gen"]
        if not pool:
            break
        kind = min(pool, key=lambda k: spent[k] / shares[k])
        started = time.perf_counter()
        kinds[kind](counts[kind])
        spent[kind] += time.perf_counter() - started
        counts[kind] += 1


def measure(run: Run) -> None:
    from dslake.engine import Engine
    from dslake.storage import StorageLayout

    w = run.workload
    counter = AttemptCounter()
    if run.trace:
        import spans

        run.tracer = spans.Tracer()
        run.tracer.install()

    truth, root = setup(run, counter)

    if w.external:
        run.registry_file = run.work / "external.kd"
        common.write_external_descriptor(run.registry_file)
    registry = common.registry(run.registry_file)
    if run.tracer is not None:
        run.tracer.wrap_registry(registry)
    engine = Engine(registry, StorageLayout.load(root))
    req = common.request(w.script, w.nodes)
    reference_doc = submit_doc(run, engine, req, "reference submit")
    if reference_doc is None:
        return
    reference = reference_doc.canonical_text()
    script = run.work / "submit.dq"
    script.write_text(w.script)
    checks(run, root, script, reference_doc, truth, engine)

    cli_cmd = cli_command(run, root, script)
    digest = hashlib.sha256(reference.encode()).hexdigest()

    def cold(i: int) -> None:
        out = run_child(run, root, script, w.nodes)
        if out is not None and run.expect("cold submit", digest, out["sha256"]):
            run.add("submit_cold_cpu_ms", out["submit_cpu_ms"])
            run.add("submit_cold_ms", out["submit_ms"])
            run.add("peak_rss_mb", out["rss_mb"])
        if run.tracer is None:
            return
        # with tracing, each untraced child is paired with a traced one
        import spans

        out = run_child(run, root, script, w.nodes, trace=True)
        if out is None or not run.expect("traced cold submit", digest, out["sha256"]):
            return
        run.spans.setdefault("cold", []).append(out["spans"])
        run.add("submit_cold_traced_cpu_ms", out["submit_cpu_ms"])
        child_spans = [s for s in spans.from_json(out["spans"]) if s[spans.REQUEST]]
        run.add_layers(spans.pick(spans.request_metrics(child_spans), "cold"))
        run.add_layers({"storage.load_ms": out["load_ms"]})

    def warm_once() -> tuple[float, float] | None:
        """(wall, CPU) seconds of one warm submit, or None if it failed."""
        run.attempted += 1
        cpu = common.cpu_s()
        started = time.perf_counter()
        try:
            if run.tracer is None:
                text = engine.submit(req).canonical_text()
            else:
                before = len(run.tracer.spans)
                text = run.tracer.request("warm", lambda: engine.submit(req).canonical_text())
        except Exception as exc:
            run.mismatch(f"warm submit: {type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - started
        cpu = common.cpu_s() - cpu
        if not run.expect("warm submit", reference, text):
            return None
        if run.tracer is not None:
            import spans

            run.add_layers(spans.pick(spans.request_metrics(run.tracer.spans[before:]), "warm"))
        return wall, cpu

    def warm(i: int) -> None:
        once = warm_once()
        if once is not None:
            run.add("submit_warm_ms", once[0] * 1000.0)
            run.add("submit_warm_cpu_ms", once[1] * 1000.0)

    def cli(i: int) -> None:
        cli_sample(run, cli_cmd, reference)

    def gen(i: int) -> None:
        # generator seed i: every run generates the same years, whatever its
        # workload seed, because the cost of a year depends on its plans
        started = common.cpu_s()
        traced_year(run, counter, i, None, False)
        run.add("generate_year_cpu_s", common.cpu_s() - started)
        run.year_seeds.append(i)

    sample_loop(run, {"cold": cold, "warm": warm, "cli": cli, "gen": gen})
    if run.tracer is not None:
        for _ in range(2):
            started = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import dslake.cli"], check=True,
                           timeout=CHILD_TIMEOUT_S)
            run.add_layers({"cli.import_ms": (time.perf_counter() - started) * 1000.0})
        run.spans["parent"] = spans.to_json(run.tracer.spans)


# -- results --------------------------------------------------------------------

def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit of the ``kind`` ("end_to_end" or "per_layer")
    metrics listed in BENCHMARK.json."""
    with open(common.CHECKOUT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def median(values):
    return statistics.median(values) if values else None


def layer_metrics(run: Run) -> dict[str, float | None]:
    out = {}
    for name in metric_units("per_layer"):
        if name == "trace.overhead_ms":
            traced = median(run.samples.get("submit_cold_traced_cpu_ms", []))
            plain = median(run.samples.get("submit_cold_cpu_ms", []))
            out[name] = None if traced is None or plain is None else traced - plain
            continue
        out[name] = median(run.layer_samples.get(name, []))
    return out


def provenance(run: Run) -> dict:
    import numpy

    rev = "unknown: not a git checkout"
    if (common.CHECKOUT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=common.CHECKOUT)
        rev = proc.stdout.strip() or rev
    digest = hashlib.sha256()
    for path in sorted(common.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(common.SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": run.workload.name,
        "seed": run.seed,
        "year_seeds": run.year_seeds,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "scale": run.scale.months,
    }


def report(run: Run) -> int:
    correct = not run.mismatches
    counts = {name: len(values) for name, values in run.samples.items()}
    lines = []
    metrics = {}
    if run.trace:
        units = metric_units("per_layer")
        values = layer_metrics(run)
    else:
        units = metric_units("end_to_end")
        values = {name: median(run.samples.get(name, [])) for name in units}
        # means, not medians: the gen samples are one fixed set of years, and
        # their mean is the cost of a year, replans included; the CPU time of
        # the same warm submit sits in two modes some 60% apart for tens of
        # submits at a time, and the median of a run jumps between the modes
        for name in ("generate_year_cpu_s", "submit_warm_cpu_ms"):
            got = run.samples.get(name)
            values[name] = statistics.fmean(got) if got else None
    for name, value in values.items():
        if value is None:
            run.mismatch(f"metric {name} was not measured")
            correct = False
        else:
            metrics[name] = {"value": value, "unit": units[name]}
    for name, entry in metrics.items():
        if name == "trace.overhead_ms":
            n = len(run.samples.get("submit_cold_traced_cpu_ms", []))
            basis = f"traced minus untraced cold CPU medians, {n} traced"
        elif name == "generate_year_cpu_s":
            basis = (f"mean of generator seeds 0-{counts[name] - 1},"
                     f" {sum(run.samples['generate_attempts'][-counts[name]:])} plan attempts")
        elif name == "submit_warm_cpu_ms":
            basis = f"mean of {counts[name]} submits"
        else:
            basis = f"median of {counts.get(name, len(run.layer_samples.get(name, [])))}"
        lines.append(f"{name} = {entry['value']:.6g} {entry['unit']} ({basis})")
    for name, unit, what in (
        ("setup_wall_s", "s", "setups, wall"),
        ("submit_cold_ms", "ms", "cold submits, wall"),
        ("submit_warm_ms", "ms", "warm submits, wall"),
        ("cli_submit_ms", "ms", "CLI submits, wall"),
        ("ingest_s", "s", "saves, wall"),
    ):
        if run.samples.get(name):
            lines.append(f"{name} = {median(run.samples[name]):.6g} {unit}"
                         f" (median of {len(run.samples[name])} {what}; not gated)")
    warm = run.samples.get("submit_warm_cpu_ms", [])
    if len(warm) >= 100:  # ten samples or more beyond the 90th percentile
        lines.append(f"submit_warm_cpu_p90_ms = {statistics.quantiles(warm, n=10)[-1]:.6g} ms"
                     f" (of {len(warm)} warm submits; not gated)")
    share = run.failed / run.attempted if run.attempted else 0.0
    lines.append(f"failed_share = {share:.6g} ({run.failed} failed of {run.attempted} attempted)")
    for failure in run.failures:
        lines.append(f"failed: {failure}")
    lines.append(f"unplantable_seeds = {len(run.unplantable)}"
                 f" (generator seeds refused with SpecError; not failed operations)")
    for refusal in run.unplantable:
        lines.append(f"unplantable: {refusal}")
    prov = provenance(run)
    lines.append("provenance: " + json.dumps(prov, sort_keys=True))

    out_dir = common.WORK / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "failures": run.failures, "unplantable": run.unplantable, "metrics": metrics,
        "sample_counts": counts,
        "samples": run.samples, "layer_samples": run.layer_samples, "provenance": prov,
    }
    if run.trace:
        record["spans"] = run.spans
    name = f"{run.workload.name}-seed{run.seed}-trace{int(run.trace)}.json"
    (out_dir / name).write_text(json.dumps(record, default=str))
    lines.append(f"result file: {out_dir / name}")

    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="year")
    args = parser.parse_args(argv)

    common.use_checkout_source()
    work = common.WORK / f"run-{os.getpid()}"
    # every process started here imports the checkout's sources, keeps its
    # scratch files inside the checkout and ignores the caller's dslake settings
    for key in [k for k in os.environ if k.startswith("DSLAKE_")]:
        del os.environ[key]
    os.environ["PYTHONPATH"] = str(common.SRC)
    os.environ["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir(parents=True, exist_ok=True)

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
              SCALES[args.scale], work)
    try:
        measure(run)
        return report(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
