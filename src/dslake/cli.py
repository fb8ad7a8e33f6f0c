"""Command-line surface: one verb per pipeline stage.

    dslake validate <script.dq>
    dslake gen-synthetic <spec> [--seed N] [--out DIR]
    dslake ingest <manifest.tsv>
    dslake [--nodes N] submit --dataset <id> <script.dq> [--fail-node K]
                  [--emit-csv PATH]
    dslake results <task_id>
    dslake registry list          # the registry as .kd descriptor text

``--config``, ``--storage-root``, ``--nodes``, ``--replication`` and
``--registry`` are global options and go before the verb. Configuration
precedence: flags > environment (DSLAKE_STORAGE_ROOT, DSLAKE_NODES,
DSLAKE_REPLICATION, DSLAKE_SEED) > config file (--config or ./dslake.conf:
key=value lines of storage_root, nodes, replication, seed and registry,
each key at most once) > defaults. ``submit`` runs on a stored fabric, at
its node count unless ``nodes`` is set, with replication min(stored
replication, nodes) unless ``replication`` is set; the defaults of 2 and 2
only shape a store that ``ingest`` creates. ``--fail-node`` names a node of
the stored fabric, so a submit that sets another node count or replication
refuses it. ``results`` takes a task id as ``submit`` prints it, 16
lowercase hex digits. Results go to stdout, diagnostics to stderr (among
them the scratch directory each failed external run kept); exit 0 on
success, 1 on domain errors (a malformed configuration value or config
line among them), 2 on usage or file errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from dslake.errors import (
    ConfigError,
    DslakeError,
    ParseError,
    Row,
    SpecError,
    StorageError,
    UsageError,
    read_keys,
    read_utf8,
    undecodable_at,
)
from dslake.descriptors import dump_descriptors, load_descriptor_file
from dslake.engine import EngineConfig, TaskRequest, submit
from dslake.lang.formatter import format_query
from dslake.lang.parser import parse
from dslake.lang.validate import validate
from dslake.registry import KnowledgeRegistry
from dslake.storage import (
    DataFile,
    FileMeta,
    StorageLayout,
    read_manifest,
    write_manifest,
)
from dslake.cyclone.plugin import register_cyclone_domain

DEFAULTS = {"storage_root": "./dslake-storage", "seed": "0"}
NEW_STORE_NODES = 2
NEW_STORE_REPLICATION = 2
ENV_KEYS = {
    "storage_root": "DSLAKE_STORAGE_ROOT",
    "nodes": "DSLAKE_NODES",
    "replication": "DSLAKE_REPLICATION",
    "seed": "DSLAKE_SEED",
}
FILE_KEYS = dict.fromkeys((*ENV_KEYS, "registry"), Row("text"))


@dataclass
class CliConfig:
    storage_root: Path
    node_count: int | None  # None: not set by a flag, the environment or a file
    replication: int | None
    registry_paths: list[Path]
    seed: int


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        return args.handler(args, config)
    except (OSError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DslakeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dslake", description="DSL-driven analysis over simulated distributed storage"
    )
    parser.add_argument("--config", type=Path, default=None, help="key=value config file")
    parser.add_argument("--storage-root", type=Path, default=None)
    parser.add_argument("--nodes", default=None)
    parser.add_argument("--replication", default=None)
    parser.add_argument("--registry", action="append", type=Path, default=None,
                        help="extra .kd descriptor file (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and knowledge-validate a script")
    p.add_argument("script", type=Path)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("gen-synthetic", help="generate a ground-truthed dataset")
    p.add_argument("spec", type=Path)
    p.add_argument("--seed", default=None)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(handler=_cmd_gen_synthetic)

    p = sub.add_parser("ingest", help="place a manifest's files onto the fabric")
    p.add_argument("manifest", type=Path)
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("submit", help="run a script as a distributed task")
    p.add_argument("script", type=Path)
    p.add_argument("--dataset", required=True)
    p.add_argument("--fail-node", type=int, action="append", default=None,
                   help="fail node K of the stored fabric (repeatable); refused"
                        " with --nodes or --replication other than the stored one")
    p.add_argument("--emit-csv", type=Path, default=None)
    p.set_defaults(handler=_cmd_submit)

    p = sub.add_parser("results", help="print a stored result document")
    p.add_argument("task_id")
    p.set_defaults(handler=_cmd_results)

    p = sub.add_parser("registry", help="inspect the knowledge registry")
    p.add_argument("action", choices=["list"])
    p.set_defaults(handler=_cmd_registry)

    return parser


def _resolve_config(args: argparse.Namespace) -> CliConfig:
    values = dict(DEFAULTS)
    origins: dict[str, str] = {}  # where each value that is not a default came from
    config_path = args.config or Path("dslake.conf")
    if config_path.exists():
        found, lines = read_keys(
            read_utf8(config_path, ConfigError), FILE_KEYS, "=",
            lambda line, message: ConfigError(f"{config_path}:{line}: {message}"),
        )
        for key, value in found.items():
            values[key], origins[key] = value, f"{config_path}:{lines[key]}"
    for key, env in ENV_KEYS.items():
        if os.environ.get(env):
            values[key], origins[key] = os.environ[env], f"environment variable {env}"
    for key in ("storage_root", "nodes", "replication", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            values[key], origins[key] = str(value), f"flag --{key.replace('_', '-')}"

    def integer(key: str) -> int | None:
        if key not in values:
            return None
        try:
            return int(values[key])
        except ValueError:
            raise ConfigError(
                f"{origins[key]}: {key} is not an integer: {values[key]!r}"
            ) from None

    registry_paths = [Path(p) for p in values.get("registry", "").split(",") if p]
    if args.registry:
        registry_paths.extend(args.registry)
    return CliConfig(
        storage_root=Path(values["storage_root"]),
        node_count=integer("nodes"),
        replication=integer("replication"),
        registry_paths=registry_paths,
        seed=integer("seed"),
    )


def _load_registry(config: CliConfig) -> KnowledgeRegistry:
    registry = register_cyclone_domain(KnowledgeRegistry())
    for path in config.registry_paths:
        if not path.exists():
            raise FileNotFoundError(f"descriptor file {path}")
        libraries, packages = load_descriptor_file(path)
        for library in libraries:
            registry.register_domain_library(library)
        for package in packages:
            registry.register_package(package)
    return registry


def _read_script(path: Path) -> str:
    if not path.exists():
        raise FileNotFoundError(f"script {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line, col = undecodable_at(exc)
        found = f"byte 0x{exc.object[exc.start]:02x} in {path}"
        raise ParseError(line, col, "UTF-8 text", found) from None


def _cmd_validate(args, config: CliConfig) -> int:
    registry = _load_registry(config)
    ast = parse(_read_script(args.script))
    validate(ast, registry)
    sys.stdout.write(format_query(ast))
    return 0


def _cmd_gen_synthetic(args, config: CliConfig) -> int:
    from dslake.cyclone.synthetic import generate_synthetic, parse_spec_text

    if not args.spec.exists():
        raise FileNotFoundError(f"spec {args.spec}")
    spec = parse_spec_text(read_utf8(args.spec, SpecError))
    files, truth = generate_synthetic(spec, config.seed)

    out = args.out or Path(f"synthetic-{spec.dataset}")
    out.mkdir(parents=True, exist_ok=True)
    metas = [FileMeta(f.file_id, f.dataset, f.t0, f.t1, f"{f.file_id}.snap") for f in files]
    for f, meta in zip(files, metas):
        (out / meta.relative_path).write_bytes(f.data)
    write_manifest(out / "manifest.tsv", metas)
    (out / "groundtruth.txt").write_text(truth.canonical_text(), encoding="utf-8")
    print(f"wrote {len(files)} snapshots to {out}", file=sys.stderr)
    sys.stdout.write(f"{out / 'manifest.tsv'}\n")
    return 0


def _cmd_ingest(args, config: CliConfig) -> int:
    if not args.manifest.exists():
        raise FileNotFoundError(f"manifest {args.manifest}")
    base = args.manifest.parent
    layout = _load_or_create_layout(config)
    files = []
    for meta in read_manifest(args.manifest):
        data = (base / meta.relative_path).read_bytes()
        f = DataFile.from_bytes(meta.dataset, meta.t0, meta.t1, data)
        if f.file_id != meta.file_id:
            raise StorageError(
                f"file {meta.file_id!r} of dataset {meta.dataset!r}: {args.manifest}"
                f" names it, but its content digest is {f.file_id}"
            )
        files.append(f)
    layout.ingest(files)
    layout.save(config.storage_root)
    print(
        f"ingested {len(files)} files onto {layout.node_count} nodes"
        f" (replication {layout.replication})",
        file=sys.stderr,
    )
    return 0


def _load_or_create_layout(config: CliConfig) -> StorageLayout:
    if (config.storage_root / "fabric.conf").exists():
        return StorageLayout.load(config.storage_root)
    nodes = NEW_STORE_NODES if config.node_count is None else config.node_count
    replication = NEW_STORE_REPLICATION if config.replication is None else config.replication
    return StorageLayout(node_count=nodes, replication=replication)


def _cmd_submit(args, config: CliConfig) -> int:
    registry = _load_registry(config)
    script = _read_script(args.script)
    layout = StorageLayout.load(config.storage_root)
    for node in args.fail_node or []:
        layout.fail_node(node)
    nodes = layout.node_count if config.node_count is None else config.node_count
    replication = config.replication
    if replication is None:
        replication = min(layout.replication, nodes)
    request = TaskRequest(
        dataset=args.dataset,
        script=script,
        engine_config=EngineConfig(node_count=nodes, replication=replication),
    )
    document = submit(request, registry, layout)
    text = document.canonical_text()
    results_dir = config.storage_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{document.task_id}.txt").write_text(text, encoding="utf-8")
    if args.emit_csv:
        _write_csv(args.emit_csv, document)
    sys.stdout.write(text)
    for sim in document.simulations:
        if sim.scratch is not None:
            print(f"simulation {sim.object_id} {sim.package}: scratch kept at {sim.scratch}",
                  file=sys.stderr)
    return 0


def _write_csv(path: Path, document) -> None:
    import csv

    from dslake.report import expanded, is_series, render_value

    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["object_id", "package", "output", "time", "value"])
        for sim in document.simulations:
            for output, value in sorted(sim.outputs.items()):
                for name, entry in expanded(output, value):
                    row = [sim.object_id, sim.package, name]
                    if is_series(entry):
                        for ts, level in entry:
                            writer.writerow([*row, render_value(ts), render_value(level)])
                    else:
                        writer.writerow([*row, "", render_value(entry)])


def _cmd_results(args, config: CliConfig) -> int:
    # the form TaskRequest.task_id gives; any other name could leave results/
    if len(args.task_id) != 16 or args.task_id.strip("0123456789abcdef"):
        raise UsageError(f"task id {args.task_id!r} is not 16 lowercase hex digits")
    path = config.storage_root / "results" / f"{args.task_id}.txt"
    if not path.exists():
        raise FileNotFoundError(f"no stored result {args.task_id}")
    sys.stdout.write(read_utf8(path, StorageError))
    return 0


def _cmd_registry(args, config: CliConfig) -> int:
    registry = _load_registry(config)
    libraries = [library for _, library in sorted(registry.libraries.items())]
    packages = [package for _, package in sorted(registry.packages.items())]
    sys.stdout.write(dump_descriptors(libraries, packages))
    return 0


if __name__ == "__main__":
    sys.exit(main())
