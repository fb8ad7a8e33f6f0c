"""The golden result table: one row per case, its task id and the sha256
of its result bytes. ``test_golden.py`` checks the table against the tree.

A case is ``seed<k>/<script>/<shape>``: a two-month dataset generated from
``SPEC`` text with seed k, one of ``SCRIPTS`` submitted on a fresh layout
of one of ``SHAPES``. Two CLI cases run the command line in a scratch
directory with a ``dslake.conf``: ``cli/registry-list`` hashes the
``dslake registry list`` bytes, and ``cli/emit-csv`` the stdout and the CSV
of a submit through a saved store (so ``fabric.conf`` is read back).

Regenerate the table, only for a change that means to alter result bytes:

    PYTHONPATH=src python tests/golden.py > tests/golden.tsv

or print the rows of some cases: ``python tests/golden.py CASE...``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from conftest import FIG5_SCRIPT

TABLE = Path(__file__).with_name("golden.tsv")

SPEC = """\
# two months over the Fig. 5 area
dataset d1
area 48.3416 -24.7851 66.1605 32.8710
time 2011-01-01T00:00Z 2011-02-28T18:00Z
step 6
spacing 0.5
random-cyclones count=3 northeast=1
"""

_ALL_PATHS = FIG5_SCRIPT.replace("         directon north-east\n", "")
SCRIPTS = {
    "fig5": FIG5_SCRIPT,
    "params": _ALL_PATHS.replace("out(Params[EndTime])", "out(Params[EndTime], Params[cyclone])"),
    "level": FIG5_SCRIPT.replace("out(level[440,414])", "out(level)"),
    "external": _ALL_PATHS.replace("with BSM", "with BSMX"),
    # every BSM run fails: the failure path of the result document
    "failed": FIG5_SCRIPT.replace("EndTime - 48h)", "EndTime - 48h, horizon: 0h)"),
}
# name -> (node count, failed nodes)
SHAPES = {"n1": (1, ()), "n2": (2, ()), "n4": (4, ()), "n8": (8, ()), "n8-fail3": (8, (3,))}
SEEDS = range(4)
CLI_CASES = ("cli/registry-list", "cli/emit-csv")


def case_names() -> list[str]:
    return [
        f"seed{seed}/{script}/{shape}" for seed in SEEDS for script in SCRIPTS for shape in SHAPES
    ] + list(CLI_CASES)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _registry():
    from dslake.registry import KnowledgeRegistry
    from dslake.cyclone.plugin import bsm_external_descriptor, register_cyclone_domain

    registry = register_cyclone_domain(KnowledgeRegistry())
    registry.register_package(bsm_external_descriptor(name="BSMX"))
    return registry


def _submit_rows(seed: int, names: set[str]) -> dict[str, str]:
    from dslake.engine import EngineConfig, TaskRequest, submit
    from dslake.storage import StorageLayout
    from dslake.cyclone.synthetic import generate_synthetic, parse_spec_text

    files, _ = generate_synthetic(parse_spec_text(SPEC), seed)
    registry = _registry()
    rows = {}
    for shape, (nodes, failed) in SHAPES.items():
        replication = min(2, nodes)
        layout = StorageLayout(node_count=nodes, replication=replication).ingest(files)
        for node in failed:
            layout.fail_node(node)
        for script_name, script in SCRIPTS.items():
            name = f"seed{seed}/{script_name}/{shape}"
            if name not in names:
                continue
            request = TaskRequest("d1", script, EngineConfig(nodes, replication))
            text = submit(request, registry, layout).canonical_text()
            rows[name] = f"{request.task_id()}\t{_sha(text.encode())}"
    return rows


@contextlib.contextmanager
def _scratch_cwd():
    """A scratch working directory with no ``DSLAKE_*`` variable set."""
    saved_env = {k: v for k, v in os.environ.items() if k.startswith("DSLAKE_")}
    saved_cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        for key in saved_env:
            del os.environ[key]
        os.chdir(scratch)
        try:
            yield Path(scratch)
        finally:
            os.chdir(saved_cwd)
            os.environ.update(saved_env)


def _cli(*argv: str) -> bytes:
    from dslake.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"dslake {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


def _cli_rows(names: set[str]) -> dict[str, str]:
    rows = {}
    with _scratch_cwd() as scratch:
        (scratch / "dslake.conf").write_text(
            "# a store of four nodes\nstorage_root = store\nnodes=4\nseed=2\n"
        )
        if "cli/registry-list" in names:
            rows["cli/registry-list"] = f"-\t{_sha(_cli('registry', 'list'))}"
        if "cli/emit-csv" in names:
            (scratch / "spec.txt").write_text(SPEC)
            (scratch / "fig5.dq").write_text(FIG5_SCRIPT)
            manifest = _cli("gen-synthetic", "spec.txt", "--out", "data").decode().strip()
            _cli("ingest", manifest)
            text = _cli("submit", "--dataset", "d1", "fig5.dq", "--emit-csv", "out.csv")
            csv = (scratch / "out.csv").read_bytes()
            rows["cli/emit-csv"] = f"{text.decode().split()[1]}\t{_sha(text)}\t{_sha(csv)}"
    return rows


def rows(names: list[str]) -> dict[str, str]:
    """The table row of each case of ``names``: ``<task id>\\t<sha256>...``."""
    wanted = set(names)
    unknown = wanted - set(case_names())
    if unknown:
        raise KeyError(f"unknown golden cases {sorted(unknown)}")
    found = _cli_rows(wanted)
    for seed in SEEDS:
        if any(name.startswith(f"seed{seed}/") for name in wanted):
            found.update(_submit_rows(seed, wanted))
    return {name: found[name] for name in names}


def read_table() -> dict[str, str]:
    table = {}
    for line in TABLE.read_text().splitlines():
        name, _, row = line.partition("\t")
        table[name] = row
    return table


if __name__ == "__main__":
    for name, row in rows(sys.argv[1:] or case_names()).items():
        print(f"{name}\t{row}")
