import ast
import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import dslake
from dslake.cli import main
from dslake.descriptors import dump_descriptors
from dslake.engine import TaskRequest
from dslake.cyclone.plugin import bsm_external_descriptor

from conftest import FIG5_SCRIPT


def test_bsm_command_imports_no_numpy_or_engine():
    # the engine starts one interpreter per selected path for the external
    # BSM package; its start-up cost is what that process imports. The probe
    # starts as the command does, under -S, and finds this dslake whether or
    # not the suite ran under PYTHONPATH. argparse, dataclasses and pathlib
    # (and re and inspect under them) would about double a child's CPU.
    probe = (
        "import sys, dslake.cyclone.bsm_cmd\n"
        "heavy = ('numpy', 'dslake.engine', 'dslake.lang', 'dslake.storage',\n"
        "         'argparse', 'dataclasses', 'pathlib', 'inspect', 're')\n"
        "print(' '.join(m for m in heavy if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dslake.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert proc.stdout.strip() == ""


# a new interpreter runs ``dslake`` with its arguments, if any, and prints
# its exit status and whether numpy was imported as its last line
_CLI_PROBE = (
    "import sys\n"
    "from dslake.cli import main\n"
    "code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "print(code, 'numpy' in sys.modules)\n"
)


@pytest.fixture(scope="module")
def cli_store(tmp_path_factory):
    """A directory holding a saved two-month store whose indexes its first
    submits wrote, the Fig. 5 script with builtin BSM and with BSM as the
    external package BSMX, that package's ``.kd`` file, and what each
    submit printed."""
    from test_index import saved_store

    work = tmp_path_factory.mktemp("cli")
    saved_store(work / "store", 5)
    (work / "builtin.dq").write_text(FIG5_SCRIPT)
    (work / "external.dq").write_text(FIG5_SCRIPT.replace("with BSM", "with BSMX"))
    (work / "external.kd").write_text(dump_descriptors([], [bsm_external_descriptor("BSMX")]))
    printed = {}
    for name in ("builtin", "external"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(_submit_argv(work, name)) == 0
        printed[name] = out.getvalue()
    assert "simulation" in printed["builtin"]
    return work, printed


def _submit_argv(work, name):
    return ["--storage-root", str(work / "store"), "--nodes", "4",
            "--registry", str(work / "external.kd"),
            "submit", "--dataset", "d1", str(work / f"{name}.dq")]


@pytest.mark.parametrize("verb", ["import", "validate", "registry", "results", "builtin",
                                  "external"])
def test_the_cli_imports_no_numpy(cli_store, verb):
    # numpy is imported only where grids are computed: an index-hit submit,
    # whose records and pressure structures come from the store's indexes,
    # computes none, and neither do the verbs that read no snapshot
    work, printed = cli_store
    task_id = TaskRequest("d1", FIG5_SCRIPT).task_id()
    argv = {
        "import": [],
        "validate": ["validate", str(work / "builtin.dq")],
        "registry": ["registry", "list"],
        "results": ["--storage-root", str(work / "store"), "results", task_id],
        "builtin": _submit_argv(work, "builtin"),
        "external": _submit_argv(work, "external"),
    }[verb]
    env = {**os.environ, "PYTHONPATH": str(Path(dslake.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", _CLI_PROBE, *argv], capture_output=True,
                          text=True, env=env, cwd=work, timeout=120)
    out, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    assert (proc.returncode, last) == (0, "0 False"), proc.stderr
    if verb in printed:
        assert f"{out}\n" == printed[verb]


def test_bsm_command_starts_without_site_but_keeps_the_environment():
    # -S skips the site step; -I would also drop PYTHONPATH and
    # PYTHONDONTWRITEBYTECODE from the child's environment
    argv = shlex.split(bsm_external_descriptor().command_template)
    assert argv[0] == sys.executable
    assert argv.index("-S") < argv.index("-c")
    assert "-I" not in argv


@pytest.mark.parametrize("name", dslake.__all__)
def test_public_names_resolve(name):
    assert getattr(dslake, name) is not None


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError):
        dslake.no_such_name


def _unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    # an attribute chain's base (``np`` of ``np.zeros``) is a Name node too
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_module_imports():
    root = Path(__file__).resolve().parent.parent
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "tests").rglob("*.py"))
    unused = [entry for path in files for entry in _unused_module_imports(path)]
    assert files
    assert unused == []



def _definitions_and_references(path):
    """The functions and classes ``path`` defines, with their lines, and
    the names it uses: names, attributes, imported names and the words of
    string constants other than docstrings."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, *defs)) and ast.get_docstring(node) is not None
    }
    defined, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, defs):
            defined.append((node.name, f"{path.name}:{node.lineno} {node.name}"))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                used.update(re.findall(r"\w+", node.value))
    return defined, used


def test_every_definition_is_used():
    # a function, class or method that nothing in the program or the
    # benchmark names is dead code; the storage fabric's recover_node and
    # the ground truth's GroundTruthPath.matches serve tests alone
    root = Path(__file__).resolve().parent.parent
    src = sorted((root / "src").rglob("*.py"))
    used = set()
    defined = []
    for path in [*src, *sorted((root / "perfbench").rglob("*.py"))]:
        found, names = _definitions_and_references(path)
        used |= names
        if path in src:
            defined += found
    unused = [
        where for name, where in defined
        if name not in used and not name.startswith("__")
        and name not in ("recover_node", "matches")
    ]
    assert defined
    assert unused == []

_UNSAFE = {"pickle", "marshal", "shelve", "eval", "exec"}


def _unsafe_uses(source: str) -> list[str]:
    """``<line> <name>`` of each import of pickle, marshal or shelve (by
    statement, ``__import__`` or ``import_module``) and each call of eval or
    exec in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            names = [called]
            if called in ("__import__", "import_module") and node.args:
                names += [getattr(node.args[0], "value", "")]
        found += [f"{node.lineno} {name}" for name in names
                  if isinstance(name, str) and name.split(".")[0] in _UNSAFE]
    return found


@pytest.mark.parametrize("source", [
    "import pickle", "import os, marshal as m", "from shelve import open",
    "from os import path\nimport pickle.x", "eval('1')", "builtins.exec(code)",
    "__import__('pickle')", "importlib.import_module('marshal')",
])
def test_the_unsafe_scan_sees_each_form(source):
    assert _unsafe_uses(source)


def test_no_source_unpickles_or_evaluates():
    # anyone who can write the store can write its map index, so only a
    # registered codec may decode it: nothing under src/ loads a format
    # whose reader runs code, or runs text as code
    root = Path(__file__).resolve().parent.parent
    src = sorted((root / "src").rglob("*.py"))
    found = [f"{path.name}:{use}" for path in src for use in _unsafe_uses(path.read_text())]
    assert src
    assert found == []
