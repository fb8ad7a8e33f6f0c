"""Result bytes pinned by case: every row of ``golden.tsv`` must come back
from the tree as written (see ``golden.py`` for the cases and how to
regenerate the table)."""

import os
import subprocess
import sys
from pathlib import Path

import golden


def test_golden_table_has_every_case():
    assert list(golden.read_table()) == golden.case_names()


def test_every_case_gives_its_golden_row():
    table = golden.read_table()
    found = golden.rows(golden.case_names())
    differ = [name for name in table if found[name] != table[name]]
    assert differ == [], f"{len(differ)} cases differ from golden.tsv: {differ}"


def test_a_case_under_another_hash_seed():
    # string hashing is salted per process; no result may depend on it
    case = "seed1/params/n8-fail3"
    src = Path(golden.__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, golden.__file__, case],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out == f"{case}\t{golden.read_table()[case]}\n"
