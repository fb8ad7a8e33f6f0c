import os
import subprocess
import sys
from pathlib import Path

import pytest

import dslake


def test_bsm_command_imports_no_numpy_or_engine():
    # the engine starts one interpreter per selected path for the external
    # BSM package; its start-up cost is what that process imports. The
    # child finds this dslake whether or not the suite ran under PYTHONPATH.
    probe = (
        "import sys, dslake.cyclone.bsm_cmd\n"
        "heavy = ('numpy', 'dslake.engine', 'dslake.lang', 'dslake.storage')\n"
        "print(' '.join(m for m in heavy if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dslake.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", dslake.__all__)
def test_public_names_resolve(name):
    assert getattr(dslake, name) is not None


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError):
        dslake.no_such_name
