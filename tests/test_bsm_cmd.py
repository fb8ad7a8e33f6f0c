import hashlib
import shutil
from dataclasses import replace

import pytest

from dslake.errors import PackageFailure
from dslake.hybrid import invoke
from dslake.cyclone.bsm_cmd import main
from dslake.cyclone.plugin import bsm_external_descriptor

from test_surrogate import params

from conftest import utc


@pytest.fixture()
def cyclone_file(tmp_path):
    path = tmp_path / "cyclone.txt"
    path.write_text(params(depth=53.0, bearing=45.0).portable_text())
    return path


def command(cyclone_file, out, *extra):
    return ["--start", "2005-01-07T00:00:00Z", "--cyclone", str(cyclone_file),
            "--out", str(out), *extra]


def output_bytes(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_output_bytes_are_pinned(cyclone_file, tmp_path):
    assert main(command(cyclone_file, tmp_path / "out")) == 0
    digests = {name: hashlib.sha256(data).hexdigest()[:16]
               for name, data in output_bytes(tmp_path / "out").items()}
    assert digests == {
        "level_440_414.tsv": "52640297703f1dd7",
        "outputs.tsv": "d52fd62a5d882264",
    }


def test_horizon_defaults_to_96h(cyclone_file, tmp_path):
    assert main(command(cyclone_file, tmp_path / "a")) == 0
    assert main(command(cyclone_file, tmp_path / "b", "--horizon", "96h")) == 0
    assert output_bytes(tmp_path / "a") == output_bytes(tmp_path / "b")


def test_flag_equals_value_form(cyclone_file, tmp_path):
    assert main(command(cyclone_file, tmp_path / "a", "--horizon=96h")) == 0
    assert main(command(cyclone_file, tmp_path / "b")) == 0
    assert output_bytes(tmp_path / "a") == output_bytes(tmp_path / "b")


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--start", "2005-01-07T00:00:00Z", "--cyclone", "c.txt"], "--out"),
        (["--cyclone", "c.txt", "--out", "o"], "--start"),
        (["--start", "2005-01-07T00:00:00Z", "--cyclone", "c.txt", "--out", "o", "--depth", "1"],
         "--depth"),
        (["--start", "2005-01-07T00:00:00Z", "--cyclone", "c.txt", "--out"], "--out"),
        (["--start", "2005-01-07T00:00:00Z", "--cyclone", "c.txt", "--out", "o", "--horizon"],
         "--horizon"),
    ],
    ids=["missing-out", "missing-start", "unknown-flag", "valueless-out", "valueless-horizon"],
)
def test_bad_command_line_exits_two_naming_the_flag(argv, named, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("bsm_cmd: error:")
    assert named in err


def test_malformed_horizon_is_a_package_failure_that_keeps_scratch(registry):
    external = bsm_external_descriptor(name="BSM-X")
    external = replace(
        external, command_template=external.command_template.replace("{input:horizon}", "96x")
    )
    registry.register_package(external)
    bindings = {"startTime": utc(2005, 1, 7), "cyclone": params(depth=53.0, bearing=45.0)}
    with pytest.raises(PackageFailure) as err:
        invoke(external, None, bindings)
    scratch = err.value.scratch
    assert (scratch / "cyclone.txt").exists()
    shutil.rmtree(scratch)
    assert str(err.value).startswith("BSM-X exited 1:")
