import re
import shutil
import tempfile
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dslake.descriptors import dump_descriptors, load_descriptors
from dslake.errors import BindingError, PackageFailure, RegistryError, UnboundReference
from dslake.hybrid import (
    IndexedSeries,
    evaluate_binding,
    invoke,
    output_at,
    semantic_type_of,
)
from dslake.lang.ast import DateLit, DurationLit, Offset, Ref
from dslake.lang.parser import parse
from dslake.registry import (
    ExecutionMode,
    PackageDescriptor,
    PackageInput,
    PackageOutputDecl,
)
from dslake.cyclone.plugin import bsm_external_descriptor
from dslake.cyclone.surrogate import MAX_HORIZON_HOURS
from dslake.report import ResultDocument, SimulationRecord

from conftest import utc
from test_surrogate import params


# --- binding evaluation --------------------------------------------------------

def test_offset_against_gudrun_end_time():
    # startTime: EndTime - 48h anchored to the January 9 flood date
    value = evaluate_binding(
        Offset(base=Ref("EndTime"), sign=-1, delta=DurationLit(48)),
        {"EndTime": utc(2005, 1, 9)},
    )
    assert value == utc(2005, 1, 7)


def test_zero_offset_is_identity():
    value = evaluate_binding(
        Offset(base=Ref("EndTime"), sign=-1, delta=DurationLit(0)),
        {"EndTime": utc(2005, 1, 9)},
    )
    assert value == utc(2005, 1, 9)


def test_unbound_reference():
    with pytest.raises(UnboundReference):
        evaluate_binding(Ref("StartTime"), {"EndTime": utc(2005, 1, 9)})


def test_duration_days():
    script = parse("select x\nsimulate\n  with P\n  in(t: E - 2d)")
    expr = script.statements[1].in_bindings[0][1]
    assert evaluate_binding(expr, {"E": utc(2005, 1, 9)}) == utc(2005, 1, 7)


def test_duration_algebra_associates():
    # (t - a) - b == t - (a + b) for all duration literals
    t = utc(2005, 1, 9)
    for a in (0, 1, 7, 48, 100):
        for b in (0, 5, 24, 72):
            chained = evaluate_binding(
                Offset(
                    base=Offset(base=Ref("T"), sign=-1, delta=DurationLit(a)),
                    sign=-1,
                    delta=DurationLit(b),
                ),
                {"T": t},
            )
            combined = evaluate_binding(
                Offset(base=Ref("T"), sign=-1, delta=DurationLit(a + b)), {"T": t}
            )
            assert chained == combined


def test_offset_requires_datetime_base():
    with pytest.raises(BindingError):
        evaluate_binding(
            Offset(base=Ref("N"), sign=1, delta=DurationLit(1)), {"N": 14}
        )


@pytest.mark.parametrize("sign, hours", [(1, 99999999), (-1, 99999999), (1, 23999999999)])
def test_offset_out_of_datetime_range_is_binding_error(sign, hours):
    expr = Offset(base=Ref("EndTime"), sign=sign, delta=DurationLit(hours))
    with pytest.raises(BindingError) as err:
        evaluate_binding(expr, {"EndTime": utc(2011, 1, 9)})
    op = "+" if sign > 0 else "-"
    assert str(err.value) == f"2011-01-09T00:00:00Z {op} {hours}h leaves the years 1 to 9999"


def test_date_literal_is_utc_midnight():
    import datetime as dt

    assert evaluate_binding(DateLit(dt.date(2011, 1, 2)), {}) == utc(2011, 1, 2)


# --- builtin invocation -----------------------------------------------------------

def builtin_bsm(registry, bindings):
    """One run of the registry's builtin BSM package."""
    package = registry.resolve_package("BSM")
    return invoke(package, registry.procedures[package.procedure_id], bindings)


def test_bsm_builtin_invocation(registry):
    out = builtin_bsm(
        registry, {"startTime": utc(2005, 1, 7), "cyclone": params(depth=53.0, bearing=45.0)}
    )
    series = output_at(out, "level", (440, 414))
    assert dict(series)[utc(2005, 1, 9)] == pytest.approx(53.0)
    assert len(series) == 97  # default 96 h horizon


def test_binding_type_mismatch(registry):
    with pytest.raises(BindingError):
        builtin_bsm(
            registry, {"startTime": "2005-01-07", "cyclone": params()}  # string, not datetime
        )


def test_semantic_type_tags():
    assert semantic_type_of(utc(2005, 1, 7)) == "datetime"
    assert semantic_type_of(timedelta(hours=4)) == "duration"
    assert semantic_type_of(7) == "int"
    assert semantic_type_of(7.5) == "float"
    assert semantic_type_of("x") == "string"
    assert semantic_type_of(params()) == "cyclone-params"
    assert semantic_type_of(True) == "bool"  # before int, its base class
    assert semantic_type_of([1]) == "list"  # untagged: its class name


def test_indexed_series_lookup():
    series = [(utc(2011, 1, 1), 1.0)]
    outputs = {"level": IndexedSeries({(440, 414): series})}
    assert output_at(outputs, "level", (440, 414)) == series
    assert output_at(outputs, "level") is outputs["level"]
    with pytest.raises(PackageFailure, match=re.escape("no series at index [1, 2]")):
        output_at(outputs, "level", (1, 2))
    with pytest.raises(PackageFailure, match="output peak missing"):
        output_at(outputs, "peak")
    with pytest.raises(PackageFailure, match="output peak is not indexable"):
        output_at({"peak": 1.5}, "peak", (0,))


# --- external command mode ----------------------------------------------------------

def _echo_descriptor(template: str) -> PackageDescriptor:
    return PackageDescriptor(
        name="ECHO",
        inputs=(PackageInput("word", "string", required=True),),
        outputs=(PackageOutputDecl("result", "float"),),
        execution_mode=ExecutionMode.EXTERNAL_COMMAND,
        command_template=template,
    )


def test_external_command_without_outputs_file_fails():
    descriptor = _echo_descriptor("echo {input:word}")
    with pytest.raises(PackageFailure) as err:
        invoke(descriptor, None, {"word": "hi"})
    shutil.rmtree(err.value.scratch)
    assert "outputs.tsv" in str(err.value)


def test_external_command_nonzero_exit_fails():
    descriptor = _echo_descriptor("false")
    with pytest.raises(PackageFailure) as err:
        invoke(descriptor, None, {"word": "hi"})
    shutil.rmtree(err.value.scratch)


def test_external_command_with_non_utf8_stderr_fails():
    # the quoted stderr is decoded with replacement, so the failure is a
    # package failure, not a UnicodeDecodeError escaping the invocation
    descriptor = _echo_descriptor("sh -c 'printf \"oops \\377\" >&2; exit 3'")
    with pytest.raises(PackageFailure) as err:
        invoke(descriptor, None, {"word": "hi"})
    shutil.rmtree(err.value.scratch)
    assert str(err.value) == "ECHO exited 3: oops \ufffd"


def test_external_failure_quotes_the_end_of_its_stderr(tmp_path):
    # a traceback puts its error line last, so the tail of stderr is quoted
    import sys

    stderr = "x" * 1990 + "THE-MARKER"
    child = tmp_path / "fail.py"
    child.write_text(f"import sys\nsys.stderr.write({stderr!r})\nsys.exit(3)\n")
    descriptor = _echo_descriptor(f"{sys.executable} {child}")
    with pytest.raises(PackageFailure) as err:
        invoke(descriptor, None, {"word": "hi"})
    shutil.rmtree(err.value.scratch)
    assert str(err.value) == f"ECHO exited 3: {stderr[-500:]}"


def test_declared_scalar_outputs_read_as_a_builtin_returns_them(tmp_path):
    # an external run's outputs are read by their declared types, so they
    # equal, and give the canonical lines of, a builtin run's values
    import sys

    values = {
        "count": 7, "label": "1234e5", "note": "nan", "at": utc(2005, 1, 9),
        "flag": True, "span": timedelta(hours=96),
    }
    builtin = PackageDescriptor(
        name="SCALARS",
        outputs=(
            PackageOutputDecl("count", "int"),
            PackageOutputDecl("label", "string"),
            PackageOutputDecl("note", "string"),
            PackageOutputDecl("at", "datetime"),
            PackageOutputDecl("flag", "bool"),
            PackageOutputDecl("span", "duration"),
        ),
    )
    command = tmp_path / "scalars.py"
    command.write_text(
        "import pathlib, sys\n"
        "(pathlib.Path(sys.argv[1]) / 'outputs.tsv').write_text(\n"
        "    'count\\t7\\nlabel\\t1234e5\\nnote\\tnan\\nat\\t2005-01-09T00:00:00Z\\n'\n"
        "    'flag\\tTrue\\nspan\\t96h\\n')\n"
    )
    external = replace(
        builtin,
        execution_mode=ExecutionMode.EXTERNAL_COMMAND,
        command_template=f"{sys.executable} {command} {{outdir}}",
    )
    builtin_out = invoke(builtin, lambda bindings: dict(values), {})
    external_out = invoke(external, None, {})
    assert external_out == builtin_out == values

    def canonical_lines(outputs):
        sim = SimulationRecord("p", "SCALARS", 0, outputs=outputs)
        return ResultDocument("t", simulations=[sim]).canonical_text().splitlines()

    lines = canonical_lines(external_out)
    assert lines == canonical_lines(builtin_out)
    for line in ("count 7", "label 1234e5", "flag yes", "span 96h"):
        assert f"  output {line}" in lines


def test_horizon_past_its_bound_fails_in_both_modes(registry):
    bindings = {
        "startTime": utc(2005, 1, 7),
        "cyclone": params(),
        "horizon": timedelta(hours=MAX_HORIZON_HOURS + 1),
    }
    with pytest.raises(PackageFailure) as err:
        builtin_bsm(registry, dict(bindings))
    assert str(err.value) == f"BSM: horizon must be at most {MAX_HORIZON_HOURS} hours"
    with pytest.raises(PackageFailure) as err:
        invoke(bsm_external_descriptor(name="BSM-X"), None, dict(bindings))
    shutil.rmtree(err.value.scratch)
    assert str(err.value).startswith("BSM-X exited 1: ")
    assert str(err.value).endswith(
        f"ValueError: horizon must be at most {MAX_HORIZON_HOURS} hours"
    )


@pytest.mark.parametrize(
    "result_type, outputs_tsv, message",
    [
        ("float", b"other\t1.5\n", "ECHO: declared output 'result' missing"),
        ("float", b"result\t1.5\nresult 2.5\n", "ECHO: malformed outputs.tsv line 2"),
        ("float", b"other\tx\nresult\tlow\n", "ECHO: outputs.tsv line 2: malformed float 'low'"),
        ("bool", b"other\tx\nresult\tyes\n", "ECHO: outputs.tsv line 2: malformed bool 'yes'"),
        ("timeseries<float>", b"result\t\n",
         "ECHO: outputs.tsv line 1: series file '' unreadable (Is a directory)"),
        ("timeseries<float>", b"other\tx\nresult\t.\n",
         "ECHO: outputs.tsv line 2: series file '.' unreadable (Is a directory)"),
    ],
    ids=["missing-output", "malformed-line", "unreadable-value", "unreadable-bool",
         "series-named-empty", "series-named-dot"],
)
def test_unreadable_outputs_keep_the_scratch(tmp_path, result_type, outputs_tsv, message):
    import sys

    writer = tmp_path / "write_outputs.py"
    writer.write_text(
        "import sys, pathlib\n"
        f"(pathlib.Path(sys.argv[1]) / 'outputs.tsv').write_bytes({outputs_tsv!r})\n"
    )
    descriptor = replace(
        _echo_descriptor(f"{sys.executable} {writer} {{outdir}}"),
        outputs=(PackageOutputDecl("result", result_type),),
    )
    with pytest.raises(PackageFailure) as err:
        invoke(descriptor, None, {"word": "hi"})
    scratch = err.value.scratch
    assert str(err.value) == message
    assert (scratch / "outputs.tsv").read_bytes() == outputs_tsv
    shutil.rmtree(scratch)


def test_an_outputs_tsv_that_is_a_directory_keeps_the_scratch():
    with pytest.raises(PackageFailure) as err:
        invoke(_echo_descriptor("mkdir {outdir}/outputs.tsv"), None, {"word": "hi"})
    scratch = err.value.scratch
    assert (scratch / "outputs.tsv").is_dir()
    shutil.rmtree(scratch)
    assert str(err.value) == "ECHO: outputs.tsv unreadable (Is a directory)"


OUTPUT_LINES = [
    b"level[440,414]\tlevel.tsv", b"level[1]\tlevel.tsv", b"level\tlevel.tsv",
    b"level[440,414]\t", b"level[440,414]\t.", b"level[440,414]\t..", b"level[440,414]\t/",
    b"level[x]\tlevel.tsv", b"level[" + b"9" * 5000 + b"]\tlevel.tsv",
    b"peak\t1.5", b"peak\tlow", b"peak\t1e999", b"count\t7", b"count\t" + b"9" * 5000,
    b"span\t96h", b"span\t99999999999999999999h",
    b"at\t2005-01-09T00:00:00Z", b"at\t9999-12-31T23:59-01:00",
    b"flag\tTrue", b"other\tx", b"peak 1.5", b"",
]
SERIES_LINES = [
    b"2005-01-07T00:00:00Z\t0.5000", b"2005-01-07T00:00:00Z\tnan", b"2005-01-07T25:00:00Z\t1.0",
    b"0001-01-01T00:00+01:00\t1.0", b"2005-01-07T00:00:00Z\t1.0\textra", b"\t", b"",
]


def _lines(known: list[bytes]):
    """Hypothesis strategy for a file: lines mostly drawn from ``known``,
    some arbitrary, joined by line breaks; or arbitrary bytes."""
    line = st.sampled_from(known) | st.binary(max_size=12)
    return st.lists(line, max_size=6).map(b"\n".join) | st.binary(max_size=48)


FUZZED = PackageDescriptor(
    name="FUZZ",
    outputs=(
        PackageOutputDecl("level", "timeseries<float>", indexable=True),
        PackageOutputDecl("peak", "float"),
        PackageOutputDecl("count", "int"),
        PackageOutputDecl("span", "duration"),
        PackageOutputDecl("at", "datetime"),
        PackageOutputDecl("flag", "bool"),
    ),
    execution_mode=ExecutionMode.EXTERNAL_COMMAND,
)


@settings(max_examples=200, deadline=None)
@given(_lines(OUTPUT_LINES), _lines(SERIES_LINES))
def test_any_outputs_tsv_gives_outputs_or_a_package_failure(outputs_tsv, series):
    with tempfile.TemporaryDirectory() as source:
        (Path(source) / "outputs.tsv").write_bytes(outputs_tsv)
        (Path(source) / "level.tsv").write_bytes(series)
        command = f"cp {source}/outputs.tsv {source}/level.tsv {{outdir}}"
        try:
            outputs = invoke(replace(FUZZED, command_template=command), None, {})
        except PackageFailure as failure:
            shutil.rmtree(failure.scratch)
            return
    assert {decl.name for decl in FUZZED.outputs} <= outputs.keys()


def test_input_that_cannot_be_materialized_keeps_the_scratch():
    descriptor = PackageDescriptor(
        name="LIST",
        inputs=(PackageInput("xs", "list"),),
        execution_mode=ExecutionMode.EXTERNAL_COMMAND,
        command_template="echo {input:xs} {outdir}",
    )
    with pytest.raises(PackageFailure) as err:
        invoke(descriptor, None, {"xs": [1]})
    scratch = err.value.scratch
    assert scratch.is_dir()
    shutil.rmtree(scratch)
    assert str(err.value).startswith("LIST: cannot materialize input 'xs' of type list")


def test_a_duration_input_that_text_cannot_hold_keeps_the_scratch():
    descriptor = PackageDescriptor(
        name="WAIT",
        inputs=(PackageInput("span", "duration"),),
        execution_mode=ExecutionMode.EXTERNAL_COMMAND,
        command_template="echo {input:span} {outdir}",
    )
    with pytest.raises(PackageFailure) as err:
        invoke(descriptor, None, {"span": timedelta(minutes=90)})
    shutil.rmtree(err.value.scratch)
    assert str(err.value) == (
        "WAIT: input 'span': duration 1.5h is not a whole, non-negative number of hours"
    )


def test_external_command_that_cannot_start_fails():
    # a missing program is a package failure naming the program and the
    # kept scratch, not an OSError escaping the invocation
    descriptor = _echo_descriptor("no-such-program-xyz {outdir}")
    with pytest.raises(PackageFailure) as err:
        invoke(descriptor, None, {"word": "hi"})
    scratch = err.value.scratch
    assert scratch.is_dir()
    shutil.rmtree(scratch)
    assert str(err.value).startswith("ECHO could not start 'no-such-program-xyz':")


def test_external_bsm_matches_builtin(registry):
    # the same surrogate behind both execution modes produces the same
    # series at the documented four-decimal precision
    external = bsm_external_descriptor(name="BSM-X")
    registry.register_package(external)
    bindings = {
        "startTime": utc(2005, 1, 7),
        "cyclone": params(depth=53.0, bearing=45.0),
        "horizon": timedelta(hours=96),
    }
    builtin_out = builtin_bsm(registry, dict(bindings))
    external_out = invoke(external, None, dict(bindings))
    a = output_at(builtin_out, "level", (440, 414))
    b = output_at(external_out, "level", (440, 414))
    assert [(t, f"{v:.4f}") for t, v in a] == [(t, f"{v:.4f}") for t, v in b]


def test_external_bsm_ignores_non_utf8_stdout(registry):
    # the outputs are read from the scratch directory; what the command
    # writes to stdout, here a 0xFF byte first, is not decoded
    external = bsm_external_descriptor(name="BSM-X")
    noisy = replace(
        external,
        command_template="sh -c 'printf \"\\377\"; exec \"$@\"' sh " + external.command_template,
    )
    registry.register_package(noisy)
    bindings = {"startTime": utc(2005, 1, 7), "cyclone": params(depth=53.0, bearing=45.0)}
    builtin_out = builtin_bsm(registry, dict(bindings))
    noisy_out = invoke(noisy, None, dict(bindings))
    a = output_at(builtin_out, "level", (440, 414))
    b = output_at(noisy_out, "level", (440, 414))
    assert [(t, f"{v:.4f}") for t, v in a] == [(t, f"{v:.4f}") for t, v in b]


def test_task_id_exported_to_environment(registry, tmp_path):
    import sys

    marker = tmp_path / "task_env.py"
    marker.write_text(
        "import os, sys, pathlib\n"
        "out = pathlib.Path(sys.argv[1])\n"
        "out.mkdir(parents=True, exist_ok=True)\n"
        "(out / 'outputs.tsv').write_text(f\"token\\t{os.environ['DSLAKE_TASK_ID']}\\n\")\n"
    )
    descriptor = PackageDescriptor(
        name="ENV",
        inputs=(),
        outputs=(PackageOutputDecl("token", "string"),),
        execution_mode=ExecutionMode.EXTERNAL_COMMAND,
        command_template=f"{sys.executable} {marker} {{outdir}}",
    )
    registry.register_package(descriptor)
    out = invoke(descriptor, None, {}, task_id="task-77")
    assert out["token"] == "task-77"


@pytest.mark.parametrize(
    "bad_line",
    [
        b"2005-01-07T00:00:00Z\t1.0\textra",  # wrong column count
        b"2005-01-07T25:00:00Z\t1.0",  # bad timestamp
        b"2005-01-07T00:00:00Z\tlow",  # bad float
        b"2005-01-07T00:00:00Z\t1.0\xff",  # not UTF-8
    ],
    ids=["columns", "time", "value", "encoding"],
)
def test_malformed_series_line_is_package_failure(registry, tmp_path, bad_line):
    import sys

    marker = tmp_path / "bad_series.py"
    marker.write_text(
        "import sys, pathlib\n"
        "out = pathlib.Path(sys.argv[1])\n"
        "(out / 'level.tsv').write_bytes(\n"
        f"    b'2005-01-06T23:00:00Z\\t0.5000\\n' + {bad_line!r} + b'\\n')\n"
        "(out / 'outputs.tsv').write_text('level\\tlevel.tsv\\n')\n"
    )
    descriptor = PackageDescriptor(
        name="SERIES",
        inputs=(),
        outputs=(PackageOutputDecl("level", "timeseries<float>"),),
        execution_mode=ExecutionMode.EXTERNAL_COMMAND,
        command_template=f"{sys.executable} {marker} {{outdir}}",
    )
    registry.register_package(descriptor)
    with pytest.raises(PackageFailure) as err:
        invoke(descriptor, None, {})
    assert str(err.value).startswith("SERIES: series file level.tsv line 2:")
    scratch = err.value.scratch
    assert (scratch / "level.tsv").exists()
    shutil.rmtree(scratch)


def test_external_bsm_runs_without_pythonpath(registry, monkeypatch):
    # the command names the source root of this dslake, so the child finds
    # it whatever environment it inherits
    monkeypatch.delenv("PYTHONPATH", raising=False)
    external = bsm_external_descriptor(name="BSM-X")
    registry.register_package(external)
    bindings = {"startTime": utc(2005, 1, 7), "cyclone": params(depth=53.0, bearing=45.0)}
    out = invoke(external, None, bindings)
    assert len(output_at(out, "level", (440, 414))) == 97


def test_external_bsm_from_an_odd_source_directory(registry, monkeypatch, tmp_path):
    # braces and '#' in the source root must reach neither the template's
    # placeholders nor the .kd comment syntax
    import dslake

    root = tmp_path / "odd{x}#dir"
    shutil.copytree(
        Path(dslake.__file__).parent, root / "dslake", ignore=shutil.ignore_patterns("__pycache__")
    )
    monkeypatch.setattr(dslake, "__file__", str(root / "dslake" / "__init__.py"))
    monkeypatch.delenv("PYTHONPATH", raising=False)
    registry.register_package(bsm_external_descriptor(name="BSM-X"))
    ([], [external]) = load_descriptors(dump_descriptors([], [registry.resolve_package("BSM-X")]))
    bindings = {"startTime": utc(2005, 1, 7), "cyclone": params(depth=53.0, bearing=45.0)}
    builtin_out = builtin_bsm(registry, dict(bindings))
    external_out = invoke(external, None, dict(bindings))
    a = output_at(builtin_out, "level", (440, 414))
    b = output_at(external_out, "level", (440, 414))
    assert [(t, f"{v:.4f}") for t, v in a] == [(t, f"{v:.4f}") for t, v in b]


@pytest.mark.parametrize("bad", ["{", "}", "#"])
def test_external_bsm_refuses_an_interpreter_it_cannot_write(monkeypatch, bad):
    exe = f"/usr/py{bad}3/bin/python"
    monkeypatch.setattr("sys.executable", exe)
    with pytest.raises(RegistryError, match=re.escape(repr(exe))):
        bsm_external_descriptor()

