import pytest

from dslake.errors import (
    DanglingSimulate,
    UnboundReference,
    UnknownFilterKeyword,
    UnknownObjectType,
    UnknownOptionKeyword,
    UnknownOutputName,
    UnknownPackage,
    UnknownPackageInput,
    ValidationError,
)
from dslake.lang.ast import DurationLit, Offset, Ref
from dslake.lang.parser import parse
from dslake.lang.validate import validate
from dslake.registry import KnowledgeRegistry

from conftest import REFUSED_SCRIPTS


def test_fig5_validates(registry, fig5_script):
    vq = validate(parse(fig5_script), registry)
    (select,) = vq.selects
    assert select.knowledge.info.name == "cyclone-path"  # alias resolved
    (filter_binding,) = select.filters
    # "directon" resolves through the keyword shortcut to the direction filter
    assert filter_binding.procedure is registry.procedures["cyclone.filter_direction"]
    assert filter_binding.value == "north-east"

    (plan,) = vq.simulates
    assert plan.package.name == "BSM"
    assert plan.select_index == 0
    # the cyclone parameters flow in by name; the horizon is left to its default
    assert dict(plan.bindings) == {
        "startTime": Offset(base=Ref("EndTime"), sign=-1, delta=DurationLit(48)),
        "cyclone": Ref("cyclone"),
    }
    assert plan.outputs == (("level", (440, 414)),)
    # the engine's extractors and combiner, resolved once
    assert vq.extractors == {"grid": registry.procedures["cyclone.extract_centers"]}
    assert vq.combiner is registry.procedures["cyclone.combine_paths"]


def test_empty_registry_unknown_object(fig5_script):
    with pytest.raises(UnknownObjectType) as err:
        validate(parse(fig5_script), KnowledgeRegistry())
    assert err.value.name == "cyclon-path"


def test_unknown_filter_keyword(registry):
    with pytest.raises(UnknownFilterKeyword) as err:
        validate(parse("select cyclone-path\n  color red"), registry)
    assert err.value.name == "color"


def test_unknown_package(registry):
    with pytest.raises(UnknownPackage):
        validate(parse("select cyclone-path\nsimulate\n  with Nope"), registry)


def test_package_lookup_case_sensitive(registry):
    with pytest.raises(UnknownPackage):
        validate(parse("select cyclone-path\nsimulate\n  with bsm"), registry)


def test_reference_without_semantic_association(registry):
    script = "select cyclone-path\nsimulate\n  with BSM\n  in(startTime: EndTime - 48h)"
    with pytest.raises(UnboundReference) as err:
        validate(parse(script), registry)
    assert err.value.name == "EndTime"


def test_reference_to_unknown_parameter(registry):
    script = (
        "select cyclone-path\nsimulate\n  with BSM\n"
        "  semantic_association yes\n  in(startTime: Nothing - 48h)"
    )
    with pytest.raises(UnboundReference) as err:
        validate(parse(script), registry)
    assert err.value.name == "Nothing"


def test_dangling_simulate(registry):
    with pytest.raises(DanglingSimulate):
        validate(parse("simulate\n  with BSM\n  semantic_association yes"), registry)


def test_unknown_option(registry):
    script = "select cyclone-path\nsimulate\n  with BSM\n  turbo yes"
    with pytest.raises(UnknownOptionKeyword):
        validate(parse(script), registry)


@pytest.mark.parametrize(
    "out, detail",
    [
        ("Params[Nope]", "not a parameter"),
        ("Nope", "not a parameter"),
        ("Params[3]", "takes parameter names"),
        ("EndTime[1]", "take no indices"),
    ],
    ids=["params-nope", "nope", "params-index", "endtime-index"],
)
def test_unknown_select_out_param(registry, out, detail):
    # one case per refusal of a select's out clause
    with pytest.raises(UnknownOutputName, match=detail):
        validate(parse(f"select cyclone-path\n  out({out})"), registry)


def test_plain_and_params_select_out_items_request_parameters(registry):
    # a plain item names one parameter, as Params[...] names several
    vq = validate(parse("select cyclone-path\n  out(EndTime, Params[Depth, Radius])"), registry)
    assert vq.selects[0].requested_params == ("EndTime", "Depth", "Radius")


def test_unknown_simulate_output(registry):
    script = (
        "select cyclone-path\nsimulate\n  with BSM\n"
        "  semantic_association yes\n  in(startTime: EndTime - 48h)\n  out(splash)"
    )
    with pytest.raises(UnknownOutputName):
        validate(parse(script), registry)


def test_unknown_package_input(registry):
    script = (
        "select cyclone-path\nsimulate\n  with BSM\n"
        "  semantic_association yes\n  in(warp: 9h)"
    )
    with pytest.raises(UnknownPackageInput):
        validate(parse(script), registry)


def test_required_input_unbound_without_association(registry):
    # with semantic_association off, cyclone cannot be bound at all
    script = "select cyclone-path\nsimulate\n  with BSM\n  semantic_association no"
    with pytest.raises(UnboundReference) as err:
        validate(parse(script), registry)
    assert err.value.name in ("startTime", "cyclone")


@pytest.mark.parametrize(
    "script, name, detail",
    [
        (REFUSED_SCRIPTS["no-select"], "select", "no select statement"),
        (REFUSED_SCRIPTS["two-object-types"], "station", "one object type, and cyclone-path"),
        (REFUSED_SCRIPTS["no-combiner"], "station", "library stations declares no combiner"),
    ],
    ids=list(REFUSED_SCRIPTS),
)
def test_select_statements_the_engine_cannot_run(station_registry, script, name, detail):
    with pytest.raises(ValidationError, match=detail) as err:
        validate(parse(script), station_registry)
    assert err.value.name == name
