from dataclasses import replace
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dslake.errors import (
    DuplicateName,
    MalformedTemplate,
    RegistryError,
    UnknownObjectType,
    UnknownPackage,
)
from dslake.registry import (
    DomainLibraryDescriptor,
    ExecutionMode,
    KnowledgeRegistry,
    ObjectTypeInfo,
    PackageDescriptor,
    PackageInput,
    PackageOutputDecl,
    SCALAR_TYPES,
    StructureLevel,
)
from dslake.times import UTC
from dslake.cyclone.plugin import bsm_descriptor, register_cyclone_domain


def test_alias_resolves_to_canonical(registry):
    info = registry.resolve_object_type("cyclon-path")
    assert info.info.name == "cyclone-path"
    assert registry.resolve_object_type("cyclone-path") is info


def test_register_same_library_twice(registry):
    with pytest.raises(DuplicateName):
        register_cyclone_domain(registry)


def test_empty_registry_resolves_nothing():
    empty = KnowledgeRegistry()
    with pytest.raises(UnknownObjectType):
        empty.resolve_object_type("cyclone-path")
    with pytest.raises(UnknownPackage):
        empty.resolve_package("BSM")


def test_bsm_registered_case_sensitive(registry):
    package = registry.resolve_package("BSM")
    assert package.input_named("startTime").semantic_type == "datetime"
    assert package.output_named("level").indexable
    with pytest.raises(UnknownPackage):
        registry.resolve_package("bsm")


def test_malformed_template_rejected():
    registry = KnowledgeRegistry()
    bad = PackageDescriptor(
        name="X",
        inputs=(PackageInput("startTime", "datetime"),),
        outputs=(PackageOutputDecl("y", "float"),),
        execution_mode=ExecutionMode.EXTERNAL_COMMAND,
        command_template="runner --start {input:startTim}",
    )
    with pytest.raises(MalformedTemplate):
        registry.register_package(bad)


@pytest.mark.parametrize(
    "semantic_type, default",
    [
        ("duration", "9x"),
        ("duration", "9999999999d"),  # beyond timedelta's range
        ("duration", "96hh"),
        ("duration", "-5h"),
        ("duration", "5"),  # no unit
        ("duration", "1_000h"),
        ("duration", "\u0665h"),  # an Arabic-Indic digit five
        ("datetime", "2011-13-01T00:00Z"),
        ("int", "4.5"),
        ("float", "big"),
    ],
)
def test_malformed_default_refused_at_registration(semantic_type, default):
    registry = KnowledgeRegistry()
    bad = PackageDescriptor(
        name="P",
        inputs=(PackageInput("x", semantic_type, required=False, default=default),),
        outputs=(PackageOutputDecl("y", "float"),),
    )
    with pytest.raises(RegistryError) as err:
        registry.register_package(bad)
    assert str(err.value) == (
        f"package P: input 'x' has a malformed {semantic_type} default {default!r}"
    )
    assert "P" not in registry.packages


def test_external_template_outdir_allowed():
    registry = KnowledgeRegistry()
    ok = PackageDescriptor(
        name="X",
        inputs=(PackageInput("a", "int"),),
        outputs=(PackageOutputDecl("y", "float"),),
        execution_mode=ExecutionMode.EXTERNAL_COMMAND,
        command_template="runner {input:a} --out {outdir}",
    )
    registry.register_package(ok)
    assert registry.resolve_package("X") is ok


def test_high_level_type_needs_combiner():
    registry = KnowledgeRegistry()
    library = DomainLibraryDescriptor(
        name="lib",
        object_types=(
            ObjectTypeInfo(
                name="thing",
                structure_level=StructureLevel.HIGH_LEVEL,
                fragment_type="bit",
            ),
        ),
    )
    with pytest.raises(Exception) as err:
        registry.register_domain_library(library)
    assert "combiner" in str(err.value)


def test_alias_collision_rejected(registry):
    clash = DomainLibraryDescriptor(
        name="other",
        object_types=(
            ObjectTypeInfo(name="cyclon-path", structure_level=StructureLevel.ATOMIC),
        ),
    )
    with pytest.raises(DuplicateName):
        registry.register_domain_library(clash)


def test_lookups_do_not_mutate(registry):
    before = (
        dict(registry.libraries),
        dict(registry.packages),
        dict(registry._object_index),
    )
    registry.resolve_object_type("cyclon-path")
    registry.resolve_package("BSM")
    with pytest.raises(UnknownObjectType):
        registry.resolve_object_type("nothing-here")
    assert before == (
        dict(registry.libraries),
        dict(registry.packages),
        dict(registry._object_index),
    )


names = st.from_regex(r"[a-z][a-z0-9]{0,8}", fullmatch=True)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(names, st.lists(names, max_size=2, unique=True)), max_size=40))
def test_resolution_matches_reference_map(entries):
    # a plain dict independently tracking name -> canonical is the oracle;
    # repeated lookups must agree with it on every key, every time
    registry = KnowledgeRegistry()
    oracle: dict[str, str] = {}
    for index, (name, aliases) in enumerate(entries):
        keys = [name, *aliases]
        library = DomainLibraryDescriptor(
            name=f"lib{index}",
            object_types=(
                ObjectTypeInfo(
                    name=name,
                    aliases=tuple(aliases),
                    structure_level=StructureLevel.ATOMIC,
                ),
            ),
        )
        try:
            registry.register_domain_library(library)
        except DuplicateName:
            assert any(k in oracle for k in keys)
            continue
        assert not any(k in oracle for k in keys)
        for k in keys:
            oracle[k] = name
    for _ in range(2):  # repeated calls return the same answers
        for key, canonical in oracle.items():
            assert registry.resolve_object_type(key).info.name == canonical


def test_alias_closure(registry):
    for library in registry.libraries.values():
        for info in library.object_types:
            for alias in info.aliases:
                assert registry.resolve_object_type(alias) == registry.resolve_object_type(
                    info.name
                )


@pytest.mark.parametrize(
    "object_types",
    [
        (ObjectTypeInfo("p", aliases=("q",), structure_level=StructureLevel.ATOMIC),) * 2,
        (
            ObjectTypeInfo("p", structure_level=StructureLevel.ATOMIC),
            ObjectTypeInfo("r", aliases=("p",), structure_level=StructureLevel.ATOMIC),
        ),
    ],
    ids=["object-twice", "alias-of-another-object"],
)
def test_name_repeated_within_one_library_rejected(object_types):
    registry = KnowledgeRegistry()
    library = DomainLibraryDescriptor(name="lib", object_types=object_types)
    with pytest.raises(DuplicateName, match="object type or alias 'p'"):
        registry.register_domain_library(library)
    assert registry.libraries == {} and registry._object_index == {}


OTHER = DomainLibraryDescriptor(
    name="other",
    object_types=(
        ObjectTypeInfo("storm", structure_level=StructureLevel.ATOMIC,
                       output_params=(("Depth", "float"),)),
    ),
    extractors=(("grid", "other.extract"),),
    combiners=(("storm", "other.combine"),),
    filters=(("storm", "direction", "other.filter"),),
    keyword_aliases=(("dir", "direction"),),
)
OTHER_PROCEDURES = {"other.extract": repr, "other.combine": repr, "other.filter": repr}


@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(extractors=(("grid", "other.extract"), ("grid", "other.combine"))),
         "extractor for file kind 'grid' declared twice"),
        (dict(combiners=(("storm", "other.combine"),) * 2),
         "combiner for object type 'storm' declared twice"),
        (dict(filters=(("storm", "direction", "other.filter"),
                       ("storm", "direction", "other.extract"))),
         "filter ('storm', 'direction') declared twice"),
        (dict(keyword_aliases=(("dir", "direction"), ("dir", "heading"))),
         "keyword alias 'dir' declared twice"),
        (dict(object_types=(
            replace(OTHER.object_types[0], output_params=(("Depth", "float"),) * 2),
        )), "parameter of storm 'Depth' declared twice"),
        (dict(combiners=(("gale", "other.combine"),)),
         "a combiner or filter names undeclared type 'gale'"),
        (dict(filters=(("gale", "direction", "other.filter"),)),
         "a combiner or filter names undeclared type 'gale'"),
        (dict(extractors=(("grid", "other.missing"),)), "procedure 'other.missing' not registered"),
        (dict(record_codecs=(("grid", "other.filter", "other.missing"),)),
         "procedure 'other.missing' not registered"),
        (dict(record_codecs=(("grib", "other.filter", "other.combine"),)),
         "a record codec names file kind 'grib', with no extractor"),
        (dict(record_codecs=(("grid", "other.filter", "other.combine"),) * 2),
         "record codec for file kind 'grid' declared twice"),
    ],
    ids=["extractor-twice", "combiner-twice", "filter-twice", "keyword-alias-twice",
         "param-twice", "combiner-of-undeclared-type", "filter-of-undeclared-type",
         "unregistered-procedure", "unregistered-codec", "codec-without-extractor",
         "codec-twice"],
)
def test_faulty_library_refused_and_registry_unchanged(registry, changes, message):
    before = (dict(registry.libraries), dict(registry.procedures), dict(registry._object_index))
    with pytest.raises(RegistryError) as err:
        registry.register_domain_library(replace(OTHER, **changes), dict(OTHER_PROCEDURES))
    assert str(err.value) == message
    after = (dict(registry.libraries), dict(registry.procedures), dict(registry._object_index))
    assert after == before
    registry.register_domain_library(OTHER, OTHER_PROCEDURES)  # without the fault it registers
    assert registry.resolve_object_type("storm").filters == {
        "direction": "other.filter", "dir": "other.filter"
    }


@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(inputs=(*bsm_descriptor().inputs, PackageInput("cyclone", "cyclone-params"))),
         "package BSM: input 'cyclone' declared twice"),
        (dict(outputs=(*bsm_descriptor().outputs, PackageOutputDecl("level", "float"))),
         "package BSM: output 'level' declared twice"),
    ],
    ids=["input-twice", "output-twice"],
)
def test_package_name_declared_twice_refused(changes, message):
    registry = KnowledgeRegistry()
    with pytest.raises(DuplicateName) as err:
        registry.register_package(replace(bsm_descriptor(), **changes), procedure=repr)
    assert str(err.value) == message
    assert (registry.packages, registry.procedures) == ({}, {})


@pytest.mark.parametrize("procedure, proc_id", [("nope.missing", "nope.missing"), (None, "Ghost")])
def test_builtin_package_without_its_procedure_refused(registry, procedure, proc_id):
    # the procedure id is the package's procedure, else its name
    ghost = PackageDescriptor("Ghost", procedure=procedure)
    before = (dict(registry.packages), dict(registry.procedures))
    with pytest.raises(RegistryError) as err:
        registry.register_package(ghost)
    assert str(err.value) == f"package Ghost: procedure {proc_id!r} not registered"
    assert (registry.packages, registry.procedures) == before
    # given with its procedure it registers, and then another package may share it
    registry.register_package(ghost, procedure=repr)
    registry.register_package(replace(ghost, name="Echo", procedure=proc_id))
    assert registry.procedures[proc_id] is repr


# one strategy per scalar type: aware UTC datetimes at whole seconds,
# durations in whole hours up to the parser's largest literal
SCALAR_VALUES = {
    "bool": st.booleans(),
    "datetime": st.datetimes(timezones=st.just(UTC)).map(lambda t: t.replace(microsecond=0)),
    "duration": st.integers(0, 23999999999).map(lambda hours: timedelta(hours=hours)),
    "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(),
}


@pytest.mark.parametrize("name", SCALAR_TYPES)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_scalar_type_reads_back_what_it_writes(name, data):
    scalar = SCALAR_TYPES[name]
    value = data.draw(SCALAR_VALUES[name])
    assert isinstance(value, scalar.python_type)
    assert scalar.read(scalar.write(value)) == value
