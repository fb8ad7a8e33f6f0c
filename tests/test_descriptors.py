from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dslake.descriptors import (
    LIBRARY_KEYS,
    PACKAGE_KEYS,
    dump_descriptors,
    load_descriptor_file,
    load_descriptors,
)
from dslake.errors import DescriptorLoadError, DuplicateName, RegistryError
from dslake.registry import (
    DomainLibraryDescriptor,
    ExecutionMode,
    KnowledgeRegistry,
    ObjectTypeInfo,
    PackageDescriptor,
    PackageInput,
    PackageOutputDecl,
    Placement,
    StructureLevel,
)
from dslake.cyclone.plugin import bsm_descriptor, library_descriptor, register_cyclone_domain

SAMPLE = """\
# the storm-surge service
[package BSM]
input startTime datetime required
input cyclone cyclone-params required
input horizon duration optional 96h
output level timeseries-cm indexable
mode builtin
placement aggregator
procedure cyclone.bsm

[library cyclone]
object cyclone-path high-level center-set
alias cyclone-path cyclon-path
param cyclone-path EndTime datetime
extractor grid cyclone.extract_centers
record-codec grid cyclone.write_centers cyclone.read_centers
combiner cyclone-path cyclone.combine_paths
filter cyclone-path direction cyclone.filter_direction
keyword-alias directon direction
"""


def test_sample_loads():
    libraries, packages = load_descriptors(SAMPLE)
    assert [lib.name for lib in libraries] == ["cyclone"]
    assert [pkg.name for pkg in packages] == ["BSM"]
    pkg = packages[0]
    assert pkg.input_named("horizon").default == "96h"
    assert pkg.output_named("level").indexable
    lib = libraries[0]
    assert lib.object_types[0].aliases == ("cyclon-path",)
    assert lib.keyword_aliases == (("directon", "direction"),)
    assert lib.record_codecs == (("grid", "cyclone.write_centers", "cyclone.read_centers"),)


def test_unknown_key_is_load_error():
    with pytest.raises(DescriptorLoadError) as err:
        load_descriptors("[package P]\nfrobnicate yes\n")
    assert err.value.line == 2


def test_content_before_section_rejected():
    with pytest.raises(DescriptorLoadError):
        load_descriptors("input x int required\n")


def test_bad_section_header():
    with pytest.raises(DescriptorLoadError):
        load_descriptors("[widget W]\n")


def test_builtin_descriptors_round_trip():
    libraries = [library_descriptor()]
    packages = [bsm_descriptor()]
    text = dump_descriptors(libraries, packages)
    loaded_libs, loaded_pkgs = load_descriptors(text)
    assert loaded_libs == libraries
    assert loaded_pkgs == packages


# --- random descriptor round-trip --------------------------------------------

names = st.from_regex(r"[a-z][a-z0-9-]{0,8}[a-z0-9]", fullmatch=True)
type_tags = st.sampled_from(["int", "float", "datetime", "duration", "timeseries-cm"])
proc_ids = st.from_regex(r"[a-z]{1,6}\.[a-z]{1,8}", fullmatch=True)

package_inputs = st.builds(
    PackageInput,
    name=st.from_regex(r"[a-z][A-Za-z0-9]{0,8}", fullmatch=True),
    semantic_type=type_tags,
    required=st.booleans(),
    default=st.none() | st.from_regex(r"[0-9]{1,3}h?", fullmatch=True),
)
package_outputs = st.builds(
    PackageOutputDecl,
    name=st.from_regex(r"[a-z][a-z0-9]{0,8}", fullmatch=True),
    semantic_type=type_tags,
    indexable=st.booleans(),
)
packages = st.builds(
    PackageDescriptor,
    name=st.from_regex(r"[A-Z][A-Za-z0-9-]{0,8}", fullmatch=True),
    inputs=st.lists(package_inputs, max_size=4, unique_by=lambda i: i.name).map(tuple),
    outputs=st.lists(package_outputs, max_size=3, unique_by=lambda o: o.name).map(tuple),
    execution_mode=st.sampled_from(ExecutionMode),
    placement=st.sampled_from(Placement),
    command_template=st.none() | st.just("runner --out {outdir}"),
    procedure=st.none() | proc_ids,
)

object_infos = st.builds(
    ObjectTypeInfo,
    name=names,
    aliases=st.lists(names, max_size=2, unique=True).map(tuple),
    structure_level=st.sampled_from(StructureLevel),
    output_params=st.lists(
        st.tuples(st.from_regex(r"[A-Z][a-zA-Z]{0,7}", fullmatch=True), type_tags),
        max_size=4,
        unique_by=lambda p: p[0],
    ).map(tuple),
    fragment_type=st.none() | names,
)


def _library_of(object_types: tuple) -> st.SearchStrategy:
    """Libraries declaring ``object_types``, whose combiners and filters name
    those types, as a .kd file must."""
    types = st.sampled_from([info.name for info in object_types] or [""])
    most = 1 if object_types else 0  # combiners and filters only with a type to name
    return st.builds(
        DomainLibraryDescriptor,
        name=names,
        object_types=st.just(object_types),
        extractors=st.lists(
            st.tuples(names, proc_ids), max_size=2, unique_by=lambda e: e[0]
        ).map(tuple),
        record_codecs=st.lists(
            st.tuples(names, proc_ids, proc_ids), max_size=2, unique_by=lambda c: c[0]
        ).map(tuple),
        combiners=st.lists(
            st.tuples(types, proc_ids), max_size=2 * most, unique_by=lambda c: c[0]
        ).map(tuple),
        filters=st.lists(
            st.tuples(types, names, proc_ids), max_size=3 * most, unique_by=lambda f: (f[0], f[1])
        ).map(tuple),
        keyword_aliases=st.lists(
            st.tuples(names, names), max_size=2, unique_by=lambda a: a[0]
        ).map(tuple),
    )


libraries = st.lists(object_infos, max_size=3, unique_by=lambda o: o.name).map(tuple).flatmap(
    _library_of
)


@settings(max_examples=120)
@given(st.lists(libraries, max_size=2, unique_by=lambda l: l.name),
       st.lists(packages, max_size=2, unique_by=lambda p: p.name))
def test_descriptor_round_trip(libs, pkgs):
    text = dump_descriptors(libs, pkgs)
    loaded_libs, loaded_pkgs = load_descriptors(text)
    assert loaded_libs == libs
    assert loaded_pkgs == pkgs


def _first(rows, key):
    """The last word of the first row that begins with ``key``: each lookup
    of the registry as a scan of the declared tuples."""
    return next((row[-1] for row in rows if row[:len(key)] == key), None)


@settings(max_examples=100, deadline=None)
@given(libraries, st.data())
def test_index_answers_as_a_first_match_scan(lib, data):
    # point combiners and filters at declared types, keyword aliases at
    # filter keywords, and complete the high-level types, so that most
    # drawn libraries register and their aliases meet their filters
    types = [info.name for info in lib.object_types]
    assume(types)
    combiners = tuple(zip(types, (proc_id for _, proc_id in lib.combiners)))
    filters = {}
    for _, keyword, proc_id in lib.filters:
        filters.setdefault((data.draw(st.sampled_from(types)), keyword), proc_id)
    words = st.sampled_from([*(kw for _, kw in filters), *dict(lib.keyword_aliases)])
    aliases = {data.draw(words): data.draw(words) for _ in lib.keyword_aliases}
    high = [otype for otype, _ in combiners]
    lib = replace(
        lib,
        object_types=tuple(
            replace(info, fragment_type=info.fragment_type or "part")
            if info.name in high else replace(info, structure_level=StructureLevel.ATOMIC)
            for info in lib.object_types
        ),
        combiners=combiners,
        filters=tuple((*key, proc_id) for key, proc_id in filters.items()),
        keyword_aliases=tuple(aliases.items()),
        record_codecs=tuple(c for c in lib.record_codecs if c[0] in dict(lib.extractors)),
    )
    registry = KnowledgeRegistry()
    ids = {row[-1] for row in (*lib.extractors, *lib.combiners, *lib.filters)}
    ids.update(proc_id for codec in lib.record_codecs for proc_id in codec[1:])
    try:
        registry.register_domain_library(lib, dict.fromkeys(ids, repr))
    except DuplicateName:  # an alias that is another type's name
        assume(False)

    keywords = {"nope", *(kw for _, kw, _ in lib.filters), *sum(lib.keyword_aliases, ())}
    for key in {key for info in lib.object_types for key in (info.name, *info.aliases)}:
        info = next(i for i in lib.object_types if key in (i.name, *i.aliases))
        knowledge = registry.resolve_object_type(key)
        assert (knowledge.info, knowledge.library) == (info, lib.name)
        assert knowledge.combiner == _first(lib.combiners, (info.name,))
        extractors = {kind: _first(lib.extractors, (kind,)) for kind, _ in lib.extractors}
        assert list(knowledge.extractors.items()) == list(extractors.items())  # in order
        assert {kind: tuple(ids) for kind, ids in knowledge.record_codecs.items()} == {
            kind: tuple(ids) for kind, *ids in lib.record_codecs
        }
        for name in {"Nope", *(name for name, _ in info.output_params)}:
            assert knowledge.params.get(name) == _first(info.output_params, (name,))
        for keyword in keywords:
            canonical = _first(lib.keyword_aliases, (keyword,)) or keyword
            assert knowledge.filters.get(keyword) == _first(lib.filters, (info.name, canonical))
        assert set(knowledge.filters) <= keywords


# --- malformed lines --------------------------------------------------------------

@pytest.mark.parametrize(
    "text, line, message",
    [
        ("[package P]\noutput level timeseries-cm indexable extra\n", 2,
         "output <name> <semantic-type> [indexable]"),
        ("[package P]\ninput h duration optional 96h junk more\n", 2,
         "input <name> <semantic-type> required|optional [<default>]"),
        ("[package P]\nprocedure a b c\n", 2, "procedure <procedure-id>"),
        ("[library L]\nobject x atomic\nobject x atomic\n", 3, "object 'x' declared twice"),
        ("[package P]\ninput h duration\n", 2,
         "input <name> <semantic-type> required|optional [<default>]"),
        ("[package P]\nmode remote\n", 2, "mode builtin|external"),
        ("[package P]\nmode builtin\n\nmode external\n", 4, "mode given twice in one section"),
        ("[library L]\nparam x Depth float\n", 2,
         "param names object 'x', not declared in this library"),
        ("[library L]\nextractor grid a.b\nextractor grid a.c\n", 3,
         "extractor 'grid' declared twice"),
        ("[library L]\nobject x atomic\ncombiner x a.b\n\ncombiner x a.b\n", 5,
         "combiner 'x' declared twice"),
        ("[library L]\nobject x atomic\nobject y atomic\nfilter x dir a.b\nfilter y dir a.b\n"
         "filter x dir a.c\n", 6, "filter ('x', 'dir') declared twice"),
        ("[library L]\nkeyword-alias d dir\nkeyword-alias d heading\n", 3,
         "keyword-alias 'd' declared twice"),
        ("[library L]\nobject x atomic\nparam x Depth float\nparam x Depth int\n", 4,
         "param 'Depth' declared twice"),
        ("[library L]\nobject x atomic\ncombiner ghost a.b\n", 3,
         "combiner names object 'ghost', not declared in this library"),
        ("[library L]\nobject x atomic\nfilter ghost dir a.b\n", 3,
         "filter names object 'ghost', not declared in this library"),
        ("[library L]\ncombiner x a.b\nobject x atomic\n", 2,
         "combiner names object 'x', not declared in this library"),
    ],
    ids=["extra-flag-word", "extra-default-words", "procedure-words", "object-twice",
         "missing-words", "enum", "scalar-twice", "undeclared-object", "extractor-twice",
         "combiner-twice", "filter-twice", "keyword-alias-twice", "param-twice",
         "combiner-of-undeclared-type", "filter-of-undeclared-type", "combiner-before-its-type"],
)
def test_malformed_line_is_load_error(text, line, message):
    with pytest.raises(DescriptorLoadError) as err:
        load_descriptors(text)
    assert err.value.line == line
    assert str(err.value) == f"<string>:{line}: {message}"


@pytest.mark.parametrize(
    "package",
    [
        PackageDescriptor("P", command_template="runner --tag #1 {outdir}"),  # '#' starts a comment
        PackageDescriptor("P", inputs=(PackageInput("a b", "int"),)),  # a word with a space
        PackageDescriptor("P", command_template=""),  # written as no line at all
    ],
    ids=["hash", "space", "empty"],
)
def test_dump_refuses_what_would_not_load_back(package):
    with pytest.raises(ValueError, match="package 'P' does not read back"):
        dump_descriptors([], [package])


# --- fuzzing: any input gives descriptors or a typed error -------------------------

VOCABULARY = [
    "x", "y", "P", "cyclone-path", "cyclon-path", "grid", "direction", "int", "float",
    "duration", "datetime", "96h", "4d", "9x", "2011-01-01T00:00Z", "{outdir}",
    "{input:x}", "{x}", "cyclone.extract_centers", "cyclone.combine_paths",
    "cyclone.filter_direction", "cyclone.bsm", "required", "high-level", "#",
]


@st.composite
def kd_sections(draw):
    """A section whose lines mostly fit their key's usage: now and then a
    word is wrong or extra, or a line is arbitrary text."""
    kind, keys = draw(st.sampled_from([("package", PACKAGE_KEYS), ("library", LIBRARY_KEYS)]))
    lines = [f"[{kind} {draw(st.sampled_from(['P', 'Q', 'L', 'M', 'BSM', 'cyclone']))}]"]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 19)) == 0:
            lines.append(draw(st.text(max_size=12)))
            continue
        word = draw(st.sampled_from(sorted(keys)))
        words = [word]
        for slot in keys[word].usage.split():
            if slot.startswith("[") and draw(st.booleans()):
                break
            choices = slot.strip("[]")
            if choices.startswith("<") or draw(st.integers(0, 19)) == 0:
                words.append(draw(st.sampled_from(VOCABULARY)))
            else:
                words.append(draw(st.sampled_from(choices.split("|"))))
        if draw(st.integers(0, 19)) == 0:
            words.append(draw(st.sampled_from(VOCABULARY)))
        lines.append(" ".join(words))
    return "\n".join(lines)


kd_texts = st.lists(kd_sections(), max_size=3).map("\n".join) | st.text(max_size=40)


def _load_or_error(text):
    try:
        return load_descriptors(text)
    except DescriptorLoadError:
        return None


@settings(max_examples=300, deadline=None)
@given(kd_texts)
def test_any_text_loads_or_is_load_error(text):
    loaded = _load_or_error(text)
    if loaded is not None:  # what loads obeys the round-trip law
        assert load_descriptors(dump_descriptors(*loaded)) == loaded


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=200) | kd_texts.map(lambda t: t.encode("utf-8", "surrogatepass")))
def test_any_bytes_load_or_are_load_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.kd"
    path.write_bytes(data)
    try:
        load_descriptor_file(path)
    except DescriptorLoadError as exc:
        assert exc.path == str(path)


@settings(max_examples=300, deadline=None)
@given(kd_texts)
def test_what_loads_registers_or_is_registry_error(text):
    loaded = _load_or_error(text)
    if loaded is None:
        return
    registry = register_cyclone_domain(KnowledgeRegistry())
    try:
        for library in loaded[0]:
            registry.register_domain_library(library)
        for package in loaded[1]:
            registry.register_package(package)
    except RegistryError:
        pass
