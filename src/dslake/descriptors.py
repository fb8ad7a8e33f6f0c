"""Loading and writing declarative knowledge descriptors (``.kd`` files).

Line-oriented UTF-8 text: a ``[package NAME]`` or ``[library NAME]``
section header, then ``<key> <words...>`` lines; ``#`` starts a comment.
The key tables ``PACKAGE_KEYS`` and ``LIBRARY_KEYS`` are the format's
single definition, read by both ``load_descriptors`` and
``dump_descriptors``: each key's descriptor field, word grammar and word
conversions. An unknown key, a line whose words do not fit its grammar, a
single-valued key given twice, an item whose ``unique`` key repeats in
its field and a line that names an object its library has not declared
above it are load errors, as they are at registration. Loading the dumped
text gives back the descriptors (round-trip law); the dumper refuses a
value that would not read back, such as a word holding a space or a
``#``. Procedure ids are resolved when the registry registers a
descriptor, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Any, Callable

from dslake.errors import DescriptorLoadError, numbered_lines, undecodable_at
from dslake.registry import (
    DomainLibraryDescriptor,
    ExecutionMode,
    ObjectTypeInfo,
    PackageDescriptor,
    PackageInput,
    PackageOutputDecl,
    Placement,
    StructureLevel,
)


@dataclass(frozen=True)
class Key:
    """One kind of line. ``usage`` is the grammar of the words after the key:
    ``<x>`` any word, ``a|b`` one of these, ``[...]`` an optional trailing
    slot (``None`` when absent), ``<x...>`` the rest of the line. ``load``
    makes a field item of the words and ``dump`` gives them back; a tuple
    field collects an item per line, any other field takes one line."""

    field: str
    usage: str
    load: Callable[..., Any] = lambda *words: words
    dump: Callable[[Any], tuple] = lambda item: item
    names_object: bool = False  # the first word names an object declared above it
    per_object: bool = False  # and the rest of the line is an item of that object
    unique: Callable[[Any], Any] | None = None  # a key no two items of the field share


def _choices(enum: type[Enum]) -> str:
    return "|".join(member.value for member in enum)


PACKAGE_KEYS = {
    "input": Key(
        "inputs", "<name> <semantic-type> required|optional [<default>]",
        lambda name, type_, need, default: PackageInput(name, type_, need == "required", default),
        lambda inp: (inp.name, inp.semantic_type,
                     "required" if inp.required else "optional", inp.default),
        unique=lambda item: item.name,
    ),
    "output": Key(
        "outputs", "<name> <semantic-type> [indexable]",
        lambda name, type_, indexable: PackageOutputDecl(name, type_, indexable is not None),
        lambda out: (out.name, out.semantic_type, "indexable" if out.indexable else None),
        unique=lambda item: item.name,
    ),
    "mode": Key("execution_mode", _choices(ExecutionMode), ExecutionMode, lambda m: (m.value,)),
    "placement": Key("placement", _choices(Placement), Placement, lambda p: (p.value,)),
    "command": Key("command_template", "<template...>", str, lambda text: (text,)),
    "procedure": Key("procedure", "<procedure-id>", str, lambda proc_id: (proc_id,)),
}

LIBRARY_KEYS = {
    "object": Key(
        "object_types", f"<name> {_choices(StructureLevel)} [<fragment-type>]",
        lambda name, level, fragment: ObjectTypeInfo(
            name, structure_level=StructureLevel(level), fragment_type=fragment
        ),
        lambda info: (info.name, info.structure_level.value, info.fragment_type),
        unique=lambda item: item.name,
    ),
    "alias": Key("aliases", "<object> <alias>", str, lambda alias: (alias,),
                 names_object=True, per_object=True),
    "param": Key("output_params", "<object> <name> <semantic-type>",
                 names_object=True, per_object=True, unique=lambda words: words[0]),
    "extractor": Key("extractors", "<file-kind> <procedure-id>", unique=lambda words: words[0]),
    "record-codec": Key("record_codecs", "<file-kind> <writer-id> <reader-id>",
                        unique=lambda words: words[0]),
    "combiner": Key("combiners", "<object> <procedure-id>", names_object=True,
                    unique=lambda words: words[0]),
    "filter": Key("filters", "<object> <keyword> <procedure-id>", names_object=True,
                  unique=lambda words: words[:2]),
    "keyword-alias": Key("keyword_aliases", "<alias> <canonical>", unique=lambda words: words[0]),
}

_SECTIONS = {
    "package": (PackageDescriptor, PACKAGE_KEYS),
    "library": (DomainLibraryDescriptor, LIBRARY_KEYS),
}

Descriptor = DomainLibraryDescriptor | PackageDescriptor


def load_descriptors(
    text: str, source: str = "<string>"
) -> tuple[list[DomainLibraryDescriptor], list[PackageDescriptor]]:
    done: list[Descriptor] = []
    keys: dict[str, Key] = {}
    given: set[str] = set()  # the keys given so far in the current section

    for lineno, line in numbered_lines(text):
        if line.startswith("["):
            if not line.endswith("]"):
                raise DescriptorLoadError(source, lineno, "unterminated section header")
            head = line[1:-1].split()
            if len(head) != 2 or head[0] not in _SECTIONS:
                raise DescriptorLoadError(
                    source, lineno, "section must be [package NAME] or [library NAME]"
                )
            kind, keys = _SECTIONS[head[0]]
            done.append(kind(name=head[1]))
            given = set()
            continue
        if not done:
            raise DescriptorLoadError(source, lineno, "content before first section")
        word, _, rest = line.partition(" ")
        if word not in keys:
            raise DescriptorLoadError(source, lineno, f"unknown key {word!r}")
        key = keys[word]
        words = _words(key.usage, rest.strip())
        if words is None:
            raise DescriptorLoadError(source, lineno, f"{word} {key.usage}")
        try:
            done[-1] = _add(done[-1], key, words, word in given)
        except ValueError as exc:
            raise DescriptorLoadError(source, lineno, f"{word} {exc}") from None
        given.add(word)

    return (
        [d for d in done if isinstance(d, DomainLibraryDescriptor)],
        [d for d in done if isinstance(d, PackageDescriptor)],
    )


def load_descriptor_file(
    path: Path,
) -> tuple[list[DomainLibraryDescriptor], list[PackageDescriptor]]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DescriptorLoadError(str(path), undecodable_at(exc)[0], "not UTF-8 text") from None
    return load_descriptors(text, source=str(path))


def dump_descriptors(
    libraries: list[DomainLibraryDescriptor], packages: list[PackageDescriptor]
) -> str:
    """The ``.kd`` text of the descriptors; ``ValueError`` for a descriptor
    whose text would not load back as itself."""
    blocks = []
    for desc in (*libraries, *packages):
        section = "library" if isinstance(desc, DomainLibraryDescriptor) else "package"
        keys = _SECTIONS[section][1]
        lines = [f"[{section} {desc.name}]"]
        for word, key in keys.items():
            if key.per_object:
                continue
            for item in _items(getattr(desc, key.field)):
                lines.append(_line(word, key.dump(item)))
                if word != "object":
                    continue
                for sub_word, sub in keys.items():  # an object's own lines follow it
                    if sub.per_object:
                        lines += [
                            _line(sub_word, (item.name, *sub.dump(part)))
                            for part in getattr(item, sub.field)
                        ]
        block = "\n".join(lines)
        try:
            loaded = load_descriptors(block)
        except DescriptorLoadError:
            loaded = None
        if loaded not in (([desc], []), ([], [desc])):
            raise ValueError(f"{section} {desc.name!r} does not read back from its .kd text")
        blocks.append(block)
    return "\n\n".join(blocks) + "\n"


def _words(usage: str, rest: str) -> list[str | None] | None:
    """The words of ``rest`` in the slots of ``usage``, padded with ``None``
    for absent optional slots; ``None`` when ``rest`` does not fit."""
    slots = usage.split()
    if slots[-1].endswith("...>"):
        return [rest] if rest else None
    words: list[str | None] = list(rest.split())
    if not sum(not slot.startswith("[") for slot in slots) <= len(words) <= len(slots):
        return None
    words += [None] * (len(slots) - len(words))
    for slot, word in zip(slots, words):
        choices = slot.strip("[]")
        if word is not None and not choices.startswith("<") and word not in choices.split("|"):
            return None
    return words


def _add(desc: Descriptor, key: Key, words: list, repeated: bool) -> Descriptor:
    """``desc`` with the item of one line added to ``key.field``."""
    if key.names_object:
        names = [info.name for info in desc.object_types]
        if words[0] not in names:
            raise ValueError(f"names object {words[0]!r}, not declared in this library")
    if not key.per_object:
        return _put(desc, key, key.load(*words), repeated)
    i = names.index(words[0])
    info = _put(desc.object_types[i], key, key.load(*words[1:]), repeated)
    return replace(desc, object_types=(*desc.object_types[:i], info, *desc.object_types[i + 1:]))


def _put(target: Any, key: Key, item: Any, repeated: bool) -> Any:
    old = getattr(target, key.field)
    if not isinstance(old, tuple):
        if repeated:
            raise ValueError("given twice in one section")
        return replace(target, **{key.field: item})
    if key.unique and any(key.unique(other) == key.unique(item) for other in old):
        raise ValueError(f"{key.unique(item)!r} declared twice")
    return replace(target, **{key.field: (*old, item)})


def _items(value: Any) -> tuple:
    if isinstance(value, tuple):
        return value
    return () if value is None else (value,)


def _line(word: str, words: tuple) -> str:
    return " ".join([word, *(w for w in words if w is not None)])
