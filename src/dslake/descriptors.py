"""Loading and writing declarative knowledge descriptors (``.kd`` files).

Line-oriented key-value text with section headers, UTF-8, ``#`` comments.
Unknown keys are a load error. Two section kinds:

    [package NAME]
    input <name> <semantic-type> required|optional [<default>]
    output <name> <semantic-type> [indexable]
    mode builtin|external
    placement aggregator|node
    command <template...>            # external mode
    procedure <procedure-id>         # builtin mode

    [library NAME]
    object <name> atomic|file-level|high-level [<fragment-type>]
    alias <object-name> <alias>
    param <object-name> <param-name> <semantic-type>
    extractor <file-kind> <procedure-id>
    combiner <object-name> <procedure-id>
    filter <object-name> <keyword> <procedure-id>
    keyword-alias <alias> <canonical>

Descriptors loaded from text compare equal to the ones that produced the
text (round-trip law); executable procedure ids are resolved against the
registry's procedure table at registration time, not here.
"""

from __future__ import annotations

from pathlib import Path

from dslake.errors import DescriptorLoadError, undecodable_at
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

_LEVELS = {level.value: level for level in StructureLevel}
_MODES = {mode.value: mode for mode in ExecutionMode}
_PLACEMENTS = {placement.value: placement for placement in Placement}


def load_descriptors(
    text: str, source: str = "<string>"
) -> tuple[list[DomainLibraryDescriptor], list[PackageDescriptor]]:
    libraries: list[DomainLibraryDescriptor] = []
    packages: list[PackageDescriptor] = []
    section: _PackageBuilder | _LibraryBuilder | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise DescriptorLoadError(source, lineno, "unterminated section header")
            if section is not None:
                _finish(section, libraries, packages, source)
            head = line[1:-1].split()
            if len(head) != 2 or head[0] not in ("package", "library"):
                raise DescriptorLoadError(
                    source, lineno, "section must be [package NAME] or [library NAME]"
                )
            if head[0] == "package":
                section = _PackageBuilder(head[1], lineno)
            else:
                section = _LibraryBuilder(head[1], lineno)
            continue
        if section is None:
            raise DescriptorLoadError(source, lineno, "content before first section")
        section.feed(line, lineno, source)

    if section is not None:
        _finish(section, libraries, packages, source)
    return libraries, packages


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
    blocks = []
    for lib in libraries:
        lines = [f"[library {lib.name}]"]
        for info in lib.object_types:
            entry = f"object {info.name} {info.structure_level.value}"
            if info.fragment_type:
                entry += f" {info.fragment_type}"
            lines.append(entry)
            for alias in info.aliases:
                lines.append(f"alias {info.name} {alias}")
            for pname, ptype in info.output_params:
                lines.append(f"param {info.name} {pname} {ptype}")
        for kind, proc_id in lib.extractors:
            lines.append(f"extractor {kind} {proc_id}")
        for otype, proc_id in lib.combiners:
            lines.append(f"combiner {otype} {proc_id}")
        for otype, keyword, proc_id in lib.filters:
            lines.append(f"filter {otype} {keyword} {proc_id}")
        for alias, canonical in lib.keyword_aliases:
            lines.append(f"keyword-alias {alias} {canonical}")
        blocks.append("\n".join(lines))
    for pkg in packages:
        lines = [f"[package {pkg.name}]"]
        for inp in pkg.inputs:
            entry = f"input {inp.name} {inp.semantic_type}"
            entry += " required" if inp.required else " optional"
            if inp.default is not None:
                entry += f" {inp.default}"
            lines.append(entry)
        for out in pkg.outputs:
            entry = f"output {out.name} {out.semantic_type}"
            if out.indexable:
                entry += " indexable"
            lines.append(entry)
        lines.append(f"mode {pkg.execution_mode.value}")
        lines.append(f"placement {pkg.placement.value}")
        if pkg.command_template:
            lines.append(f"command {pkg.command_template}")
        if pkg.procedure:
            lines.append(f"procedure {pkg.procedure}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


class _PackageBuilder:
    def __init__(self, name: str, lineno: int):
        self.name = name
        self.lineno = lineno
        self.inputs: list[PackageInput] = []
        self.outputs: list[PackageOutputDecl] = []
        self.mode = ExecutionMode.BUILTIN
        self.placement = Placement.ON_AGGREGATOR
        self.command: str | None = None
        self.procedure: str | None = None

    def feed(self, line: str, lineno: int, source: str) -> None:
        key, _, rest = line.partition(" ")
        fields = rest.split()
        if key == "input":
            if len(fields) < 3 or fields[2] not in ("required", "optional"):
                raise DescriptorLoadError(
                    source, lineno, "input <name> <type> required|optional [default]"
                )
            default = fields[3] if len(fields) > 3 else None
            self.inputs.append(
                PackageInput(fields[0], fields[1], fields[2] == "required", default)
            )
        elif key == "output":
            if len(fields) < 2 or (len(fields) == 3 and fields[2] != "indexable"):
                raise DescriptorLoadError(
                    source, lineno, "output <name> <type> [indexable]"
                )
            self.outputs.append(
                PackageOutputDecl(fields[0], fields[1], len(fields) == 3)
            )
        elif key == "mode":
            if rest not in _MODES:
                raise DescriptorLoadError(source, lineno, f"unknown mode {rest!r}")
            self.mode = _MODES[rest]
        elif key == "placement":
            if rest not in _PLACEMENTS:
                raise DescriptorLoadError(source, lineno, f"unknown placement {rest!r}")
            self.placement = _PLACEMENTS[rest]
        elif key == "command":
            self.command = rest
        elif key == "procedure":
            self.procedure = rest
        else:
            raise DescriptorLoadError(source, lineno, f"unknown package key {key!r}")

    def build(self) -> PackageDescriptor:
        return PackageDescriptor(
            name=self.name,
            inputs=tuple(self.inputs),
            outputs=tuple(self.outputs),
            execution_mode=self.mode,
            placement=self.placement,
            command_template=self.command,
            procedure=self.procedure,
        )


class _LibraryBuilder:
    def __init__(self, name: str, lineno: int):
        self.name = name
        self.lineno = lineno
        self.objects: dict[str, dict] = {}
        self.order: list[str] = []
        self.extractors: list[tuple[str, str]] = []
        self.combiners: list[tuple[str, str]] = []
        self.filters: list[tuple[str, str, str]] = []
        self.keyword_aliases: list[tuple[str, str]] = []

    def _object(self, name: str, lineno: int, source: str) -> dict:
        obj = self.objects.get(name)
        if obj is None:
            raise DescriptorLoadError(
                source, lineno, f"object {name!r} not declared in this library"
            )
        return obj

    def feed(self, line: str, lineno: int, source: str) -> None:
        key, _, rest = line.partition(" ")
        fields = rest.split()
        if key == "object":
            if len(fields) < 2 or fields[1] not in _LEVELS:
                raise DescriptorLoadError(
                    source, lineno, "object <name> atomic|file-level|high-level [fragment]"
                )
            self.objects[fields[0]] = {
                "level": _LEVELS[fields[1]],
                "fragment": fields[2] if len(fields) > 2 else None,
                "aliases": [],
                "params": [],
            }
            self.order.append(fields[0])
        elif key == "alias":
            if len(fields) != 2:
                raise DescriptorLoadError(source, lineno, "alias <object> <alias>")
            self._object(fields[0], lineno, source)["aliases"].append(fields[1])
        elif key == "param":
            if len(fields) != 3:
                raise DescriptorLoadError(source, lineno, "param <object> <name> <type>")
            self._object(fields[0], lineno, source)["params"].append(
                (fields[1], fields[2])
            )
        elif key == "extractor":
            if len(fields) != 2:
                raise DescriptorLoadError(source, lineno, "extractor <kind> <procedure>")
            self.extractors.append((fields[0], fields[1]))
        elif key == "combiner":
            if len(fields) != 2:
                raise DescriptorLoadError(source, lineno, "combiner <object> <procedure>")
            self.combiners.append((fields[0], fields[1]))
        elif key == "filter":
            if len(fields) != 3:
                raise DescriptorLoadError(
                    source, lineno, "filter <object> <keyword> <procedure>"
                )
            self.filters.append((fields[0], fields[1], fields[2]))
        elif key == "keyword-alias":
            if len(fields) != 2:
                raise DescriptorLoadError(source, lineno, "keyword-alias <alias> <canonical>")
            self.keyword_aliases.append((fields[0], fields[1]))
        else:
            raise DescriptorLoadError(source, lineno, f"unknown library key {key!r}")

    def build(self) -> DomainLibraryDescriptor:
        object_types = tuple(
            ObjectTypeInfo(
                name=name,
                aliases=tuple(self.objects[name]["aliases"]),
                structure_level=self.objects[name]["level"],
                output_params=tuple(self.objects[name]["params"]),
                fragment_type=self.objects[name]["fragment"],
            )
            for name in self.order
        )
        return DomainLibraryDescriptor(
            name=self.name,
            object_types=object_types,
            extractors=tuple(self.extractors),
            combiners=tuple(self.combiners),
            filters=tuple(self.filters),
            keyword_aliases=tuple(self.keyword_aliases),
        )


def _finish(section, libraries, packages, source) -> None:
    built = section.build()
    if isinstance(built, PackageDescriptor):
        packages.append(built)
    else:
        libraries.append(built)
