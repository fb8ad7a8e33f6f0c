"""Exception hierarchy shared by all dslake subsystems."""

from __future__ import annotations

from collections import namedtuple


class DslakeError(Exception):
    """Base class for every error raised by this package."""


def undecodable_at(exc: UnicodeDecodeError) -> tuple[int, int]:
    """The 1-based line and byte column of the first byte that is not UTF-8."""
    head = exc.object[: exc.start]
    return head.count(b"\n") + 1, exc.start - head.rfind(b"\n")


def read_utf8(path, error: type[DslakeError]) -> str:
    """``path`` as UTF-8 text; a byte that is not UTF-8 raises ``error``
    naming the file and line."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}:{undecodable_at(exc)[0]}: not UTF-8 text") from None


def numbered_lines(text: str):
    """``(line number, line)`` of each line of ``text`` that holds more than
    a ``#`` comment, with the comment and the surrounding blanks dropped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


Row = namedtuple(
    "Row", "what convert valid repeatable required", defaults=(str, None, False, False)
)


def read_keys(text: str, rows: dict, sep: str, fail) -> tuple[dict, dict]:
    """The values and the line numbers by key of the ``key<sep>value`` lines
    of ``text``, by the table ``rows`` of key -> ``Row``. A row's ``convert``
    makes the value of the text after the separator, or is the table of a
    value of ``key=value`` words; a repeatable key's value is a list.

    The policy of every key/value format: ``#`` starts a comment, blank
    lines are skipped, and key and value are stripped. Refused, each by
    raising ``fail(line number, message)``, the format's own error: a line
    without the separator (unless it is a blank: the value is then empty),
    an unknown key, a key given twice that is not repeatable, a value that
    ``convert`` raises ``ValueError`` on or that ``valid`` refuses (as not
    ``what``), and a required key never given (at the line after the last).
    """
    values, lines, lineno = {}, {}, 0
    for lineno, line in numbered_lines(text):
        key, given, raw = (part.strip() for part in line.partition(sep))
        row = rows.get(key)
        if not (given or sep.isspace()):
            raise fail(lineno, f"expected key{sep}value, found {line!r}")
        if row is None:
            raise fail(lineno, f"unknown key {key!r}; keys are {', '.join(rows)}")
        if key in values and not row.repeatable:
            raise fail(lineno, f"key {key!r} given twice")
        if isinstance(row.convert, dict):
            words = "\n".join(raw.split())
            value = read_keys(words, row.convert, "=", lambda _, m: fail(lineno, m))[0]
        else:
            try:
                value = row.convert(raw)
                if row.valid and not row.valid(value):
                    raise ValueError(raw)
            except ValueError:
                raise fail(lineno, f"{key} is not {row.what}: {raw!r}") from None
        values[key] = [*values.get(key, ()), value] if row.repeatable else value
        lines[key] = lineno
    for key, row in rows.items():
        if row.required and key not in values:
            raise fail(lineno + 1, f"missing key {key!r}")
    return values, lines


# --- query language ---------------------------------------------------------

class LexError(DslakeError):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"{line}:{col}: {message}")


class ParseError(DslakeError):
    def __init__(self, line: int, col: int, expected: str, found: str):
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        super().__init__(f"{line}:{col}: expected {expected}, found {found}")


class ValidationError(DslakeError):
    """Base for knowledge-resolution failures; carries name and location."""

    def __init__(self, name: str, line: int = 0, col: int = 0, detail: str = ""):
        self.name = name
        self.line = line
        self.col = col
        msg = f"{self.__class__.__name__}: {name!r}"
        if line:
            msg += f" at {line}:{col}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class UnknownObjectType(ValidationError):
    pass


class UnknownFilterKeyword(ValidationError):
    pass


class UnknownPackage(ValidationError):
    pass


class UnboundReference(ValidationError):
    pass


class UnknownOptionKeyword(ValidationError):
    pass


class UnknownOutputName(ValidationError):
    pass


class UnknownPackageInput(ValidationError):
    pass


class DanglingSimulate(ValidationError):
    """A simulate statement with no preceding select to consume."""


# --- command line -------------------------------------------------------------

class ConfigError(DslakeError):
    """A malformed configuration value; names the file line, environment
    variable or flag it came from."""


class UsageError(DslakeError):
    """A command-line argument the command does not take; exit code 2."""


# --- knowledge registry -----------------------------------------------------

class RegistryError(DslakeError):
    pass


class DuplicateName(RegistryError):
    pass


class MalformedTemplate(RegistryError):
    pass


class DescriptorLoadError(RegistryError):
    def __init__(self, path: str, line: int, message: str):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


# --- storage fabric ---------------------------------------------------------

class StorageError(DslakeError):
    pass


class InvalidReplication(StorageError):
    """A node count or replication out of bounds; ``key`` is the
    ``fabric.conf`` key of the value refused."""

    def __init__(self, message: str, key: str = "replication"):
        super().__init__(message)
        self.key = key


class DuplicateFile(StorageError):
    pass


class UnknownNode(StorageError):
    pass


class UnreadableFile(StorageError):
    pass


# --- engine and package execution -------------------------------------------

class EngineError(DslakeError):
    pass


class ExtractorFailure(EngineError):
    def __init__(self, file_id: str, cause: str):
        self.file_id = file_id
        self.cause = cause
        super().__init__(f"extractor failed on {file_id}: {cause}")


class CombinerFailure(EngineError):
    pass


class PackageFailure(EngineError):
    def __init__(self, reason: str):
        self.reason = reason
        self.scratch = None  # the directory a failed external run kept, set by hybrid
        super().__init__(reason)


class BindingError(EngineError):
    pass


# --- cyclone domain ---------------------------------------------------------

class DomainError(DslakeError):
    pass


class FormatError(DomainError):
    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class SpecError(DomainError):
    pass


class NonmonotonicTimestamps(DomainError):
    pass


class DegenerateBearing(DomainError):
    pass


class UnknownGauge(DomainError):
    pass
