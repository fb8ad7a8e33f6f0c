"""Exception hierarchy shared by all dslake subsystems."""

from __future__ import annotations


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
    pass


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
