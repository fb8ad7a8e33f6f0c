"""Lexer for analysis query scripts.

Scripts are UTF-8 text (conventionally ``.dq`` files) with ``#`` line
comments. Whitespace and newlines separate tokens but carry no structure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from dslake.errors import LexError


class TokenKind(Enum):
    KEYWORD = "Keyword"
    IDENT = "Ident"
    NUMBER = "Number"
    DATE = "Date"
    DURATION = "Duration"
    COORD_PAIR = "CoordPair"
    PUNCT = "Punct"


KEYWORDS = frozenset({"area", "time", "select", "simulate", "with", "in", "out"})

PUNCT_CHARS = frozenset("()[],:-+")

# A coordinate pair is two signed decimals joined by a comma with no
# whitespace; both components must carry a fractional part, which is what
# separates "48.3416,-24.7851" (one token) from "440,414" (three tokens).
# Digits are ASCII only: ``\d`` also matches other scripts' digits, which
# ``float`` and ``int`` read as their values. A duration alone keeps ``\d``:
# the parser's ``duration_hours`` refuses a non-ASCII digit and reports it at
# the duration's own token.
_COORD_RE = re.compile(r"-?[0-9]+\.[0-9]+,-?[0-9]+\.[0-9]+")
_DATE_RE = re.compile(r"[0-9]{2}\.[0-9]{2}\.[0-9]{4}")
_DURATION_RE = re.compile(r"\d+[hd]")
_NUMBER_RE = re.compile(r"[0-9]+(\.[0-9]+)?")
_IDENT_START_RE = re.compile(r"[A-Za-z_]")


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    col: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def is_punct(self, char: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == char


def tokenize(script: str) -> list[Token]:
    """Split a script into tokens, dropping comments.

    Raises LexError for any character outside the lexical alphabet, and
    for a letter glued to a number that does not form a duration unit
    (``48q`` fails at the ``q``).
    """
    tokens: list[Token] = []
    pos = 0
    line = 1
    col = 1
    n = len(script)

    def error(message: str, at_line: int, at_col: int):
        raise LexError(at_line, at_col, message)

    while pos < n:
        ch = script[pos]

        if ch == "\n":
            pos += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            pos += 1
            col += 1
            continue
        if ch == "#":
            end = script.find("\n", pos)
            if end == -1:
                end = n
            col += end - pos
            pos = end
            continue

        start_line, start_col = line, col

        m = _COORD_RE.match(script, pos)
        if m:
            text = m.group(0)
            tokens.append(Token(TokenKind.COORD_PAIR, text, start_line, start_col))
            pos += len(text)
            col += len(text)
            continue

        if ch.isascii() and ch.isdigit():
            m = _DATE_RE.match(script, pos)
            if m and not _is_word_char(script, m.end()):
                text = m.group(0)
                tokens.append(Token(TokenKind.DATE, text, start_line, start_col))
                pos += len(text)
                col += len(text)
                continue
            m = _DURATION_RE.match(script, pos)
            if m and not _is_word_char(script, m.end()):
                text = m.group(0)
                tokens.append(Token(TokenKind.DURATION, text, start_line, start_col))
                pos += len(text)
                col += len(text)
                continue
            m = _NUMBER_RE.match(script, pos)
            text = m.group(0)
            after = pos + len(text)
            if after < n and (script[after].isalpha() or script[after] == "_"):
                error(
                    f"illegal character {script[after]!r} after number",
                    start_line,
                    start_col + len(text),
                )
            tokens.append(Token(TokenKind.NUMBER, text, start_line, start_col))
            pos = after
            col += len(text)
            continue

        if _IDENT_START_RE.match(ch):
            end = pos + 1
            while end < n:
                c = script[end]
                if c.isascii() and (c.isalnum() or c == "_"):
                    end += 1
                elif c == "-" and end + 1 < n and _IDENT_START_RE.match(script[end + 1]):
                    # hyphen joins identifier words (cyclone-path) but a
                    # hyphen before a digit stays an operator (EndTime-48h)
                    end += 2
                else:
                    break
            text = script[pos:end]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, text, start_line, start_col))
            col += end - pos
            pos = end
            continue

        if ch in PUNCT_CHARS:
            tokens.append(Token(TokenKind.PUNCT, ch, start_line, start_col))
            pos += 1
            col += 1
            continue

        error(f"illegal character {ch!r}", start_line, start_col)

    return tokens


def _is_word_char(script: str, pos: int) -> bool:
    if pos >= len(script):
        return False
    c = script[pos]
    return c.isascii() and (c.isalnum() or c == "_")
