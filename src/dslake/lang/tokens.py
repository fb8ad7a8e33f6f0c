"""Lexer for analysis query scripts.

Scripts are UTF-8 text (conventionally ``.dq`` files) with ``#`` line
comments. Whitespace and newlines separate tokens but carry no structure.

The lexer is a table of patterns tried in order at each position, and the
order of ``_TABLE`` is the precedence: the first row that matches makes the
token. So ``48.3416,-24.7851`` is one coordinate pair before it could be a
number, and ``01.01.2011`` a date before a number. The rows are compiled
into one alternation, which ``re`` tries left to right, so that one match
call tries them all.
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

# A coordinate pair is two signed decimals joined by a comma with no
# whitespace; both components must carry a fractional part, which is what
# separates "48.3416,-24.7851" (one token) from "440,414" (three tokens).
# Digits are ASCII only: ``\d`` also matches other scripts' digits, which
# ``float`` and ``int`` read as their values. A duration alone keeps ``\d``
# after its first digit: the parser's ``duration_hours`` refuses a non-ASCII
# digit and reports it at the duration's own token. A date or a duration
# glued to a word character is not one; it falls through to a number.
# A hyphen joins identifier words (cyclone-path), but a hyphen before a
# digit stays an operator (EndTime-48h).
_NOT_WORD = r"(?![A-Za-z0-9_])"
_TABLE = (
    (TokenKind.COORD_PAIR, r"-?[0-9]+\.[0-9]+,-?[0-9]+\.[0-9]+"),
    (TokenKind.DATE, r"[0-9]{2}\.[0-9]{2}\.[0-9]{4}" + _NOT_WORD),
    (TokenKind.DURATION, r"[0-9]\d*[hd]" + _NOT_WORD),
    (TokenKind.NUMBER, r"[0-9]+(?:\.[0-9]+)?"),
    (TokenKind.IDENT, r"[A-Za-z_](?:[A-Za-z0-9_]|-[A-Za-z_])*"),
    (TokenKind.PUNCT, r"[()\[\],:+-]"),
)
_TOKEN_RE = re.compile("|".join(f"(?P<{kind.name}>{pattern})" for kind, pattern in _TABLE))
_BLANKS_RE = re.compile(r"(?:[ \t\r\n]|#[^\n]*)*")


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    col: int


def tokenize(script: str) -> list[Token]:
    """Split a script into tokens, dropping comments.

    Raises LexError for any character outside the lexical alphabet, and
    for a letter glued to a number that does not form a duration unit
    (``48q`` fails at the ``q``).
    """
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0
    while True:
        end = _BLANKS_RE.match(script, pos).end()
        newlines = script.count("\n", pos, end)
        if newlines:
            line += newlines
            line_start = script.rindex("\n", pos, end) + 1
        pos = end
        if pos == len(script):
            return tokens
        col = pos - line_start + 1
        m = _TOKEN_RE.match(script, pos)
        if m is None:
            raise LexError(line, col, f"illegal character {script[pos]!r}")
        kind, text, pos = TokenKind[m.lastgroup], m.group(), m.end()
        if kind is TokenKind.NUMBER and pos < len(script) and (
            script[pos].isalpha() or script[pos] == "_"
        ):
            raise LexError(
                line, pos - line_start + 1, f"illegal character {script[pos]!r} after number"
            )
        if kind is TokenKind.IDENT and text in KEYWORDS:
            kind = TokenKind.KEYWORD
        tokens.append(Token(kind, text, line, col))
