"""Recursive-descent parser for analysis query scripts.

Grammar (whitespace-insensitive; ``#`` comments handled by the lexer):

    query    := header* statement*
    header   := "area" coord "-" coord | "time" date "-" date
    statement:= select | simulate
    select   := "select" ident filter* ["out" "(" outlist ")"]
    filter   := ident value
    simulate := "simulate" "with" ident option* ["in" "(" bindings ")"]
                ["out" "(" outlist ")"]
    option   := ident value
    outlist  := outitem ("," outitem)*
    outitem  := ident ["[" expr ("," expr)* "]"]
    bindings := ident ":" expr ("," ident ":" expr)*
    expr     := term (("+" | "-") duration)*
    term     := ident | integer | date | duration
    value    := ident | number | date | duration | coordpair
    coord    := coordpair | ["-"] number "," ["-"] number

At most one area and one time header, whose second date is not before its
first; a non-empty script must contain at least one statement. Dates are
dd.mm.yyyy; durations are <int>h or <int>d, at most what a ``timedelta``
holds (23999999999h).
"""

from __future__ import annotations

import datetime as _dt
from typing import Callable, TypeVar

from dslake.errors import ParseError
from dslake.lang.ast import (
    DateLit,
    DurationLit,
    Expr,
    GeoBox,
    IntLit,
    Offset,
    OutItem,
    QueryAst,
    Ref,
    SelectStmt,
    SimulateStmt,
    TimeRange,
)
from dslake.lang.tokens import Token, TokenKind, tokenize
from dslake.times import duration_hours

T = TypeVar("T")

_MAX_DURATION_HOURS = _dt.timedelta.max // _dt.timedelta(hours=1)

_VALUE_KINDS = (
    TokenKind.IDENT,
    TokenKind.NUMBER,
    TokenKind.DATE,
    TokenKind.DURATION,
    TokenKind.COORD_PAIR,
)


def parse(script: str) -> QueryAst:
    """Parse a script into a QueryAst, raising ParseError or LexError."""
    return _Parser(tokenize(script)).parse_query()


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing --------------------------------------------------

    def _peek(self) -> Token | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _eof_pos(self) -> tuple[int, int]:
        if not self.tokens:
            return 1, 1
        last = self.tokens[-1]
        return last.line, last.col + len(last.text)

    def _error(self, expected: str, tok: Token | None = None):
        if tok is None:
            line, col = self._eof_pos()
            raise ParseError(line, col, expected, "end of input")
        raise ParseError(tok.line, tok.col, expected, repr(tok.text))

    def _accept(self, kind: TokenKind, text: str) -> Token | None:
        """Consume and return the next token if it is ``text`` of ``kind``."""
        tok = self._peek()
        if tok is not None and tok.kind is kind and tok.text == text:
            return self._advance()
        return None

    def _expect_punct(self, char: str) -> Token:
        tok = self._accept(TokenKind.PUNCT, char)
        if tok is None:
            self._error(repr(char), self._peek())
        return tok

    def _expect_ident(self, what: str) -> Token:
        tok = self._peek()
        if tok is None or tok.kind is not TokenKind.IDENT:
            self._error(what, tok)
        return self._advance()

    def _comma_list(self, parse_item: Callable[[], T]) -> tuple[T, ...]:
        """One or more items separated by commas."""
        items = [parse_item()]
        while self._accept(TokenKind.PUNCT, ","):
            items.append(parse_item())
        return tuple(items)

    # -- grammar ---------------------------------------------------------

    def parse_query(self) -> QueryAst:
        area: GeoBox | None = None
        time: TimeRange | None = None
        while True:
            tok = self._peek()
            if tok is None or tok.kind is not TokenKind.KEYWORD:
                break
            if tok.text == "area":
                if area is not None:
                    self._error("at most one area header", tok)
                self._advance()
                a = self._parse_coord()
                self._expect_punct("-")
                b = self._parse_coord()
                area = GeoBox.from_corners(a, b)
            elif tok.text == "time":
                if time is not None:
                    self._error("at most one time header", tok)
                self._advance()
                d0 = self._parse_date()
                self._expect_punct("-")
                last = self._peek()
                d1 = self._parse_date()
                if d1 < d0:
                    self._error(f"a date on or after {d0:%d.%m.%Y}", last)
                time = TimeRange(d0, d1)
            else:
                break

        statements = []
        while self._peek() is not None:
            if self._accept(TokenKind.KEYWORD, "select"):
                statements.append(self._parse_select())
            elif self._accept(TokenKind.KEYWORD, "simulate"):
                statements.append(self._parse_simulate())
            else:
                self._error("'select' or 'simulate'", self._peek())

        if not statements and (area is not None or time is not None):
            self._error("a statement after the headers")
        return QueryAst(area=area, time=time, statements=tuple(statements))

    def _parse_select(self) -> SelectStmt:
        object_type = self._expect_ident("object type name").text
        filters = self._parse_pairs()
        return SelectStmt(
            object_type=object_type, filters=filters, out=self._parse_out_clause()
        )

    def _parse_simulate(self) -> SimulateStmt:
        if not self._accept(TokenKind.KEYWORD, "with"):
            self._error("'with'", self._peek())
        package = self._expect_ident("package name").text
        options = self._parse_pairs()
        in_bindings: tuple[tuple[str, Expr], ...] = ()
        if self._accept(TokenKind.KEYWORD, "in"):
            self._expect_punct("(")
            in_bindings = self._comma_list(self._parse_binding)
            self._expect_punct(")")
        return SimulateStmt(
            package=package,
            options=options,
            in_bindings=in_bindings,
            out=self._parse_out_clause(),
        )

    def _parse_pairs(self) -> tuple[tuple[str, str], ...]:
        """The ``ident value`` filters of a select or options of a simulate."""
        pairs = []
        while (tok := self._peek()) is not None and tok.kind is TokenKind.IDENT:
            self._advance()
            pairs.append((tok.text, self._parse_value()))
        return tuple(pairs)

    def _parse_out_clause(self) -> tuple[OutItem, ...]:
        if not self._accept(TokenKind.KEYWORD, "out"):
            return ()
        self._expect_punct("(")
        items = self._comma_list(self._parse_out_item)
        self._expect_punct(")")
        return items

    def _parse_out_item(self) -> OutItem:
        name = self._expect_ident("output name").text
        indices: tuple[Expr, ...] = ()
        if self._accept(TokenKind.PUNCT, "["):
            indices = self._comma_list(self._parse_expr)
            self._expect_punct("]")
        return OutItem(name=name, indices=indices)

    def _parse_binding(self) -> tuple[str, Expr]:
        name = self._expect_ident("binding name").text
        self._expect_punct(":")
        return name, self._parse_expr()

    def _parse_expr(self) -> Expr:
        expr = self._parse_term()
        while True:
            tok = self._peek()
            if tok is not None and tok.kind is TokenKind.PUNCT and tok.text in ("-", "+"):
                if not isinstance(expr, (Ref, DateLit, Offset)):
                    self._error("an offsettable base (reference or date)", tok)
                sign = -1 if tok.text == "-" else 1
                self._advance()
                delta_tok = self._peek()
                if delta_tok is None or delta_tok.kind is not TokenKind.DURATION:
                    self._error("a duration literal", delta_tok)
                expr = Offset(
                    base=expr, sign=sign, delta=self._parse_duration_lit()
                )
            else:
                return expr

    def _parse_term(self) -> Expr:
        tok = self._peek()
        if tok is None:
            self._error("an expression")
        if tok.kind is TokenKind.IDENT:
            return Ref(self._advance().text)
        if tok.kind is TokenKind.NUMBER:
            if "." in tok.text:
                self._error("an integer literal", tok)
            return IntLit(int(self._advance().text))
        if tok.kind is TokenKind.DATE:
            return DateLit(self._parse_date())
        if tok.kind is TokenKind.DURATION:
            return self._parse_duration_lit()
        self._error("an expression", tok)

    def _parse_duration_lit(self) -> DurationLit:
        tok = self._advance()
        try:
            hours = duration_hours(tok.text)
        except ValueError:
            self._error("a duration literal", tok)
        if hours > _MAX_DURATION_HOURS:
            self._error(f"a duration of at most {_MAX_DURATION_HOURS}h", tok)
        return DurationLit(hours)

    def _parse_value(self) -> str:
        tok = self._peek()
        if tok is None or tok.kind not in _VALUE_KINDS:
            self._error("a value", tok)
        return self._advance().text

    def _parse_date(self) -> _dt.date:
        tok = self._peek()
        if tok is None or tok.kind is not TokenKind.DATE:
            self._error("a date (dd.mm.yyyy)", tok)
        tok = self._advance()
        dd, mm, yyyy = tok.text.split(".")
        try:
            return _dt.date(int(yyyy), int(mm), int(dd))
        except ValueError:
            self._error("a valid calendar date", tok)

    def _parse_coord(self) -> tuple[float, float]:
        tok = self._peek()
        if tok is not None and tok.kind is TokenKind.COORD_PAIR:
            self._advance()
            lat_s, lon_s = tok.text.split(",")
            lat, lon = float(lat_s), float(lon_s)
        else:
            lat = self._parse_coord_component()
            self._expect_punct(",")
            lon = self._parse_coord_component()
        # a digit string too long for a float reads as inf, which is refused
        # here too, so the formatter never writes a coordinate parse refuses
        if not -90.0 <= lat <= 90.0:
            self._error("a latitude in [-90, 90]", tok)
        if not -180.0 <= lon <= 180.0:
            self._error("a longitude in [-180, 180]", tok)
        return lat, lon

    def _parse_coord_component(self) -> float:
        sign = -1.0 if self._accept(TokenKind.PUNCT, "-") else 1.0
        tok = self._peek()
        if tok is None or tok.kind is not TokenKind.NUMBER:
            self._error("a coordinate", tok)
        return sign * float(self._advance().text)
