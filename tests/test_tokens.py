import pytest
from hypothesis import given
from hypothesis import strategies as st

from dslake.errors import LexError
from dslake.lang.tokens import Token, TokenKind, tokenize


def kinds(script):
    return [(t.kind, t.text) for t in tokenize(script)]


def test_two_token_select():
    assert kinds("select cyclone-path") == [
        (TokenKind.KEYWORD, "select"),
        (TokenKind.IDENT, "cyclone-path"),
    ]


def test_coord_pair_is_one_token():
    # from the published area header
    assert kinds("48.3416,-24.7851") == [(TokenKind.COORD_PAIR, "48.3416,-24.7851")]


def test_integer_pair_is_three_tokens():
    assert [k for k, _ in kinds("440,414")] == [
        TokenKind.NUMBER,
        TokenKind.PUNCT,
        TokenKind.NUMBER,
    ]


def test_illegal_unit_character():
    with pytest.raises(LexError) as err:
        tokenize("48q")
    assert err.value.line == 1
    assert err.value.col == 3


def test_duration_and_date_tokens():
    assert kinds("48h 2d 01.01.2011") == [
        (TokenKind.DURATION, "48h"),
        (TokenKind.DURATION, "2d"),
        (TokenKind.DATE, "01.01.2011"),
    ]


def test_hyphen_binds_letters_not_digits():
    assert kinds("EndTime-48h") == [
        (TokenKind.IDENT, "EndTime"),
        (TokenKind.PUNCT, "-"),
        (TokenKind.DURATION, "48h"),
    ]
    assert kinds("north-east")[0] == (TokenKind.IDENT, "north-east")


def test_comments_dropped():
    assert kinds("select x # trailing words\n# whole line\nout(y)")[:2] == [
        (TokenKind.KEYWORD, "select"),
        (TokenKind.IDENT, "x"),
    ]
    assert all(t.text != "trailing" for t in tokenize("select x # trailing"))


def test_unknown_character_position():
    with pytest.raises(LexError) as err:
        tokenize("select x\n  @")
    assert (err.value.line, err.value.col) == (2, 3)


@pytest.mark.parametrize(
    "script, col",
    [
        ("48.\u0663416,-24.7851", 3),  # ARABIC-INDIC THREE in a coordinate
        ("48.3416,-24.785\u0661", 16),
        ("0\u0661.01.2011", 2),  # in a date
        ("44\u0660", 3),  # in a number
        ("1.\u0665", 2),
    ],
)
def test_digits_are_ascii_only(script, col):
    # float() and int() read any script's digits, so a token that took
    # them would carry their value
    with pytest.raises(LexError) as err:
        tokenize(script)
    assert (err.value.line, err.value.col) == (1, col)


def test_positions_reproduce_source(fig5_script):
    # placing each token text back at its (line, col) must reproduce all
    # non-whitespace source (comments excluded)
    tokens = tokenize(fig5_script)
    lines = fig5_script.split("\n")
    canvas = [[" "] * (len(line) + 1) for line in lines]
    for tok in tokens:
        for offset, char in enumerate(tok.text):
            canvas[tok.line - 1][tok.col - 1 + offset] = char
    rebuilt = "\n".join("".join(row).rstrip() for row in canvas)
    stripped = "\n".join(line.rstrip() for line in fig5_script.split("\n"))
    assert rebuilt.split() == stripped.split()
    assert rebuilt.replace(" ", "").replace("\n", "") == stripped.replace(
        " ", ""
    ).replace("\n", "")


@given(st.text(alphabet="abcdefgh_-() []0123456789,.:\n #", max_size=60))
def test_lexer_total_on_alphabet_soup(script):
    # never crashes with anything but LexError
    try:
        tokens = tokenize(script)
    except LexError:
        return
    for tok in tokens:
        assert isinstance(tok, Token)
        assert tok.text
        assert tok.line >= 1 and tok.col >= 1


K = TokenKind


@pytest.mark.parametrize(
    "script, expected",
    [
        # a tab and a CR are one column each
        ("select\tx\r out", [(K.KEYWORD, "select", 1, 1), (K.IDENT, "x", 1, 8),
                             (K.KEYWORD, "out", 1, 11)]),
        # a comment that runs to the end of the script
        ("select x # tail", [(K.KEYWORD, "select", 1, 1), (K.IDENT, "x", 1, 8)]),
        # a hyphen before a digit is an operator
        ("a-1", [(K.IDENT, "a", 1, 1), (K.PUNCT, "-", 1, 2), (K.NUMBER, "1", 1, 3)]),
        # a duration's later digits may be non-ASCII; the parser refuses it
        ("1\u0665h", [(K.DURATION, "1\u0665h", 1, 1)]),
    ],
)
def test_token_kinds_texts_and_positions(script, expected):
    assert [(t.kind, t.text, t.line, t.col) for t in tokenize(script)] == expected


@pytest.mark.parametrize(
    "script, col, message",
    [
        ("48hx", 3, "illegal character 'h' after number"),
        ("01.01.2011x", 6, "illegal character '.'"),
    ],
)
def test_word_glued_to_a_literal_is_refused(script, col, message):
    with pytest.raises(LexError) as err:
        tokenize(script)
    assert (err.value.line, err.value.col, err.value.message) == (1, col, message)
