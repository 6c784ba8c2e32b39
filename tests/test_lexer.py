from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsra.errors import IllegalCharacter, QuerySyntaxError, SourceError, Span, UnterminatedString, format_diagnostic
from nsra.lexer import Token, TokenKind, normalize, tokenize
from nsra.parser import parse_text
from nsra.registry import _is_attribute_word


def kinds(tokens):
    return [t.kind for t in tokens]


def texts(tokens):
    return [t.text for t in tokens]


def test_simple_sentence_token_count():
    tokens = tokenize("An object of Cipher invokes init.")
    assert len(tokens) == 7
    assert tokens[-1].kind is TokenKind.PERIOD
    assert texts(tokens) == ["An", "object", "of", "Cipher", "invokes", "init", "."]


def test_list_tokens():
    tokens = tokenize('["RSA", "AES"]')
    assert kinds(tokens) == [
        TokenKind.LIST_OPEN,
        TokenKind.STRING,
        TokenKind.COMMA,
        TokenKind.STRING,
        TokenKind.LIST_CLOSE,
    ]
    assert tokens[1].text == "RSA"
    assert tokens[3].text == "AES"


def test_possessive_and_ordinal():
    tokens = tokenize("init's first argument")
    assert kinds(tokens) == [
        TokenKind.IDENT,
        TokenKind.POSSESSIVE,
        TokenKind.ORDINAL,
        TokenKind.IDENT,
    ]
    assert tokens[0].text == "init"


# Fragments joined by whitespace or by nothing, so that joins make
# contractions, possessives and stray apostrophes too; some are rejected.
_FRAGMENTS = st.sampled_from(
    ["init", "first", "the", "a", "is", "of", "'s", "’S", "doesn't", "x1", "42", "٣", ",", ".", "[", "]"]
    + ['"RSA"', "“AES”", '""', "'", "é", "²"]
)
_SEPARATORS = st.sampled_from(["", " ", "\n", "\t", "\u00a0", "\u2003", " \r\n "])


@given(_SEPARATORS, st.lists(st.tuples(_FRAGMENTS, _SEPARATORS)))
@example("", [('It is necessary that init\'s first argument is in ["a", "b"].', "")])
@example(" \t", [("“AES”", "\u2003 "), ("x", "\u00a0\n")])
@settings(max_examples=300, deadline=None)
def test_spans_reconstruct_source(lead, parts):
    """Spans increase and do not overlap, only whitespace lies before,
    between and after the tokens, and each span covers its token's text (a
    string's with its quotes)."""
    source = lead + "".join(f + sep for f, sep in parts)
    try:
        tokens = tokenize(source)
    except SourceError as err:
        assert not source[err.span.start].isspace()  # all whitespace separates
        return
    end = 0
    for t in tokens:
        assert end <= t.span.start < t.span.end
        assert source[end : t.span.start].strip() == ""
        covered = source[t.span.start : t.span.end]
        if t.kind is TokenKind.STRING:
            assert covered[0] in "\"“”" and covered[-1] in "\"”" and covered[1:-1] == t.text
        else:
            assert covered == t.text
        end = t.span.end
    assert source[end:].strip() == ""


def test_typographic_quotes_accepted():
    tokens = tokenize("“RSA”")
    assert tokens[0].kind is TokenKind.STRING
    assert tokens[0].text == "RSA"


def test_string_content_verbatim():
    tokens = tokenize('"Cipher.WRAP_MODE"')
    assert tokens[0].text == "Cipher.WRAP_MODE"


def test_unterminated_string():
    with pytest.raises(UnterminatedString) as info:
        tokenize('x is "RSA')
    assert info.value.span is not None
    assert info.value.span.end == len('x is "RSA')


def test_illegal_character():
    # "²" is a digit to str.isdigit but not a decimal one int() can read.
    for text, start in (("x is ; y", 5), ("The first argument of init is ².", 30)):
        with pytest.raises(IllegalCharacter) as info:
            tokenize(text)
        assert (info.value.span.start, info.value.span.end) == (start, start + 1)


def test_integer_literal():
    tokens = tokenize("x is 42.")
    assert tokens[2].kind is TokenKind.INT
    assert tokens[2].text == "42"


# --- whitespace around tokens ----------------------------------------------


def spans(tokens):
    return [(t.span.start, t.span.end) for t in tokens]


@pytest.mark.parametrize("space", [" ", "\t", "\n", "\u00a0", "\u2003", " \r\n\t"])
def test_whitespace_before_between_and_after_tokens(space):
    w = len(space)
    tokens = tokenize(f'{space}x{space}is{space}"RSA"{space}.{space}')
    assert texts(tokens) == ["x", "is", "RSA", "."]
    assert spans(tokens) == [(w, w + 1), (2 * w + 1, 2 * w + 3), (3 * w + 3, 3 * w + 8), (4 * w + 8, 4 * w + 9)]


@pytest.mark.parametrize("text", ["", " ", "\t\n", "\u00a0\u2003", " \r\n "])
def test_whitespace_only_query(text):
    assert tokenize(text) == []
    with pytest.raises(QuerySyntaxError, match="empty query") as info:
        parse_text(text)
    assert info.value.span == Span(0, 0)


@pytest.mark.parametrize(
    "text, error, span, message",
    [
        ('x is \t  "RSA', UnterminatedString, (8, 12), "unterminated string literal"),
        ("x is\n\u2003;", IllegalCharacter, (6, 7), "illegal character ';'"),
        ("x\u00a0\n  ' is", IllegalCharacter, (5, 6), "stray \"'\""),
        ("\n\t\t’", IllegalCharacter, (3, 4), "stray '’'"),
    ],
)
def test_errors_after_whitespace_point_at_the_character(text, error, span, message):
    with pytest.raises(error) as info:
        tokenize(text)
    assert (info.value.span.start, info.value.span.end) == span
    assert info.value.message == message


def test_error_columns_count_tabs_and_newlines_as_one_character():
    text = "An object of Cipher invokes init.\n\t\u00a0The first argument of init is ;"
    with pytest.raises(IllegalCharacter) as info:
        tokenize(text)
    assert format_diagnostic("q.nsra", text, info.value) == "q.nsra:2:33: error: illegal character ';'"


@pytest.mark.parametrize("key", [" name", "name ", "\tname", "name\n", "\u00a0name", " name ", "na me"])
def test_rule_key_with_whitespace_is_not_a_word(key):
    assert _is_attribute_word("name") and not _is_attribute_word(key)


# --- normalize ---------------------------------------------------------------


def norm_texts(text: str) -> list[str]:
    return [t.text for t in normalize(tokenize(text))]


def test_doesnt_expands():
    assert norm_texts("An object of Cipher doesn't invoke init.") == [
        "object",
        "of",
        "Cipher",
        "does",
        "not",
        "invoke",
        "init",
        ".",
    ]


def test_possessive_rewrites_to_of_form():
    assert norm_texts("init's first argument") == ["first", "argument", "of", "init"]
    # A chain reads left to right: the possessor is everything before "'s".
    assert norm_texts("m's method's name") == ["name", "of", "method", "of", "m"]
    assert norm_texts("g's first argument's algorithm") == ["algorithm", "of", "first", "argument", "of", "g"]


def test_possessive_without_ordinal():
    assert norm_texts("getInstance's signature") == ["signature", "of", "getInstance"]


def test_articles_dropped():
    assert norm_texts("the type of the second argument of init") == [
        "type",
        "of",
        "second",
        "argument",
        "of",
        "init",
    ]


def test_article_kept_as_identifier_before_keyword():
    # "a" here is an identifier, not a determiner.
    tokens = normalize(tokenize("a is b."))
    assert [t.text for t in tokens] == ["a", "is", "b", "."]
    assert tokens[0].kind is TokenKind.IDENT


def test_normalize_idempotent():
    samples = [
        "An object of Cipher doesn't invoke init.",
        "It is necessary that if init's first argument is \"x\" then a is b.",
        'the algorithm of getInstance\'s first argument is "RSA".',
        "var1 is a variable.",
    ]
    for text in samples:
        once = normalize(tokenize(text))
        twice = normalize(once)
        assert [(t.kind, t.text) for t in twice] == [(t.kind, t.text) for t in once]


def test_normalized_spans_point_into_source():
    source = "It is false that getInstance's first argument is \"RSA\"."
    for tok in normalize(tokenize(source)):
        assert 0 <= tok.span.start < tok.span.end <= len(source)


def test_span_and_token_compare_by_type_and_fields():
    span = Span(start=1, end=2)
    token = Token(kind=TokenKind.WORD, text="of", span=span)
    assert span == Span(1, 2) and hash(span) == hash(Span(1, 2))
    assert token == Token(TokenKind.WORD, "of", Span(1, 2))
    assert {token: "of"}[Token(TokenKind.WORD, "of", Span(1, 2))] == "of"
    assert token != span and span != token
    assert repr(Span(1, 2)) == "Span(start=1, end=2)"
    with pytest.raises(AttributeError):
        span.extra = 0


def test_backwards_span_rejected():
    with pytest.raises(ValueError, match="backwards span: 3..1"):
        Span(3, 1)
