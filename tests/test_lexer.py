from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsra.errors import IllegalCharacter, SourceError, Span, UnterminatedString
from nsra.lexer import Token, TokenKind, normalize, tokenize


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
_SEPARATORS = st.sampled_from(["", " ", "\n", "\t", "\u00a0"])


@given(st.lists(st.tuples(_FRAGMENTS, _SEPARATORS)).map(lambda parts: "".join(f + sep for f, sep in parts)))
@example('It is necessary that init\'s first argument is in ["a", "b"].')
@settings(max_examples=300, deadline=None)
def test_spans_reconstruct_source(source):
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
        assert t.text == (covered[1:-1] if t.kind is TokenKind.STRING else covered)
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
