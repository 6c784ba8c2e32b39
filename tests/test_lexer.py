from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nsra.lexer
from nsra.errors import IllegalCharacter, QuerySyntaxError, SourceError, Span, UnterminatedString, format_diagnostic
from nsra.lexer import Token, TokenKind, _is_attribute_word, normalize, tokenize
from nsra.parser import parse_query, parse_text
from conftest import golden_text
from front_end_oracle import oracle_drop_articles, oracle_expand_contractions, oracle_tokenize, reference_tokens


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


def test_each_structure_word_has_one_role_and_none_is_an_attribute_word():
    """``STRUCTURE_WORDS`` is the union of the word-role tables and the words that have no other role."""
    lex = nsra.lexer
    assert lex.STRUCTURE_WORDS == {
        "a", "an", "the",  # articles
        "is", "invokes", "invoke", "does", "precedes", "follows", "and", "or", "then", "in",  # article stoppers
        "object", "signature", "if",  # openers
        "variable", "class", "method", "access",  # type nouns
        "of", "not", "it", "false", "necessary", "that",
    }
    type_noun_words = {word for words in lex.TYPE_NOUNS for word in words}
    roles = [lex.ARTICLES, lex._ARTICLE_STOPPERS - lex._CONTRACTIONS.keys(), lex._OPENERS, type_noun_words]
    assert sum(map(len, roles)) == len(set().union(*roles))  # no word in two roles
    for word in (*lex.ARTICLES, *lex._ARTICLE_STOPPERS, *lex._OPENERS, *lex.ORDINALS):
        assert not _is_attribute_word(word) and not _is_attribute_word(word.capitalize()), word


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
    """``normalize`` leaves a possessive in place, and the parser reads it as
    the of-phrase it paraphrases.  A chain reads left to right, and a
    possessive binds to the name before it."""
    assert norm_texts("init's first argument") == ["init", "'s", "first", "argument"]
    for possessive, of_phrase in [
        ("init's first argument", "the first argument of init"),
        ("m's method's name", "the name of the method of m"),
        ("g's first argument's algorithm", "the algorithm of the first argument of g"),
        ("the name of m's method", "the name of the method of m"),
    ]:
        assert parse_text(f"{possessive} is 1.") == parse_text(f"{of_phrase} is 1.")


def test_possessive_without_ordinal():
    assert parse_text('getInstance\'s signature is ["int"].') == parse_text('the signature of getInstance is ["int"].')
    assert parse_text("x's name is 1.") == parse_text("the name of x is 1.")


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
    token = Token(kind=TokenKind.WORD, text="of", start=1, end=2)
    assert span == Span(1, 2) and hash(span) == hash(Span(1, 2))
    assert token == Token(TokenKind.WORD, "of", 1, 2) and token.span == span
    assert {token: "of"}[Token(TokenKind.WORD, "of", 1, 2)] == "of"
    assert token != Token(TokenKind.IDENT, "of", 1, 2) and token != Token(TokenKind.WORD, "of", 1, 3)
    assert token != span and span != token
    assert repr(Span(1, 2)) == "Span(start=1, end=2)"
    with pytest.raises(AttributeError):
        span.extra = 0


def test_backwards_span_rejected():
    with pytest.raises(ValueError, match="backwards span: 3..1"):
        Span(3, 1)


# --- the scanner and rewrite that were replaced, kept as an oracle ------------
#
# ``front_end_oracle`` holds them.


def outcome(fn, *args):
    """The triples ``fn`` returns, or the class, message and span of the
    ``SourceError`` it raises."""
    try:
        return [(t.kind, t.text, t.span) if isinstance(t, Token) else t for t in fn(*args)]
    except SourceError as err:
        return type(err), err.message, err.span


# Pieces that join, with nothing or with whitespace between them, into
# contractions, possessives of both apostrophes before ``s``, ``S`` and
# other letters, strings in both kinds of quotes, and characters only
# ``\d``, ``str.isalpha`` or ``str.isspace`` read as their own.
_PIECES = st.sampled_from(
    ["x", "a", "The", "is", "not", "of", "first", "name", "init", "_v", "s", "S", "t", "42", "٣", "²", "é"]
    + ["'", "’", "'s", "’s", "'S", "'t", "’x", "doesn't", "doesn’t", "DOESN'T", '"', "“", "”", '"RSA"']
    + ["“AES”", "[", "]", ",", ".", ";", "", " ", "\n", "\t", "\u00a0", "\u2003", "\u3000"]
)


@given(st.lists(_PIECES, max_size=24).map("".join))
@example("x is a variable. x's doesn't is 1.")
@example("x is a variable. x's first doesn’t invoke init.")
@example("doesn't's name is \u00a0“AES” and ٣٣ is 1.")
@example("An object of a doesn't invoke b.")
@settings(max_examples=500, deadline=None)
def test_tokenize_and_normalize_agree_with_the_named_group_scanner(text):
    """``normalize`` is the oracle's contraction and article rules, with the
    possessives left for the parser."""
    assert outcome(tokenize, text) == outcome(oracle_tokenize, text)
    reference = lambda: oracle_drop_articles(oracle_expand_contractions(oracle_tokenize(text)))  # noqa: E731
    assert outcome(lambda: normalize(tokenize(text))) == outcome(reference)


@pytest.mark.parametrize(
    "text, normalized",
    [
        ("x's doesn't is 1.", ["x", "'s", "does", "not", "is", "1", "."]),
        ("x's first doesn’t invoke init.", ["x", "'s", "first", "does", "not", "invoke", "init", "."]),
    ],
)
def test_doesnt_after_a_possessive_expands_as_an_attribute_word(text, normalized):
    """The contraction expands in place, both words taking its source range,
    and the parser reads ``does`` as the possessive's attribute word and
    fails at ``not``, as it did when a rewrite moved the possessor."""
    tokens = normalize(tokenize(text))
    assert [t.text for t in tokens] == normalized
    doesnt = next(t for t in tokenize(text) if t.text.lower().startswith("doesn"))
    assert [(t.start, t.end) for t in tokens if t.text in ("does", "not")] == [(doesnt.start, doesnt.end)] * 2
    assert outcome(lambda: [parse_text(text)]) == outcome(lambda: [parse_query(reference_tokens(text))])


def test_doesnt_after_a_possessive_is_a_parse_error_at_the_contraction():
    with pytest.raises(QuerySyntaxError) as info:
        parse_text("x is a variable. x's doesn't is 1.")
    assert (info.value.message, info.value.span) == ("unexpected 'not' (expected is)", Span(21, 28))


def test_tokenize_and_normalize_build_no_span(monkeypatch):
    def no_span(*args):
        raise AssertionError("a Span was built")

    monkeypatch.setattr(nsra.lexer, "Span", no_span)
    goldens = [golden_text(f"{name}.nsra") for name in ("example_invoke", "task1", "task2", "task3")]
    # And every rewrite: a contraction, one after a possessive, a chain, an
    # article that is a subject.
    for text in [*goldens, "x's doesn't is 1. m doesn’t invoke g. m's first argument's name is [1, ٣]. a is b."]:
        assert normalize(tokenize(text))
