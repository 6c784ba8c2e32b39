"""``compile_text`` on any input either returns QL that reads back to the
IR it was rendered from, or raises a ``SourceError``: never another
exception.  The inputs are random text, the benchmark generator's
task-sized queries, and token mutations of those and of the goldens.  On
the same inputs, the parser reads what it read when a token rewrite turned
possessives into of-phrases first."""

from __future__ import annotations

import sys
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import nsra.metrics
from nsra import SourceError, compile_text, halstead_nsra
from nsra.errors import DuplicateDeclaration, MissingOrdinal, OrdinalNotAllowed, UndeclaredSubject, UnknownAttribute
from nsra.lexer import ARTICLES, ORDINAL, ORDINALS, POSSESSIVE, normalize, tokenize
from nsra.lowering import lower
from nsra.parser import parse_query, parse_text
from nsra.ir import Chain, Eq, Lit
from nsra.qlgen import dump_ir, read_query_text, render
from nsra.registry import _STRING_RESULTS, builtin_crypto_profile
from conftest import golden_text
from front_end_oracle import oracle_terms, reference_tokens
from truth_table import atoms

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  the benchmark's seeded query generator

GOLDEN_TEXTS = [golden_text(f"{name}.nsra") for name in ("example_invoke", "task1", "task2", "task3")]
# One of 200 successive task-sized benchmark queries of one generator, of 1 to
# 8 sentences over the built-in attributes, in either phrasing.  A fresh
# generator draws the same shapes whatever its seed, so only a stream of
# queries from one generator varies them.
_GENERATOR = gen.Generator(0)
TASK_SIZED = [_GENERATOR.task_sized(1 + i % 8) for i in range(200)]
GENERATED = st.builds(
    lambda query, phrasing: query.text(phrasing), st.sampled_from(TASK_SIZED), st.sampled_from(("poss", "plain"))
)
# Words and marks a mutation inserts, and the text random inputs are made of.
ALPHABET = (
    "it", "is", "false", "necessary", "that", "if", "then", "and", "or", "not", "does", "doesn't",
    "invoke", "invokes", "object", "of", "a", "the", "in", "signature", "precedes", "follows",
    "variable", "class", "method", "access", "first", "second", "argument", "type", "algorithm",
    "init", "Cipher", "x", "exists", "count", "'s", "’s", '"RSA"', "“AES”", '""', "42", "[", "]", ",",
    ".", "'", '"', "é", "²", "\t", "\n", " ",
)


@st.composite
def _mutated_query(draw) -> str:
    """A golden or generated query with tokens deleted, duplicated, swapped
    or inserted."""
    text = draw(st.sampled_from(GOLDEN_TEXTS) | GENERATED)
    # The query as its tokens' source text, a string with its quotes.
    tokens = [text[t.span.start : t.span.end] for t in tokenize(text)]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, len(tokens) - 1)), draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(("delete", "duplicate", "swap", "insert")))
        if edit == "delete":
            del tokens[i]
        elif edit == "duplicate":
            tokens.insert(i, tokens[i])
        elif edit == "swap":
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens.insert(i, draw(st.sampled_from(ALPHABET)))
    return draw(st.sampled_from((" ", "\n"))).join(tokens)


@given(GENERATED | _mutated_query() | st.lists(st.sampled_from(ALPHABET + (" ",)), max_size=30).map("".join))
@example("It is false that " * 101 + "x is 1.")
@example('An object of Cipher invokes init. The type of the second argument of "RSA" is "K".')
@example("An object of Cipher invokes init. init's first argument is 99999999999999999999.")
@example("x is a variable. It is false that x is a variable.")
@example("1 is 1.")
@example('1 is "a".')
@example('An object of Cipher invokes init. init is "x".')
@example("x is a variable. The colour of x is 1.")
@example("x is a variable. x is a class.")
@settings(max_examples=400, deadline=None)
def test_compile_text_returns_ql_that_reads_back_or_raises_a_source_error(text):
    """An error has a span inside the text, or is one of the lowering errors
    that name no position yet; and a string literal is compared only with a
    string: a literal or a call that returns one."""
    registry = builtin_crypto_profile()
    try:
        out = compile_text(text, registry)
    except SourceError as err:
        if err.span is None:
            assert _is_unlocated_lowering_error(err), repr(err)
        else:
            assert 0 <= err.span.start <= err.span.end <= len(text)
        return
    ir = lower(parse_text(text), registry)
    assert read_query_text(out) == ir
    for eq in (atom for atom in atoms(ir.condition) if isinstance(atom, Eq)):
        sides = (eq.left, eq.right)
        if any(isinstance(side, Lit) and isinstance(side.value, str) for side in sides):
            assert all(map(_is_string, sides)), eq


# The lowering errors that carry no span: each names a word of the query,
# but the parse tree keeps no position for it.
_UNLOCATED = (UnknownAttribute, UndeclaredSubject, MissingOrdinal, OrdinalNotAllowed, DuplicateDeclaration)


def _is_unlocated_lowering_error(err: SourceError) -> bool:
    if type(err) is SourceError:  # the profile gives a type noun no QL class
        return "has no QL class" in err.message
    return isinstance(err, _UNLOCATED)


def _is_string(value) -> bool:
    if isinstance(value, Lit):
        return isinstance(value.value, str)
    return isinstance(value, Chain) and value.steps[-1].partition("(")[0] in _STRING_RESULTS


def _reference_halstead(text, registry):
    """``halstead_nsra`` as it counted the rewritten token stream."""
    terms = oracle_terms(text, registry, reference_tokens)
    with mock.patch.object(nsra.metrics, "nsra_terms", lambda *_: terms):
        return halstead_nsra(text, registry)


def _outcome(compile_, text, registry):
    """The QL, IR dump and Halstead counts a front end gives, or ``None`` for a ``SourceError``."""
    try:
        ir = lower(compile_(text), registry)
    except SourceError:
        return None
    halstead = _reference_halstead if compile_ is _reference_parse else halstead_nsra
    return render(ir), dump_ir(ir), halstead(text, registry)


def _reference_parse(text):
    return parse_query(reference_tokens(text))


def _rewrite_artifact(text):
    """Whether the rewrite gave a possessive a reading the parser does not:
    it moved ``[ordinal] attr of`` in front of the one word before the
    ``'s``, so that word stayed open to what came around it, and an article
    there could drop.  So ``the's name x`` read as ``the name of x``, ``a's b
    of x`` as ``b of a of x``, ``first a's b`` as ``first b of a`` and ``b
    x's the is 1`` as ``b of x is 1``.  An attribute word ``of`` moved an
    ``of of`` there, so ``An object invokes's of init`` read as ``An object
    of of invokes init``, an invocation by a class ``of``.  The parser reads
    a possessive as binding to the name before it, and rejects all five."""
    tokens = normalize(tokenize(text))
    i = 1
    while i < len(tokens):
        if tokens[i].kind is not POSSESSIVE:
            i += 1
            continue
        if tokens[i - 1].text.lower() in ARTICLES or i > 1 and tokens[i - 2].kind is ORDINAL:
            return True
        while i < len(tokens) and tokens[i].kind is POSSESSIVE:  # along the chain: 's [ordinal] attr, repeated
            i += 2 if i + 1 < len(tokens) and tokens[i + 1].kind is ORDINAL else 1
            if i < len(tokens) and tokens[i].text.lower() in (*ARTICLES, "of"):  # an article dropped, or ``of of``
                return True
            i += 1
        if i < len(tokens) and tokens[i].text.lower() == "of":
            return True
    return False


def _article_after_a_possessive(text):
    """``x's the first argument`` or ``x's first the argument``, which the
    rewrite read as ``the of x ..``."""
    words = [tok.text.lower() if tok.kind is not POSSESSIVE else "'s" for tok in tokenize(text)] + ["", ""]
    return any(
        word == "'s" and (words[i + 1] in ARTICLES or words[i + 1] in ORDINALS and words[i + 2] in ARTICLES)
        for i, word in enumerate(words)
    )


@given(st.sampled_from(GOLDEN_TEXTS) | GENERATED | _mutated_query())
@example("x is a variable. the's name x is 1.")
@example("x is a variable. name's type of x is 1.")
@example("An object of Cipher invokes init. first init's argument is 1.")
@example('x is a variable. algorithm x\'s the is "a".')
@example("An object of Cipher invokes init. init's the first argument is 1.")
@example("An object invokes 's of init .")
@settings(max_examples=400, deadline=None)
def test_the_parser_reads_possessives_as_the_rewrite_did(text):
    """Whatever compiled when a rewrite turned ``X's [ordinal] attr`` into
    ``[ordinal] attr of X`` before the parse compiles to the same QL, IR
    dump and Halstead counts now that the parser reads possessives, unless
    the rewrite misread it.  What compiles now and did not has an article
    after a ``'s`` or after its ordinal."""
    registry = builtin_crypto_profile()
    reference = _outcome(_reference_parse, text, registry)
    outcome = _outcome(parse_text, text, registry)
    if reference is None:
        assert outcome is None or _article_after_a_possessive(text)
    elif outcome is None:
        assert _rewrite_artifact(text)
    else:
        assert outcome == reference
        assert outcome[0] == compile_text(text, registry)
