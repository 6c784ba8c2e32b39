"""``compile_text`` on any input either returns QL that reads back to the
IR it was rendered from, or raises a ``SourceError``: never another
exception.  The inputs are random text, the benchmark generator's
task-sized queries, and token mutations of those and of the goldens."""

from __future__ import annotations

import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsra import SourceError, compile_text
from nsra.lexer import tokenize
from nsra.lowering import lower
from nsra.parser import parse_text
from nsra.qlgen import read_query_text
from nsra.registry import builtin_crypto_profile
from conftest import golden_text

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
@settings(max_examples=400, deadline=None)
def test_compile_text_returns_ql_that_reads_back_or_raises_a_source_error(text):
    registry = builtin_crypto_profile()
    try:
        out = compile_text(text, registry)
    except SourceError:
        return
    assert read_query_text(out) == lower(parse_text(text), registry)
