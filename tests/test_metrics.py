from __future__ import annotations

import math
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsra import compile_text
from nsra import syntax as ast
from nsra.errors import Record, SourceError
from nsra.lowering import lower
from nsra.metrics import (
    HalsteadCounts,
    compare,
    format_row,
    halstead_nsra,
    halstead_ql,
    nsra_terms,
)
from nsra.parser import parse_text
from nsra.registry import Registry, builtin_crypto_profile, load_profile
from conftest import GOLDEN, QL_PREAMBLES, golden_text
from front_end_oracle import oracle_terms

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  the benchmark's seeded query generator


def test_minimal_statement_operands():
    counts = halstead_nsra("a is b.")
    assert counts.total_operands == 2
    assert counts.distinct_operands == 2


def test_operands_are_user_terminals():
    counts = halstead_nsra('An object of Cipher invokes init. the name of init is "RSA".')
    # Cipher, init, init, "RSA"
    assert counts.total_operands == 4
    assert counts.distinct_operands == 3


def test_attribute_words_count_as_operators():
    counts = halstead_nsra('the algorithm of x is "RSA". x is a variable.')
    # x, "RSA", x -> 3 operand tokens; algorithm/is/variable are operators
    assert counts.total_operands == 3
    assert counts.distinct_operators == 3


@pytest.mark.parametrize("name", ["Cipher", "Signature", "Object", "Type"])
def test_invocation_class_is_an_operand_however_spelled(name):
    # object, invokes; the class and init
    assert halstead_nsra(f"An object of {name} invokes init.") == HalsteadCounts(2, 2, 2, 2)


def test_keyword_without_a_following_verb_stays_an_operator():
    # The parser reads no class in either: object, invokes; x, then object, signature; init.
    assert halstead_nsra("An object of invokes x.") == HalsteadCounts(2, 1, 2, 1)
    assert halstead_nsra("An object of Signature init.") == HalsteadCounts(2, 1, 2, 1)


def test_list_items_are_operands():
    counts = halstead_nsra('arg1 is in ["RSA", "AES"]. arg1 is a variable.')
    assert counts.distinct_operands == 3  # arg1, "RSA", "AES"
    assert counts.total_operands == 4


def test_repeated_statement_repeats_totals():
    once = halstead_nsra("An object of Cipher invokes init.")
    twice = halstead_nsra("An object of Cipher invokes init. An object of Cipher invokes init.")
    assert twice.total_operators == 2 * once.total_operators
    assert twice.total_operands == 2 * once.total_operands
    assert twice.distinct_operators == once.distinct_operators


def test_counts_stable_across_runs():
    text = golden_text("task1.nsra")
    assert halstead_nsra(text) == halstead_nsra(text)


def test_paraphrases_count_identically():
    a = halstead_nsra(
        "An object of Cipher invokes getInstance. "
        'the algorithm of getInstance\'s first argument is "RSA".'
    )
    b = halstead_nsra(
        "An object of Cipher invokes getInstance. "
        'the algorithm of the first argument of getInstance is "RSA".'
    )
    chained = halstead_nsra(
        "An object of Cipher invokes getInstance. "
        'getInstance\'s first argument\'s algorithm is "RSA".'
    )
    assert a == b == chained
    # The parser reads attribute words case-insensitively; so does counting.
    capitalized = halstead_nsra(
        'An object of Cipher invokes m. Algorithm of m\'s first argument is "RSA".'
    )
    lowercase = halstead_nsra(
        'An object of Cipher invokes m. algorithm of m\'s first argument is "RSA".'
    )
    assert capitalized == lowercase


def test_appending_statement_never_decreases_length():
    base = golden_text("task2.nsra")
    for extra in ('x is a variable.', 'the name of init is "y".', "a precedes b."):
        longer = base + " " + extra
        assert halstead_nsra(longer).length >= halstead_nsra(base).length


def test_task2_counts_match_reference_table():
    counts = halstead_nsra(golden_text("task2.nsra"))
    assert (counts.vocabulary, counts.length) == (18, 24)


def test_task3_length_matches_reference_table():
    counts = halstead_nsra(golden_text("task3.nsra"))
    assert counts.length == 56


def test_derived_measures_match_formulas():
    counts = halstead_nsra(golden_text("task1.nsra"))
    n = counts.distinct_operators + counts.distinct_operands
    big_n = counts.total_operators + counts.total_operands
    volume = big_n * math.log2(n)
    difficulty = (counts.distinct_operators / 2) * (
        counts.total_operands / counts.distinct_operands
    )
    assert math.isclose(counts.volume, volume, rel_tol=1e-9)
    assert math.isclose(counts.difficulty, difficulty, rel_tol=1e-9)
    assert math.isclose(counts.effort, difficulty * volume, rel_tol=1e-9)


def test_invalid_counts_rejected():
    with pytest.raises(ValueError):
        HalsteadCounts(1, 0, 1, 3)
    with pytest.raises(ValueError, match="negative Halstead count"):
        HalsteadCounts(-1, 1, 1, 1)


# --- CodeQL counting -----------------------------------------------------------


def test_ql_counts_empty_where():
    for preamble in QL_PREAMBLES:
        counts = halstead_ql(preamble + "from MethodAccess m\nselect m")
        assert counts.total_operators == 2  # from, select
        assert counts.total_operands == 3  # MethodAccess, m, m


def test_ql_method_names_are_operators():
    for preamble in QL_PREAMBLES:
        counts = halstead_ql(preamble + 'from T x\nwhere x.getName() = "v"\nselect x')
        # operands: T, x, x, "v", x ; getName is an operator
        assert counts.total_operands == 5


def _ql_counts(task: str):
    """Counts of a compiled task, the same under every preamble."""
    ql = compile_text(golden_text(f"{task}.nsra"))
    counts = halstead_ql(ql)
    assert all(halstead_ql(preamble + ql) == counts for preamble in QL_PREAMBLES)
    return counts


def test_ql_band_listing2():
    counts = _ql_counts("task1")
    assert 32 * 0.85 <= counts.vocabulary <= 32 * 1.15
    assert 179 * 0.90 <= counts.length <= 179 * 1.10


def test_ql_band_listing3():
    counts = _ql_counts("task2")
    assert 27 * 0.85 <= counts.vocabulary <= 27 * 1.15
    assert 107 * 0.90 <= counts.length <= 107 * 1.10


def test_ql_band_listing4():
    counts = _ql_counts("task3")
    assert 42 * 0.85 <= counts.vocabulary <= 42 * 1.15
    assert 434 * 0.90 <= counts.length <= 434 * 1.10


# --- comparison -----------------------------------------------------------------


def _counts(vocab_split: tuple[int, int], length_split: tuple[int, int]) -> HalsteadCounts:
    return HalsteadCounts(vocab_split[0], vocab_split[1], length_split[0], length_split[1])


def test_reference_task3_lengths_give_87_percent():
    row = compare(_counts((13, 13), (28, 28)), _counts((21, 21), (217, 217)))
    assert row.length_nsra == 56 and row.length_ql == 434
    assert math.isclose(row.reduction_pct, 87.096774, abs_tol=1e-4)


def test_equal_counts_zero_reduction():
    counts = _counts((5, 5), (10, 10))
    row = compare(counts, counts)
    assert row.reduction_pct == 0.0
    assert row.effort_ratio == 1.0


def test_reference_vocabulary_reductions():
    # Hand oracle: 1 - 19/32, 1 - 18/27, 1 - 26/42.
    cases = [((9, 10), (16, 16)), ((9, 9), (13, 14)), ((13, 13), (21, 21))]
    expected = [100 * (1 - 19 / 32), 100 * (1 - 18 / 27), 100 * (1 - 26 / 42)]
    vocab_pairs = [(19, 32), (18, 27), (26, 42)]
    for (nv, qv), want in zip(vocab_pairs, expected):
        row = compare(_counts((nv - 5, 5), (nv, nv)), _counts((qv - 7, 7), (qv, qv)))
        assert math.isclose(row.vocab_reduction_pct, want, rel_tol=1e-9)
    # The best vocabulary reduction among the reference pairs is task 1's;
    # the claim of "up to 38%" is attained by the task 3 row.
    reductions = [100 * (1 - n / q) for n, q in vocab_pairs]
    assert max(reductions) == pytest.approx(40.625)
    assert reductions[2] == pytest.approx(38.095238, abs=1e-4)


def test_compare_zero_length_raises():
    with pytest.raises(ZeroDivisionError):
        compare(_counts((1, 1), (1, 1)), HalsteadCounts(0, 0, 0, 0))


def test_format_row_mentions_reduction():
    row = compare(_counts((5, 5), (10, 10)), _counts((10, 10), (40, 40)))
    text = format_row(row)
    assert "length reduction" in text
    assert "75.0%" in text


def test_row_to_dict_round_trips_fields():
    row = compare(_counts((5, 5), (10, 10)), _counts((10, 10), (40, 40)))
    data = row.to_dict()
    assert data["length_nsra"] == 20
    assert data["length_ql"] == 80
    assert math.isclose(data["length_reduction_pct"], 75.0)


def test_counts_compare_by_fields():
    counts = HalsteadCounts(distinct_operators=2, distinct_operands=1, total_operators=3, total_operands=1)
    assert counts == HalsteadCounts(2, 1, 3, 1) and hash(counts) == hash(HalsteadCounts(2, 1, 3, 1))
    assert counts != HalsteadCounts(1, 2, 3, 1)


# --- the count pass against the token loop ------------------------------------

LONG_INT = "1" * 5000  # past the 4300 digits ``int`` reads from text

# Pieces that join, with nothing or with whitespace between them, into
# invocations of keyword-spelled and attribute-spelled classes, contractions,
# capitalised articles before keywords and names, possessives, strings in both
# kinds of quotes (and unterminated ones), non-ASCII and over-long integers.
_TERM_PIECES = st.sampled_from(
    ["An", "A", "The", "a", "the", "object", "of", "Cipher", "Signature", "Type", "invokes", "invoke", "does"]
    + ["not", "is", "in", "and", "first", "algorithm", "Name", "init", "x", "doesn't", "doesn’t", "DOESN'T", "'s"]
    + ["42", "٣٣", LONG_INT, '"RSA"', "“AES”", '"open', "“open", "'", "²", "[", "]", ",", ".", " ", "\u00a0", "\n", ""]
)


_REGISTRIES = (None, load_profile(gen.PROFILE_TEXT))  # the built-in profile, and the benchmark's


def _terms_or_error(count, text, registry):
    try:
        return count(text, registry)
    except SourceError as err:
        return type(err), err.span


@given(st.lists(_TERM_PIECES, max_size=24).map("".join))
@example("An object of Signature doesn’t invoke initSign. The the is not a.")
@example(f"An object of Type invokes init. The first argument of init is {LONG_INT}. x is \"open")
@example(f"x is ٣٣ and y is {LONG_INT} and z is {LONG_INT}2.")
@example("An object of first invokes init. An object of the does not invoke x. object of 42 invokes m.")
@settings(max_examples=400, deadline=None)
def test_count_pass_matches_the_token_loop(text):
    """``nsra_terms`` gives the terms of the normalized token stream, or the
    same error at the same span, with the built-in and the benchmark profile."""
    for registry in _REGISTRIES:
        assert _terms_or_error(nsra_terms, text, registry) == _terms_or_error(oracle_terms, text, registry)


# --- a word means the same thing to the parser and the metrics ---------------


def _tree_terms(node) -> set:
    """The names and literals of a parse tree, classed as ``nsra_terms`` classes its user terminals."""
    if isinstance(node, ast.Ident):
        return {("id", node.name)}
    if isinstance(node, ast.Literal):
        return {("str" if isinstance(node.value, str) else "int", node.value)}
    if isinstance(node, ast.InvocationPattern):
        return {("id", node.class_name), ("id", node.method_name)}
    if isinstance(node, ast.OrderingPattern):
        return {("id", node.before), ("id", node.after)}
    if isinstance(node, ast.SignaturePattern):
        return {("id", node.method_name), *(("str", name) for name in node.type_names)}
    if isinstance(node, tuple):
        return set().union(*map(_tree_terms, node))
    if isinstance(node, Record):  # any other node: the terms of its fields
        return set().union(*(_tree_terms(getattr(node, name)) for name in node.__slots__))
    return set()  # an attribute word, an ordinal, a type noun, a flag


def _term_inputs() -> list:
    """(query, registry): the goldens and rules, the benchmark generator's
    task-sized queries in both phrasings with the built-in and the
    benchmark profile, and word deletions, duplications and swaps of them."""
    builtin, profiled = builtin_crypto_profile(), load_profile(gen.PROFILE_TEXT)
    paths = sorted(GOLDEN.glob("*.nsra")) + sorted((GOLDEN / "rules").glob("*.nsra"))
    inputs = [(path.read_text(encoding="utf-8"), builtin) for path in paths]
    for generator, registry in ((gen.Generator(0), builtin), (gen.Generator(0, profile=True), profiled)):
        for i in range(100):
            query = generator.task_sized(1 + i % 8)
            inputs += [(query.text(phrasing), registry) for phrasing in ("poss", "plain")]
    rng = random.Random(0)
    for text, registry in inputs[:]:
        for _ in range(24):
            words = text.split()
            i, j = rng.randrange(len(words)), rng.randrange(len(words))
            edit = rng.choice(("delete", "duplicate", "swap"))
            if edit == "delete":
                del words[i]
            elif edit == "duplicate":
                words.insert(i, words[i])
            else:
                words[i], words[j] = words[j], words[i]
            inputs.append((" ".join(words), registry))
    return inputs


def test_user_terminals_are_the_names_and_literals_of_the_parse_tree():
    """For each query that compiles, the distinct ``id``, ``str`` and ``int``
    terms of ``nsra_terms`` are the names and literals its parse tree holds.
    Sets, not counts: an elliptical signature's subject is written once, but
    each ``SignaturePattern`` holds it."""
    compiled = 0
    for text, registry in _term_inputs():
        try:
            tree = parse_text(text)
            lower(tree, registry)
        except SourceError:
            continue
        compiled += 1
        terms = {term for term in nsra_terms(text, registry) if term[0] in ("id", "str", "int")}
        assert terms == _tree_terms(tree), text
    assert compiled > 1500


def test_an_article_kept_as_a_name_is_an_operand():
    """A registry may hold a rule spelled like an article (``load_profile``
    admits none); the article the parser reads as a declared name is still an
    operand, as ``halstead_ql`` counts that variable."""
    builtin = builtin_crypto_profile()
    registry = Registry({**builtin.rules, "a": builtin.rules["name"]}, builtin.type_aliases, builtin.ql_type_names)
    text = 'a is a variable. a is "x".'
    assert compile_text(text, registry) == 'from Variable a\nwhere a.toString() = "x"\nselect a\n'
    assert nsra_terms(text, registry) == [
        ("id", "a"), ("op", "is"), ("op", "variable"), ("PERIOD", "."),
        ("id", "a"), ("op", "is"), ("str", "x"), ("PERIOD", "."),
    ]  # fmt: skip
    assert {t for t in nsra_terms(text, registry) if t[0] in ("id", "str")} == _tree_terms(parse_text(text))


def test_readme_halstead_table_matches_the_counts():
    """README's table gives (vocabulary, length) of each task and rule, and
    of the CodeQL the compiler writes for it."""
    readme = (GOLDEN.parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(tests/golden/[\w/]+\.nsra)` \| (\d+), (\d+) \| (\d+), (\d+) \|$", readme, re.M)
    queries = [f"tests/golden/task{n}.nsra" for n in (1, 2, 3)]
    queries += sorted(f"tests/golden/rules/{path.name}" for path in (GOLDEN / "rules").glob("*.nsra"))
    assert [row[0] for row in rows] == queries
    for path, *cells in rows:
        text = (GOLDEN.parents[1] / path).read_text(encoding="utf-8")
        nsra, ql = halstead_nsra(text), halstead_ql(compile_text(text))
        assert [int(cell) for cell in cells] == [nsra.vocabulary, nsra.length, ql.vocabulary, ql.length], path
