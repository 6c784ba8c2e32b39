"""Tests of the benchmark's input generator.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
from nsra import compile_text, halstead_nsra, load_profile, normalize_ql  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"


def _collapse(text: str) -> str:
    return " ".join(text.split())


def _counts(h) -> tuple:
    return h.distinct_operators, h.distinct_operands, h.total_operators, h.total_operands


def _corpus(seed: int, profile: bool = False) -> list:
    g = gen.Generator(seed, profile)
    return [g.task_sized(n) for n in range(1, 9) for _ in range(3)]


def test_same_seed_same_queries():
    assert _corpus(7) == _corpus(7)
    assert gen.Generator(7).large(200) == gen.Generator(7).large(200)
    assert _corpus(7) != _corpus(8)


def test_sizes_do_not_depend_on_seed():
    def shape(q):
        return q.poss_text.count(". "), q.poss_text.count("'s")

    shapes = {shape(gen.Generator(seed).large(300)) for seed in range(5)}
    assert len(shapes) == 1
    for seed in range(5):
        sentences = [gen.Generator(seed).task_sized(n) for n in range(1, 9)]
        assert [q.plain_text.count(". ") + 1 for q in sentences] == list(range(1, 9))
    token_counts = {tuple(gen.nsra_token_count(q.poss_text) for q in _corpus(seed)) for seed in range(5)}
    assert len(token_counts) == 1


def test_corpus_holds_every_construct():
    import run

    short = sum(count for n, count in run.CORPUS_LENGTHS.items() if n <= 3)
    assert short / sum(run.CORPUS_LENGTHS.values()) >= 0.75
    text = ""
    for seed in range(1, 4):  # the seed picks `precedes` or `follows`
        g = gen.Generator(seed)
        text += " ".join(g.task_sized(n).plain_text for n, count in run.CORPUS_LENGTHS.items() for _ in range(count))
    for marker in ("It is necessary that if", " then ", " is not in [", " is in [", " is not ", "It is false that",
                   " and ", " or ", "doesn't invoke", "does not invoke", " precedes ", " follows ",
                   "the signature of", " is a variable", " is a class", " is a method access"):
        assert marker in text, marker


@pytest.mark.parametrize("name", ["example_invoke", "task1", "task2", "task3"])
def test_task_shapes_match_the_goldens(name):
    q = gen.task_queries()[name]
    golden_ql = (GOLDEN / f"{name}.ql").read_text(encoding="utf-8")
    assert normalize_ql(q.expected_ql) == normalize_ql(golden_ql)
    golden_text = (GOLDEN / f"{name}.nsra").read_text(encoding="utf-8")
    assert _counts(halstead_nsra(golden_text)) == gen.halstead(q.terms)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("profile", [False, True])
def test_generated_queries_compile_to_the_expected_ql(seed, profile):
    registry = load_profile(gen.PROFILE_TEXT) if profile else None
    for q in _corpus(seed, profile):
        for text in (q.poss_text, q.plain_text):
            assert _collapse(compile_text(text, registry)) == _collapse(q.expected_ql), text
            assert _counts(halstead_nsra(text, registry)) == gen.halstead(q.terms), text


def test_large_queries_compile_to_the_expected_ql():
    q = gen.Generator(3).large(200)
    for text in (q.poss_text, q.plain_text):
        assert _collapse(compile_text(text)) == _collapse(q.expected_ql)


def test_simplify_model_cases():
    eq = ("eq", "a", "1")
    other = ("eq", "b", "2")
    assert gen.simplify(("not", ("not", eq))) == eq
    assert gen.simplify(("not", ("or", (("not", eq), other)))) == ("and", (eq, ("not", other)))
    assert gen.simplify(("not", ("or", (eq, other)))) == ("not", ("or", (eq, other)))
    assert gen.bool_text(("and", (("or", (eq, other)), eq))) == "(a = 1 or b = 2) and a = 1"
    assert gen.bool_text(("or", (("and", (eq, other)), eq))) == "a = 1 and b = 2 or a = 1"


def test_ql_halstead_terms():
    terms = gen.ql_terms('from MethodAccess m where m.getArgument(0).toString() = "x\\"y" select m')
    assert ("op", "getArgument") in terms and ("op", "from") in terms and ("op", "(") in terms
    assert ("id", "MethodAccess") in terms and ("int", 0) in terms and ("str", 'x\\"y') in terms
