"""Complexity guards: every stage does work linear in its input.

Queries grow along five axes (sentence count, list length, ``it is false
that`` depth, ``and``-chain length and alternating negated and plain
disjuncts) at sizes n, 2n, 4n and 8n, and so does QL text along four, for
``normalize_ql`` alone: comparisons over distinct runs of calls, the same
ended by an error, which the reader locates by counting each run before it as
its tokens, comparisons over calls spaced unlike ``render``, which the reader
reads as single tokens, and nested groups.  Each stage's Python function calls
(``call`` and ``c_call`` events of ``sys.setprofile``) are counted, which is
deterministic and so does not depend on the host: at size m they may be at
most ``SLACK * m / n`` times the count at n, plus ``CALLS_SLACK``.  A call
count misses C-level work inside one call, such as a slice or a join inside a
loop, so a loose best-of-5 time ratio of the whole pipeline backs it: at most
``TIME_RATIO`` at 8n, where a quadratic stage reads about 64.
"""

from __future__ import annotations

import gc
import sys
import time

import pytest

from nsra.lexer import normalize, tokenize
from nsra.errors import QlLexError
from nsra.lowering import lower
from nsra.metrics import halstead_nsra, halstead_ql
from nsra.parser import parse_query
from nsra.qlgen import normalize_ql, render
from nsra.registry import builtin_crypto_profile

N = 12
SIZES = (N, 2 * N, 4 * N, 8 * N)
SLACK = 8.5 / 8  # at 8n, at most 8.5 times the count at n
CALLS_SLACK = 100  # calls a stage may make once per run, whatever the size
TIME_RATIO = 16

REG = builtin_crypto_profile()
INVOKES = "An object of Cipher invokes init. "


def _attribute(i: int) -> str:  # possessive and ``of`` phrasing alternately, so normalize and parse see both
    return f'init\'s first argument is "a{i}"' if i % 2 else f'the name of init is "a{i}"'


AXES = {
    "sentences": lambda k: INVOKES + " ".join(f"{_attribute(i)}." for i in range(k)),
    "list": lambda k: INVOKES + "The name of init is in [" + ", ".join(f'"a{i}"' for i in range(k)) + "].",
    "depth": lambda k: INVOKES + "it is false that " * k + 'init\'s name is "a".',  # 97 deep at 96, under MAX_NESTING
    "and": lambda k: INVOKES + " and ".join(_attribute(i) for i in range(k)) + ".",
    "alternating": lambda k: INVOKES
    + "It is necessary that "
    + " or ".join(("it is false that " if i % 2 else "") + _attribute(i) for i in range(k))
    + ".",
}

QL_RUNS = "from T x where {} select x"


def _runs(k: int) -> str:  # k comparisons, each over its own run of calls
    return " and ".join(f'x.f{i}({i}, "A {i}").g() = {i}' for i in range(k))


QL_AXES = {
    "ql_runs": lambda k: QL_RUNS.format(_runs(k)),
    "ql_runs_error": lambda k: QL_RUNS.format(_runs(k)) + " =",  # the last token is an error
    "ql_calls": lambda k: QL_RUNS.format(" and ".join(f'x . f{i} ( {i} , "A {i}" ) . g ( ) = {i}' for i in range(k))),
    "ql_depth": lambda k: QL_RUNS.format("not (" * k + "x.f() = 1" + ")" * k),  # 96 deep at 8n, under MAX_QL_NESTING
}


def _normalize_ql(text: str) -> str:  # ``normalize_ql``'s text, or its error's message
    try:
        return normalize_ql(text)
    except QlLexError as err:
        return err.message


def _axis_stages(axis: str, size: int) -> dict:
    if axis in QL_AXES:
        return {"normalize_ql": (_normalize_ql, QL_AXES[axis](size))}
    return _stages(AXES[axis](size))


def _stages(text: str) -> dict:
    """Each stage's function with its arguments, as the compile, check and metrics paths call them."""
    tokens = tokenize(text)
    normal = normalize(tokens)
    tree = parse_query(normal)
    ir = lower(tree, REG)
    ql = render(ir)
    return {
        "tokenize": (tokenize, text),
        "normalize": (normalize, tokens),
        "parse": (parse_query, normal),
        "lower": (lower, tree, REG),
        "render": (render, ir),
        "normalize_ql": (normalize_ql, ql),
        "halstead_nsra": (halstead_nsra, text, REG),
        "halstead_ql": (halstead_ql, ql),
    }


def _calls(fn, *args) -> int:
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


def _best_time(stages: dict) -> float:
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for fn, *args in stages.values():
            fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("axis", [*AXES, *QL_AXES])
def test_each_stage_makes_calls_linear_in_the_input(axis):
    counts: dict[str, list[int]] = {}
    for size in SIZES:
        for stage, (fn, *args) in _axis_stages(axis, size).items():
            fn(*args)  # once first, so that a cache filled on first use does not count
            counts.setdefault(stage, []).append(_calls(fn, *args))
    superlinear = {
        stage: got
        for stage, got in counts.items()
        if any(c > SLACK * size / N * got[0] + CALLS_SLACK for size, c in zip(SIZES, got))
    }
    assert superlinear == {}


@pytest.mark.parametrize("axis", [*AXES, *QL_AXES])
def test_the_pipeline_time_grows_at_most_loosely_linearly(axis):
    small, large = _axis_stages(axis, N), _axis_stages(axis, 8 * N)
    enabled = gc.isenabled()
    gc.disable()
    try:
        ratio = _best_time(large) / _best_time(small)
    finally:
        if enabled:
            gc.enable()
    assert ratio <= TIME_RATIO
