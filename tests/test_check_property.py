"""``nsra check`` compares IRs, and says what the old text comparison said.

The property runs ``cli.run(["check", ...])`` and the old command of
``check_oracle`` on the same files and compares exit code, stdout and stderr.
The inputs are the goldens and the rules, the benchmark generator's
task-sized queries in both phrasings against their expected QL, token
mutations of the goldens, goldens and queries that lost underscores to
spaces, and headers of import lines and comments.  A header that is not
import lines and comments alone is the one case that may differ: the command
reads it on its own now, so it reports it at its own token.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsra.cli import run
from nsra.errors import SourceError
from nsra.qlgen import QlReader, lex_ql
from check_oracle import as_parent
from conftest import GOLDEN

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  the benchmark's seeded query generator

# (query, golden QL, whether the query needs the benchmark profile)
GOLDEN_PAIRS = [
    (p.read_text(encoding="utf-8"), p.with_suffix(".ql").read_text(encoding="utf-8"), False)
    for p in sorted(GOLDEN.glob("*.nsra")) + sorted((GOLDEN / "rules").glob("*.nsra"))
]
# A fresh generator draws the same shapes whatever its seed, so the queries
# come from one stream of each generator.
_PLAIN, _PROFILED = gen.Generator(0), gen.Generator(0, profile=True)
GENERATED_PAIRS = [
    (q.text(phrasing), q.expected_ql, q.profile)
    for q in [_PLAIN.task_sized(1 + i % 8) for i in range(40)] + [_PROFILED.task_sized(1 + i % 8) for i in range(20)]
    for phrasing in ("poss", "plain")
]
PAIRS = st.sampled_from(GOLDEN_PAIRS) | st.sampled_from(GENERATED_PAIRS)
# What a mutation of QL text inserts: every token kind, and what does not lex.
QL_ALPHABET = (
    "import", "from", "where", "select", "and", "or", "not", "exists", "count", "(", ")", ".", ",", "=",
    "<", "|", "1", "0", '"x"', '"A B"', "init", "MethodAccess", "/* c */", "//", '"', "\\", "@",
)
HEADER_LINES = ("import java", "import a.b.c", "// note", "/* c */", "/** @name x @kind problem */", "")
# Headers that are not import lines and comments alone.
BAD_HEADER_LINES = ("import a.", '"abc', "/* never closed", "import", "from T t", "select 1", ".", "where")


def _mutated(text: str, draw) -> str:
    """``text`` as QL tokens with some deleted, duplicated, swapped or inserted."""
    tokens = lex_ql(text)
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
            tokens.insert(i, draw(st.sampled_from(QL_ALPHABET)))
    return draw(st.sampled_from((" ", "\n"))).join(tokens)


def _lost_underscores(text: str, draw) -> str:
    """``text`` with some of its underscores turned into spaces."""
    parts = text.split("_")
    return "".join(p + draw(st.sampled_from(("_", " "))) for p in parts[:-1]) + parts[-1]


@st.composite
def check_inputs(draw) -> tuple:
    """A query, a golden, a profile flag and a header, or None for no ``--header``."""
    query, golden, profile = draw(PAIRS)
    change = draw(st.sampled_from(("none", "other golden", "mutated", "underscores", "query underscores")))
    if change == "other golden":
        golden = draw(PAIRS)[1]
    elif change == "mutated":
        golden = _mutated(golden, draw)
    elif change == "underscores":
        golden = _lost_underscores(golden, draw)
    elif change == "query underscores":
        query = _lost_underscores(query, draw)
    header = None
    if draw(st.booleans()):
        pool = HEADER_LINES + BAD_HEADER_LINES if draw(st.booleans()) else HEADER_LINES
        lines = draw(st.lists(st.sampled_from(pool), max_size=3))
        header = "\n".join(lines)
        golden_header = draw(st.sampled_from((header, "\n".join(draw(st.permutations(lines))), "")))
        golden = golden_header + "\n" + golden
    return query, golden, profile, header


def _header_reads_alone(header: str) -> bool:
    try:
        reader = QlReader(header)
    except SourceError:
        return False
    return not reader.tokens[reader.pos]


def _outcome(argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("check")
    (d / "crypto.profile").write_text(gen.PROFILE_TEXT, encoding="utf-8")
    return d


@given(check_inputs())
@example(("An object of Cipher invokes init.", "import java\nselect 1", False, "import java"))
@example(('An object of Cipher invokes init. init\'s first argument is "A B".', 'from MethodAccess init\nwhere '
          'init.getMethod().getName() = "init" and init.getArgument(0).toString() = "A_B"\nselect init', False, None))
@example(("An object of Cipher invokes init.", "", False, "import a."))
@example(("An object of Cipher invokes init.", "", False, '"abc'))
@settings(max_examples=400, deadline=None)
def test_check_says_what_the_text_comparison_said(files, inputs):
    query, golden, profile, header = inputs
    (files / "q.nsra").write_text(query, encoding="utf-8")
    (files / "ref.ql").write_text(golden, encoding="utf-8")
    argv = ["check", str(files / "q.nsra"), "--golden", str(files / "ref.ql")]
    argv += ["--profile", str(files / "crypto.profile")] * profile + ["--header", header] * (header is not None)
    now = _outcome(argv)
    with as_parent():
        before = _outcome(argv)
    if now != before:
        assert header is not None and not _header_reads_alone(header), (now, before)
        code, out, err = now
        assert (code, out) == (1, "") and err.startswith("error: --header: ") and err.count("\n") == 1, now
