from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsra.errors import QlLexError, SourceError, line_column
from nsra.ir import (
    And,
    BoolExpr,
    Chain,
    Count,
    Decl,
    Eq,
    Exists,
    Lit,
    Lt,
    Not,
    Or,
    QueryIR,
    TRUE,
    Var,
    simplify,
)
from nsra.metrics import halstead_ql
from nsra.qlgen import (
    QL_KEYWORDS,
    _QL_TOKEN,
    _wrap,
    lex_ql,
    normalize_ql,
    read_query_text,
    render,
)
from conftest import QL_PREAMBLES, golden_text
from ql_oracle import as_parent, oracle_lex_ql, oracle_wrap

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  the benchmark's seeded query generator


def eq(name: str, value: str = "v") -> Eq:
    return Eq(Chain(Var(name), ("getName()",)), Lit(value))


INVOKE_IR = QueryIR(
    (Decl("init", "MethodAccess"),),
    And(
        (
            Eq(Chain(Var("init"), ("getMethod()", "getName()")), Lit("init")),
            Eq(Chain(Var("init"), ("getReceiverType()", "getName()")), Lit("Cipher")),
        )
    ),
    ("init",),
)


def test_render_basic_query():
    assert render(INVOKE_IR) == (
        "from MethodAccess init\n"
        'where init.getMethod().getName() = "init" and '
        'init.getReceiverType().getName() = "Cipher"\n'
        "select init\n"
    )


def test_render_matches_reference_after_normalization():
    assert normalize_ql(render(INVOKE_IR)) == normalize_ql(golden_text("example_invoke.ql"))


def test_render_deterministic():
    assert render(INVOKE_IR) == render(INVOKE_IR)


def test_render_empty_decls_selects_constant():
    ir = QueryIR((), Not(Exists(Decl("m", "MethodAccess"), eq("m"))), ())
    text = render(ir)
    assert text.startswith("where not (exists (MethodAccess m | ")
    assert text.endswith("select 1\n")
    assert "from" not in text


def test_render_escapes_embedded_quotes():
    ir = QueryIR((), Eq(Var("x"), Lit('say "hi"')), ("x",))
    assert 'x = "say \\"hi\\""' in render(ir)


def test_render_parenthesizes_or_under_and():
    cond = And((eq("a"), Or((eq("b"), eq("c", "w")))))
    ir = QueryIR((Decl("a", "T"),), cond, ("a",))
    body = render(ir).splitlines()[1]
    assert "(" in body and body.index("(") < body.index("or")


def test_render_does_not_parenthesize_and_under_or():
    cond = Or((And((eq("a"), eq("b"))), eq("c", "w")))
    ir = QueryIR((Decl("a", "T"),), cond, ("a",))
    body = render(ir).splitlines()[1]
    assert body == 'where a.getName() = "v" and b.getName() = "v" or c.getName() = "w"'


def test_render_line_width_enforced():
    with pytest.raises(ValueError):
        render(INVOKE_IR, line_width=10)


def test_render_wraps_long_conjunctions():
    cond = And(tuple(eq(f"var{i}", "x" * 10) for i in range(8)))
    ir = QueryIR((Decl("var0", "T"),), cond, ("var0",))
    text = render(ir, line_width=60)
    lines = text.splitlines()
    assert len(lines) > 3
    assert all(line.endswith("and") for line in lines[1:-2])


def test_count_rendering():
    cond = Eq(Count(Chain(Var("m"), ("getAnArgument()",))), Lit(2))
    ir = QueryIR((Decl("m", "MethodAccess"),), cond, ("m",))
    assert "count (m.getAnArgument()) = 2" in render(ir)


# --- normalize_ql -------------------------------------------------------------


def test_normalize_idempotent_on_fixtures():
    for name in ("example_invoke.ql", "task1.ql", "task2.ql", "task3.ql"):
        text = golden_text(name)
        once = normalize_ql(text)
        assert normalize_ql(once) == once


def test_normalize_collapses_whitespace():
    a = "from MethodAccess init\nwhere init.getMethod().getName() = \"init\"\nselect init"
    b = "from   MethodAccess init\n  where init.getMethod().getName()   = \"init\"\nselect   init"
    assert normalize_ql(a) == normalize_ql(b)


def test_normalize_drops_redundant_parens_around_atoms():
    a = 'from T x\nwhere (x.getName() = "v")\nselect x'
    b = 'from T x\nwhere x.getName() = "v"\nselect x'
    assert normalize_ql(a) == normalize_ql(b)


def test_normalize_restores_lost_underscores_in_literals():
    a = 'from T x\nwhere x.toString() = "Cipher.WRAP MODE"\nselect x'
    b = 'from T x\nwhere x.toString() = "Cipher.WRAP_MODE"\nselect x'
    assert normalize_ql(a) == normalize_ql(b)
    assert "WRAP_MODE" in normalize_ql(a)


def test_normalize_keeps_lowercase_spaced_strings():
    text = 'from T x\nwhere x.toString() = "private key"\nselect x'
    assert '"private key"' in normalize_ql(text)


def test_normalize_preserves_operand_order():
    text = 'from T x\nwhere x.getName() = "b" and x.getName() = "a"\nselect x'
    normalized = normalize_ql(text)
    assert normalized.index('"b"') < normalized.index('"a"')


def test_normalize_regroups_associative_parens():
    a = 'from T x\nwhere (x.a() = "1" or x.b() = "2") or x.c() = "3"\nselect x'
    b = 'from T x\nwhere x.a() = "1" or x.b() = "2" or x.c() = "3"\nselect x'
    assert normalize_ql(a) == normalize_ql(b)


def test_normalize_compares_imports_not_comments():
    query = 'from T x\nwhere x.getName() = "v"\nselect x\n'
    assert normalize_ql("import java\n" + query) == "import java\n" + normalize_ql(query)
    commented = '/** @kind problem */\nimport java // the library\n/* none */ ' + query
    assert normalize_ql(commented) == normalize_ql("import java\n" + query)
    assert normalize_ql("import semmle.code.java.Expr\nimport java\n" + query).startswith(
        "import semmle.code.java.Expr\nimport java\nfrom T x\n"
    )


def test_one_equals_one_reads_as_true():
    """``render`` spells TRUE ``1 = 1``, so the reader reads it back as TRUE
    and ``normalize_ql`` drops a ``where 1 = 1`` clause."""
    assert read_query_text("from T x\nwhere not (1 = 1)\nselect x").condition == Not(TRUE)
    assert normalize_ql("from T x\nwhere 1 = 1\nselect x") == "from T x\nselect x\n"
    assert read_query_text("select 1").condition == read_query_text("where 1 = 1 select 1").condition == TRUE


def test_normalize_non_query_text_raises_at_its_position():
    fragment = 'where\n  x.getName( )="v"  and  y . getName() = "w"'
    with pytest.raises(QlLexError) as info:
        normalize_ql(fragment)
    assert "expected select" in info.value.message
    assert line_column(fragment, info.value.span.start) == (2, 45)  # end of text


def test_normalize_unlexable_text_raises_at_its_position():
    garbage = "where ???   ???"
    with pytest.raises(QlLexError) as info:
        normalize_ql(garbage)
    assert info.value.message == "unexpected character '?'"
    assert line_column(garbage, info.value.span.start) == (1, 7)


# --- reader round trip ---------------------------------------------------------


def _values() -> st.SearchStrategy:
    names = st.sampled_from(["init", "getInstance", "m", "x"])
    steps = st.lists(
        st.sampled_from(["getName()", "getType()", "toString()", "getArgument(0)", 'splitAt("/", 1)']),
        min_size=1,
        max_size=3,
    ).map(tuple)
    chains = st.builds(Chain, names.map(Var), steps)
    literals = st.one_of(
        st.sampled_from(["RSA", "", "Cipher.ENCRYPT_MODE", 'needs "escaping"', "back\\slash"]).map(Lit),
        st.integers(min_value=0, max_value=9).map(Lit),
    )
    counts = chains.map(Count)
    return st.one_of(chains, literals, counts)


def _atoms() -> st.SearchStrategy[BoolExpr]:
    # ``1 = 1`` is how ``render`` spells TRUE, and the reader reads it so; the
    # lowering makes TRUE of an equality it would spell so.
    equality = st.builds(Eq, _values(), _values()).map(lambda e: TRUE if e == Eq(Lit(1), Lit(1)) else e)
    return equality | st.builds(Lt, _values(), _values())


def _conditions() -> st.SearchStrategy[BoolExpr]:
    return st.recursive(
        _atoms(),
        lambda children: st.one_of(
            st.lists(children, min_size=2, max_size=4).map(tuple).map(And),
            st.lists(children, min_size=2, max_size=4).map(tuple).map(Or),
            children.map(Not),
            st.builds(Exists, st.just(Decl("e", "MethodAccess")), children),
        ),
        max_leaves=12,
    )


@given(_conditions(), st.sampled_from([40, 100, math.inf]), st.sampled_from(QL_PREAMBLES))
@settings(max_examples=300, deadline=None)
def test_reader_reconstructs_rendered_condition(cond, line_width, preamble):
    ir = QueryIR((Decl("init", "MethodAccess"),), simplify(cond), ("init",))
    if isinstance(ir.condition, type(TRUE)):
        return
    text = preamble + render(ir, line_width=line_width)
    assert read_query_text(text) == ir


def test_reader_reads_select_one_as_empty_selects():
    ir = read_query_text("where not (exists (MethodAccess m | m.getName() = \"x\"))\nselect 1")
    assert ir.selects == ()
    assert ir.decls == ()


def test_lexer_error_positions():
    with pytest.raises(QlLexError):
        lex_ql('x = "unterminated')


def test_backslash_newline_in_string_reads_as_newline():
    text = 'from T x\nwhere x.a() = "p\\\nq"\nselect x\n'
    ir = read_query_text(text)
    assert ir.condition == Eq(Chain(Var("x"), ("a()",)), Lit("p\nq"))
    assert read_query_text(normalize_ql(text)) == ir


def test_lex_ql_skips_comments():
    text = '/** QLDoc\n @kind problem */ from // to the end of the line\nT /* inline */ x = "a \\" b" 12'
    assert lex_ql(text) == ["from", "T", "x", "=", '"a \\" b"', "12"]
    with pytest.raises(QlLexError) as info:
        lex_ql("select x /* never closed")
    assert info.value.message == "unterminated comment"
    assert info.value.span.start == 9
    with pytest.raises(QlLexError) as info:  # one scan to the end, not one per opener
        lex_ql("x" + " /* never closed" * 20000)
    assert info.value.span.start == 2


# --- separators, integers, and a reader that never crashes ---------------------


@pytest.mark.parametrize(
    "query, at",
    [
        ("from T x, T y\nwhere x.a() = 1\nselect x y", "y"),  # select items need a comma
        ("from T a, T b\nwhere a.a() = 1\nselect a,,b", ",b"),
        ("from T a\nwhere a.a() = 1\nselect a,", None),  # the end of the text
        ('from T x\nwhere x.f("x" "y") = 1\nselect x', '"y"'),  # so do call arguments
        ("from T x\nwhere x.f(,1) = 1\nselect x", ",1"),
        ("from T x\nwhere x.f(1,) = 1\nselect x", ") ="),
    ],
)
def test_list_items_take_exactly_one_comma_between(query, at):
    for read in (normalize_ql, read_query_text):
        with pytest.raises(QlLexError) as info:
            read(query)
        assert info.value.span.start == (len(query) if at is None else query.rindex(at))


@pytest.mark.parametrize(
    "text, message",
    [('import "A B"\nselect 1', "expected ident, found 'A B'"), ('select "A B"', "unexpected 'A B' in select list")],
)
def test_errors_quote_a_string_as_written(text, message):
    for read in (normalize_ql, read_query_text):
        with pytest.raises(QlLexError) as info:
            read(text)
        assert info.value.message == message


@pytest.mark.parametrize(
    "text, message, at",
    [
        ("from MethodAccess where select where", "expected ident, found 'where'", 18),  # a declared name
        ("from not x select x", "expected ident, found 'not'", 5),  # a declared type
        ("from T x where exists (from y | y = 1) select x", "expected ident, found 'from'", 23),
        ("from T x select x, count", "unexpected 'count' in select list", 19),
        ("from T x where where = 1 select x", "unexpected 'where' in value position", 15),  # a chain base
        ("from T x where x.and() = 1 select x", "expected ident, found 'and'", 17),  # a call name
        ("import or\nselect 1", "expected ident, found 'or'", 7),
    ],
)
def test_no_keyword_is_read_as_a_name(text, message, at):
    for read in (normalize_ql, read_query_text):
        with pytest.raises(QlLexError) as info:
            read(text)
        assert (info.value.message, info.value.span.start) == (message, at)
    keyword = message.split("'")[1]
    assert keyword in QL_KEYWORDS and keyword in lex_ql(text)  # a keyword still lexes as its token


def test_single_commas_still_read():
    ir = read_query_text('from T a, T b\nwhere a.f("x", 1) = b.g()\nselect a, b')
    assert ir.selects == ("a", "b")
    assert ir.condition == Eq(Chain(Var("a"), ('f("x", 1)',)), Chain(Var("b"), ("g()",)))


def test_over_long_integer_is_an_error_at_it():
    query = "from T x\nwhere x.f(" + "7" * 5000 + ") = 1\nselect x"
    for read in (lex_ql, normalize_ql, read_query_text, halstead_ql):
        with pytest.raises(QlLexError) as info:
            read(query)
        assert info.value.message == "integer literal of more than 4300 digits"
        assert (info.value.span.start, info.value.span.end) == (19, 5019)


GOLDEN_QUERIES = [lex_ql(golden_text(f"{name}.ql")) for name in ("example_invoke", "task1", "task2", "task3")]
QL_ALPHABET = (
    "from", "where", "select", "and", "or", "not", "exists", "count", "import", "x", "T", "getName",
    "_y", "é", "A B", "1", "07", "٣", "²", "(", ")", ",", ".", "|", "=", "<", "[", "?", "/", "*",
    "/*", "*/", "//", '"', "\\", " ", "\n",
)


@st.composite
def _mutated_golden(draw) -> str:
    """A golden query with tokens deleted, duplicated or swapped, after a preamble."""
    tokens = list(draw(st.sampled_from(GOLDEN_QUERIES)))
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, len(tokens) - 1)), draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(("delete", "duplicate", "swap")))
        if edit == "delete":
            del tokens[i]
        elif edit == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return draw(st.sampled_from(QL_PREAMBLES)) + draw(st.sampled_from((" ", "\n"))).join(tokens)


@given(_mutated_golden() | st.lists(st.sampled_from(QL_ALPHABET), max_size=30).map("".join))
@example('from T x\nwhere x.f() = "A B"\nselect "A B"')
@example("where x.f(/* never closed")
@settings(max_examples=400, deadline=None)
def test_ql_reader_returns_or_raises_at_a_token(text):
    """Each reader returns or raises ``QlLexError`` at a token's start or at
    the end of the text, and what ``normalize_ql`` returns reads back to
    itself."""
    starts = {m.start(1) for m in _QL_TOKEN.finditer(text) if m[1]} | {len(text)}  # a comment's match holds no token
    for read in (normalize_ql, read_query_text, halstead_ql):
        try:
            out = read(text)
        except QlLexError as err:
            assert err.span.start in starts, (read.__name__, err.message, err.span)
        else:
            if read is normalize_ql:
                assert normalize_ql(out) == out


def _outcome(read, text):
    """What ``read`` makes of ``text``: its result, or its error's class, message and span."""
    try:
        return read(text)
    except SourceError as err:
        return type(err), err.message, err.span


def _generated_ql(seed: int, size: int, mutate: bool) -> str:
    """A ``large`` query's reference QL, as written or with one token swapped."""
    text = gen.Generator(seed).large(size).expected_ql
    if not mutate:
        return text
    tokens = lex_ql(text)
    i, j = seed % len(tokens), (seed * 7919) % len(tokens)
    tokens[i], tokens[j] = tokens[j], tokens[i]
    return " ".join(tokens)


@given(
    _mutated_golden()
    | st.lists(st.sampled_from(QL_ALPHABET), max_size=30).map("".join)
    | st.builds(_generated_ql, st.integers(0, 10**6), st.sampled_from((8, 40, 100)), st.booleans())
)
@example("/** doc */ import java // x\nfrom T x where x.f(/* c */ 1) = 1 select x")
@example("from T x where x.f() = 1 select x /* never closed")
@settings(max_examples=300, deadline=None)
def test_ql_read_path_matches_the_skip_prefix_oracle(text):
    """The scan without a skip prefix and the indexed chain reader give the
    old path's tokens, IR, normalized text and counts, or its error."""
    reads = (read_query_text, normalize_ql, halstead_ql)
    new = [_outcome(lex_ql, text), *(_outcome(read, text) for read in reads)]
    with as_parent():
        old = [_outcome(oracle_lex_ql, text), *(_outcome(read, text) for read in reads)]
    assert new == old


@given(
    st.sampled_from(("from ", "where ", "select ")),
    st.lists(st.text("ab( ", max_size=60), min_size=1, max_size=12),
    st.sampled_from((", ", " and ", " or ", " ")),
    st.sampled_from((40, 100, math.inf)),
)
@example("from ", ["", "x" * 50], ", ", 40)  # a line as long as its keyword does not break
@example("where ", ["a" * 30, "b" * 30, "cccc", "d" * 40], " and ", 40)
def test_wrap_equals_the_greedy_loop(first, parts, sep, line_width):
    assert _wrap(first, parts, sep, line_width) == oracle_wrap(first, parts, sep, line_width)
