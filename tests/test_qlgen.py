from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsra.errors import QlLexError, line_column
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
from nsra.qlgen import (
    lex_ql,
    normalize_ql,
    read_query_text,
    render,
)
from conftest import QL_PREAMBLES, golden_text


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
    comparison = st.builds(Eq, _values(), _values()) | st.builds(Lt, _values(), _values())
    return comparison


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
    text = '/** QLDoc\n @kind problem */ from // to the end of the line\nT /* inline */ x'
    tokens = lex_ql(text)
    assert [(t.kind, t.text) for t in tokens] == [("ident", "from"), ("ident", "T"), ("ident", "x")]
    assert [text[t.start : t.start + len(t.text)] for t in tokens] == ["from", "T", "x"]
    with pytest.raises(QlLexError) as info:
        lex_ql("select x /* never closed")
    assert info.value.message == "unterminated comment"
    assert info.value.span.start == 9
