from __future__ import annotations

import random
import re
import sys
from pathlib import Path

import pytest

from nsra.errors import (
    EmptyList,
    IllegalCharacter,
    NestingTooDeep,
    QuerySyntaxError,
    Span,
    UnknownOrdinal,
    line_column,
)
from nsra.ir import TRUE, And, Chain, Decl, Eq, Exists, Lit, Lt, Not, Or, TrueExpr, Var
from nsra.lexer import IDENT, tokenize
from nsra.lowering import lower
from nsra.parser import MAX_NESTING, QL_RESERVED_WORDS, parse_text
from nsra.qlgen import normalize_ql, read_query_text, render
from nsra.syntax import (
    Basic,
    Ident,
    IfStmt,
    InvocationPattern,
    Literal,
    LiteralList,
    Necessity,
    OrderingPattern,
    Prefixed,
    QueryAst,
    SignaturePattern,
    TypeAssumption,
    query_to_text,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  the benchmark's seeded query generator


def single(text: str):
    query = parse_text(text)
    assert len(query.statements) == 1
    return query.statements[0]


def test_invocation_pattern():
    assert single("An object of Cipher invokes init.") == InvocationPattern("Cipher", "init", True)


def test_negative_invocation_contraction():
    assert single("An object of Cipher doesn't invoke init.") == InvocationPattern(
        "Cipher", "init", False
    )


def test_negative_invocation_spelled_out():
    assert single("An object of Cipher does not invoke init.") == InvocationPattern(
        "Cipher", "init", False
    )


@pytest.mark.parametrize("name", ["Signature", "Object", "Class", "Method", "Access", "signature"])
def test_class_spelled_like_a_keyword(name, registry):
    assert single(f"An object of {name} invokes m.") == InvocationPattern(name, "m", True)
    assert single(f"An object of {name} doesn't invoke m.") == InvocationPattern(name, "m", False)
    ql = render(lower(parse_text(f"An object of {name} invokes m."), registry))
    assert f'm.getReceiverType().getName() = "{name}"' in ql


@pytest.mark.parametrize(
    "text, message, start",
    [
        ("An object of invokes x.", "unexpected 'invokes' (expected class name)", 13),
        ("An object of Cipher init.", "unexpected 'init' (expected does)", 20),
        ("An object of Signature init.", "unexpected 'Signature' (expected class name)", 13),
    ],
)
def test_invocation_without_class_or_verb_is_error(text, message, start):
    with pytest.raises(QuerySyntaxError) as err:
        parse_text(text)
    assert err.value.message == message
    assert err.value.span.start == start


def test_ordering_precedes():
    assert single("getInstance precedes init.") == OrderingPattern("getInstance", "init")


def test_ordering_follows_swaps():
    stmt = single("init follows getInstance.")
    assert stmt == OrderingPattern("getInstance", "init")
    assert (stmt.before, stmt.after) == ("getInstance", "init")


def test_the_two_ordering_verbs_give_one_parse_tree():
    follows = parse_text("init follows getInstance.")
    assert parse_text("getInstance precedes init.") == follows
    assert query_to_text(follows) == "getInstance precedes init."
    assert parse_text(query_to_text(follows)) == follows


def test_type_assumption():
    assert single("var1 is a variable.") == Basic(Ident("var1"), TypeAssumption("variable"))


def test_method_access_assumption():
    assert single("m is a method access.") == Basic(Ident("m"), TypeAssumption("method access"))


def test_prefix_nesting_outermost_first():
    stmt = single('the type of the second argument of init is "PrivateKey".')
    assert stmt == Basic(
        Prefixed("type", None, Prefixed("argument", 2, Ident("init"))),
        Literal("PrivateKey"),
    )


def test_membership():
    stmt = single('arg1 is in ["RSA", "AES"].')
    assert stmt == Basic(Ident("arg1"), LiteralList((Literal("RSA"), Literal("AES"))))


def test_is_not_negates():
    stmt = single('init is not "x".')
    assert stmt == Basic(Ident("init"), Literal("x"), negated=True)


def test_reversed_equality_stored_symmetrically():
    forward = single('the algorithm of getInstance\'s first argument is "RSA".')
    reversed_ = single('"RSA" is the algorithm of getInstance\'s first argument.')
    assert forward == reversed_


def test_paraphrase_forms_identical():
    forms = [
        'the algorithm of getInstance\'s first argument is "RSA".',
        'the algorithm of the first argument of getInstance is "RSA".',
        '"RSA" is the algorithm of getInstance\'s first argument.',
        'getInstance\'s first argument\'s algorithm is "RSA".',
    ]
    parsed = [single(f) for f in forms]
    assert parsed[0] == parsed[1] == parsed[2] == parsed[3]


def test_an_article_after_a_possessive_or_its_ordinal_is_a_determiner():
    of_phrase = single('the first argument of init is "x".')
    for text in ('init\'s the first argument is "x".', 'init\'s first the argument is "x".'):
        assert single(text) == of_phrase


@pytest.mark.parametrize(
    "text, message, at",
    [
        ('"x"\'s name is 1.', "possessive marker without a possessor", 3),
        ('x is "x"\'s name.', "possessive marker without a possessor", 8),
        ('x is in ["a"\'s].', "possessive marker without a possessor", 12),
        ("'s name is 1.", "possessive marker without a possessor", 0),
        ("x is 's name.", "possessive marker without a possessor", 5),
        ("the name of 's x is 1.", "possessive marker without a possessor", 12),
        ("x's .", "possessive marker without an attribute", 1),
        ("x's first \"a\" is 1.", "possessive marker without an attribute", 1),
        ("x's name's", "possessive marker without an attribute", 8),
    ],
)
def test_possessive_marker_errors_point_at_the_marker(text, message, at):
    with pytest.raises(IllegalCharacter) as info:
        parse_text(text)
    assert (info.value.message, info.value.span) == (message, Span(at, at + 2))


def test_errors_come_in_text_order():
    """A syntax error in one sentence is reported before a bad possessive
    in a later one, which a token rewrite before the parse reported first."""
    with pytest.raises(QuerySyntaxError) as info:
        parse_text('x is is 1. "a"\'s name is 1.')
    assert info.value.span == Span(5, 7)


def test_it_is_false_that():
    stmt = single('It is false that a is "x".')
    assert stmt == Not(Basic(Ident("a"), Literal("x")))


def test_if_then():
    stmt = single('If arg1 is "RSA" then arg2 is "AES".')
    assert stmt == IfStmt(
        Basic(Ident("arg1"), Literal("RSA")), Basic(Ident("arg2"), Literal("AES"))
    )


def test_comma_tolerated_before_then():
    with_comma = single('if a is "x", then b is "y".')
    without = single('if a is "x" then b is "y".')
    assert with_comma == without


def test_necessity():
    stmt = single('It is necessary that a is "x".')
    assert stmt == Necessity(Basic(Ident("a"), Literal("x")))


def test_necessity_cannot_nest():
    with pytest.raises(QuerySyntaxError):
        parse_text('It is necessary that it is necessary that a is "x".')


def test_and_binds_tighter_than_or():
    stmt = single('a is "1" and b is "2" or c is "3".')
    assert isinstance(stmt, Or)
    assert isinstance(stmt.items[0], And)
    assert isinstance(stmt.items[1], Basic)


def test_false_that_binds_one_unit():
    stmt = single('It is false that a is "1" and b is "2".')
    assert isinstance(stmt, And)
    assert isinstance(stmt.items[0], Not)


def test_false_that_captures_if_then():
    stmt = single('It is false that if a is "1" then b is "2" or it is false that c is "3".')
    assert isinstance(stmt, Or)
    assert isinstance(stmt.items[0], Not)
    assert isinstance(stmt.items[0].inner, IfStmt)
    assert isinstance(stmt.items[1], Not)


def test_if_condition_takes_or_chain():
    stmt = single('if a is "1" or b is "2" then c is "3".')
    assert isinstance(stmt, IfStmt)
    assert isinstance(stmt.cond, Or)


def test_then_branch_takes_and_chain():
    stmt = single('if a is "1" then b is "2" and c is "3".')
    assert isinstance(stmt, IfStmt)
    assert isinstance(stmt.then, And)


def test_signature_pattern():
    stmt = single('getInstance\'s signature is ["int", "Certificate"].')
    assert stmt == SignaturePattern("getInstance", ("int", "Certificate"), True)


def test_signature_negative_with_ellipsis():
    stmt = single(
        "getInstance's signature is not [\"int\"] and is not [\"int\", \"Key\"]."
    )
    assert stmt == And(
        (
            SignaturePattern("getInstance", ("int",), False),
            SignaturePattern("getInstance", ("int", "Key"), False),
        )
    )


def test_ellipsis_without_subject_rejected():
    with pytest.raises(QuerySyntaxError):
        parse_text('a is "1" and is not ["int"].')


def test_empty_list_rejected():
    with pytest.raises(EmptyList):
        parse_text("arg1 is in [].")


def test_unknown_ordinal_reported():
    text = 'the eleventh argument of init is "x".'
    with pytest.raises(UnknownOrdinal) as info:
        parse_text(text)
    assert info.value.message == "unknown ordinal adjective 'eleventh'"
    assert text[info.value.span.start : info.value.span.end] == "eleventh"


def test_ordinals_first_through_tenth_accepted():
    words = ["first", "second", "third", "fourth", "fifth", "sixth", "seventh", "eighth", "ninth", "tenth"]
    for i, word in enumerate(words, start=1):
        stmt = single(f'the {word} argument of init is "x".')
        assert stmt.lhs == Prefixed("argument", i, Ident("init"))


def test_misspelled_keyword_is_error():
    with pytest.raises(QuerySyntaxError):
        parse_text("getInstance precede init.")


def test_missing_period_is_error():
    with pytest.raises(QuerySyntaxError):
        parse_text("An object of Cipher invokes init")


def test_error_spans_inside_input():
    text = "An object of Cipher invokes init"
    try:
        parse_text(text)
    except QuerySyntaxError as err:
        assert err.span is not None
        assert 0 <= err.span.start <= err.span.end <= len(text)
    else:  # pragma: no cover
        raise AssertionError("expected a syntax error")


@pytest.mark.parametrize(
    "text, message, line_col",
    [
        ("An object of C invokes m.\nsignature of m is [\"int\", 2].", "type names as strings", (2, 27)),
        ('An object of C invokes m.\n"x" is in ["y"].', "a literal cannot be the subject", (2, 1)),
        ('An object of C invokes m.\n"x" is a variable.', "a literal cannot be the subject", (2, 1)),
        ("An object of C invokes m.\nx is not a variable.", "cannot be negated", (2, 6)),
        ('An object of C invokes m.\nthe type of the second argument of "RSA" is "K".', "a literal cannot", (2, 36)),
        ('An object of C invokes m.\nthe name of "x" is "y".', "a literal cannot be the subject", (2, 13)),
    ],
    ids=[
        "integer-type-name",
        "literal-list-subject",
        "literal-type-subject",
        "negated-type",
        "attribute-of-literal",
        "name-of-literal",
    ],
)
def test_error_points_at_offending_token(text, message, line_col):
    with pytest.raises(QuerySyntaxError) as info:
        parse_text(text)
    assert message in info.value.message
    assert line_column(text, info.value.span.start) == line_col


def test_statement_order_preserved():
    query = parse_text("An object of Cipher invokes init. An object of Cipher invokes getInstance.")
    assert [s.method_name for s in query.statements] == ["init", "getInstance"]


def test_keywords_case_insensitive():
    upper = single('IT IS NECESSARY THAT a IS "x".')
    lower = single('it is necessary that a is "x".')
    assert upper == lower


def test_identifiers_case_sensitive():
    a = single('Init is "x".')
    b = single('init is "x".')
    assert a != b


# --- printer round trip ------------------------------------------------------


def _random_query(rng: random.Random) -> str:
    """Sample a random surface query from the grammar."""
    idents = ["init", "getInstance", "update", "doFinal"]
    attrs = ["algorithm", "mode", "name", "padding"]

    def exp() -> str:
        base = rng.choice(idents)
        text = base
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.5:
                ordinal = rng.choice(["first", "second", "third"])
                text = f"{ordinal} argument of {text}"
            else:
                text = f"{rng.choice(attrs)} of {text}"
        return text

    def basic() -> str:
        if rng.random() < 0.3:
            items = ", ".join(f'"{rng.choice("ABC")}{i}"' for i in range(rng.randint(1, 3)))
            return f"{exp()} is in [{items}]"
        verb = "is not" if rng.random() < 0.3 else "is"
        return f'{exp()} {verb} "{rng.choice("XYZ")}"'

    def unit(depth: int) -> str:
        roll = rng.random()
        if depth > 1:
            return basic()
        if roll < 0.2:
            return f"it is false that {basic()}"
        if roll < 0.4:
            return f"if {basic()} then {basic()}"
        if roll < 0.5:
            return f"An object of Cipher invokes {rng.choice(idents)}"
        return basic()

    def statement() -> str:
        parts = [unit(0)]
        for _ in range(rng.randint(0, 2)):
            parts.append(rng.choice([" and ", " or "]) + unit(1))
        return "".join(parts)

    sentences = []
    for _ in range(rng.randint(1, 3)):
        body = statement()
        if rng.random() < 0.3:
            body = f"It is necessary that {body}"
        sentences.append(body + ".")
    return " ".join(sentences)


def test_print_parse_round_trip():
    rng = random.Random(20240817)
    for _ in range(300):
        text = _random_query(rng)
        first = parse_text(text)
        printed = query_to_text(first)
        second = parse_text(printed)
        assert second == first, f"round trip failed for {text!r} -> {printed!r}"


def test_round_trip_on_task_queries(golden_dir):
    for name in ("example_invoke", "task1", "task2", "task3"):
        text = (golden_dir / f"{name}.nsra").read_text(encoding="utf-8")
        first = parse_text(text)
        assert parse_text(query_to_text(first)) == first


def test_round_trip_on_generated_queries():
    """Successive task-sized benchmark queries, in both phrasings, reach the
    printer's type assumptions, orderings and integer literals.  One
    generator makes them all: a fresh one makes the same shapes whatever
    its seed."""
    generator = gen.Generator(0)
    for _ in range(100):
        query = generator.task_sized(8)
        for phrasing in ("poss", "plain"):
            first = parse_text(query.text(phrasing))
            assert parse_text(query_to_text(first)) == first


def test_nodes_compare_by_type_and_fields():
    stmt = InvocationPattern("Cipher", "init", True)
    assert Literal("x") != Ident("x")
    assert And((stmt,)) != Or((stmt,))
    assert And((stmt,)) == And((InvocationPattern("Cipher", "init", True),))
    assert hash(Prefixed("type", None, Ident("k"))) == hash(Prefixed("type", None, Ident("k")))
    assert {Literal("x"): 1, Ident("x"): 2}[Ident("x")] == 2
    assert OrderingPattern(before="init", after="doFinal") == OrderingPattern("init", "doFinal")
    assert repr(Prefixed("argument", 2, Ident("init"))) == (
        "Prefixed(attribute='argument', ordinal=2, inner=Ident(name='init'))"
    )


def test_ir_nodes_compare_by_type_and_fields():
    # truth_table.atoms and lowering._collect_decls tell nodes apart by ``==``.
    a, b = Var("a"), Chain(Var("b"), ("getName()",))
    assert Eq(a, b) != Lt(a, b)
    assert Var("x") != Lit("x")
    assert And((Eq(a, b),)) != Or((Eq(a, b),))
    assert Not(Eq(a, b)) == Not(Eq(Var("a"), Chain(Var("b"), ("getName()",))))
    # Equal nodes hash equal, so they work as set members and dict keys.
    assert hash(Eq(a, b)) == hash(Eq(Var("a"), Chain(Var("b"), ("getName()",))))
    assert hash(Decl("init", "MethodAccess")) == hash(Decl("init", "MethodAccess"))
    assert {Eq(a, b): 1, Lt(a, b): 2}[Lt(Var("a"), b)] == 2
    assert TrueExpr() == TRUE and hash(TrueExpr()) == hash(TRUE)
    # A node hashes as the tuple of its fields, whatever their number.
    assert (hash(TRUE), hash(Var("x")), hash(Decl("m", "T"))) == (hash(()), hash(("x",)), hash(("m", "T")))
    assert repr(Var("x")) == "Var(name='x')"
    assert repr(Exists(Decl("m", "MethodAccess"), TRUE)) == (
        "Exists(decl=Decl(var_name='m', ql_type='MethodAccess'), body=TrueExpr())"
    )


def test_empty_signature_and_empty_query_rejected():
    text = "An object of C invokes m. signature of m is []."
    with pytest.raises(EmptyList) as info:
        parse_text(text)
    assert text[info.value.span.start : info.value.span.end] == "[]"
    for empty in ("", " \n "):
        with pytest.raises(QuerySyntaxError, match="empty query"):
            parse_text(empty)


@pytest.mark.parametrize(
    "text, message, at",
    [
        ('x is in ["a",', "unexpected end of query (expected a literal)", 13),
        ("x is in [foo].", "unexpected 'foo' (expected a string or integer literal)", 9),
        ("x is", "unexpected end of query (expected an expression)", 4),
        ("x is .", "unexpected '.' (expected an expression)", 5),
        ('the first "x" of init is "a".', "unexpected 'x' (expected attribute word)", 10),
        ("the first", "unexpected end of query (expected attribute word)", 9),
        # The end of the query, after each construct that can reach it.
        ("x is 1", "unexpected end of query (expected '.')", 6),
        ("An object", "unexpected end of query (expected of)", 9),
        ("An object of", "unexpected end of query (expected class name)", 12),
        ("if x is 1", "unexpected end of query (expected then)", 9),
        ("x is a variable", "unexpected end of query (expected '.')", 15),
        ("It is necessary that", "unexpected end of query (expected an expression)", 20),
        ("x is  ", "unexpected end of query (expected an expression)", 4),  # the last token's end
        # A string literal and an integer literal cannot be compared, in either order or in a list.
        ('1 is "a".', "a string cannot be compared with an integer", 5),
        ('"a" is 1.', "a string cannot be compared with an integer", 7),
        ('x is in [1, "a"].', "a string cannot be compared with an integer", 12),
        ('x is not in ["a", "b", 2].', "a string cannot be compared with an integer", 23),
        # Each way into a construct that one parser branch reads: a signature's subject, an ordering's
        # right name, and ``W of X`` with or without an ordinal.
        ('signature m is ["a"].', "unexpected 'm' (expected of)", 10),
        ('signature of "m" is ["a"].', "unexpected 'm' (expected method name)", 13),
        ("An object of C invokes m. m's signature is [1].", "signature lists hold type names as strings", 44),
        ("x precedes 1.", "unexpected '1' (expected method name)", 11),
        ("the first of x is 1.", "unexpected 'x' (expected of)", 13),
        ('x is a variable. the name of 1 is "a".', "a literal cannot be the subject here", 29),
    ],
)
def test_syntax_error_branches(text, message, at):
    with pytest.raises(QuerySyntaxError) as info:
        parse_text(text)
    assert (info.value.message, info.value.span.start) == (message, at)


# CodeQL's reserved words that lex as names, the ones the QL reader parses
# first; the others are controlled-English keywords, which are no names either.
_RESERVED_NAMES = ["from", "where", "select", "exists", "count"]
_RESERVED_NAMES += sorted(w for w in QL_RESERVED_WORDS - {*_RESERVED_NAMES} if tokenize(w)[0].kind is IDENT)


@pytest.mark.parametrize("keyword", _RESERVED_NAMES)
@pytest.mark.parametrize(
    "template",
    ["An object of Cipher invokes {}.", "An object of Cipher does not invoke {}.", "{} is a variable.",
     "x is a variable. the name of x is {}."],
)
def test_ql_keywords_cannot_be_names(keyword, template):
    """The benchmark generator names nothing so."""
    assert keyword not in {*gen.METHODS, *gen.VARIABLES}
    text = template.format(keyword)
    with pytest.raises(QuerySyntaxError) as info:
        parse_text(text)
    message = f"the CodeQL keyword {keyword!r} cannot be a name"
    at = text.index(keyword)
    assert (info.value.message, info.value.span) == (message, Span(at, at + len(keyword)))


def test_ql_keywords_may_name_classes_and_differ_in_case():
    assert parse_text("An object of exists invokes init. Count is a variable.") == QueryAst(
        (InvocationPattern("exists", "init", True), Basic(Ident("Count"), TypeAssumption("variable")))
    )


# --- nesting depth -------------------------------------------------------------

_EQ = 'init is "x"'

# Each phrase nested ``n`` deep, and the word that opens each level.
NESTINGS = {
    "it is false that": (lambda n: "It is false that " * n + _EQ, "It"),
    "the name of": (lambda n: "the name of " * n + _EQ, "name"),
    "if .. then, as the consequence": (lambda n: f"if {_EQ} then " * n + _EQ, "if"),
    "if .. then, as the condition": (lambda n: "if " * n + _EQ + f" then {_EQ}" * n, "if"),
    "'s name": (lambda n: "init" + "'s name" * n + ' is "x"', "name"),
}


@pytest.mark.parametrize("phrase", NESTINGS)
def test_nesting_at_the_limit_compiles(phrase, registry):
    """Every stage, down to reading the output back, copes with the deepest
    nesting the parser accepts."""
    nested, _ = NESTINGS[phrase]
    ir = lower(parse_text(f"An object of Cipher invokes init. {nested(MAX_NESTING)}."), registry)
    out = render(ir)
    assert read_query_text(out) == ir
    assert normalize_ql(out) == normalize_ql(normalize_ql(out))


@pytest.mark.parametrize("phrase", NESTINGS)
def test_nesting_past_the_limit_is_an_error(phrase):
    """The error points at the word that opens the level past the limit."""
    nested, opener = NESTINGS[phrase]
    text = f"An object of Cipher invokes init. {nested(MAX_NESTING + 1)}."
    with pytest.raises(NestingTooDeep) as info:
        parse_text(text)
    assert info.value.message == f"phrases nested more than {MAX_NESTING} deep"
    openers = [m.start() for m in re.finditer(rf"\b{opener}\b", text)]
    assert (len(openers), info.value.span.start) == (MAX_NESTING + 1, openers[MAX_NESTING])


def test_nesting_counts_every_phrase_together():
    half = MAX_NESTING // 2
    parse_text("It is false that " * half + "the name of " * (MAX_NESTING - half) + _EQ + ".")
    with pytest.raises(NestingTooDeep):
        parse_text("It is false that " * half + "the name of " * (MAX_NESTING - half + 1) + _EQ + ".")
