from __future__ import annotations

import pytest

from nsra import compile_text, lowering, syntax as ast
from nsra.errors import (
    DuplicateDeclaration,
    MissingOrdinal,
    OrdinalNotAllowed,
    SourceError,
    UndeclaredSubject,
    UnknownAttribute,
)
from nsra.ir import (
    And,
    Chain,
    Decl,
    Eq,
    Lit,
    Not,
    Or,
    TRUE,
    Var,
    desugar_implication,
    simplify,
)
from nsra.lowering import (
    _lower_basic,
    _resolve,
    apply_necessity,
    expand_membership,
    lower,
)
from nsra.parser import parse_text
from nsra.qlgen import normalize_ql, render
from nsra.registry import Registry, load_profile, lookup_attribute
from conftest import golden_text
from truth_table import atoms, truth_vector


def lower_text(text: str, registry):
    return lower(parse_text(text), registry)


# --- _resolve ----------------------------------------------------------------


def test_second_argument(registry):
    e = ast.Prefixed("argument", 2, ast.Ident("init"))
    assert _resolve(e, registry, frozenset({"init"})) == (Chain(Var("init"), ("getArgument(1)",)), "object")


def _lowered_lhs(e: ast.Exp, registry, declared: set[str]):  # ``e`` as lowered against a string literal
    return _lower_basic(ast.Basic(e, ast.Literal("PublicKey")), registry, frozenset(declared)).left


def test_type_of_argument_string_comparison(registry):
    e = ast.Prefixed("type", None, ast.Prefixed("argument", 2, ast.Ident("init")))
    resolved = _lowered_lhs(e, registry, {"init"})
    assert resolved == Chain(Var("init"), ("getArgument(1)", "getType()", "toString()"))


def test_object_valued_without_string_comparison_keeps_chain(registry):
    e = ast.Prefixed("type", None, ast.Prefixed("argument", 2, ast.Ident("init")))
    resolved, kind = _resolve(e, registry, frozenset({"init"}))
    assert resolved.steps[-1] == "getType()" and kind == "object"


def test_name_of_method(registry):
    e = ast.Prefixed("name", None, ast.Ident("method1"))
    assert _resolve(e, registry, frozenset({"method1"})) == (Chain(Var("method1"), ("getName()",)), "string")


def test_string_valued_rule_gets_no_tostring(registry):
    e = ast.Prefixed("algorithm", None, ast.Prefixed("argument", 1, ast.Ident("g")))
    resolved = _lowered_lhs(e, registry, {"g"})
    assert resolved.steps == (
        "getArgument(0)",
        "toString()",
        'replaceAll("\\"", "")',
        'splitAt("/", 0)',
    )


def test_unknown_attribute_propagates(registry):
    with pytest.raises(UnknownAttribute):
        _resolve(ast.Prefixed("colour", None, ast.Ident("x")), registry, frozenset({"x"}))


def test_ordinal_on_slot_free_rule(registry):
    with pytest.raises(OrdinalNotAllowed):
        _resolve(ast.Prefixed("name", 2, ast.Ident("x")), registry, frozenset({"x"}))


def test_missing_ordinal_on_slot_rule(registry):
    with pytest.raises(MissingOrdinal):
        _resolve(ast.Prefixed("argument", None, ast.Ident("x")), registry, frozenset({"x"}))


def test_undeclared_subject_check(registry):
    with pytest.raises(UndeclaredSubject):
        _resolve(ast.Ident("ghost"), registry, declared=frozenset({"init"}))


@pytest.mark.parametrize(
    "text, lookups",
    [
        ("x is a variable. the name of x is the type of x.", 2),
        ('x is a variable. the type of x is "K".', 1),
        ('An object of Cipher invokes init. The algorithm of the first argument of init is in ["AES", "DES"].', 2),
    ],
)
def test_lowering_looks_each_attribute_phrase_up_once(registry, monkeypatch, text, lookups):
    calls = []

    def counted(word, reg):
        calls.append(word)
        return lookup_attribute(word, reg)

    query = parse_text(text)
    monkeypatch.setattr(lowering, "lookup_attribute", counted)
    lower(query, registry)
    assert len(calls) == lookups


# --- logical helpers ---------------------------------------------------------


def _eq(name: str) -> Eq:
    return Eq(Var(name), Lit(name))


def test_expand_membership_order():
    lhs = Var("arg1")
    cond = expand_membership(lhs, [Lit("RSA"), Lit("AES")])
    assert cond == Or((Eq(lhs, Lit("RSA")), Eq(lhs, Lit("AES"))))


def test_expand_membership_singleton():
    lhs = Var("arg1")
    assert expand_membership(lhs, [Lit("RSA")]) == Eq(lhs, Lit("RSA"))


def test_expand_membership_keeps_empty_string():
    lhs = Var("m")
    cond = expand_membership(lhs, [Lit(""), Lit("ECB")])
    assert cond.items[0] == Eq(lhs, Lit(""))


def test_expand_membership_rejects_empty():
    with pytest.raises(ValueError):
        expand_membership(Var("x"), [])


def test_desugar_implication_shape():
    p, q = _eq("p"), _eq("q")
    assert desugar_implication(p, q) == Or((Not(p), q))


def test_desugar_implication_truth_table():
    p, q = _eq("p"), _eq("q")
    cond = desugar_implication(p, q)
    # Rows 0..3 assign (p, q) = (F, F), (T, F), (F, T), (T, T).
    assert truth_vector(cond, [p, q]) == 0b1101


def test_desugar_vacuous_antecedent_simplifies_away():
    q = _eq("q")
    assert simplify(desugar_implication(TRUE, q)) == q


def test_apply_necessity_single():
    t1 = _eq("t1")
    assert apply_necessity([t1]) == Not(t1)


def test_apply_necessity_two():
    t1, t2 = _eq("t1"), _eq("t2")
    assert apply_necessity([t1, t2]) == Or((Not(t1), Not(t2)))


def test_apply_necessity_three_truth_table():
    constraints = [_eq(n) for n in "abc"]
    cond = apply_necessity(constraints)
    # Only the last row, where all three hold, violates nothing.
    assert truth_vector(cond, constraints) == 0b01111111


def test_expression_equality_compares_strings_when_either_side_is_one(registry):
    """An object side, a declared name too, gains ``toString()`` against a
    string-valued side, as it does against a string literal; two object
    sides compare as objects."""
    invoked = "An object of Cipher invokes init. An object of Cipher invokes getInstance. "
    init_arg = Chain(Var("init"), ("getArgument(0)",))
    algorithm = Chain(
        Var("getInstance"), ("getArgument(0)", "toString()", 'replaceAll("\\"", "")', 'splitAt("/", 0)')
    )
    as_string = init_arg.extended(("toString()",))
    ir = lower_text(invoked + "The first argument of init is the algorithm of the first argument of getInstance.", registry)
    assert ir.condition.items[-1] == Eq(as_string, algorithm)
    ir = lower_text(invoked + "The algorithm of the first argument of getInstance is the first argument of init.", registry)
    assert ir.condition.items[-1] == Eq(algorithm, as_string)
    ir = lower_text(invoked + "The first argument of init is the first argument of getInstance.", registry)
    assert ir.condition.items[-1] == Eq(init_arg, Chain(Var("getInstance"), ("getArgument(0)",)))
    ir = lower_text(invoked + "The name of init is the name of getInstance.", registry)
    assert ir.condition.items[-1] == Eq(Chain(Var("init"), ("getName()",)), Chain(Var("getInstance"), ("getName()",)))
    init_name = Chain(Var("init"), ("toString()",))
    ir = lower_text(invoked + 'init is "x".', registry)
    assert ir.condition.items[-1] == Eq(init_name, Lit("x"))
    ir = lower_text(invoked + "init is the name of getInstance.", registry)
    assert ir.condition.items[-1] == Eq(init_name, Chain(Var("getInstance"), ("getName()",)))
    ir = lower_text(invoked + "init is getInstance.", registry)
    assert ir.condition.items[-1] == Eq(Var("init"), Var("getInstance"))


# --- full lowering -----------------------------------------------------------


def test_basic_invocation_ir(registry):
    ir = lower_text("An object of Cipher invokes init.", registry)
    assert [d.var_name for d in ir.decls] == ["init"]
    assert ir.decls[0].ql_type == "MethodAccess"
    assert ir.selects == ("init",)
    assert normalize_ql(render(ir)) == normalize_ql(golden_text("example_invoke.ql"))


def test_task2_matches_reference(registry):
    ir = lower_text(golden_text("task2.nsra"), registry)
    assert normalize_ql(render(ir)) == normalize_ql(golden_text("task2.ql"))


def test_two_necessities_disjoin_their_negations(registry):
    text = (
        "An object of Cipher invokes init. "
        'It is necessary that the name of init is "a". '
        'It is necessary that the name of init is "b".'
    )
    ir = lower_text(text, registry)
    assert isinstance(ir.condition, And)
    block = ir.condition.items[-1]
    assert isinstance(block, Or)
    assert len(block.items) == 2
    assert all(isinstance(i, Not) for i in block.items)


@pytest.mark.parametrize(
    "text",
    [
        "x is a variable. It is necessary that x is a variable.",
        "x is a variable. y is a variable. "
        "It is necessary that x is a variable. It is necessary that y is a variable.",
    ],
)
def test_necessities_that_always_hold_match_nothing(registry, text):
    # The violation of a necessity that always holds is "not true"; a
    # disjunction of such violations is false, not true.
    assert "where not (1 = 1)\n" in compile_text(text, registry)


def test_an_equality_spelled_like_true_lowers_to_true(registry):
    """``1 = 1`` is how QL text spells TRUE, so ``1 is 1`` lowers to TRUE and
    reads back as what it lowered to."""
    assert lower_text("x is a variable. It is false that 1 is 1.", registry).condition == Not(TRUE)
    assert lower_text("x is a variable. 1 is 2.", registry).condition == Eq(Lit(1), Lit(2))


def test_type_assumption_contributes_declaration(registry):
    ir = lower_text('var1 is a variable. the name of var1 is "x".', registry)
    assert [(d.var_name, d.ql_type) for d in ir.decls] == [("var1", "Variable")]
    assert ir.selects == ("var1",)


def test_declarations_in_first_mention_order(registry):
    ir = lower_text(
        "An object of Cipher invokes init. An object of Cipher invokes getInstance.",
        registry,
    )
    assert [d.var_name for d in ir.decls] == ["init", "getInstance"]
    assert ir.selects == ("init", "getInstance")


def test_same_invocation_twice_merges(registry):
    ir = lower_text(
        "An object of Cipher invokes init. An object of Cipher invokes init.", registry
    )
    assert [d.var_name for d in ir.decls] == ["init"]


def test_same_method_different_class_conflicts(registry):
    with pytest.raises(DuplicateDeclaration):
        lower_text(
            "An object of Cipher invokes init. An object of Mac invokes init.",
            registry,
        )


def test_undeclared_subject_in_statement(registry):
    with pytest.raises(UndeclaredSubject):
        lower_text('the name of ghost is "x".', registry)


def test_possessive_chain_lowers_like_of_chain(registry):
    invoke = "An object of Cipher invokes m. "
    chained = lower_text(invoke + 'm\'s method\'s name is "x".', registry)
    assert chained == lower_text(invoke + 'the name of the method of m is "x".', registry)
    assert Eq(Chain(Var("m"), ("getMethod()", "getName()")), Lit("x")) in chained.condition.items


def test_is_not_lowers_to_negated_equality(registry):
    ir = lower_text(
        'An object of Cipher invokes init. the name of init is not "x".', registry
    )
    negation = ir.condition.items[-1]
    assert isinstance(negation, Not)
    assert isinstance(negation.inner, Eq)


def test_type_aliases_applied_to_type_comparisons(registry):
    ir = lower_text(
        "An object of Cipher invokes init. "
        'the type of the second argument of init is "PrivateKey".',
        registry,
    )
    comparison = ir.condition.items[-1]
    assert comparison.right == Lit("java.security.PrivateKey")


def test_type_aliases_not_applied_elsewhere(registry):
    ir = lower_text(
        'An object of Cipher invokes init. the name of init is "Certificate".', registry
    )
    comparison = ir.condition.items[-1]
    assert comparison.right == Lit("Certificate")


def test_lowering_deterministic(registry):
    text = golden_text("task3.nsra")
    assert lower_text(text, registry) == lower_text(text, registry)


def test_splitting_equivalence(registry):
    """One statement with explicit negations versus two necessity statements:
    logically equivalent conditions (truth-table over shared atoms)."""
    preamble = (
        "An object of Cipher invokes init. An object of Cipher invokes getInstance. "
    )
    single = preamble + (
        "It is false that if the type of the second argument of init is "
        '"PrivateKey", then the algorithm of getInstance\'s first argument is "RSA" '
        "or it is false that if the algorithm of getInstance's first argument is "
        '"AES" then the mode of getInstance\'s first argument is "CBC".'
    )
    split = preamble + (
        "It is necessary that if the type of the second argument of init is "
        '"PrivateKey", then the algorithm of getInstance\'s first argument is "RSA". '
        "It is necessary that if the algorithm of getInstance's first argument is "
        '"AES" then the mode of getInstance\'s first argument is "CBC".'
    )
    cond_a = lower_text(single, registry).condition
    cond_b = lower_text(split, registry).condition
    shared = atoms(cond_a)
    assert {repr(a) for a in shared} == {repr(a) for a in atoms(cond_b)}
    assert truth_vector(cond_a, shared) == truth_vector(cond_b, shared)


def test_simplify_preserves_meaning_on_task_conditions(registry):
    """The rendered condition and a deliberately unsimplified lowering agree
    on every assignment."""
    for name in ("task1", "task2", "task3"):
        cond = lower_text(golden_text(f"{name}.nsra"), registry).condition
        shared = atoms(cond)
        assert truth_vector(simplify(cond), shared) == truth_vector(cond, shared)


def test_concurrent_compilation_is_deterministic(registry):
    """The pipeline holds no shared mutable state: parallel compilations of
    the same inputs agree with the serial results."""
    from concurrent.futures import ThreadPoolExecutor

    from nsra import compile_text

    texts = [golden_text(f"{name}.nsra") for name in ("task1", "task2", "task3")] * 4
    expected = [compile_text(t, registry) for t in texts]
    with ThreadPoolExecutor(max_workers=6) as pool:
        results = list(pool.map(lambda t: compile_text(t, registry), texts))
    assert results == expected


# --- the method-access class comes from the profile ----------------------------

METHOD_CALL = "[types]\nmethod access = MethodCall\n"


@pytest.mark.parametrize("name", ["example_invoke", "task1", "task2", "task3"])
def test_method_access_class_names_invocation_subjects(registry, name):
    text = golden_text(f"{name}.nsra")
    out = compile_text(text, load_profile(METHOD_CALL))
    assert "MethodAccess" not in out
    assert normalize_ql(out) == normalize_ql(compile_text(text, registry).replace("MethodAccess", "MethodCall"))


def test_does_not_invoke_binds_the_profile_class():
    out = compile_text("An object of Cipher does not invoke foo.", load_profile(METHOD_CALL))
    assert "not (exists (MethodCall foo | " in out


def test_invocation_subject_may_be_assumed_a_method_access(registry):
    text = "An object of Cipher invokes init. init is a method access."
    assert lower_text(text, load_profile(METHOD_CALL)).decls == (Decl("init", "MethodCall"),)
    assert lower_text(text, registry).decls == (Decl("init", "MethodAccess"),)


@pytest.mark.parametrize(
    "text, noun",
    [
        ("An object of Cipher invokes init.", "method access"),  # the invocation's declaration
        ("x is a method access.", "method access"),  # a type assumption
        ("k is a class.", "class"),
        ("x is a variable. An object of Cipher does not invoke init.", "method access"),  # the existential
    ],
)
def test_type_noun_without_a_types_entry_is_a_source_error(text, noun):
    # Neither the built-in profile nor its [types] section is under this one.
    reg = load_profile("name = getName()\n[types]\nvariable = Variable\n", base=Registry())
    with pytest.raises(SourceError) as info:
        lower_text(text, reg)
    assert info.value.message == f"type noun {noun!r} has no QL class: the profile has no [types] entry {noun!r}"


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("a precedes b.", UndeclaredSubject, "'a' is never introduced"),
        ("An object of C invokes a. a precedes b.", UndeclaredSubject, "'b' is never introduced"),
        ('signature of m is ["int"].', UndeclaredSubject, "'m' is never introduced"),
        ("the name of x is a variable.", UndeclaredSubject, "'name of x' is never introduced"),
        ("An object of C invokes m. m is a variable.", DuplicateDeclaration, "conflicting declarations for 'm'"),
        # A negative invocation of a declared name would rebind it in its existential.
        (
            "An object of Cipher invokes init. An object of Cipher does not invoke init.",
            DuplicateDeclaration,
            "conflicting declarations for 'init'",
        ),
        ("m is a method access. An object of C does not invoke m.", DuplicateDeclaration, "conflicting declarations for 'm'"),
    ],
)
def test_subjects_must_be_declared_once(registry, text, error, message):
    with pytest.raises(error) as info:
        lower_text(text, registry)
    assert info.value.message.startswith(message)
