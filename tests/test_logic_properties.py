"""Property tests for the logical transformations, checked against
brute-force truth tables."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsra.ir import (
    And,
    BoolExpr,
    Eq,
    Lit,
    Not,
    Or,
    TRUE,
    Var,
    desugar_implication,
    simplify,
)
from nsra.lowering import apply_necessity, expand_membership
from truth_table import assignments, atoms, evaluate, truth_vector

_ATOMS = [Eq(Var(f"a{i}"), Lit(i)) for i in range(10)]


def _trees(max_atoms: int = 10) -> st.SearchStrategy[BoolExpr]:
    leaves = st.sampled_from([*_ATOMS[:max_atoms], TRUE])
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, min_size=2, max_size=3).map(tuple).map(And),
            st.lists(children, min_size=2, max_size=3).map(tuple).map(Or),
            children.map(Not),
        ),
        max_leaves=10,
    )


@given(_trees(), _trees())
@settings(max_examples=200, deadline=None)
def test_implication_matches_truth_table(p, q):
    cond = desugar_implication(p, q)
    shared = atoms(And((p, q)))
    everything, p_true, q_true = (truth_vector(e, shared) for e in (TRUE, p, q))
    assert truth_vector(cond, shared) == ~p_true & everything | q_true


@given(st.lists(_trees(max_atoms=5), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_necessity_violation_semantics(constraints):
    cond = apply_necessity(constraints)
    shared = atoms(And(tuple(constraints)))
    everything = truth_vector(TRUE, shared)
    some_violated = 0
    for c in constraints:
        some_violated |= ~truth_vector(c, shared) & everything
    assert truth_vector(cond, shared) == some_violated


@given(st.lists(st.sampled_from(["RSA", "AES", "", "ECB", "42"]), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_membership_matches_any_of(items):
    lhs = Var("arg1")
    lits = [Lit(i) for i in items]
    cond = expand_membership(lhs, lits)
    # Oracle: for every choice of which equalities hold, the disjunction is
    # true iff at least one item matched.
    shared = atoms(cond)
    any_matched = 0
    for a in shared:
        any_matched |= truth_vector(a, shared)
    assert truth_vector(cond, shared) == any_matched


@given(_trees())
@settings(max_examples=300, deadline=None)
# Every disjunct is "not true": the disjunction is false, not true.
@example(Or((Not(TRUE), Not(TRUE))))
def test_simplify_preserves_truth_table(tree):
    shared = atoms(tree)
    once = simplify(tree)
    assert truth_vector(once, shared) == truth_vector(tree, shared)
    assert simplify(once) == once


@given(_trees())
@settings(max_examples=100, deadline=None)
def test_truth_vector_matches_evaluate(tree):
    """The bit-parallel oracle the tests above use agrees with the
    assignment-at-a-time one on every row."""
    shared = atoms(tree)
    vector = truth_vector(tree, shared)
    for k, env in enumerate(assignments(shared)):
        assert vector >> k & 1 == evaluate(tree, env)


@given(_trees())
@settings(max_examples=200, deadline=None)
# Flattening the inner conjunction turns the written 1 negated : 2 plain
# split into 2 : 2, which makes the De Morgan push pay on a second pass.
@example(Not(And((_ATOMS[0], Not(_ATOMS[0]), And((_ATOMS[0], Not(_ATOMS[0])))))))
def test_simplify_idempotent(tree):
    once = simplify(tree)
    assert simplify(once) == once


@given(_trees())
@settings(max_examples=200, deadline=None)
def test_simplify_removes_double_negation(tree):
    assert simplify(Not(Not(tree))) == simplify(tree)


@given(_trees())
@settings(max_examples=200, deadline=None)
def test_simplified_connectives_have_two_plus_children(tree):
    def check(node: BoolExpr) -> None:
        if isinstance(node, (And, Or)):
            assert len(node.items) >= 2
            for item in node.items:
                assert not isinstance(item, type(node))  # flattened
                check(item)
        elif isinstance(node, Not):
            assert not isinstance(node.inner, Not)
            check(node.inner)

    check(simplify(tree))
