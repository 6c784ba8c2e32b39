"""The three statement patterns as ``lowering`` lowers them: invocation,
ordering and signature."""

from __future__ import annotations

import pytest

from nsra.errors import EmptyList
from nsra.ir import And, Chain, Count, Decl, Eq, Exists, Lit, Lt, Not, Var
from nsra.lowering import _lower_statement, lower
from nsra.parser import parse_text
from truth_table import free_variables


def lowered(text: str, registry, declared: tuple[str, ...] = ()):
    """The condition of a one-sentence query, with ``declared`` in scope."""
    (stmt,) = parse_text(text).statements
    return _lower_statement(stmt, registry, frozenset(declared))


def test_positive_invocation(registry):
    assert lowered("An object of Cipher invokes init.", registry) == And(
        (
            Eq(Chain(Var("init"), ("getMethod()", "getName()")), Lit("init")),
            Eq(Chain(Var("init"), ("getReceiverType()", "getName()")), Lit("Cipher")),
        )
    )
    ir = lower(parse_text("An object of Cipher invokes init."), registry)
    assert ir.decls == (Decl("init", "MethodAccess"),)


def test_negative_invocation(registry):
    cond = lowered("An object of Cipher does not invoke init.", registry)
    assert isinstance(cond, Not)
    exists = cond.inner
    assert isinstance(exists, Exists)
    assert exists.decl == Decl("init", "MethodAccess")
    assert exists.body == lowered("An object of Cipher invokes init.", registry)
    ir = lower(parse_text("An object of Cipher does not invoke init."), registry)
    assert ir.decls == ()


def test_negative_invocation_no_free_variables(registry):
    assert free_variables(lowered("An object of Cipher does not invoke init.", registry)) == set()


def test_positive_invocation_getinstance(registry):
    left = lowered("An object of Cipher invokes getInstance.", registry).items[0]
    assert left == Eq(
        Chain(Var("getInstance"), ("getMethod()", "getName()")), Lit("getInstance")
    )


def test_invocation_injective_on_inputs(registry):
    seen = set()
    pairs = [("Cipher", "init"), ("Cipher", "getInstance"), ("Mac", "init")]
    for class_name, method in pairs:
        ir = lower(parse_text(f"An object of {class_name} invokes {method}."), registry)
        assert ir not in seen
        seen.add(ir)


def test_ordering_conjunction(registry):
    declared = ("getInstance", "init")
    cond = lowered("getInstance precedes init.", registry, declared)
    assert cond == And(
        (
            Eq(
                Chain(Var("getInstance"), ("getEnclosingCallable()",)),
                Chain(Var("init"), ("getEnclosingCallable()",)),
            ),
            Lt(
                Chain(Var("getInstance"), ("getLocation()", "getEndLine()")),
                Chain(Var("init"), ("getLocation()", "getEndLine()")),
            ),
        )
    )
    assert lowered("init follows getInstance.", registry, declared) == cond


def test_ordering_self_is_emitted_as_written(registry):
    cond = lowered("a precedes a.", registry, ("a",))
    line_cmp = cond.items[1]
    assert isinstance(line_cmp, Lt)
    assert line_cmp.left == line_cmp.right  # unsatisfiable, by design


def test_signature_two_types(registry):
    cond = lowered('signature of getInstance is ["int", "Certificate"].', registry, ("getInstance",))
    assert cond.items[0] == Eq(
        Count(Chain(Var("getInstance"), ("getAnArgument()",))), Lit(2)
    )
    assert cond.items[1] == Eq(
        Chain(Var("getInstance"), ("getArgument(0)", "getType()", "toString()")),
        Lit("int"),
    )
    assert cond.items[2] == Eq(
        Chain(Var("getInstance"), ("getArgument(1)", "getType()", "toString()")),
        Lit("Certificate"),
    )


def test_signature_three_types_third_slot(registry):
    text = 'signature of getInstance is ["int", "Certificate", "SecureRandom"].'
    cond = lowered(text, registry, ("getInstance",))
    assert cond.items[0].right == Lit(3)
    assert cond.items[3] == Eq(
        Chain(Var("getInstance"), ("getArgument(2)", "getType()", "toString()")),
        Lit("SecureRandom"),
    )


def test_signature_conjunct_count_is_n_plus_one(registry):
    for n in range(1, 6):
        types = ", ".join(f'"T{i}"' for i in range(n))
        cond = lowered(f"signature of m is [{types}].", registry, ("m",))
        assert len(cond.items) == n + 1


def test_signature_rejects_empty_list(registry):
    # The parser's EmptyList is the one guard: an empty signature list never
    # reaches lowering, in either polarity.
    for text in ("signature of m is [].", "signature of m is not []."):
        with pytest.raises(EmptyList, match="empty list"):
            lower(parse_text(f"An object of C invokes m. {text}"), registry)


def test_signature_negative_wraps(registry):
    cond = lowered('signature of m is not ["int"].', registry, ("m",))
    assert isinstance(cond, Not)
    assert len(cond.inner.items) == 2
