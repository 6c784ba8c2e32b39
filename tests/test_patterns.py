from __future__ import annotations

import pytest

from nsra.ir import And, Chain, Count, Decl, Eq, Exists, Lit, Lt, Not, Var
from nsra.lowering import lower
from nsra.parser import parse_text
from nsra.patterns import lower_invocation, lower_ordering, lower_signature
from truth_table import free_variables


def test_positive_invocation(registry):
    assert lower_invocation("Cipher", "init", True) == And(
        (
            Eq(Chain(Var("init"), ("getMethod()", "getName()")), Lit("init")),
            Eq(Chain(Var("init"), ("getReceiverType()", "getName()")), Lit("Cipher")),
        )
    )
    ir = lower(parse_text("An object of Cipher invokes init."), registry)
    assert ir.decls == (Decl("init", "MethodAccess"),)


def test_negative_invocation(registry):
    cond = lower_invocation("Cipher", "init", False)
    assert isinstance(cond, Not)
    exists = cond.inner
    assert isinstance(exists, Exists)
    assert exists.decl == Decl("init", "MethodAccess")
    ir = lower(parse_text("An object of Cipher does not invoke init."), registry)
    assert ir.decls == ()


def test_negative_invocation_no_free_variables():
    assert free_variables(lower_invocation("Cipher", "init", False)) == set()


def test_positive_invocation_getinstance():
    left = lower_invocation("Cipher", "getInstance", True).items[0]
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


def test_invocation_requires_names():
    with pytest.raises(ValueError):
        lower_invocation("", "init", True)


def test_ordering_conjunction():
    cond = lower_ordering("getInstance", "init")
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


def test_ordering_self_is_emitted_as_written():
    cond = lower_ordering("a", "a")
    line_cmp = cond.items[1]
    assert isinstance(line_cmp, Lt)
    assert line_cmp.left == line_cmp.right  # unsatisfiable, by design


def test_signature_two_types():
    cond = lower_signature("getInstance", ("int", "Certificate"), True)
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


def test_signature_three_types_third_slot():
    cond = lower_signature("getInstance", ("int", "Certificate", "SecureRandom"), True)
    assert cond.items[0].right == Lit(3)
    assert cond.items[3] == Eq(
        Chain(Var("getInstance"), ("getArgument(2)", "getType()", "toString()")),
        Lit("SecureRandom"),
    )


def test_signature_conjunct_count_is_n_plus_one():
    for n in range(1, 6):
        types = tuple(f"T{i}" for i in range(n))
        cond = lower_signature("m", types, True)
        assert len(cond.items) == n + 1


def test_signature_negative_wraps():
    cond = lower_signature("m", ("int",), False)
    assert isinstance(cond, Not)
    assert len(cond.inner.items) == 2


def test_signature_rejects_empty_list():
    with pytest.raises(ValueError):
        lower_signature("m", (), True)
