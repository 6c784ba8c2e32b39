"""Lowerings for the three statement patterns.

Invocation constrains a MethodAccess variable, which ``lowering`` declares
(or binds it in an existential when negated), ordering compares enclosing
callables and end lines, and a signature constraint pins the argument count
and each argument type.
"""

from __future__ import annotations

from .ir import And, BoolExpr, Chain, Count, Decl, Eq, Exists, Lit, Lt, Not, Var

METHOD_ACCESS = "MethodAccess"


def lower_invocation(class_name: str, method_name: str, positive: bool) -> BoolExpr:
    """``An object of C invokes m`` / ``... does not invoke m``."""
    if not class_name or not method_name:
        raise ValueError("invocation pattern needs a class name and a method name")
    subject = Var(method_name)
    cond = And(
        (
            Eq(Chain(subject, ("getMethod()", "getName()")), Lit(method_name)),
            Eq(Chain(subject, ("getReceiverType()", "getName()")), Lit(class_name)),
        )
    )
    return cond if positive else Not(Exists(Decl(method_name, METHOD_ACCESS), cond))


def lower_ordering(before: str, after: str) -> BoolExpr:
    """``before precedes after``: same callable, strictly smaller end line.

    ``X follows Y`` is the caller's job to swap into (Y, X).  Same-line
    invocations never satisfy the constraint; ``(a, a)`` is emitted as the
    (unsatisfiable) comparison it denotes.
    """
    b, a = Var(before), Var(after)
    return And(
        (
            Eq(Chain(b, ("getEnclosingCallable()",)), Chain(a, ("getEnclosingCallable()",))),
            Lt(
                Chain(b, ("getLocation()", "getEndLine()")),
                Chain(a, ("getLocation()", "getEndLine()")),
            ),
        )
    )


def lower_signature(method_name: str, type_names: tuple[str, ...], positive: bool) -> BoolExpr:
    """Argument count equals the list length, then one type check per slot;
    the negative form wraps the whole conjunction in a negation."""
    if not type_names:
        raise ValueError("signature pattern needs at least one type name")
    subject = Var(method_name)
    conjuncts: list[BoolExpr] = [
        Eq(Count(Chain(subject, ("getAnArgument()",))), Lit(len(type_names)))
    ]
    for i, type_name in enumerate(type_names):
        conjuncts.append(
            Eq(
                Chain(subject, (f"getArgument({i})", "getType()", "toString()")),
                Lit(type_name),
            )
        )
    cond: BoolExpr = And(tuple(conjuncts))
    return cond if positive else Not(cond)
