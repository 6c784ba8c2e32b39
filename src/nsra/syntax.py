"""Parse-tree types for controlled-English queries, plus the canonical printer.

Expressions nest outermost-first: ``type of the second argument of init``
is ``Prefixed("type", None, Prefixed("argument", 2, Ident("init")))``.
"""

from __future__ import annotations

from .errors import Record
from .ir import And, Not, Or
from .lexer import ORDINAL_WORDS


# --- expressions -----------------------------------------------------------


class Literal(Record):
    __slots__ = ("value",)


class Ident(Record):
    __slots__ = ("name",)


class Prefixed(Record):
    """``ordinal`` is 1-based, present only when the surface text had one."""

    __slots__ = ("attribute", "ordinal", "inner")


Exp = Literal | Ident | Prefixed


# --- statement right-hand sides --------------------------------------------


class LiteralList(Record):
    __slots__ = ("items",)


class TypeAssumption(Record):
    """RHS of ``x is a variable`` style statements; ``noun`` is the English
    type noun (variable, class, method access)."""

    __slots__ = ("noun",)


# --- statements -------------------------------------------------------------


class Basic(Record):
    """``lhs is [not] rhs``: ``rhs`` is an ``Exp``, a ``LiteralList`` or a ``TypeAssumption``."""

    __slots__ = ("lhs", "rhs", "negated")
    _defaults = (False,)


class IfStmt(Record):
    __slots__ = ("cond", "then")


class Necessity(Record):
    __slots__ = ("inner",)


class InvocationPattern(Record):
    __slots__ = ("class_name", "method_name", "positive")


class OrderingPattern(Record):
    """``before precedes after``, which ``after follows before`` also reads as."""

    __slots__ = ("before", "after")


class SignaturePattern(Record):
    __slots__ = ("method_name", "type_names", "positive")


# ``and``, ``or`` and ``it is false that`` build the IR's connectives over statements.
Statement = Basic | And | Or | Not | IfStmt | Necessity | InvocationPattern | OrderingPattern | SignaturePattern


class QueryAst(Record):
    __slots__ = ("statements",)


# --- canonical printer -------------------------------------------------------


def exp_to_text(e: Exp) -> str:
    if isinstance(e, Literal):
        return literal_to_text(e)
    if isinstance(e, Ident):
        return e.name
    parts = []
    if e.ordinal is not None:
        parts.append(ORDINAL_WORDS[e.ordinal - 1])
    parts.append(e.attribute)
    parts.append("of")
    parts.append(exp_to_text(e.inner))
    return " ".join(parts)


def literal_to_text(lit: Literal) -> str:
    if isinstance(lit.value, int):
        return str(lit.value)
    return '"' + lit.value + '"'


def _list_to_text(items: tuple[Literal, ...]) -> str:
    return "[" + ", ".join(literal_to_text(i) for i in items) + "]"


def statement_to_text(s: Statement) -> str:
    if isinstance(s, Basic):
        verb = "is not" if s.negated else "is"
        if isinstance(s.rhs, TypeAssumption):
            return f"{exp_to_text(s.lhs)} {verb} a {s.rhs.noun}"
        if isinstance(s.rhs, LiteralList):
            return f"{exp_to_text(s.lhs)} {verb} in {_list_to_text(s.rhs.items)}"
        return f"{exp_to_text(s.lhs)} {verb} {exp_to_text(s.rhs)}"
    if isinstance(s, (And, Or)):
        return (" and " if isinstance(s, And) else " or ").join(statement_to_text(i) for i in s.items)
    if isinstance(s, Not):
        return f"it is false that {statement_to_text(s.inner)}"
    if isinstance(s, IfStmt):
        return f"if {statement_to_text(s.cond)} then {statement_to_text(s.then)}"
    if isinstance(s, Necessity):
        return f"It is necessary that {statement_to_text(s.inner)}"
    if isinstance(s, InvocationPattern):
        verb = "invokes" if s.positive else "does not invoke"
        return f"An object of {s.class_name} {verb} {s.method_name}"
    if isinstance(s, OrderingPattern):
        return f"{s.before} precedes {s.after}"
    if isinstance(s, SignaturePattern):
        verb = "is" if s.positive else "is not"
        items = tuple(Literal(t) for t in s.type_names)
        return f"signature of {s.method_name} {verb} {_list_to_text(items)}"
    raise TypeError(f"unknown statement {s!r}")


def query_to_text(q: QueryAst) -> str:
    """Canonical controlled-English rendering; re-parsing it reproduces ``q``."""
    return " ".join(statement_to_text(s) + "." for s in q.statements)
