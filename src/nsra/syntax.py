"""Parse-tree types for controlled-English queries, plus the canonical printer.

Expressions nest outermost-first: ``type of the second argument of init``
is ``Prefixed("type", None, Prefixed("argument", 2, Ident("init")))``.
"""

from __future__ import annotations

from .errors import Record
from .lexer import ORDINALS


# --- expressions -----------------------------------------------------------


class Literal(Record):
    __slots__ = ("value",)

    def __init__(self, value: str | int):
        self.value = value


class Ident(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Prefixed(Record):
    """``ordinal`` is 1-based, present only when the surface text had one."""

    __slots__ = ("attribute", "ordinal", "inner")

    def __init__(self, attribute: str, ordinal: int | None, inner: Exp):
        self.attribute, self.ordinal, self.inner = attribute, ordinal, inner


Exp = Literal | Ident | Prefixed


# --- statement right-hand sides --------------------------------------------


class LiteralList(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple[Literal, ...]):
        self.items = items


class TypeAssumption(Record):
    """RHS of ``x is a variable`` style statements; ``noun`` is the English
    type noun (variable, class, method access)."""

    __slots__ = ("noun",)

    def __init__(self, noun: str):
        self.noun = noun


BasicRhs = Exp | LiteralList | TypeAssumption


# --- statements -------------------------------------------------------------


class Basic(Record):
    __slots__ = ("lhs", "rhs", "negated")

    def __init__(self, lhs: Exp, rhs: BasicRhs, negated: bool = False):
        self.lhs, self.rhs, self.negated = lhs, rhs, negated


class AndStmt(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple[Statement, ...]):
        self.items = items


class OrStmt(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple[Statement, ...]):
        self.items = items


class NotStmt(Record):
    __slots__ = ("inner",)

    def __init__(self, inner: Statement):
        self.inner = inner


class IfStmt(Record):
    __slots__ = ("cond", "then")

    def __init__(self, cond: Statement, then: Statement):
        self.cond, self.then = cond, then


class Necessity(Record):
    __slots__ = ("inner",)

    def __init__(self, inner: Statement):
        self.inner = inner


class InvocationPattern(Record):
    __slots__ = ("class_name", "method_name", "positive")

    def __init__(self, class_name: str, method_name: str, positive: bool = True):
        self.class_name, self.method_name, self.positive = class_name, method_name, positive


class OrderingPattern(Record):
    """``direction`` is the surface verb: precedes or follows."""

    __slots__ = ("before", "after", "direction")

    def __init__(self, before: str, after: str, direction: str = "precedes"):
        self.before, self.after, self.direction = before, after, direction


class SignaturePattern(Record):
    __slots__ = ("method_name", "type_names", "positive")

    def __init__(self, method_name: str, type_names: tuple[str, ...], positive: bool = True):
        self.method_name, self.type_names, self.positive = method_name, type_names, positive


Statement = (
    Basic | AndStmt | OrStmt | NotStmt | IfStmt | Necessity | InvocationPattern | OrderingPattern | SignaturePattern
)


class QueryAst(Record):
    __slots__ = ("statements",)

    def __init__(self, statements: tuple[Statement, ...]):
        self.statements = statements


# --- canonical printer -------------------------------------------------------

_ORDINAL_WORDS = {value: word for word, value in ORDINALS.items()}


def exp_to_text(e: Exp) -> str:
    if isinstance(e, Literal):
        return literal_to_text(e)
    if isinstance(e, Ident):
        return e.name
    parts = []
    if e.ordinal is not None:
        parts.append(_ORDINAL_WORDS[e.ordinal])
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
    if isinstance(s, AndStmt):
        return " and ".join(statement_to_text(i) for i in s.items)
    if isinstance(s, OrStmt):
        return " or ".join(statement_to_text(i) for i in s.items)
    if isinstance(s, NotStmt):
        return f"it is false that {statement_to_text(s.inner)}"
    if isinstance(s, IfStmt):
        return f"if {statement_to_text(s.cond)} then {statement_to_text(s.then)}"
    if isinstance(s, Necessity):
        return f"It is necessary that {statement_to_text(s.inner)}"
    if isinstance(s, InvocationPattern):
        verb = "invokes" if s.positive else "does not invoke"
        return f"An object of {s.class_name} {verb} {s.method_name}"
    if isinstance(s, OrderingPattern):
        if s.direction == "follows":
            return f"{s.after} follows {s.before}"
        return f"{s.before} precedes {s.after}"
    if isinstance(s, SignaturePattern):
        verb = "is" if s.positive else "is not"
        items = tuple(Literal(t) for t in s.type_names)
        return f"signature of {s.method_name} {verb} {_list_to_text(items)}"
    raise TypeError(f"unknown statement {s!r}")


def query_to_text(q: QueryAst) -> str:
    """Canonical controlled-English rendering; re-parsing it reproduces ``q``."""
    return " ".join(statement_to_text(s) + "." for s in q.statements)
