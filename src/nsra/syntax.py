"""Parse-tree types for controlled-English queries, plus the canonical printer.

Expressions nest outermost-first: ``type of the second argument of init``
is ``Prefixed("type", None, Prefixed("argument", 2, Ident("init")))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .lexer import ORDINALS


# --- expressions -----------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: Union[str, int]


@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class Prefixed:
    attribute: str
    ordinal: int | None  # 1-based, present only when the surface text had one
    inner: "Exp"


Exp = Union[Literal, Ident, Prefixed]


# --- statement right-hand sides --------------------------------------------


@dataclass(frozen=True)
class LiteralList:
    items: tuple[Literal, ...]


@dataclass(frozen=True)
class TypeAssumption:
    """RHS of ``x is a variable`` style statements; ``noun`` is the English
    type noun (variable, class, method access)."""

    noun: str


BasicRhs = Union[Exp, LiteralList, TypeAssumption]


# --- statements -------------------------------------------------------------


@dataclass(frozen=True)
class Basic:
    lhs: Exp
    rhs: BasicRhs
    negated: bool = False


@dataclass(frozen=True)
class AndStmt:
    items: tuple["Statement", ...]


@dataclass(frozen=True)
class OrStmt:
    items: tuple["Statement", ...]


@dataclass(frozen=True)
class NotStmt:
    inner: "Statement"


@dataclass(frozen=True)
class IfStmt:
    cond: "Statement"
    then: "Statement"


@dataclass(frozen=True)
class Necessity:
    inner: "Statement"


@dataclass(frozen=True)
class InvocationPattern:
    class_name: str
    method_name: str
    positive: bool = True


@dataclass(frozen=True)
class OrderingPattern:
    before: str
    after: str
    direction: str = "precedes"  # surface verb: precedes | follows


@dataclass(frozen=True)
class SignaturePattern:
    method_name: str
    type_names: tuple[str, ...]
    positive: bool = True

    def __post_init__(self) -> None:
        if not self.type_names:
            raise ValueError("signature pattern needs at least one type name")


Statement = Union[
    Basic,
    AndStmt,
    OrStmt,
    NotStmt,
    IfStmt,
    Necessity,
    InvocationPattern,
    OrderingPattern,
    SignaturePattern,
]


@dataclass(frozen=True)
class QueryAst:
    statements: tuple[Statement, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.statements:
            raise ValueError("a query needs at least one statement")


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
