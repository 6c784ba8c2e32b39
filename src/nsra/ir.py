"""Logical intermediate representation and its simplifier.

``QlExpr`` models values (variables, literals, call chains, count); the
boolean layer is an and/or/not/exists tree over comparisons.  ``simplify``
applies exactly three rewrites: double-negation removal, flattening of
nested same-operator nodes, and pushing a negation through a connective
when (and only when) doing so strictly reduces the number of negations in
the tree, which keeps one negation in front of membership groups while
turning negated implications into ``p and not q`` form.
"""

from __future__ import annotations

from .errors import Record


# --- value expressions -------------------------------------------------------


class Var(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Lit(Record):
    __slots__ = ("value",)

    def __init__(self, value: str | int):
        self.value = value


class Chain(Record):
    """A call chain: base expression followed by rendered call steps, e.g.
    ``Chain(Var("init"), ("getMethod()", "getName()"))``."""

    __slots__ = ("base", "steps")

    def __init__(self, base: QlExpr, steps: tuple[str, ...]):
        self.base, self.steps = base, steps

    def extended(self, steps: tuple[str, ...]) -> Chain:
        return Chain(self.base, self.steps + steps)


class Count(Record):
    __slots__ = ("inner",)

    def __init__(self, inner: QlExpr):
        self.inner = inner


QlExpr = Var | Lit | Chain | Count


# --- boolean expressions -----------------------------------------------------


class Eq(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: QlExpr, right: QlExpr):
        self.left, self.right = left, right


class Lt(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: QlExpr, right: QlExpr):
        self.left, self.right = left, right


class And(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple[BoolExpr, ...]):
        self.items = items


class Or(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple[BoolExpr, ...]):
        self.items = items


class Not(Record):
    __slots__ = ("inner",)

    def __init__(self, inner: BoolExpr):
        self.inner = inner


class Decl(Record):
    __slots__ = ("var_name", "ql_type")

    def __init__(self, var_name: str, ql_type: str):
        self.var_name, self.ql_type = var_name, ql_type


class Exists(Record):
    __slots__ = ("decl", "body")

    def __init__(self, decl: Decl, body: BoolExpr):
        self.decl, self.body = decl, body


class TrueExpr(Record):
    __slots__ = ()


TRUE = TrueExpr()

BoolExpr = Eq | Lt | And | Or | Not | Exists | TrueExpr


class QueryIR(Record):
    __slots__ = ("decls", "condition", "selects")

    def __init__(self, decls: tuple[Decl, ...], condition: BoolExpr, selects: tuple[str, ...]):
        self.decls, self.condition, self.selects = decls, condition, selects


# --- simplifier --------------------------------------------------------------


def conjoin(items: list[BoolExpr]) -> BoolExpr:
    items = [i for i in items if not isinstance(i, TrueExpr)]
    if not items:
        return TRUE
    if len(items) == 1:
        return items[0]
    return And(tuple(items))


def disjoin(items: list[BoolExpr]) -> BoolExpr:
    if not items:
        raise ValueError("empty disjunction")
    if len(items) == 1:
        return items[0]
    return Or(tuple(items))


def _push_pays(group: And | Or) -> bool:
    """Whether negating ``group`` by De Morgan strictly drops the negation
    count, i.e. its negated children outweigh the plain ones."""
    negated = sum(1 for i in group.items if isinstance(i, Not))
    return len(group.items) - negated < 1 + negated


def _dual(group: And | Or) -> BoolExpr:
    """De Morgan dual of a negated group: ``not (a and b)`` -> ``not a or not b``."""
    flipped = tuple(Not(i) for i in group.items)
    return And(flipped) if isinstance(group, Or) else Or(flipped)


def simplify(e: BoolExpr) -> BoolExpr:
    """Normalize a boolean tree; logically equivalent to the input."""
    if isinstance(e, And):
        items: list[BoolExpr] = []
        for child in (simplify(i) for i in e.items):
            if isinstance(child, TrueExpr):
                continue
            if isinstance(child, And):
                items.extend(child.items)
            else:
                items.append(child)
        return conjoin(items)
    if isinstance(e, Or):
        items = []
        for child in (simplify(i) for i in e.items):
            # "not true" is vacuous inside a disjunction.
            if isinstance(child, Not) and isinstance(child.inner, TrueExpr):
                continue
            if isinstance(child, Or):
                items.extend(child.items)
            else:
                items.append(child)
        if not items:
            return TRUE
        return disjoin(items)
    if isinstance(e, Not):
        raw = e.inner
        if isinstance(raw, Not):
            return simplify(raw.inner)
        # De Morgan push, decided on the shape as written (before
        # flattening merges nested groups).
        if isinstance(raw, (And, Or)) and _push_pays(raw):
            return simplify(_dual(raw))
        inner = simplify(raw)
        if isinstance(inner, Not):
            return inner.inner
        # Simplifying can make a push pay that did not as written; decide
        # again on the simplified group, or simplifying the result a second
        # time would push.
        if isinstance(inner, (And, Or)) and _push_pays(inner):
            return simplify(_dual(inner))
        return Not(inner)
    if isinstance(e, Exists):
        return Exists(e.decl, simplify(e.body))
    return e
