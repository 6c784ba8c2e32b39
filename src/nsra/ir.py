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


class Lit(Record):
    __slots__ = ("value",)


class Chain(Record):
    """A call chain: base expression followed by rendered call steps, e.g.
    ``Chain(Var("init"), ("getMethod()", "getName()"))``."""

    __slots__ = ("base", "steps")

    def extended(self, steps: tuple[str, ...]) -> Chain:
        return Chain(self.base, self.steps + steps)


class Count(Record):
    __slots__ = ("inner",)


QlExpr = Var | Lit | Chain | Count


# --- boolean expressions -----------------------------------------------------


class Eq(Record):
    __slots__ = ("left", "right")


class Lt(Record):
    __slots__ = ("left", "right")


class And(Record):
    __slots__ = ("items",)


class Or(Record):
    __slots__ = ("items",)


class Not(Record):
    __slots__ = ("inner",)


class Decl(Record):
    __slots__ = ("var_name", "ql_type")


class Exists(Record):
    __slots__ = ("decl", "body")


class TrueExpr(Record):
    __slots__ = ()


TRUE = TrueExpr()

# Each side of ``1 = 1``, how ``render`` spells TRUE: a comparison of it with
# itself reads and lowers as TRUE.
TRUE_OPERAND = Lit(1)

BoolExpr = Eq | Lt | And | Or | Not | Exists | TrueExpr


class QueryIR(Record):
    __slots__ = ("decls", "condition", "selects")


# --- simplifier --------------------------------------------------------------


def conjoin(items: list[BoolExpr]) -> BoolExpr:
    items = [i for i in items if type(i) is not TrueExpr]
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


def desugar_implication(p: BoolExpr, q: BoolExpr) -> BoolExpr:
    """``if p then q`` as a plain condition: not p, or q."""
    return Or((Not(p), q))


def _push_pays(group: And | Or) -> bool:
    """Whether negating ``group`` by De Morgan strictly drops the negation
    count, i.e. its negated children outweigh the plain ones."""
    negated = sum(type(i) is Not for i in group.items)
    return len(group.items) - negated < 1 + negated


def _dual(group: And | Or) -> BoolExpr:
    """De Morgan dual of a negated group: ``not (a and b)`` -> ``not a or not b``."""
    flipped = tuple(Not(i) for i in group.items)
    return And(flipped) if type(group) is Or else Or(flipped)


def simplify(e: BoolExpr) -> BoolExpr:
    """Normalize a boolean tree; logically equivalent to the input."""
    group = type(e)
    if group is Eq:
        return e
    if group is And or group is Or:
        items: list[BoolExpr] = []
        for child in map(simplify, e.items):
            if type(child) is group:
                items.extend(child.items)
            # "not true" is vacuous inside a disjunction.
            elif group is And or type(child) is not Not or type(child.inner) is not TrueExpr:
                items.append(child)
        if group is And:
            return conjoin(items)
        return disjoin(items) if items else Not(TRUE)  # every disjunct was "not true"
    if group is Not:
        raw = e.inner
        kind = type(raw)
        if kind is Eq or kind is Lt:
            return e
        if kind is Not:
            return simplify(raw.inner)
        # De Morgan push, decided on the shape as written (before
        # flattening merges nested groups).
        if (kind is And or kind is Or) and _push_pays(raw):
            return simplify(_dual(raw))
        inner = simplify(raw)
        kind = type(inner)
        if kind is Not:
            return inner.inner
        # Simplifying can make a push pay that did not as written; decide
        # again on the simplified group, or simplifying the result a second
        # time would push.
        if (kind is And or kind is Or) and _push_pays(inner):
            return simplify(_dual(inner))
        return Not(inner)
    if group is Exists:
        return Exists(e.decl, simplify(e.body))
    return e
