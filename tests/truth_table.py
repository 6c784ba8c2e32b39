"""Truth-table oracle over the IR's boolean layer, for the logic tests:
the comparison atoms of an expression, its value under an assignment of
them, every assignment, its whole truth table as one integer, and its free
variables."""

from __future__ import annotations

from typing import Iterator

from nsra.ir import And, BoolExpr, Chain, Count, Eq, Exists, Lt, Not, Or, QlExpr, TrueExpr, Var


def atoms(e: BoolExpr) -> list[BoolExpr]:
    """Distinct comparison atoms in first-appearance order."""
    seen: list[BoolExpr] = []

    def walk(node: BoolExpr) -> None:
        if isinstance(node, (Eq, Lt)):
            if node not in seen:
                seen.append(node)
        elif isinstance(node, (And, Or)):
            for i in node.items:
                walk(i)
        elif isinstance(node, Not):
            walk(node.inner)
        elif isinstance(node, Exists):
            walk(node.body)

    walk(e)
    return seen


def evaluate(e: BoolExpr, assignment: dict[BoolExpr, bool]) -> bool:
    """Truth value of ``e`` under an atom assignment.

    Exists nodes are treated as opaque atoms and must appear in the
    assignment themselves if present.
    """
    if isinstance(e, TrueExpr):
        return True
    if isinstance(e, (Eq, Lt, Exists)):
        return assignment[e]
    if isinstance(e, And):
        return all(evaluate(i, assignment) for i in e.items)
    if isinstance(e, Or):
        return any(evaluate(i, assignment) for i in e.items)
    if isinstance(e, Not):
        return not evaluate(e.inner, assignment)
    raise TypeError(f"cannot evaluate {e!r}")


def assignments(atom_list: list[BoolExpr]) -> Iterator[dict[BoolExpr, bool]]:
    """All 2^n truth assignments over the given atoms."""
    n = len(atom_list)
    for bits in range(1 << n):
        yield {atom: bool(bits >> i & 1) for i, atom in enumerate(atom_list)}


def truth_vector(e: BoolExpr, atom_list: list[BoolExpr]) -> int:
    """``e``'s truth table over ``atom_list`` as a 2^n-bit integer: bit k is
    ``evaluate(e, a)`` for the k-th assignment ``a`` of ``assignments``.

    Atom i's column has bit k set when bit i of k is, so every connective is
    one ``&``, ``|`` or ``~`` over whole columns.  Exists nodes are opaque
    atoms, as in ``evaluate``.
    """
    rows = 1 << len(atom_list)
    everything = (1 << rows) - 1
    columns = {}
    for i, atom in enumerate(atom_list):
        run = 1 << i  # the column repeats 2^i unset bits, then 2^i set bits
        columns[atom] = everything // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)

    def vector(node: BoolExpr) -> int:
        if isinstance(node, TrueExpr):
            return everything
        if isinstance(node, (Eq, Lt, Exists)):
            return columns[node]
        if isinstance(node, And):
            out = everything
            for item in node.items:
                out &= vector(item)
            return out
        if isinstance(node, Or):
            out = 0
            for item in node.items:
                out |= vector(item)
            return out
        if isinstance(node, Not):
            return ~vector(node.inner) & everything
        raise TypeError(f"cannot evaluate {node!r}")

    return vector(e)


def free_variables(e: BoolExpr, bound: frozenset[str] = frozenset()) -> set[str]:
    """Variable names used in ``e`` that no enclosing Exists binds."""
    out: set[str] = set()

    def value_vars(v: QlExpr) -> set[str]:
        if isinstance(v, Var):
            return {v.name}
        if isinstance(v, Chain):
            return value_vars(v.base)
        if isinstance(v, Count):
            return value_vars(v.inner)
        return set()

    if isinstance(e, (Eq, Lt)):
        out |= value_vars(e.left) | value_vars(e.right)
    elif isinstance(e, (And, Or)):
        for i in e.items:
            out |= free_variables(i, bound)
    elif isinstance(e, Not):
        out |= free_variables(e.inner, bound)
    elif isinstance(e, Exists):
        out |= free_variables(e.body, bound | {e.decl.var_name})
    return out - bound
