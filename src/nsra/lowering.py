"""Lowering from the parse tree to QueryIR.

Declarations come from positive invocation patterns and type assumptions in
first-mention order; everything else becomes the where-condition, with
necessity statements contributing the disjunction of their negations at the
end.  The select list is every declared variable, in declaration order.
"""

from __future__ import annotations

from . import syntax as ast
from .errors import (
    DuplicateDeclaration,
    MissingOrdinal,
    OrdinalNotAllowed,
    SourceError,
    UndeclaredSubject,
)
from .ir import (
    And,
    BoolExpr,
    Chain,
    Count,
    Decl,
    Eq,
    Exists,
    Lit,
    Lt,
    Not,
    Or,
    QlExpr,
    QueryIR,
    TRUE,
    TrueExpr,
    Var,
    conjoin,
    disjoin,
    simplify,
)
from .registry import Registry, lookup_attribute


def desugar_implication(p: BoolExpr, q: BoolExpr) -> BoolExpr:
    """``if p then q`` as a plain condition: not p, or q."""
    return Or((Not(p), q))


def apply_necessity(constraints: list[BoolExpr]) -> BoolExpr:
    """A query flags violations: some mandatory constraint must be false."""
    return disjoin([Not(c) for c in constraints])


def expand_membership(lhs: QlExpr, items: list[Lit]) -> BoolExpr:
    """Membership in a list is the disjunction of the equalities."""
    return disjoin([Eq(lhs, item) for item in items])


def resolve_exp(
    e: ast.Exp, reg: Registry, declared: frozenset[str], comparison_is_string: bool = False
) -> QlExpr:
    """Resolve an expression to a value chain.

    The innermost identifier, which must be in ``declared``, becomes a
    variable reference, each prefix layer appends its rule's calls (ordinals
    fill the slot zero-based), and an object-valued result gains a trailing
    ``toString()`` when it is about to be compared with a string.
    """
    resolved = _resolve_inner(e, reg, declared)
    if comparison_is_string and _result_kind(e, reg) == "object":
        return resolved.extended(("toString()",))  # a Prefixed resolves to a Chain
    return resolved


def _result_kind(e: ast.Exp, reg: Registry) -> str | None:
    # The kind of the outermost rule; an identifier or a literal has none.
    return lookup_attribute(e.attribute, reg).result_kind if isinstance(e, ast.Prefixed) else None


def _resolve_inner(e: ast.Exp, reg: Registry, declared: frozenset[str]) -> QlExpr:
    if isinstance(e, ast.Literal):
        return Lit(e.value)
    if isinstance(e, ast.Ident):
        if e.name not in declared:
            raise UndeclaredSubject(e.name)
        return Var(e.name)
    rule = lookup_attribute(e.attribute, reg)
    if e.ordinal is not None and not rule.has_ordinal_slot:
        raise OrdinalNotAllowed(e.attribute)
    if e.ordinal is None and rule.has_ordinal_slot:
        raise MissingOrdinal(e.attribute)
    ordinal_index = None if e.ordinal is None else e.ordinal - 1
    steps = rule.render_steps(ordinal_index)
    inner = _resolve_inner(e.inner, reg, declared)
    if isinstance(inner, Chain):
        return inner.extended(steps)
    return Chain(inner, steps)


def lower(query: ast.QueryAst, reg: Registry) -> QueryIR:
    """Lower a parsed query to IR; deterministic for a given input."""
    decls = _collect_decls(query, reg)
    declared = frozenset(d.var_name for d in decls)

    plain: list[BoolExpr] = []
    necessity: list[BoolExpr] = []
    for stmt in query.statements:
        if isinstance(stmt, ast.Necessity):
            necessity.append(_lower_statement(stmt.inner, reg, declared))
        else:
            cond = _lower_statement(stmt, reg, declared)
            if not isinstance(cond, TrueExpr):
                plain.append(cond)
    if necessity:
        plain.append(apply_necessity(necessity))

    condition = simplify(conjoin(plain))
    return QueryIR(tuple(decls), condition, tuple(d.var_name for d in decls))


def _collect_decls(query: ast.QueryAst, reg: Registry) -> list[Decl]:
    """First-mention-order declarations from positive invocations and type
    assumptions anywhere in the query."""
    decls: dict[str, Decl] = {}
    invocation_class: dict[str, str] = {}

    def add(decl: Decl) -> None:
        existing = decls.get(decl.var_name)
        if existing is None:
            decls[decl.var_name] = decl
        elif existing != decl:
            raise DuplicateDeclaration(decl.var_name)

    def walk(stmt: ast.Statement) -> None:
        if isinstance(stmt, ast.InvocationPattern):
            if stmt.positive:
                # Re-invoking the same method from the same class merges;
                # the same method name under two classes is a conflict.
                known = invocation_class.get(stmt.method_name)
                if known is not None and known != stmt.class_name:
                    raise DuplicateDeclaration(stmt.method_name)
                invocation_class[stmt.method_name] = stmt.class_name
                add(Decl(stmt.method_name, _ql_type("method access", reg)))
        elif isinstance(stmt, ast.Basic) and isinstance(stmt.rhs, ast.TypeAssumption):
            if not isinstance(stmt.lhs, ast.Ident):
                raise UndeclaredSubject(ast.exp_to_text(stmt.lhs))
            add(Decl(stmt.lhs.name, _ql_type(stmt.rhs.noun, reg)))
        elif isinstance(stmt, (ast.AndStmt, ast.OrStmt)):
            for item in stmt.items:
                walk(item)
        elif isinstance(stmt, ast.NotStmt):
            walk(stmt.inner)
        elif isinstance(stmt, ast.IfStmt):
            walk(stmt.cond)
            walk(stmt.then)
        elif isinstance(stmt, ast.Necessity):
            walk(stmt.inner)

    for stmt in query.statements:
        walk(stmt)
    return list(decls.values())


def _ql_type(noun: str, reg: Registry) -> str:  # the QL class the profile's ``[types]`` gives a type noun
    if noun not in reg.ql_type_names:
        raise SourceError(f"type noun {noun!r} has no QL class: the profile has no [types] entry {noun!r}")
    return reg.ql_type_names[noun]


def _lower_statement(stmt: ast.Statement, reg: Registry, declared: frozenset[str]) -> BoolExpr:
    if isinstance(stmt, ast.Basic):
        return _lower_basic(stmt, reg, declared)
    if isinstance(stmt, ast.AndStmt):
        return And(tuple(_lower_statement(i, reg, declared) for i in stmt.items))
    if isinstance(stmt, ast.OrStmt):
        return Or(tuple(_lower_statement(i, reg, declared) for i in stmt.items))
    if isinstance(stmt, ast.NotStmt):
        return Not(_lower_statement(stmt.inner, reg, declared))
    if isinstance(stmt, ast.IfStmt):
        return desugar_implication(
            _lower_statement(stmt.cond, reg, declared),
            _lower_statement(stmt.then, reg, declared),
        )
    if isinstance(stmt, ast.InvocationPattern):
        # A positive invocation's subject is declared by ``_collect_decls``; a
        # negative one binds it in an existential.
        subject = Var(stmt.method_name)
        cond: BoolExpr = And(
            (
                Eq(Chain(subject, ("getMethod()", "getName()")), Lit(stmt.method_name)),
                Eq(Chain(subject, ("getReceiverType()", "getName()")), Lit(stmt.class_name)),
            )
        )
        if stmt.positive:
            return cond
        if stmt.method_name in declared:  # the existential would rebind the declared name
            raise DuplicateDeclaration(stmt.method_name)
        return Not(Exists(Decl(stmt.method_name, _ql_type("method access", reg)), cond))
    if isinstance(stmt, ast.OrderingPattern):
        # Same callable, strictly smaller end line, so same-line invocations
        # never satisfy an ordering; ``a precedes a`` is emitted as the
        # (unsatisfiable) comparison it denotes.  The parser has already
        # swapped ``X follows Y`` into (Y, X).
        for name in (stmt.before, stmt.after):
            if name not in declared:
                raise UndeclaredSubject(name)
        b, a = Var(stmt.before), Var(stmt.after)
        return And(
            (
                Eq(Chain(b, ("getEnclosingCallable()",)), Chain(a, ("getEnclosingCallable()",))),
                Lt(Chain(b, ("getLocation()", "getEndLine()")), Chain(a, ("getLocation()", "getEndLine()"))),
            )
        )
    if isinstance(stmt, ast.SignaturePattern):
        # The argument count equals the list length, then one type check per
        # slot; the negative form negates the whole conjunction.
        if stmt.method_name not in declared:
            raise UndeclaredSubject(stmt.method_name)
        subject = Var(stmt.method_name)
        checks = [Eq(Count(Chain(subject, ("getAnArgument()",))), Lit(len(stmt.type_names)))]
        for i, type_name in enumerate(stmt.type_names):
            checks.append(Eq(Chain(subject, (f"getArgument({i})", "getType()", "toString()")), Lit(type_name)))
        cond = And(tuple(checks))
        return cond if stmt.positive else Not(cond)
    raise TypeError(f"cannot lower {stmt!r}")


def _lower_basic(stmt: ast.Basic, reg: Registry, declared: frozenset[str]) -> BoolExpr:
    if isinstance(stmt.rhs, ast.TypeAssumption):
        return TRUE  # contributes a declaration only
    aliases_apply = isinstance(stmt.lhs, ast.Prefixed) and stmt.lhs.attribute == "type"
    if isinstance(stmt.rhs, ast.LiteralList):
        is_string = all(isinstance(i.value, str) for i in stmt.rhs.items)
        lhs = resolve_exp(stmt.lhs, reg, declared, is_string)
        items = [Lit(_aliased(i.value, reg, aliases_apply)) for i in stmt.rhs.items]
        cond = expand_membership(lhs, items)
    else:
        is_string = isinstance(stmt.rhs, ast.Literal) and isinstance(stmt.rhs.value, str)
        lhs = resolve_exp(stmt.lhs, reg, declared, is_string)
        if isinstance(stmt.rhs, ast.Literal):
            rhs: QlExpr = Lit(_aliased(stmt.rhs.value, reg, aliases_apply))
        else:
            rhs = resolve_exp(stmt.rhs, reg, declared)
            # Two expressions compare as strings when either is string-valued,
            # resolved again now that both sides are known to resolve.
            if "string" in (_result_kind(stmt.lhs, reg), _result_kind(stmt.rhs, reg)):
                lhs, rhs = (resolve_exp(e, reg, declared, True) for e in (stmt.lhs, stmt.rhs))
        cond = Eq(lhs, rhs)
    return Not(cond) if stmt.negated else cond


def _aliased(value: str | int, reg: Registry, aliases_apply: bool) -> str | int:
    if aliases_apply and isinstance(value, str):
        return reg.resolve_alias(value)
    return value
