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
    TRUE_OPERAND,
    Var,
    conjoin,
    disjoin,
    simplify,
)
from .registry import Registry, lookup_attribute


def apply_necessity(constraints: list[BoolExpr]) -> BoolExpr:
    """A query flags violations: some mandatory constraint must be false."""
    return disjoin([Not(c) for c in constraints])


def expand_membership(lhs: QlExpr, items: list[Lit]) -> BoolExpr:
    """Membership in a list is the disjunction of the equalities."""
    return disjoin([Eq(lhs, item) for item in items])


def _resolve(e: ast.Exp, reg: Registry, declared: frozenset[str]) -> tuple[QlExpr, str]:
    """An expression's value chain and its kind, looking each attribute phrase up once.

    A literal is of kind "string" or "int", and a declared name, which must be
    in ``declared``, is a variable reference of kind "object".  Each prefix
    layer appends its rule's calls to its inner value (ordinals fill the slot
    zero-based), and is of its rule's ``result_kind``.
    """
    kind = type(e)
    if kind is ast.Prefixed:
        rule = lookup_attribute(e.attribute, reg)
        if e.ordinal is not None and rule.slot is None:
            raise OrdinalNotAllowed(e.attribute)
        if e.ordinal is None and rule.slot is not None:
            raise MissingOrdinal(e.attribute)
        steps = rule.steps if e.ordinal is None else rule.render_steps(e.ordinal - 1)
        return _extended(_resolve(e.inner, reg, declared)[0], steps), rule.result_kind
    if kind is ast.Ident:
        return _var(e.name, declared), "object"
    return Lit(e.value), "string" if type(e.value) is str else "int"


def _var(name: str, declared: frozenset[str]) -> Var:
    if name not in declared:
        raise UndeclaredSubject(name)
    return Var(name)


def _extended(value: QlExpr, steps: tuple[str, ...]) -> Chain:  # a variable starts a chain
    return value.extended(steps) if type(value) is Chain else Chain(value, steps)


def lower(query: ast.QueryAst, reg: Registry) -> QueryIR:
    """Lower a parsed query to IR; deterministic for a given input."""
    decls = _collect_decls(query, reg)
    declared = frozenset(d.var_name for d in decls)

    plain: list[BoolExpr] = []
    necessity: list[BoolExpr] = []
    for stmt in query.statements:
        if type(stmt) is ast.Necessity:
            necessity.append(_lower_statement(stmt.inner, reg, declared))
        else:  # ``conjoin`` drops a condition that always holds
            plain.append(_lower_statement(stmt, reg, declared))
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
        kind = type(stmt)
        if kind is ast.Basic:
            if type(stmt.rhs) is ast.TypeAssumption:
                if type(stmt.lhs) is not ast.Ident:
                    raise UndeclaredSubject(ast.exp_to_text(stmt.lhs))
                add(Decl(stmt.lhs.name, _ql_type(stmt.rhs.noun, reg)))
        elif kind is Not or kind is ast.Necessity:
            walk(stmt.inner)
        elif kind is Or or kind is And:
            for item in stmt.items:
                walk(item)
        elif kind is ast.InvocationPattern and stmt.positive:
            # Re-invoking the same method from the same class merges;
            # the same method name under two classes is a conflict.
            known = invocation_class.get(stmt.method_name)
            if known is not None and known != stmt.class_name:
                raise DuplicateDeclaration(stmt.method_name)
            invocation_class[stmt.method_name] = stmt.class_name
            add(Decl(stmt.method_name, _ql_type("method access", reg)))

    for stmt in query.statements:
        walk(stmt)
    return list(decls.values())


def _ql_type(noun: str, reg: Registry) -> str:  # the QL class the profile's ``[types]`` gives a type noun
    if noun not in reg.ql_type_names:
        raise SourceError(f"type noun {noun!r} has no QL class: the profile has no [types] entry {noun!r}")
    return reg.ql_type_names[noun]


def _lower_statement(stmt: ast.Statement, reg: Registry, declared: frozenset[str]) -> BoolExpr:
    kind = type(stmt)
    if kind is ast.Basic:
        return _lower_basic(stmt, reg, declared)
    if kind is Not:
        return Not(_lower_statement(stmt.inner, reg, declared))
    if kind is Or or kind is And:
        return kind(tuple(_lower_statement(i, reg, declared) for i in stmt.items))
    if kind is ast.InvocationPattern:
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
    if kind is ast.OrderingPattern:
        # Same callable, strictly smaller end line, so same-line invocations
        # never satisfy an ordering; ``a precedes a`` is emitted as the
        # (unsatisfiable) comparison it denotes.  The parser has already
        # swapped ``X follows Y`` into (Y, X).
        b, a = _var(stmt.before, declared), _var(stmt.after, declared)
        return And(
            (
                Eq(Chain(b, ("getEnclosingCallable()",)), Chain(a, ("getEnclosingCallable()",))),
                Lt(Chain(b, ("getLocation()", "getEndLine()")), Chain(a, ("getLocation()", "getEndLine()"))),
            )
        )
    if kind is ast.SignaturePattern:
        # The argument count equals the list length, then one type check per
        # slot.
        subject = _var(stmt.method_name, declared)
        checks = [Eq(Count(Chain(subject, ("getAnArgument()",))), Lit(len(stmt.type_names)))]
        for i, type_name in enumerate(stmt.type_names):
            checks.append(Eq(Chain(subject, (f"getArgument({i})", "getType()", "toString()")), Lit(type_name)))
        return And(tuple(checks))
    raise TypeError(f"cannot lower {stmt!r}")


def _lower_basic(stmt: ast.Basic, reg: Registry, declared: frozenset[str]) -> BoolExpr:
    kind = type(stmt.rhs)
    if kind is ast.TypeAssumption:
        return TRUE  # contributes a declaration only
    lhs, lhs_kind = _resolve(stmt.lhs, reg, declared)
    if kind is ast.LiteralList:
        rhs = [Lit(i.value) for i in stmt.rhs.items]
        rhs_kind = "string" if all(type(i.value) is str for i in rhs) else "int"
    else:
        value, rhs_kind = _resolve(stmt.rhs, reg, declared)
        rhs = [value]
    # The two sides compare as strings when either is string-valued, a list
    # when all its items are: then an object side, a declared name too, gains
    # ``toString()``.
    if lhs_kind == "object" and rhs_kind == "string":
        lhs = _extended(lhs, ("toString()",))
    elif lhs_kind == "string" and rhs_kind == "object":
        rhs = [_extended(rhs[0], ("toString()",))]
    if type(stmt.lhs) is ast.Prefixed and stmt.lhs.attribute == "type":  # a simple type name, by its alias
        rhs = [Lit(reg.resolve_alias(i.value)) if type(i) is Lit and type(i.value) is str else i for i in rhs]
    if len(rhs) > 1:
        return expand_membership(lhs, rhs)
    return TRUE if type(lhs) is Lit and lhs == rhs[0] == TRUE_OPERAND else Eq(lhs, rhs[0])
