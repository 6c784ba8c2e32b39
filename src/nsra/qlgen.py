"""CodeQL text generation and the canonical normalizer used by golden tests.

``render`` turns a QueryIR into query text with minimal parenthesization
(plus parentheses around every negation operand and existential body).
``normalize_ql`` re-lexes query text, re-reads its boolean structure, and
re-renders it one clause per line, so texts differing only in whitespace or
redundant grouping normalize to identical bytes.  Token order is preserved;
nothing is sorted.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import QlLexError, Span
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
    TrueExpr,
    Var,
)

_KEYWORDS = frozenset({"from", "where", "select", "and", "or", "not", "exists", "count"})

_PREC_OR, _PREC_AND, _PREC_NOT, _PREC_ATOM = 1, 2, 3, 4

_INDENT = "  "  # continuation lines of a wrapped clause


# --- rendering ---------------------------------------------------------------


def escape_string(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _value_text(e: QlExpr) -> str:
    if isinstance(e, Lit):
        if isinstance(e.value, int):
            return str(e.value)
        return f'"{escape_string(e.value)}"'
    if isinstance(e, Chain):
        return ".".join((_value_text(e.base), *e.steps))
    if isinstance(e, Count):
        return f"count ({_value_text(e.inner)})"
    return e.name  # Var


def _bool_text(e: BoolExpr, parent_prec: int = 0) -> str:
    if isinstance(e, Eq):
        return f"{_value_text(e.left)} = {_value_text(e.right)}"
    if isinstance(e, Lt):
        return f"{_value_text(e.left)} < {_value_text(e.right)}"
    if isinstance(e, Not):
        text, prec = f"not ({_bool_text(e.inner)})", _PREC_NOT
    elif isinstance(e, Exists):
        decl = f"{e.decl.ql_type} {e.decl.var_name}"
        text, prec = f"exists ({decl} | {_bool_text(e.body)})", _PREC_ATOM
    elif isinstance(e, And):
        text, prec = " and ".join(_bool_text(i, _PREC_AND) for i in e.items), _PREC_AND
    elif isinstance(e, Or):
        text, prec = " or ".join(_bool_text(i, _PREC_OR) for i in e.items), _PREC_OR
    elif isinstance(e, TrueExpr):
        return "1 = 1"
    else:
        raise TypeError(f"cannot render {e!r}")
    if prec < parent_prec:
        return f"({text})"
    return text


def _wrap(first: str, parts: list[str], sep: str, line_width: float) -> list[str]:
    """Greedy line fill; the separator stays at the end of the broken line."""
    lines: list[str] = []
    current = first + parts[0]
    for part in parts[1:]:
        candidate = current + sep + part
        if len(candidate) > line_width and len(current) > len(first):
            lines.append(current + sep.rstrip())
            current = _INDENT + part
        else:
            current = candidate
    lines.append(current)
    return lines


def render(ir: QueryIR, *, line_width: float = 100) -> str:
    """Deterministic CodeQL text for an IR: from / where / select clauses.

    A clause longer than ``line_width`` (at least 40; ``math.inf`` keeps each
    clause on one line) breaks after a separator onto indented lines.  The
    from clause is omitted when there are no declarations and the select
    clause falls back to the constant 1, keeping declaration-free queries
    well formed.
    """
    if line_width < 40:
        raise ValueError("line_width must be at least 40")
    lines: list[str] = []
    if ir.decls:
        decl_parts = [f"{d.ql_type} {d.var_name}" for d in ir.decls]
        lines.extend(_wrap("from ", decl_parts, ", ", line_width))
    if not isinstance(ir.condition, TrueExpr):
        if isinstance(ir.condition, And):
            parts = [_bool_text(i, _PREC_AND) for i in ir.condition.items]
            sep = " and "
        elif isinstance(ir.condition, Or):
            parts = [_bool_text(i, _PREC_OR) for i in ir.condition.items]
            sep = " or "
        else:
            parts, sep = [_bool_text(ir.condition)], " "
        lines.extend(_wrap("where ", parts, sep, line_width))
    select_parts = list(ir.selects) or ["1"]
    lines.extend(_wrap("select ", select_parts, ", ", line_width))
    return "\n".join(lines) + "\n"


def dump_ir(ir: QueryIR) -> str:
    """Readable diagnostic dump of an IR."""
    out: list[str] = []
    for d in ir.decls:
        out.append(f"decl {d.ql_type} {d.var_name}")
    out.append("where")
    _dump_bool(ir.condition, out, 1)
    out.append("select " + (", ".join(ir.selects) or "1"))
    return "\n".join(out) + "\n"


def _dump_bool(e: BoolExpr, out: list[str], depth: int) -> None:
    pad = "  " * depth
    if isinstance(e, (Eq, Lt)):
        op = "=" if isinstance(e, Eq) else "<"
        out.append(f"{pad}{op} {_value_text(e.left)} :: {_value_text(e.right)}")
    elif isinstance(e, (And, Or)):
        out.append(pad + ("and" if isinstance(e, And) else "or"))
        for i in e.items:
            _dump_bool(i, out, depth + 1)
    elif isinstance(e, Not):
        out.append(pad + "not")
        _dump_bool(e.inner, out, depth + 1)
    elif isinstance(e, Exists):
        out.append(f"{pad}exists {e.decl.ql_type} {e.decl.var_name}")
        _dump_bool(e.body, out, depth + 1)
    else:
        out.append(pad + "true")


# --- QL token stream ---------------------------------------------------------

_PUNCT = frozenset(".,()[]|=<")


@dataclass(frozen=True)
class QlToken:
    kind: str  # ident | int | string | punct
    text: str  # for strings: content between the quotes, escapes intact


def lex_ql(text: str) -> list[QlToken]:
    tokens: list[QlToken] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            if j >= n:
                raise QlLexError("unterminated string literal", Span(i, n))
            tokens.append(QlToken("string", text[i + 1 : j]))
            i = j + 1
            continue
        if ch in _PUNCT:
            tokens.append(QlToken("punct", ch))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(QlToken("int", text[i:j]))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(QlToken("ident", text[i:j]))
            i = j
            continue
        raise QlLexError(f"unexpected character {ch!r}", Span(i, i + 1))
    return tokens


def _unescape(raw: str) -> str:
    return re.sub(r"\\(.)", r"\1", raw)


# Inside string literals, a lone space between identifier-ish capitals is a
# lost underscore (API constants never contain spaces).
_UNDERSCORE_FIX = re.compile(r"(?<=[A-Z0-9_]) (?=[A-Z0-9_])")


class _QlReader:
    """Minimal infix reader for the query subset the renderer emits."""

    def __init__(self, tokens: list[QlToken]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, offset: int = 0) -> QlToken | None:
        idx = self.pos + offset
        return self.tokens[idx] if idx < len(self.tokens) else None

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == kind and (text is None or tok.text == text)

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "ident" and tok.text in words

    def take(self) -> QlToken:
        tok = self.peek()
        if tok is None:
            raise QlLexError("unexpected end of query text")
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> QlToken:
        if not self.at(kind, text):
            got = self.peek()
            raise QlLexError(f"expected {text or kind}, found {got.text if got else 'end'!r}")
        return self.take()

    # clause structure ------------------------------------------------------

    def read_query(self) -> QueryIR:
        decls: list[Decl] = []
        condition: BoolExpr = TrueExpr()
        if self.at_keyword("from"):
            self.take()
            while True:
                ql_type = self.expect("ident").text
                name = self.expect("ident").text
                decls.append(Decl(name, ql_type))
                if self.at("punct", ","):
                    self.take()
                    continue
                break
        if self.at_keyword("where"):
            self.take()
            condition = self.read_or()
        self.expect("ident", "select")
        selects: list[str] = []
        while self.peek() is not None:
            tok = self.take()
            if tok.kind == "punct" and tok.text == ",":
                continue
            if tok.kind not in ("ident", "int"):
                raise QlLexError(f"unexpected {tok.text!r} in select list")
            selects.append(tok.text)
        if not selects:
            raise QlLexError("empty select list")
        if selects == ["1"]:
            selects = []
        return QueryIR(tuple(decls), condition, tuple(selects))

    # boolean structure -----------------------------------------------------

    def read_or(self) -> BoolExpr:
        items: list[BoolExpr] = []
        while True:
            child = self.read_and()
            items.extend(child.items) if isinstance(child, Or) else items.append(child)
            if self.at_keyword("or"):
                self.take()
                continue
            return items[0] if len(items) == 1 else Or(tuple(items))

    def read_and(self) -> BoolExpr:
        items: list[BoolExpr] = []
        while True:
            child = self.read_unary()
            items.extend(child.items) if isinstance(child, And) else items.append(child)
            if self.at_keyword("and"):
                self.take()
                continue
            return items[0] if len(items) == 1 else And(tuple(items))

    def read_unary(self) -> BoolExpr:
        if self.at_keyword("not"):
            self.take()
            self.expect("punct", "(")
            inner = self.read_or()
            self.expect("punct", ")")
            return Not(inner)
        if self.at_keyword("exists"):
            self.take()
            self.expect("punct", "(")
            ql_type = self.expect("ident").text
            name = self.expect("ident").text
            self.expect("punct", "|")
            body = self.read_or()
            self.expect("punct", ")")
            return Exists(Decl(name, ql_type), body)
        if self.at("punct", "("):
            self.take()
            inner = self.read_or()
            self.expect("punct", ")")
            return inner
        return self.read_comparison()

    def read_comparison(self) -> BoolExpr:
        left = self.read_value()
        if self.at("punct", "="):
            self.take()
            return Eq(left, self.read_value())
        if self.at("punct", "<"):
            self.take()
            return Lt(left, self.read_value())
        raise QlLexError("expected '=' or '<' in comparison")

    def read_value(self) -> QlExpr:
        if self.at_keyword("count"):
            self.take()
            self.expect("punct", "(")
            inner = self.read_value()
            self.expect("punct", ")")
            return Count(inner)
        tok = self.peek()
        if tok is None:
            raise QlLexError("expected a value")
        if tok.kind == "string":
            self.take()
            return Lit(_unescape(tok.text))
        if tok.kind == "int":
            self.take()
            return Lit(int(tok.text))
        if tok.kind == "ident":
            self.take()
            base: QlExpr = Var(tok.text)
            steps: list[str] = []
            while self.at("punct", "."):
                self.take()
                name = self.expect("ident").text
                self.expect("punct", "(")
                args: list[str] = []
                while not self.at("punct", ")"):
                    arg = self.take()
                    if arg.kind == "string":
                        args.append(f'"{arg.text}"')
                    elif arg.kind == "int":
                        args.append(arg.text)
                    elif arg.kind == "punct" and arg.text == ",":
                        continue
                    else:
                        raise QlLexError(f"unexpected {arg.text!r} in call arguments")
                self.expect("punct", ")")
                steps.append(f"{name}({', '.join(args)})")
            if steps:
                return Chain(base, tuple(steps))
            return base
        raise QlLexError(f"unexpected {tok.text!r} in value position")


def read_query_text(text: str) -> QueryIR:
    """Re-read rendered query text into IR (reader side of the round trip)."""
    return _QlReader(lex_ql(text)).read_query()


def normalize_ql(text: str) -> str:
    """Canonical form for golden comparison: idempotent, token-preserving.

    Re-lexes and re-reads the query; on success re-renders one clause per
    line with canonical spacing and minimal parentheses.  Text that does not
    read as a full query falls back to canonical token respacing, and text
    that does not even lex falls back to whitespace collapse.
    """
    try:
        tokens = lex_ql(text)
    except QlLexError:
        return " ".join(text.split())
    tokens = [
        QlToken(t.kind, _UNDERSCORE_FIX.sub("_", t.text)) if t.kind == "string" else t
        for t in tokens
    ]
    try:
        ir = _QlReader(tokens).read_query()
    except QlLexError:
        return _respace(tokens)
    return render(ir, line_width=math.inf)


def _respace(tokens: list[QlToken]) -> str:
    """Canonical single-space layout for token streams that are not a full
    query: tight before ``) ] , .``, tight after ``( [ .``, and a call paren
    hugs its method name while keyword parens keep a space."""
    out = ""
    prev: QlToken | None = None
    for tok in tokens:
        text = f'"{tok.text}"' if tok.kind == "string" else tok.text
        glue = False
        if prev is not None:
            prev_text = prev.text if prev.kind != "string" else '"'
            if text in (")", "]", ",", "."):
                glue = True
            elif prev.kind == "punct" and prev_text in ("(", "[", "."):
                glue = True
            elif text == "(" and prev.kind == "ident" and prev.text not in _KEYWORDS:
                glue = True
        if out and not glue:
            out += " "
        out += text
        prev = tok
    return out