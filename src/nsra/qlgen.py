"""CodeQL text generation, the QL reader, and the canonical normalizer used
by golden tests.

``render`` turns a QueryIR into query text with minimal parenthesization
(plus parentheses around every negation operand and existential body).
``lex_ql`` and ``QlReader`` read QL text: comments are skipped, leading
``import`` lines are read apart from the query, and the query must be in
the subset the renderer emits; anything else is a ``QlLexError`` at its
position.  ``normalize_ql`` re-reads query text and re-renders it one clause
per line, so texts differing only in whitespace, comments or redundant
grouping normalize to identical bytes.  Token order is preserved; nothing
is sorted.
"""

from __future__ import annotations

import math
import re

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

# One alternative per token kind, tried in order, as in the "Writing a
# Tokenizer" recipe of the ``re`` docs.  Whitespace and the two comment forms
# of the QL language reference's "Lexical syntax" (QLDoc is a ``/** */``
# comment) are one skip group.  ``word`` takes identifiers that start outside
# ASCII; ``lex_ql`` keeps those that start with a letter.
_QL_SCANNER = re.compile(
    r"""
      (?P<skip>\s+|//[^\n]*|/\*.*?\*/)
    | "(?P<string>[^"\\]*(?:\\.[^"\\]*)*)"
    | (?P<punct>[.,()\[\]|=<])
    | (?P<int>\d+)
    | (?P<ident>[A-Za-z_]\w*)
    | (?P<word>[^\W\d]\w*)
    | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class QlToken:
    """One QL token: ``kind`` is ident, int, string or punct; ``text`` is, for
    a string, the content between the quotes, escapes intact; ``start`` is
    the offset of its first character.  A slotted class rather than a
    dataclass, since lexing a file makes one per token."""

    __slots__ = ("kind", "text", "start")

    def __init__(self, kind: str, text: str, start: int):
        self.kind, self.text, self.start = kind, text, start


def _lex_error(text: str, start: int) -> QlLexError:
    if text[start] == '"':
        return QlLexError("unterminated string literal", Span(start, len(text)))
    if text.startswith("/*", start):
        return QlLexError("unterminated comment", Span(start, len(text)))
    return QlLexError(f"unexpected character {text[start]!r}", Span(start, start + 1))


def lex_ql(text: str) -> list[QlToken]:
    tokens: list[QlToken] = []
    for m in _QL_SCANNER.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        value, start = m[kind], m.start()
        if kind == "word" and value[0].isalpha():
            kind = "ident"
        elif kind in ("word", "other"):
            raise _lex_error(text, start)
        tokens.append(QlToken(kind, value, start))
    return tokens


def _unescape(raw: str) -> str:
    return re.sub(r"\\(.)", r"\1", raw)


# Inside string literals, a lone space between identifier-ish capitals is a
# lost underscore (API constants never contain spaces).
_UNDERSCORE_FIX = re.compile(r"(?<=[A-Z0-9_]) (?=[A-Z0-9_])")


class QlReader:
    """Infix reader for QL text: leading ``import a.b.c`` lines, then the
    query subset the renderer emits.

    Constructing a reader lexes the text and reads the import lines:
    ``imports`` holds their dotted names in order, and ``pos`` is the index
    in ``tokens`` of the first token after them.
    """

    def __init__(self, text: str):
        self.tokens = lex_ql(text)
        self.end = len(text)
        self.pos = 0
        self.imports: list[str] = []
        while self.accept("ident", "import"):
            name = self.expect("ident").text
            while self.accept("punct", "."):
                name += "." + self.expect("ident").text
            self.imports.append(name)

    def peek(self) -> QlToken | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: str) -> bool:
        """Take the next token if it is ``text`` of ``kind``."""
        if self.at(kind, text):
            self.pos += 1
            return True
        return False

    def error(self, message: str, tok: QlToken | None = None) -> QlLexError:
        """An error at ``tok``, by default the next token, or at the end of
        the text when no token is left."""
        tok = tok or self.peek()
        if tok is None:
            return QlLexError(message, Span(self.end, self.end))
        return QlLexError(message, Span(tok.start, tok.start + len(tok.text)))

    def take(self) -> QlToken:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of query text")
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> QlToken:
        if not self.at(kind, text):
            got = self.peek()
            raise self.error(f"expected {text or kind}, found {got.text if got else 'end'!r}")
        return self.take()

    # clause structure ------------------------------------------------------

    def read_query(self) -> QueryIR:
        decls: list[Decl] = []
        condition: BoolExpr = TrueExpr()
        if self.accept("ident", "from"):
            while True:
                ql_type = self.expect("ident").text
                decls.append(Decl(self.expect("ident").text, ql_type))
                if not self.accept("punct", ","):
                    break
        if self.accept("ident", "where"):
            condition = self.read_or()
        self.expect("ident", "select")
        selects: list[str] = []
        while self.peek() is not None:
            tok = self.take()
            if tok.kind == "punct" and tok.text == ",":
                continue
            if tok.kind not in ("ident", "int"):
                raise self.error(f"unexpected {tok.text!r} in select list", tok)
            selects.append(tok.text)
        if not selects:
            raise self.error("empty select list")
        if selects == ["1"]:
            selects = []
        return QueryIR(tuple(decls), condition, tuple(selects))

    # boolean structure -----------------------------------------------------

    def read_or(self) -> BoolExpr:
        items: list[BoolExpr] = []
        while True:
            child = self.read_and()
            items.extend(child.items) if isinstance(child, Or) else items.append(child)
            if not self.accept("ident", "or"):
                return items[0] if len(items) == 1 else Or(tuple(items))

    def read_and(self) -> BoolExpr:
        items: list[BoolExpr] = []
        while True:
            child = self.read_unary()
            items.extend(child.items) if isinstance(child, And) else items.append(child)
            if not self.accept("ident", "and"):
                return items[0] if len(items) == 1 else And(tuple(items))

    def read_unary(self) -> BoolExpr:
        if self.accept("ident", "not"):
            self.expect("punct", "(")
            inner = self.read_or()
            self.expect("punct", ")")
            return Not(inner)
        if self.accept("ident", "exists"):
            self.expect("punct", "(")
            ql_type = self.expect("ident").text
            decl = Decl(self.expect("ident").text, ql_type)
            self.expect("punct", "|")
            body = self.read_or()
            self.expect("punct", ")")
            return Exists(decl, body)
        if self.accept("punct", "("):
            inner = self.read_or()
            self.expect("punct", ")")
            return inner
        return self.read_comparison()

    def read_comparison(self) -> BoolExpr:
        left = self.read_value()
        if self.accept("punct", "="):
            return Eq(left, self.read_value())
        if self.accept("punct", "<"):
            return Lt(left, self.read_value())
        raise self.error("expected '=' or '<' in comparison")

    def read_value(self) -> QlExpr:
        if self.accept("ident", "count"):
            self.expect("punct", "(")
            inner = self.read_value()
            self.expect("punct", ")")
            return Count(inner)
        tok = self.peek()
        if tok is None:
            raise self.error("expected a value")
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
            while self.accept("punct", "."):
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
                        raise self.error(f"unexpected {arg.text!r} in call arguments", arg)
                self.expect("punct", ")")
                steps.append(f"{name}({', '.join(args)})")
            if steps:
                return Chain(base, tuple(steps))
            return base
        raise self.error(f"unexpected {tok.text!r} in value position")


def read_query_text(text: str) -> QueryIR:
    """Read QL text into IR (reader side of the round trip); import lines
    are read and left out of the IR."""
    return QlReader(text).read_query()


def normalize_ql(text: str) -> str:
    """Canonical form for golden comparison: idempotent, token-preserving.

    Reads the text and writes its import lines, one per line and in order,
    then the query re-rendered one clause per line with canonical spacing
    and minimal parentheses.  Comments are skipped, so they are not
    compared.  Text that does not read raises ``QlLexError`` at its
    position.
    """
    reader = QlReader(text)
    for tok in reader.tokens:
        if tok.kind == "string":
            tok.text = _UNDERSCORE_FIX.sub("_", tok.text)
    ir = reader.read_query()
    return "".join(f"import {name}\n" for name in reader.imports) + render(ir, line_width=math.inf)
