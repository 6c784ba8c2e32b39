"""CodeQL text generation, the QL reader, and the canonical form that golden
checks compare.

``render`` turns a QueryIR into query text with minimal parenthesization
(plus parentheses around every negation operand and existential body).
``lex_ql`` reads QL text in one scan, a token its source text and a comment a
match with no token; ``QlReader`` reads leading ``import`` lines apart from
the query, which must be in the subset the renderer emits, one comma between
list items, and groups nested at most ``MAX_QL_NESTING`` deep.  Anything else,
an integer too long for ``int`` included, is a ``QlLexError`` at its position.
The reader's scan, ``lex_ql_runs``, takes a run of calls in ``render``'s
spacing (``.getArgument(0).toString()``) as one token, whose steps it reads
once per distinct run; ``lex_ql``'s single tokens serve the Halstead count,
profile templates and error positions.  ``read_ql`` reads the import names and
the query, restoring the underscores lost from string literals; ``repaired``
restores a lowered IR alike.  ``canonical`` writes import lines and a query
one clause per line, and ``normalize_ql`` is ``canonical`` of ``read_ql``:
texts differing only in whitespace, comments or redundant grouping normalize
to identical bytes, and two texts normalize alike exactly when their imports
and their IRs are equal, which is what ``nsra check`` compares.  Token order
is preserved; nothing is sorted.
"""

from __future__ import annotations

import itertools
import math
import re
import sys

from .errors import TOO_LONG_INTEGER, QlLexError, Record, Span
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
    TrueExpr,
    Var,
)

# The words the reader reads as keywords, so no name it reads is one of them.
QL_KEYWORDS = frozenset({"from", "where", "select", "and", "or", "not", "exists", "count"})

# How deeply the reader's groups, ``(``, ``not (``, ``exists (`` and ``count (``,
# may nest, together: the reader recurses up to three times per level, and
# this depth leaves room under Python's default recursion limit.  It is above
# the deepest QL ``render`` gives for English within ``parser.MAX_NESTING``.
MAX_QL_NESTING = 200

_INDENT = "  "  # continuation lines of a wrapped clause


# --- rendering ---------------------------------------------------------------


def escape_string(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def unescape_string(body: str) -> str:
    """The value of a QL string literal whose text between the quotes is ``body``: ``escape_string`` undone."""
    return _ESCAPE.sub(r"\1", body) if "\\" in body else body


def _value_text(e: QlExpr) -> str:
    kind = type(e)
    if kind is Chain:
        return ".".join((_value_text(e.base), *e.steps))
    if kind is Var:
        return e.name
    if kind is Lit:
        return f'"{escape_string(e.value)}"' if type(e.value) is str else str(e.value)
    return f"count ({_value_text(e.inner)})"  # Count


# Each connective's QL keyword, its separator and how tightly it binds: a
# group is parenthesized inside one that binds more tightly, and ``not (...)``
# and ``exists (...)`` bring their own parentheses.
_CONNECTIVES = {Or: ("or", " or ", 1), And: ("and", " and ", 2)}


def _bool_text(e: BoolExpr, parent_prec: int = 0) -> str:
    kind = type(e)
    if kind is Eq:
        return f"{_value_text(e.left)} = {_value_text(e.right)}"
    if kind is Lt:
        return f"{_value_text(e.left)} < {_value_text(e.right)}"
    if kind in _CONNECTIVES:
        _, sep, prec = _CONNECTIVES[kind]
        text = sep.join([_bool_text(i, prec) for i in e.items])
        return f"({text})" if prec < parent_prec else text
    if kind is Not:
        return f"not ({_bool_text(e.inner)})"
    if kind is Exists:
        return f"exists ({e.decl.ql_type} {e.decl.var_name} | {_bool_text(e.body)})"
    if kind is TrueExpr:
        return "1 = 1"
    raise TypeError(f"cannot render {e!r}")


def _wrap(first: str, parts: list[str], sep: str, line_width: float) -> list[str]:
    """Greedy line fill; the separator stays at the end of the broken line."""
    lines: list[str] = []  # each line's parts are joined once, at its end; ``width`` is its length
    line, width = [first + parts[0]], len(first) + len(parts[0])
    for part in parts[1:]:
        if width + len(sep) + len(part) > line_width and width > len(first):
            lines.append(sep.join(line) + sep.rstrip())
            line, width = [_INDENT + part], len(_INDENT) + len(part)
        else:
            line.append(part)
            width += len(sep) + len(part)
    lines.append(sep.join(line))
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
    condition = ir.condition
    if type(condition) in _CONNECTIVES:  # the clause breaks between the top group's operands
        _, sep, prec = _CONNECTIVES[type(condition)]
        lines.extend(_wrap("where ", [_bool_text(i, prec) for i in condition.items], sep, line_width))
    elif type(condition) is not TrueExpr:
        lines.append("where " + _bool_text(condition))
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
    elif type(e) in _CONNECTIVES:
        out.append(pad + _CONNECTIVES[type(e)][0])
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

# A QL token is its source text: a string literal keeps its quotes, so its
# first character tells its kind, and no two kinds share a spelling.  A match
# is a comment, of one of the two forms of the QL language reference's
# "Lexical syntax" (QLDoc is a ``/** */`` comment), or one token in group 1;
# the comments are tried first, so a comment is never read as tokens, and its
# match holds no token.  Whitespace matches nothing, so ``findall``'s search
# skips it.  The token is a string literal, a decimal integer, a word, or what
# ``lex_ql`` rejects: an unterminated comment, taken to the end of the text so
# that the scan stays linear, or any other single character.
_STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"'
_TOKEN = rf"{_STRING}|\d+|[^\W\d]\w*|/\*.*|\S"
_QL_TOKEN = re.compile(rf"//[^\n]*|/\*.*?\*/|({_TOKEN})", re.DOTALL)

# The reader's scan takes a run of calls as one token: one or more calls
# ``.name(literal, ...)`` in ``render``'s spacing, no name a keyword.  A run
# holds exactly the tokens ``_QL_TOKEN`` finds in it, and ``_QL_STEP.findall``
# gives the text after each call's dot, the step a chain holds.
_CALL = rf"(?!(?:{'|'.join(sorted(QL_KEYWORDS))})\()[^\W\d]\w*\((?:(?:{_STRING}|\d+)(?:, (?:{_STRING}|\d+))*)?\)"
_QL_STEP = re.compile(rf"\.({_CALL})")
_QL_READ_TOKEN = re.compile(rf"//[^\n]*|/\*.*?\*/|((?:\.{_CALL})+|{_TOKEN})", re.DOTALL)

# Inside string literals, a lone space between identifier-ish capitals is a
# lost underscore (API constants never contain spaces).
_UNDERSCORE_FIX = re.compile(r"(?<=[A-Z0-9_]) (?=[A-Z0-9_])")


def _restore_underscores(tok: str) -> str:
    return _UNDERSCORE_FIX.sub("_", tok) if " " in tok else tok


def _is_ident(tok: str) -> bool:  # a name: a word that is no keyword
    return (tok[:1].isalpha() or tok[:1] == "_") and tok not in QL_KEYWORDS


def _is_value(tok: str) -> bool:  # a select item: an identifier or an integer
    return _is_ident(tok) or tok[:1].isdecimal()


def _is_literal(tok: str) -> bool:  # a call argument: a string or an integer
    return tok[:1] == '"' or tok[:1].isdecimal()


def _lexes(tok: str) -> bool:
    """False for what the scan takes but QL has no token for: a lone quote,
    a stray character, an integer too long for ``int``, a run holding one."""
    if tok[0].isdecimal():
        try:
            return int(tok) >= 0  # true once ``int`` reads the digits
        except ValueError:
            return False
    # A run lexes unless a name in it starts with a character that is no
    # letter, which is never ASCII, or an integer in it is longer than the
    # lowest digit limit ``int`` can be given.
    if tok[0] == "." and not (tok.isascii() and len(tok) <= sys.int_info.str_digits_check_threshold):
        return all(map(_lexes, _QL_TOKEN.findall(tok)))
    return len(tok) > 1 if tok[0] == '"' else _is_ident(tok) or tok in QL_KEYWORDS or tok[0] in ".,()[]|=<"


def _token_span(text: str, index: int, start: int = 0, end: int | None = None) -> Span:
    """Token ``index`` of ``text[start:end]``, scanned again; past the last token, the end."""
    end = len(text) if end is None else end
    spans = (m.span(1) for m in _QL_TOKEN.finditer(text, start, end) if m.start(1) >= 0)  # a comment's is -1
    return Span(*next(itertools.islice(spans, index, None), (end, end)))


def lex_ql(text: str) -> list[str]:
    """The QL tokens of ``text``, each its source text; comments are skipped."""
    tokens = [*filter(None, _QL_TOKEN.findall(text))]  # a comment's match is empty
    bad = [tok for tok in set(tokens) if not _lexes(tok)]
    if not bad:
        return tokens
    span = _token_span(text, min(map(tokens.index, bad)))
    start, char = span.start, text[span.start]
    if char == '"':
        raise QlLexError("unterminated string literal", Span(start, len(text)))
    if text.startswith("/*", start):
        raise QlLexError("unterminated comment", Span(start, len(text)))
    if char.isdecimal():
        raise QlLexError(TOO_LONG_INTEGER, span)
    raise QlLexError(f"unexpected character {char!r}", Span(start, start + 1))


def lex_ql_runs(text: str) -> list[str]:
    """``lex_ql`` of ``text``, but each run of calls one token; where a token does not lex, ``lex_ql`` raises."""
    tokens = [*filter(None, _QL_READ_TOKEN.findall(text))]
    return tokens if all(map(_lexes, set(tokens))) else lex_ql(text)


class QlReader:
    """Infix reader for QL text: leading ``import a.b.c`` lines, then the
    query subset the renderer emits.

    Constructing a reader lexes the text and reads the import lines:
    ``imports`` holds their dotted names in order, and ``pos`` is the index
    in ``tokens`` of the first token after them.  ``tokens`` ends with the
    empty string, a sentinel equal to no token, so the reader compares
    ``tokens[pos]`` with no bounds check.  A run of calls is one token, whose
    steps ``read_value`` reads once per reader into ``run_steps``, unless
    ``runs`` is false: then every token is single, as the Halstead count reads them.
    """

    def __init__(self, text: str, runs: bool = True):
        self.text = text
        self.tokens = lex_ql_runs(text) if runs else lex_ql(text)
        self.tokens.append("")
        self.run_steps: dict[str, list[str]] = {}
        self.pos = 0
        self.depth = 0  # groups open at ``pos``
        self.imports: list[str] = []
        while self.tokens[self.pos] == "import":
            self.pos += 1
            name = self.expect()
            while self.tokens[self.pos][:1] == ".":
                self.tokens[self.pos : self.pos + 1] = _QL_TOKEN.findall(self.tokens[self.pos])  # a run's tokens
                self.pos += 1
                name += "." + self.expect()
            self.imports.append(name)

    def literal(self, tok: str) -> str:
        """A literal token, or a call step holding literals, as read; ``read_ql`` replaces this method."""
        return tok

    def error(self, message: str, index: int | None = None) -> QlLexError:
        """An error at token ``index``, by default the next; at the end of the text for the sentinel."""
        index = self.pos if index is None else index  # where each run before it counts as its tokens
        index += sum(len(_QL_TOKEN.findall(tok)) - 1 for tok in self.tokens[:index] if tok[:1] == ".")
        return QlLexError(message, _token_span(self.text, index))

    def shown(self, tok: str) -> str:  # as messages quote a token: a string by its content as written, a run as '.'
        return tok[1:-1] if tok[:1] == '"' else "." if tok[:1] == "." else tok or "end"

    def expect(self, text: str | None = None) -> str:
        """Take the next token, which must be ``text``, by default any name (``_is_ident``)."""
        tok = self.tokens[self.pos]
        if tok != text if text else not _is_ident(tok):
            raise self.error(f"expected {text or 'ident'}, found {self.shown(tok)!r}")
        self.pos += 1
        return tok

    def descend(self) -> None:  # a group opens at the token before ``pos``; its reader ends it with ``depth -= 1``
        if self.depth == MAX_QL_NESTING:
            raise self.error(f"groups nested more than {MAX_QL_NESTING} deep", self.pos - 1)
        self.depth += 1

    def read_list(self, is_item, where: str, close: str) -> list[str]:
        """Items with one comma between each two, up to ``close``, not taken."""
        items: list[str] = []
        while is_item(self.tokens[self.pos]):
            items.append(self.tokens[self.pos])
            self.pos += 1
            if self.tokens[self.pos] == close:
                return items
            if self.tokens[self.pos] != ",":
                break
            self.pos += 1
        tok = self.tokens[self.pos]
        raise self.error(f"unexpected {self.shown(tok)!r} in {where}" if tok else "unexpected end of query text")

    # clause structure ------------------------------------------------------

    def read_query(self) -> QueryIR:
        toks = self.tokens
        decls: list[Decl] = []
        condition: BoolExpr = TrueExpr()
        if toks[self.pos] == "from":
            self.pos += 1
            while True:
                ql_type = self.expect()
                decls.append(Decl(self.expect(), ql_type))
                if toks[self.pos] != ",":
                    break
                self.pos += 1
        if toks[self.pos] == "where":
            self.pos += 1
            condition = self.read_group()
        self.expect("select")
        if not toks[self.pos]:
            raise self.error("empty select list")
        selects = self.read_list(_is_value, "select list", "")
        return QueryIR(tuple(decls), condition, () if selects == ["1"] else tuple(selects))

    # boolean structure -----------------------------------------------------

    def read_group(self, group: type[And | Or] = Or) -> BoolExpr:
        """Operands joined by ``group``'s keyword, ``and`` groups under ``or`` and unary
        conditions under ``and``; a parenthesized group of the same connective is flattened."""
        keyword = _CONNECTIVES[group][0]
        items: list[BoolExpr] = []
        while True:
            child = self.read_group(And) if group is Or else self.read_unary()
            items.extend(child.items) if type(child) is group else items.append(child)
            if self.tokens[self.pos] != keyword:
                return items[0] if len(items) == 1 else group(tuple(items))
            self.pos += 1

    def read_unary(self) -> BoolExpr:
        tok = self.tokens[self.pos]
        if tok not in ("not", "exists", "("):
            return self.read_comparison()
        self.pos += 1
        self.descend()
        if tok == "(":
            inner = self.read_group()
        elif tok == "not":
            self.expect("(")
            inner = Not(self.read_group())
        else:
            self.expect("(")
            ql_type = self.expect()
            decl = Decl(self.expect(), ql_type)
            self.expect("|")
            inner = Exists(decl, self.read_group())
        self.expect(")")
        self.depth -= 1
        return inner

    def read_comparison(self) -> BoolExpr:
        left = self.read_value()
        op = self.tokens[self.pos]
        if op not in ("=", "<"):
            raise self.error("expected '=' or '<' in comparison")
        self.pos += 1
        right = self.read_value()
        if op == "<":
            return Lt(left, right)
        return TRUE if type(left) is Lit and left == right == TRUE_OPERAND else Eq(left, right)

    def read_value(self) -> QlExpr:
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok == "count":
            self.descend()
            self.expect("(")
            inner = self.read_value()
            self.expect(")")
            self.depth -= 1
            return Count(inner)
        if tok[:1] == '"':
            body = self.literal(tok)[1:-1]
            return Lit(unescape_string(body))
        if tok[:1].isdecimal():
            return Lit(int(tok))
        if not _is_ident(tok):
            message = f"unexpected {self.shown(tok)!r} in value position" if tok else "expected a value"
            raise self.error(message, self.pos - 1)
        steps: list[str] = []
        while (run := self.tokens[self.pos])[:1] == ".":  # a run of calls, or a call ``.name(args)`` as single tokens
            self.pos += 1
            if run != ".":
                if run not in self.run_steps:
                    self.run_steps[run] = [*map(self.literal, _QL_STEP.findall(run))]
                steps += self.run_steps[run]
                continue
            name = self.expect()
            self.expect("(")
            args = self.read_list(_is_literal, "call arguments", ")") if self.tokens[self.pos] != ")" else []
            self.pos += 1
            steps.append(f"{name}({', '.join(map(self.literal, args))})")
        return Chain(Var(tok), tuple(steps)) if steps else Var(tok)


def read_query_text(text: str) -> QueryIR:
    """Read QL text into IR (reader side of the round trip); import lines
    are read and left out of the IR."""
    return QlReader(text).read_query()


def read_ql(text: str) -> tuple[list[str], QueryIR]:
    """The import names and the query of QL text, with lost underscores restored."""
    reader = QlReader(text)
    reader.literal = _restore_underscores  # from here on, after the import lines
    return reader.imports, reader.read_query()


def repaired(node):
    """``node`` with every string in it restored as ``read_ql`` restores a literal."""
    # In a lowered IR only string literals and call steps hold spaces, and a
    # step's spaces outside its literals follow commas, so restoring a whole
    # step restores each literal in it as the reader would.
    if isinstance(node, Record):
        return type(node)(*map(repaired, node._values(node)))
    if isinstance(node, tuple):
        return tuple(map(repaired, node))
    return _restore_underscores(node) if isinstance(node, str) else node


def canonical(imports: list[str], ir: QueryIR) -> str:
    """Import lines, one per line and in order, then the query one clause per line."""
    return "".join(f"import {name}\n" for name in imports) + render(ir, line_width=math.inf)


def normalize_ql(text: str) -> str:
    """Canonical form for golden comparison, idempotent and token-preserving;
    text that does not read raises ``QlLexError`` at its position."""
    return canonical(*read_ql(text))
