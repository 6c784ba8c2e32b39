"""The QL read path as it was before its scan dropped the per-token skip
prefix, kept as the reference the tests check ``qlgen`` and ``registry``
against.

``ORACLE_QL_TOKEN`` is the old pattern: each match is a skip prefix of
whitespace and comments, then an optional token, so the scan ends with one
or two empty matches.  ``oracle_lex_ql`` and ``oracle_token_span`` read
with it, and the reader's scan is ``oracle_lex_ql`` too, so no run of
calls is one token; ``oracle_read_value`` reads a call chain through
``expect`` and ``read_list``; ``oracle_wrap`` fills a line by copying it for each part;
``oracle_read_template`` finds a template comment by counting ``/``
characters.  ``as_parent()`` installs them in ``qlgen`` and ``registry``
for the length of a ``with`` block, so ``read_query_text``,
``normalize_ql``, ``halstead_ql`` and ``load_profile`` called inside it take
the old path.
"""

from __future__ import annotations

import contextlib
import re
from unittest import mock

from nsra import qlgen, registry
from nsra.errors import TOO_LONG_INTEGER, BadTemplate, ConfigParseError, QlLexError, Span
from nsra.ir import Chain, Count, Lit, Var
from nsra.qlgen import _ESCAPE, _INDENT, _is_ident, _is_literal, _lexes, escape_string
from nsra.registry import _STRING_RESULTS, AttributeRule, _arg_error

ORACLE_QL_TOKEN = re.compile(
    r'(?:\s+|//[^\n]*|/\*.*?\*/)*("[^"\\]*(?:\\.[^"\\]*)*"|\d+|[^\W\d]\w*|/\*.*|\S)?', re.DOTALL
)


def oracle_token_span(text: str, index: int) -> Span:
    for i, m in enumerate(ORACLE_QL_TOKEN.finditer(text)):
        if i == index and m.start(1) >= 0:
            return Span(*m.span(1))
    return Span(len(text), len(text))


def oracle_lex_ql(text: str) -> list[str]:
    tokens = ORACLE_QL_TOKEN.findall(text)
    while tokens and not tokens[-1]:
        tokens.pop()
    bad = [tok for tok in set(tokens) if not _lexes(tok)]
    if not bad:
        return tokens
    span = oracle_token_span(text, min(map(tokens.index, bad)))
    start, char = span.start, text[span.start]
    if char == '"':
        raise QlLexError("unterminated string literal", Span(start, len(text)))
    if text.startswith("/*", start):
        raise QlLexError("unterminated comment", Span(start, len(text)))
    if char.isdecimal():
        raise QlLexError(TOO_LONG_INTEGER, span)
    raise QlLexError(f"unexpected character {char!r}", Span(start, start + 1))


def oracle_read_value(self):
    tok = self.tokens[self.pos]
    self.pos += 1
    if tok == "count":
        self.expect("(")
        inner = self.read_value()
        self.expect(")")
        return Count(inner)
    if tok[:1] == '"':
        body = self.literal(tok)[1:-1]
        return Lit(_ESCAPE.sub(r"\1", body) if "\\" in body else body)
    if tok[:1].isdecimal():
        return Lit(int(tok))
    if not _is_ident(tok):
        message = f"unexpected {self.shown(tok)!r} in value position" if tok else "expected a value"
        raise self.error(message, self.pos - 1)
    steps = []
    while self.tokens[self.pos] == ".":
        self.pos += 1
        name = self.expect()
        self.expect("(")
        args = self.read_list(_is_literal, "call arguments", ")") if self.tokens[self.pos] != ")" else []
        self.pos += 1
        steps.append(f"{name}({', '.join(map(self.literal, args))})")
    return Chain(Var(tok), tuple(steps)) if steps else Var(tok)


def oracle_wrap(first: str, parts: list[str], sep: str, line_width: float) -> list[str]:
    lines = []
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


def oracle_read_template(word: str, text: str, start: int, end: int) -> AttributeRule:
    tokens = ORACLE_QL_TOKEN.findall(text, start, end)

    def span(k: int) -> Span:
        m = [*ORACLE_QL_TOKEN.finditer(text, start, end)][k]
        return Span(m.end() - len(m[1] or ""), m.end())

    if text.count("/", start, end) != "".join(tokens).count("/"):
        for m in ORACLE_QL_TOKEN.finditer(text, start, end):
            at = text.find("/", m.start(), m.end() - len(m[1] or ""))
            if at >= 0:
                raise ConfigParseError("unexpected '/' in template", Span(at, at + 1))
    steps = []
    slot, i = None, 0
    while True:
        name = tokens[i]
        if not _is_ident(name):
            raise ConfigParseError(f"expected a call name in template for {word!r}", span(i))
        if tokens[i + 1] != "(":
            raise ConfigParseError(f"call {name!r} needs parentheses", span(i + 1))
        i += 2
        args = []
        while tokens[i] != ")":
            if args:
                if tokens[i] != ",":
                    raise ConfigParseError(_arg_error(word, tokens[i]), span(i))
                i += 1
            tok = tokens[i]
            if tok == "@" and tokens[i + 1] == "ordinal":
                if slot is not None:
                    raise BadTemplate(f"bad template for attribute {word!r}: ordinal slot named twice", span(i))
                slot, tok = (len(steps), len(f"{name}({', '.join([*args, ''])}")), ""
                i += 1
            elif tok[:1] == '"' and len(tok) > 1:
                body = tok[1:-1]
                tok = '"' + escape_string(_ESCAPE.sub(r"\1", body) if "\\" in body else body) + '"'
            elif tok[:1].isdecimal():
                try:
                    tok = str(int(tok))
                except ValueError:
                    raise ConfigParseError(TOO_LONG_INTEGER, span(i)) from None
            else:
                raise ConfigParseError(_arg_error(word, tok), span(i))
            args.append(tok)
            i += 1
        steps.append(f"{name}({', '.join(args)})")
        if not tokens[i + 1]:
            return AttributeRule(tuple(steps), "string" if name in _STRING_RESULTS else "object", slot)
        if tokens[i + 1] != ".":
            raise ConfigParseError(f"expected '.' between calls, found {tokens[i + 1]!r}", span(i + 1))
        i += 2


@contextlib.contextmanager
def as_parent():
    """Inside the block, ``qlgen`` and ``registry`` read and lay out QL as before."""
    with (
        mock.patch.multiple(
            qlgen, lex_ql=oracle_lex_ql, lex_ql_runs=oracle_lex_ql, _token_span=oracle_token_span, _wrap=oracle_wrap
        ),
        mock.patch.object(qlgen.QlReader, "read_value", oracle_read_value),
        mock.patch.object(registry, "_read_template", oracle_read_template),
    ):
        yield
