"""Recursive-descent parser: normalized token stream -> QueryAst.

Precedence, tightest first: basic/pattern units, ``it is false that`` (binds
one unit), ``and``, ``or``.  ``if .. then ..`` takes a full or-chain as its
condition and an and-chain as its consequence, which is how the worked
queries group.  Necessity statements are admitted only at sentence level.
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import EmptyList, NestingTooDeep, QuerySyntaxError, Span, UnknownOrdinal
from .lexer import COMMA, IDENT, INT, LIST_CLOSE, LIST_OPEN, ORDINAL, PERIOD, STRING, WORD, Token, TokenKind
from .lexer import normalize, ordinal_value, tokenize
from .syntax import (
    AndStmt,
    Basic,
    Exp,
    Ident,
    IfStmt,
    InvocationPattern,
    Literal,
    LiteralList,
    Necessity,
    NotStmt,
    OrderingPattern,
    OrStmt,
    Prefixed,
    QueryAst,
    SignaturePattern,
    Statement,
    TypeAssumption,
)

_TYPE_NOUNS = {("variable",): "variable", ("class",): "class", ("method", "access"): "method access"}

# How deeply ``it is false that``, ``if .. then`` and attribute prefixes may
# nest, together: every later stage recurses once or a few times per level,
# and this depth leaves them room under Python's default recursion limit.
MAX_NESTING = 100


class _Cursor:
    """A position in a normalized token stream.  ``words`` folds each word once per parse: the
    lowered text of each WORD or IDENT token, ``""`` for any other token, then ``""`` sentinels
    for the four tokens a probe may look past the end.  A word probe is then one list index."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.words = [t.text.lower() if t.kind in (WORD, IDENT) else "" for t in tokens] + [""] * 4
        self.pos = 0
        self.depth = 0  # nested phrases open at ``pos``

    def peek(self, offset: int = 0) -> Token | None:
        idx = self.pos + offset
        return self.tokens[idx] if idx < len(self.tokens) else None

    def word(self, offset: int = 0) -> str:  # "" for a token that is no word, and past the end
        return self.words[self.pos + offset]

    def at_word(self, *words: str, offset: int = 0) -> bool:
        return self.words[self.pos + offset] in words

    def at_kind(self, kind: TokenKind, offset: int = 0) -> bool:
        tok = self.peek(offset)
        return tok is not None and tok.kind is kind

    def take(self) -> Token:  # every caller has seen that there is a next token
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def descend(self) -> None:  # a nested phrase opens at the next token; its parser ends it with ``depth -= 1``
        if self.depth == MAX_NESTING:
            raise NestingTooDeep(f"phrases nested more than {MAX_NESTING} deep", self.tokens[self.pos].span)
        self.depth += 1

    def expect_word(self, *words: str) -> Token:
        if not self.at_word(*words):
            raise self.error(*words)
        return self.take()

    def expect_kind(self, kind: TokenKind, what: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind is not kind:
            raise self.error(what)
        return self.take()

    def error(self, *expected: str) -> QuerySyntaxError:
        tok = self.peek()
        if tok is None:
            return QuerySyntaxError("unexpected end of query", self._end_span(), expected)
        return QuerySyntaxError(f"unexpected {tok.text!r}", tok.span, expected)

    def _end_span(self) -> Span:
        if self.tokens:
            last = self.tokens[-1].span
            return Span(last.end, last.end)
        return Span(0, 0)


def parse_text(text: str) -> QueryAst:
    """Tokenize, normalize, and parse query text."""
    return parse_query(normalize(tokenize(text)))


def parse_query(tokens: list[Token]) -> QueryAst:
    """Parse a normalized token stream into a QueryAst.

    Sentences are period-delimited; every sentence must be a complete
    statement.
    """
    cur = _Cursor(tokens)
    statements: list[Statement] = []
    while cur.peek() is not None:
        statements.append(_sentence(cur))
    if not statements:
        raise QuerySyntaxError("empty query", Span(0, 0))
    return QueryAst(tuple(statements))


def _sentence(cur: _Cursor) -> Statement:
    if _at_phrase(cur, "it", "is", "necessary", "that"):
        for _ in range(4):
            cur.take()
        inner = _or_chain(cur)
        stmt: Statement = Necessity(inner)
    else:
        stmt = _or_chain(cur)
    cur.expect_kind(PERIOD, "'.'")
    return stmt


def _at_phrase(cur: _Cursor, *words: str) -> bool:
    return cur.words[cur.pos : cur.pos + len(words)] == [*words]


def _or_chain(cur: _Cursor) -> Statement:
    items = [_and_chain(cur)]
    while cur.at_word("or"):
        cur.take()
        items.append(_and_chain(cur))
    if len(items) == 1:
        return items[0]
    return OrStmt(tuple(items))


def _and_chain(cur: _Cursor) -> Statement:
    items = [_unit(cur, previous=None)]
    while cur.at_word("and"):
        cur.take()
        items.append(_unit(cur, previous=items[-1]))
    if len(items) == 1:
        return items[0]
    return AndStmt(tuple(items))


def _unit(cur: _Cursor, previous: Statement | None) -> Statement:
    """One connective-free statement.

    ``it is false that`` binds the unit that follows (an if-statement counts
    as one unit); ``it is necessary that`` is rejected here so necessity
    never nests.
    """
    if _at_phrase(cur, "it", "is", "necessary", "that"):
        tok = cur.peek()
        assert tok is not None
        raise QuerySyntaxError(
            "a necessity statement must stand on its own sentence", tok.span
        )
    if _at_phrase(cur, "it", "is", "false", "that"):
        cur.descend()
        for _ in range(4):
            cur.take()
        inner = _unit(cur, previous=None)
        cur.depth -= 1
        return NotStmt(inner)
    if cur.at_word("if"):
        cur.descend()
        cur.take()
        cond = _or_chain(cur)
        if cur.at_kind(COMMA):  # tolerated before "then"
            cur.take()
        cur.expect_word("then")
        then = _and_chain(cur)
        cur.depth -= 1
        return IfStmt(cond, then)
    return _simple(cur, previous)


def _simple(cur: _Cursor, previous: Statement | None) -> Statement:
    if cur.at_word("object"):
        return _invocation(cur)
    if cur.at_word("signature"):
        return _signature(cur)
    if cur.at_word("is"):
        return _elliptical_signature(cur, previous)
    if cur.at_kind(IDENT) and cur.at_word("precedes", "follows", offset=1):
        return _ordering(cur)
    return _basic(cur)


def _invocation(cur: _Cursor) -> Statement:
    cur.expect_word("object")
    cur.expect_word("of")
    class_name = cur.expect_kind(IDENT, "class name").text
    if cur.at_word("invokes"):
        cur.take()
        positive = True
    else:
        cur.expect_word("does")
        cur.expect_word("not")
        cur.expect_word("invoke")
        positive = False
    method = cur.expect_kind(IDENT, "method name").text
    return InvocationPattern(class_name, method, positive)


def _ordering(cur: _Cursor) -> Statement:
    left = cur.take().text
    verb = cur.take().lowered()
    right = cur.expect_kind(IDENT, "method name").text
    if verb == "follows":
        return OrderingPattern(before=right, after=left, direction="follows")
    return OrderingPattern(before=left, after=right, direction="precedes")


def _signature(cur: _Cursor) -> Statement:
    cur.expect_word("signature")
    cur.expect_word("of")
    return _signature_rest(cur, cur.expect_kind(IDENT, "method name").text)


def _elliptical_signature(cur: _Cursor, previous: Statement | None) -> Statement:
    """``... and is not ["int", "Key"]`` re-uses the prior signature subject."""
    if not isinstance(previous, SignaturePattern):
        raise cur.error("a statement subject")
    return _signature_rest(cur, previous.method_name)


def _signature_rest(cur: _Cursor, method: str) -> Statement:
    cur.expect_word("is")
    positive = True
    if cur.at_word("not"):
        cur.take()
        positive = False
    items = _literal_list(cur, _type_name)
    return SignaturePattern(method, tuple(i.value for i in items), positive)


def _type_name(cur: _Cursor) -> Literal:
    tok = cur.peek()
    lit = _literal(cur)
    if not isinstance(lit.value, str):
        raise QuerySyntaxError("signature lists hold type names as strings", tok.span)
    return lit


def _basic(cur: _Cursor) -> Statement:
    first = cur.peek()
    lhs = _exp(cur)
    cur.expect_word("is")
    negation = cur.take() if cur.at_word("not") else None
    if cur.at_word("in"):
        cur.take()
        items = _literal_list(cur)
        return Basic(_require_non_literal(lhs, first), LiteralList(items), negation is not None)
    noun = _type_noun(cur)
    if noun is not None:
        if negation is not None:
            raise QuerySyntaxError("type assumptions cannot be negated", negation.span)
        return Basic(_require_non_literal(lhs, first), TypeAssumption(noun))
    rhs = _exp(cur)
    # Symmetric equality: "RSA" is the algorithm of .. stores the expression
    # on the left and the literal on the right.
    if isinstance(lhs, Literal) and not isinstance(rhs, Literal):
        lhs, rhs = rhs, lhs
    return Basic(lhs, rhs, negation is not None)


def _require_non_literal(lhs: Exp, first: Token) -> Exp:
    """``first`` is the subject's first token, where the error points."""
    if isinstance(lhs, Literal):
        raise QuerySyntaxError("a literal cannot be the subject here", first.span)
    return lhs


def _of_subject(cur: _Cursor) -> Exp:  # what an attribute is of: a literal has no attributes
    first = cur.peek()
    return _require_non_literal(_exp(cur), first)


def _type_noun(cur: _Cursor) -> str | None:
    for words, noun in _TYPE_NOUNS.items():
        if _at_phrase(cur, *words):
            after = cur.peek(len(words))
            # "method access" must not swallow an attribute use of "method".
            if after is None or after.kind in (PERIOD, COMMA) or cur.at_word(
                "and", "or", "then", offset=len(words)
            ):
                for _ in words:
                    cur.take()
                return noun
    return None


def _literal(cur: _Cursor) -> Literal:
    tok = cur.peek()
    if tok is None:
        raise cur.error("a literal")
    if tok.kind is STRING:
        cur.take()
        return Literal(tok.text)
    if tok.kind is INT:
        cur.take()
        return Literal(tok.int_value())
    raise cur.error("a string or integer literal")


def _literal_list(cur: _Cursor, item: Callable[[_Cursor], Literal] = _literal) -> tuple[Literal, ...]:
    open_tok = cur.expect_kind(LIST_OPEN, "'['")
    items: list[Literal] = []
    if cur.at_kind(LIST_CLOSE):
        close = cur.take()
        raise EmptyList("empty list", Span(open_tok.span.start, close.span.end))
    while True:
        items.append(item(cur))
        if cur.at_kind(COMMA):
            cur.take()
            continue
        cur.expect_kind(LIST_CLOSE, "']'")
        return tuple(items)


def _exp(cur: _Cursor) -> Exp:
    tok = cur.peek()
    if tok is None:
        raise cur.error("an expression")
    if tok.kind in (STRING, INT):
        return _literal(cur)
    if tok.kind is ORDINAL:
        cur.descend()
        cur.take()
        value = ordinal_value(tok.text)
        assert value is not None
        attr = cur.word()
        if not attr:
            raise cur.error("attribute word")
        cur.take()
        cur.expect_word("of")
        inner = _of_subject(cur)
        cur.depth -= 1
        return Prefixed(attr, value, inner)
    word = cur.word()
    if word:
        # Adjective position: word before "attribute of" must be an ordinal.
        if cur.word(1) not in ("", "of") and cur.at_word("of", offset=2):
            raise UnknownOrdinal(tok.text, tok.span)
        if cur.at_word("of", offset=1):
            cur.descend()
            cur.take()
            cur.take()  # of
            inner = _of_subject(cur)
            cur.depth -= 1
            return Prefixed(word, None, inner)
        if tok.kind is IDENT:
            cur.take()
            return Ident(tok.text)
    raise cur.error("an expression")
