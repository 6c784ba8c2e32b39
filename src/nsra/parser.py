"""Recursive-descent parser: normalized token stream -> QueryAst.

Precedence, tightest first: basic/pattern units, ``it is false that`` (binds
one unit), ``and``, ``or``.  ``if .. then ..`` takes a full or-chain as its
condition and an and-chain as its consequence, which is how the worked
queries group.  Necessity statements are admitted only at sentence level.
The tokens are in source order: a possessive ``X's [ordinal] attr`` is read
as a postfix on the name before it, so ``m's method's name`` is the name of
the method of ``m``, as ``the name of the method of m`` is.
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import EmptyList, IllegalCharacter, NestingTooDeep, QuerySyntaxError, Span, UnknownOrdinal
from .ir import And, Not, Or, desugar_implication
from .lexer import COMMA, IDENT, INT, LIST_CLOSE, LIST_OPEN, ORDINAL, PERIOD, POSSESSIVE, STRING, WORD, Token
from .lexer import ORDINALS, TYPE_NOUNS, TokenKind, normalize, tokenize
from .syntax import (
    Basic,
    Exp,
    Ident,
    InvocationPattern,
    Literal,
    LiteralList,
    Necessity,
    OrderingPattern,
    Prefixed,
    QueryAst,
    SignaturePattern,
    Statement,
    TypeAssumption,
)

# How deeply ``it is false that``, ``if .. then`` and attribute phrases, a
# possessive among them, may nest, together: every later stage recurses once
# or a few times per level, and this depth leaves them room under Python's
# default recursion limit.
MAX_NESTING = 100

_NO_POSSESSOR = "possessive marker without a possessor"

# CodeQL's reserved words, from the lexical syntax of the QL language
# specification.  A name that the lowering may make a QL variable must be
# none of them; ``qlgen.QL_KEYWORDS`` is the smaller set the QL reader parses.
QL_RESERVED_WORDS = frozenset(
    "and any as asc avg boolean by class concat count date desc else exists extends false float forall forex from"
    " if implies import in instanceof int max min module newtype none not or order predicate rank result select"
    " strictconcat strictcount strictsum string sum super then this true unique where".split()
)


class _Cursor:
    """A position in a normalized token stream and four end tokens after it (kind ``None``, text ``""``, the
    empty span at the last token's end), as many as a probe may look past the end.  ``words`` folds each word
    once per parse: the lowered text of a WORD or IDENT token, ``""`` for any other.  A word probe is one index."""

    def __init__(self, tokens: list[Token]):
        end = tokens[-1].end if tokens else 0
        self.tokens = [*tokens, *[Token(None, "", end, end)] * 4]
        self.words = [t.text.lower() if t.kind in (WORD, IDENT) else "" for t in self.tokens]
        self.pos = 0
        self.depth = 0  # nested phrases open at ``pos``

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def word(self, offset: int = 0) -> str:  # "" for a token that is no word
        return self.words[self.pos + offset]

    def at_word(self, *words: str, offset: int = 0) -> bool:
        return self.words[self.pos + offset] in words

    def at_kind(self, kind: TokenKind, offset: int = 0) -> bool:
        return self.tokens[self.pos + offset].kind is kind

    def take(self) -> Token:  # every caller has seen that the next token is no end token
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
        if not self.at_kind(kind):
            raise self.error(what)
        return self.take()

    def error(self, *expected: str) -> QuerySyntaxError:
        tok = self.peek()
        found = "end of query" if tok.kind is None else repr(tok.text)
        return QuerySyntaxError(f"unexpected {found}", tok.span, expected)


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
    while cur.peek().kind is not None:
        statements.append(_sentence(cur))
    if not statements:
        raise QuerySyntaxError("empty query", Span(0, 0))
    return QueryAst(tuple(statements))


def _sentence(cur: _Cursor) -> Statement:
    if _at_phrase(cur, "it", "is", "necessary", "that"):
        cur.pos += 4
        stmt: Statement = Necessity(_chain(cur))
    else:
        stmt = _chain(cur)
    cur.expect_kind(PERIOD, "'.'")
    return stmt


def _at_phrase(cur: _Cursor, *words: str) -> bool:
    return cur.words[cur.pos : cur.pos + len(words)] == [*words]


def _chain(cur: _Cursor, group: type[And | Or] = Or) -> Statement:
    """Operands joined by ``or``, each an and-chain, or by ``and``, each a unit.
    A unit sees the unit before it, for ``... and is not [...]``."""
    word = "or" if group is Or else "and"
    items = [_chain(cur, And) if group is Or else _unit(cur, None)]
    while cur.words[cur.pos] == word:  # ``cur.at_word(word)`` without the call, as each sentence reads two chains
        cur.take()
        items.append(_chain(cur, And) if group is Or else _unit(cur, items[-1]))
    return items[0] if len(items) == 1 else group(tuple(items))


def _unit(cur: _Cursor, previous: Statement | None) -> Statement:
    """One connective-free statement.

    ``it is false that`` binds the unit that follows (an if-statement counts
    as one unit); ``it is necessary that`` is rejected here so necessity
    never nests.
    """
    if _at_phrase(cur, "it", "is", "necessary", "that"):
        raise QuerySyntaxError("a necessity statement must stand on its own sentence", cur.peek().span)
    if _at_phrase(cur, "it", "is", "false", "that"):
        cur.descend()
        cur.pos += 4
        inner = _unit(cur, previous=None)
        cur.depth -= 1
        return Not(inner)
    if cur.at_word("if"):
        cur.descend()
        cur.take()
        cond = _chain(cur)
        if cur.at_kind(COMMA):  # tolerated before "then"
            cur.take()
        cur.expect_word("then")
        then = _chain(cur, And)
        cur.depth -= 1
        return desugar_implication(cond, then)
    return _simple(cur, previous)


def _simple(cur: _Cursor, previous: Statement | None) -> Statement:
    """A pattern or a basic statement.  A signature's subject is ``signature
    of m``, ``m's signature``, or, in ``... and is not ["int"]``, the subject
    of the signature before it, negated or not."""
    if cur.at_word("object"):
        return _invocation(cur)
    if cur.at_kind(IDENT) and cur.at_word("precedes", "follows", offset=1):
        return _ordering(cur)
    if cur.at_word("signature"):
        cur.pos += 1
        cur.expect_word("of")
        method = cur.expect_kind(IDENT, "method name").text
    elif cur.at_kind(POSSESSIVE, 1) and cur.at_word("signature", offset=2) and cur.at_kind(IDENT):
        method = cur.peek().text
        cur.pos += 3
    elif cur.at_word("is"):
        if isinstance(previous, Not):
            previous = previous.inner
        if not isinstance(previous, SignaturePattern):
            raise cur.error("a statement subject")
        method = previous.method_name
    else:
        return _basic(cur)
    return _signature_rest(cur, method)


def _invocation(cur: _Cursor) -> Statement:
    cur.pos += 1  # object
    cur.expect_word("of")
    # Any word before the verb names a class, one spelled like a keyword (``Signature``) too.
    keyword_spelled = cur.at_kind(WORD) and cur.at_word("invokes", "does", offset=1)
    class_name = cur.expect_kind(WORD if keyword_spelled else IDENT, "class name").text
    positive = cur.at_word("invokes")
    for word in ("invokes",) if positive else ("does", "not", "invoke"):
        cur.expect_word(word)
    return InvocationPattern(class_name, _name(cur.expect_kind(IDENT, "method name")), positive)


def _ordering(cur: _Cursor) -> Statement:
    left, verb = cur.peek().text, cur.word(1)
    cur.pos += 2
    right = cur.expect_kind(IDENT, "method name").text
    return OrderingPattern(right, left) if verb == "follows" else OrderingPattern(left, right)


def _signature_rest(cur: _Cursor, method: str) -> Statement:
    cur.expect_word("is")
    negation = cur.take() if cur.at_word("not") else None
    pattern = SignaturePattern(method, tuple(i.value for i in _literal_list(cur, _type_name)))
    return pattern if negation is None else Not(pattern)


def _type_name(cur: _Cursor, like: Literal | None = None) -> Literal:  # ``like`` goes unused: every type name is a string
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
        stmt = Basic(_require_non_literal(first, lhs), LiteralList(items))
    elif (noun := _type_noun(cur)) is not None:
        if negation is not None:
            raise QuerySyntaxError("type assumptions cannot be negated", negation.span)
        return Basic(_require_non_literal(first, lhs), TypeAssumption(noun))
    else:
        rhs = _exp(cur, lhs)
        # Symmetric equality: "RSA" is the algorithm of .. stores the
        # expression on the left and the literal on the right.
        if isinstance(lhs, Literal) and not isinstance(rhs, Literal):
            lhs, rhs = rhs, lhs
        stmt = Basic(lhs, rhs)
    return stmt if negation is None else Not(stmt)


def _require_non_literal(first: Token, lhs: Exp) -> Exp:
    """``first`` is the subject's first token, where the error points."""
    if isinstance(lhs, Literal):
        raise QuerySyntaxError("a literal cannot be the subject here", first.span)
    return lhs


def _type_noun(cur: _Cursor) -> str | None:
    for words, noun in TYPE_NOUNS.items():
        if _at_phrase(cur, *words):
            # "method access" must not swallow an attribute use of "method".
            n = len(words)
            if cur.peek(n).kind in (None, PERIOD, COMMA) or cur.at_word("and", "or", "then", offset=n):
                cur.pos += n
                return noun
    return None


def _literal(cur: _Cursor, like: Exp | None = None) -> Literal:
    """A string or integer literal; an error at it if ``like``, what it is
    compared with, is a literal of the other kind."""
    tok = cur.peek()
    if tok.kind is not STRING and tok.kind is not INT:
        raise cur.error("a literal" if tok.kind is None else "a string or integer literal")
    lit = Literal(tok.text if tok.kind is STRING else tok.int_value())
    cur.take()
    if cur.at_kind(POSSESSIVE):  # a literal has no attributes
        raise IllegalCharacter(_NO_POSSESSOR, cur.peek().span)
    if isinstance(like, Literal) and isinstance(like.value, str) is not isinstance(lit.value, str):
        raise QuerySyntaxError("a string cannot be compared with an integer", tok.span)
    return lit


def _literal_list(cur: _Cursor, item: Callable[..., Literal] = _literal) -> tuple[Literal, ...]:
    """``[item, ...]``: each item after the first is read ``like`` the first."""
    open_tok = cur.expect_kind(LIST_OPEN, "'['")
    if cur.at_kind(LIST_CLOSE):
        close = cur.take()
        raise EmptyList("empty list", Span(open_tok.start, close.end))
    items = [item(cur)]
    while cur.at_kind(COMMA):
        cur.take()
        items.append(item(cur, items[0]))
    cur.expect_kind(LIST_CLOSE, "']'")
    return tuple(items)


def _exp(cur: _Cursor, like: Exp | None = None) -> Exp:  # ``like`` as for ``_literal``
    tok = cur.peek()
    if tok.kind in (STRING, INT):
        return _literal(cur, like)
    word = cur.word()
    # Adjective position: word before "attribute of" must be an ordinal.
    if word and cur.word(1) not in ("", "of") and cur.at_word("of", offset=2):
        raise UnknownOrdinal(tok.text, tok.span)
    if tok.kind is ORDINAL or word and cur.at_word("of", offset=1):  # [ordinal] W of X
        cur.descend()
        value = ORDINALS[cur.take().text.lower()] if tok.kind is ORDINAL else None
        attr = cur.word()
        if not attr:
            raise cur.error("attribute word")
        cur.pos += 1
        cur.expect_word("of")
        inner = _require_non_literal(cur.peek(), _exp(cur))  # a literal has no attributes
        cur.depth -= 1
        return Prefixed(attr, value, inner)
    if tok.kind is IDENT:
        cur.take()
        return _possessives(cur, Ident(_name(tok)))
    if tok.kind is POSSESSIVE:
        raise IllegalCharacter(_NO_POSSESSOR, tok.span)
    raise cur.error("an expression")


def _possessives(cur: _Cursor, owner: Exp) -> Exp:
    """``owner's [ordinal] attr``, repeated: each ``'s`` takes the phrase
    before it as its possessor, so a chain reads left to right.  Each
    possessive is one level of nesting, opened at its ordinal or attribute."""
    depth = cur.depth
    while cur.at_kind(POSSESSIVE):
        marker = cur.take()
        value = ORDINALS[cur.peek().text.lower()] if cur.at_kind(ORDINAL) else None
        attr = cur.word(0 if value is None else 1)
        if not attr:
            raise IllegalCharacter("possessive marker without an attribute", marker.span)
        cur.descend()
        cur.pos += 1 if value is None else 2
        owner = Prefixed(attr, value, owner)
    cur.depth = depth
    return owner


def _name(tok: Token) -> str:
    """A name that the lowering may make a QL variable, which CodeQL must not read as a reserved word."""
    if tok.text in QL_RESERVED_WORDS:
        raise QuerySyntaxError(f"the CodeQL keyword {tok.text!r} cannot be a name", tok.span)
    return tok.text
