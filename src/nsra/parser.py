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
    once per parse: the lowered text of a WORD or IDENT token, ``""`` for any other.  The parsing functions
    read ``words[i]`` and ``tokens[i].kind`` by index, deciding the common case first."""

    def __init__(self, tokens: list[Token]):
        end = tokens[-1].end if tokens else 0
        self.tokens = [*tokens, *[Token(None, "", end, end)] * 4]
        self.words = [t.text.lower() if t.kind in (WORD, IDENT) else "" for t in self.tokens]
        self.pos = 0
        self.depth = 0  # nested phrases open at ``pos``

    def descend(self) -> None:  # a nested phrase opens at the next token; its parser ends it with ``depth -= 1``
        if self.depth == MAX_NESTING:
            raise NestingTooDeep(f"phrases nested more than {MAX_NESTING} deep", self.tokens[self.pos].span)
        self.depth += 1

    def expect_word(self, *words: str) -> Token:
        if self.words[self.pos] not in words:
            raise self.error(*words)
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect_kind(self, kind: TokenKind, what: str) -> Token:
        if self.tokens[self.pos].kind is not kind:
            raise self.error(what)
        self.pos += 1
        return self.tokens[self.pos - 1]

    def error(self, *expected: str) -> QuerySyntaxError:
        tok = self.tokens[self.pos]
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
    while cur.tokens[cur.pos].kind is not None:
        statements.append(_sentence(cur))
    if not statements:
        raise QuerySyntaxError("empty query", Span(0, 0))
    return QueryAst(tuple(statements))


def _sentence(cur: _Cursor) -> Statement:
    if cur.words[cur.pos] == "it" and _at_phrase(cur, "it", "is", "necessary", "that"):
        cur.pos += 4
        stmt: Statement = Necessity(_chain(cur))
    else:
        stmt = _chain(cur)
    if cur.tokens[cur.pos].kind is not PERIOD:
        raise cur.error("'.'")
    cur.pos += 1
    return stmt


def _at_phrase(cur: _Cursor, *words: str) -> bool:
    i = cur.pos
    return cur.words[i] == words[0] and cur.words[i : i + len(words)] == [*words]


def _chain(cur: _Cursor, group: type[And | Or] = Or) -> Statement:
    """Operands joined by ``or``, each an and-chain, or by ``and``, each a unit.
    A unit sees the unit before it, for ``... and is not [...]``."""
    word = "or" if group is Or else "and"
    items = [_chain(cur, And) if group is Or else _unit(cur, None)]
    while cur.words[cur.pos] == word:
        cur.pos += 1
        items.append(_chain(cur, And) if group is Or else _unit(cur, items[-1]))
    return items[0] if len(items) == 1 else group(tuple(items))


def _unit(cur: _Cursor, previous: Statement | None) -> Statement:
    """One connective-free statement.

    ``it is false that`` binds the unit that follows (an if-statement counts
    as one unit); ``it is necessary that`` is rejected here so necessity
    never nests.
    """
    word = cur.words[cur.pos]
    if word == "it":
        if _at_phrase(cur, "it", "is", "necessary", "that"):
            raise QuerySyntaxError("a necessity statement must stand on its own sentence", cur.tokens[cur.pos].span)
        if _at_phrase(cur, "it", "is", "false", "that"):
            cur.descend()
            cur.pos += 4
            inner = _unit(cur, previous=None)
            cur.depth -= 1
            return Not(inner)
    elif word == "if":
        cur.descend()
        cur.pos += 1
        cond = _chain(cur)
        if cur.tokens[cur.pos].kind is COMMA:  # tolerated before "then"
            cur.pos += 1
        cur.expect_word("then")
        then = _chain(cur, And)
        cur.depth -= 1
        return desugar_implication(cond, then)
    return _simple(cur, previous)


def _simple(cur: _Cursor, previous: Statement | None) -> Statement:
    """A pattern or a basic statement.  A signature's subject is ``signature
    of m``, ``m's signature``, or, in ``... and is not ["int"]``, the subject
    of the signature before it, negated or not."""
    i, words = cur.pos, cur.words
    word = words[i]
    if word == "object":
        return _invocation(cur)
    if words[i + 1] in ("precedes", "follows") and cur.tokens[i].kind is IDENT:
        return _ordering(cur)
    if word == "signature":
        cur.pos += 1
        cur.expect_word("of")
        method = cur.expect_kind(IDENT, "method name").text
    elif words[i + 2] == "signature" and cur.tokens[i + 1].kind is POSSESSIVE and cur.tokens[i].kind is IDENT:
        method = cur.tokens[i].text
        cur.pos += 3
    elif word == "is":
        if type(previous) is Not:
            previous = previous.inner
        if type(previous) is not SignaturePattern:
            raise cur.error("a statement subject")
        method = previous.method_name
    else:
        return _basic(cur)
    return _signature_rest(cur, method)


def _invocation(cur: _Cursor) -> Statement:
    cur.pos += 1  # object
    cur.expect_word("of")
    # Any word before the verb names a class, one spelled like a keyword (``Signature``) too.
    keyword_spelled = cur.tokens[cur.pos].kind is WORD and cur.words[cur.pos + 1] in ("invokes", "does")
    class_name = cur.expect_kind(WORD if keyword_spelled else IDENT, "class name").text
    positive = cur.words[cur.pos] == "invokes"
    for word in ("invokes",) if positive else ("does", "not", "invoke"):
        cur.expect_word(word)
    return InvocationPattern(class_name, _name(cur.expect_kind(IDENT, "method name")), positive)


def _ordering(cur: _Cursor) -> Statement:
    left, verb = cur.tokens[cur.pos].text, cur.words[cur.pos + 1]
    cur.pos += 2
    right = cur.expect_kind(IDENT, "method name").text
    return OrderingPattern(right, left) if verb == "follows" else OrderingPattern(left, right)


def _signature_rest(cur: _Cursor, method: str) -> Statement:
    cur.expect_word("is")
    negated = cur.words[cur.pos] == "not"
    cur.pos += negated
    pattern = SignaturePattern(method, tuple(i.value for i in _literal_list(cur, _type_name)))
    return Not(pattern) if negated else pattern


def _type_name(cur: _Cursor, like: Literal | None = None) -> Literal:  # ``like`` goes unused: every type name is a string
    tok = cur.tokens[cur.pos]
    lit = _literal(cur)
    if type(lit.value) is not str:
        raise QuerySyntaxError("signature lists hold type names as strings", tok.span)
    return lit


def _basic(cur: _Cursor) -> Statement:
    first = cur.tokens[cur.pos]
    lhs = _exp(cur)
    i, words = cur.pos, cur.words
    if words[i] != "is":
        raise cur.error("is")
    negation = cur.tokens[i + 1] if words[i + 1] == "not" else None
    cur.pos = i = i + 1 if negation is None else i + 2
    if words[i] == "in":
        cur.pos += 1
        items = _literal_list(cur)
        stmt = Basic(_require_non_literal(first, lhs), LiteralList(items))
    elif words[i] in _TYPE_NOUN_STARTS and (noun := _type_noun(cur)) is not None:
        if negation is not None:
            raise QuerySyntaxError("type assumptions cannot be negated", negation.span)
        return Basic(_require_non_literal(first, lhs), TypeAssumption(noun))
    else:
        rhs = _exp(cur, lhs)
        # Symmetric equality: "RSA" is the algorithm of .. stores the
        # expression on the left and the literal on the right.
        if type(lhs) is Literal and type(rhs) is not Literal:
            lhs, rhs = rhs, lhs
        stmt = Basic(lhs, rhs)
    return stmt if negation is None else Not(stmt)


def _require_non_literal(first: Token, lhs: Exp) -> Exp:
    """``first`` is the subject's first token, where the error points."""
    if type(lhs) is Literal:
        raise QuerySyntaxError("a literal cannot be the subject here", first.span)
    return lhs


# The first word of each type noun: no other word after ``is`` starts one.
_TYPE_NOUN_STARTS = frozenset(words[0] for words in TYPE_NOUNS)


def _type_noun(cur: _Cursor) -> str | None:
    for words, noun in TYPE_NOUNS.items():
        if _at_phrase(cur, *words):
            # "method access" must not swallow an attribute use of "method".
            i = cur.pos + len(words)
            if cur.tokens[i].kind in (None, PERIOD, COMMA) or cur.words[i] in ("and", "or", "then"):
                cur.pos = i
                return noun
    return None


def _literal(cur: _Cursor, like: Exp | None = None) -> Literal:
    """A string or integer literal; an error at it if ``like``, what it is
    compared with, is a literal of the other kind."""
    tok = cur.tokens[cur.pos]
    if tok.kind is STRING:
        lit = Literal(tok.text)
    elif tok.kind is INT:
        lit = Literal(tok.int_value())
    else:
        raise cur.error("a literal" if tok.kind is None else "a string or integer literal")
    cur.pos += 1
    if cur.tokens[cur.pos].kind is POSSESSIVE:  # a literal has no attributes
        raise IllegalCharacter(_NO_POSSESSOR, cur.tokens[cur.pos].span)
    if type(like) is Literal and (type(like.value) is str) is not (type(lit.value) is str):
        raise QuerySyntaxError("a string cannot be compared with an integer", tok.span)
    return lit


def _literal_list(cur: _Cursor, item: Callable[..., Literal] = _literal) -> tuple[Literal, ...]:
    """``[item, ...]``: each item after the first is read ``like`` the first."""
    open_tok, tokens = cur.expect_kind(LIST_OPEN, "'['"), cur.tokens
    if tokens[cur.pos].kind is LIST_CLOSE:
        raise EmptyList("empty list", Span(open_tok.start, tokens[cur.pos].end))
    items = [item(cur)]
    while tokens[cur.pos].kind is COMMA:
        cur.pos += 1
        items.append(item(cur, items[0]))
    cur.expect_kind(LIST_CLOSE, "']'")
    return tuple(items)


def _exp(cur: _Cursor, like: Exp | None = None) -> Exp:  # ``like`` as for ``_literal``
    i, words = cur.pos, cur.words
    tok = cur.tokens[i]
    kind, word = tok.kind, words[i]
    if kind is STRING or kind is INT:
        return _literal(cur, like)
    # Adjective position: word before "attribute of" must be an ordinal.
    if word and words[i + 1] not in ("", "of") and words[i + 2] == "of":
        raise UnknownOrdinal(tok.text, tok.span)
    if kind is ORDINAL or word and words[i + 1] == "of":  # [ordinal] W of X
        cur.descend()
        value = ORDINALS[tok.text.lower()] if kind is ORDINAL else None
        cur.pos = i = i if value is None else i + 1
        if not words[i]:
            raise cur.error("attribute word")
        cur.pos += 1
        cur.expect_word("of")
        inner = _require_non_literal(cur.tokens[i + 2], _exp(cur))  # a literal has no attributes
        cur.depth -= 1
        return Prefixed(words[i], value, inner)
    if kind is IDENT:
        cur.pos = i + 1
        ident = Ident(_name(tok))
        return _possessives(cur, ident) if cur.tokens[i + 1].kind is POSSESSIVE else ident
    if kind is POSSESSIVE:
        raise IllegalCharacter(_NO_POSSESSOR, tok.span)
    raise cur.error("an expression")


def _possessives(cur: _Cursor, owner: Exp) -> Exp:
    """``owner's [ordinal] attr``, repeated: each ``'s`` takes the phrase
    before it as its possessor, so a chain reads left to right.  Each
    possessive is one level of nesting, opened at its ordinal or attribute."""
    depth, tokens, words = cur.depth, cur.tokens, cur.words
    while tokens[cur.pos].kind is POSSESSIVE:
        i = cur.pos = cur.pos + 1  # past the marker
        value = ORDINALS[tokens[i].text.lower()] if tokens[i].kind is ORDINAL else None
        attr = words[i if value is None else i + 1]
        if not attr:
            raise IllegalCharacter("possessive marker without an attribute", tokens[i - 1].span)
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
