"""Tokenizer and paraphrase normalizer for the controlled-English query language.

``tokenize`` segments raw text into tokens whose spans, with only
whitespace between them, cover the input.  ``normalize`` then rewrites the
token stream into the canonical surface form the parser understands:
contractions expanded, possessives turned into ``of`` phrases, and articles
dropped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto

from .errors import IllegalCharacter, SourceError, Span, UnterminatedString


class TokenKind(Enum):
    WORD = auto()          # structural vocabulary (keywords, pattern words, articles)
    ORDINAL = auto()       # first .. tenth
    STRING = auto()        # quoted literal, quotes stripped, content verbatim
    INT = auto()           # decimal integer literal
    IDENT = auto()         # user identifier or attribute word
    LIST_OPEN = auto()     # [
    LIST_CLOSE = auto()    # ]
    COMMA = auto()         # ,
    PERIOD = auto()        # .
    POSSESSIVE = auto()    # 's


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    span: Span

    def lowered(self) -> str:
        return self.text.lower()


# Ordinal adjectives admitted by the grammar, in argument-position order.
ORDINALS = {
    "first": 1,
    "second": 2,
    "third": 3,
    "fourth": 4,
    "fifth": 5,
    "sixth": 6,
    "seventh": 7,
    "eighth": 8,
    "ninth": 9,
    "tenth": 10,
}

ARTICLES = frozenset({"a", "an", "the"})

# Closed vocabulary of structural words.  Anything alphabetic outside this set
# (and the ordinals) lexes as an identifier; attribute words such as
# "algorithm" are identifiers whose attribute role is positional.
STRUCTURE_WORDS = frozenset(
    {
        "object",
        "of",
        "invokes",
        "invoke",
        "does",
        "not",
        "is",
        "in",
        "it",
        "false",
        "necessary",
        "that",
        "if",
        "then",
        "and",
        "or",
        "precedes",
        "follows",
        "signature",
        "variable",
        "class",
        "method",
        "access",
    }
    | ARTICLES
)

# An article is dropped as a determiner, unless the next word is one of these
# statement keywords: then the article is itself a subject, as the identifier
# "a" is in "a is b.".
_ARTICLE_STOPPERS = frozenset(
    {"is", "invokes", "invoke", "does", "precedes", "follows", "and", "or", "then", "in"}
)

# One alternative per token kind, tried in order, as in the "Writing a
# Tokenizer" recipe of the ``re`` docs; a group named after a ``TokenKind``
# yields that kind, and a ``name`` is classified by ``_classify``.  A string
# opens with any of ``" “ ”`` and closes at the first ``"`` or ``”``.  An
# apostrophe before ``s`` and a non-word character is the possessive marker;
# any other apostrophe between word characters makes one contraction WORD
# (``doesn't``).  ``error`` takes any other character, so ``²`` is illegal
# where ``\d`` reads only decimal digits.
_SCANNER = re.compile(
    r"""
      (?P<space>\s+)
    | ["“”](?P<STRING>[^"”]*)["”]
    | (?P<LIST_OPEN>\[)
    | (?P<LIST_CLOSE>\])
    | (?P<COMMA>,)
    | (?P<PERIOD>\.)
    | (?P<POSSESSIVE>['’][sS](?![A-Za-z0-9_]))
    | (?P<INT>\d+)
    | (?P<WORD>[A-Za-z0-9_]+['’](?![sS](?![A-Za-z0-9_]))[A-Za-z0-9_]+)
    | (?P<name>[A-Za-z0-9_]+)
    | (?P<error>.)
    """,
    re.VERBOSE | re.DOTALL,
)
_GROUP_KINDS = TokenKind.__members__
_WORD_KINDS = (TokenKind.WORD, TokenKind.ORDINAL, TokenKind.IDENT)


def _classify(word: str) -> TokenKind:
    lower = word.lower()
    if lower in ORDINALS:
        return TokenKind.ORDINAL
    if lower in STRUCTURE_WORDS:
        return TokenKind.WORD
    return TokenKind.IDENT


def _lex_error(text: str, start: int) -> SourceError:
    ch = text[start]
    if ch in "\"“”":
        return UnterminatedString("unterminated string literal", Span(start, len(text)))
    if ch in "'’":
        return IllegalCharacter(f"stray {ch!r}", Span(start, start + 1))
    return IllegalCharacter(f"illegal character {ch!r}", Span(start, start + 1))


def tokenize(text: str) -> list[Token]:
    """Segment query text into tokens.

    Quoted strings (straight or typographic quotes) become single STRING
    tokens holding their content verbatim; ``'s`` becomes a POSSESSIVE token;
    the contraction ``doesn't`` stays one WORD token for ``normalize`` to
    expand.
    """
    tokens: list[Token] = []
    for m in _SCANNER.finditer(text):
        group = m.lastgroup
        if group == "space":
            continue
        if group == "error":
            raise _lex_error(text, m.start())
        value = m[group]
        tokens.append(Token(_GROUP_KINDS.get(group) or _classify(value), value, Span(*m.span())))
    return tokens


def _word(template: Token, text: str) -> Token:
    """Synthesize a token at the source position of ``template``."""
    return Token(_classify(text), text, template.span)


def normalize(tokens: list[Token]) -> list[Token]:
    """Rewrite a token stream into canonical surface form.

    Three rewrites, applied in order, each one pass over the tokens:

    1. ``doesn't`` (or typographic ``doesn’t``) expands to ``does not``.
    2. Possessives: ``X 's [ordinal] attr`` becomes ``[ordinal] attr of X``.
    3. Articles drop, unless the following token is a statement keyword, so
       a bare identifier spelled ``a`` survives (``a is b.``).

    Idempotent: normalizing canonical output returns it unchanged.  Spans of
    synthesized tokens point at the source token they replace.
    """
    out: list[Token] = []
    for tok in tokens:
        if tok.kind is TokenKind.WORD and tok.lowered() in ("doesn't", "doesn’t"):
            out.append(_word(tok, "does"))
            out.append(_word(tok, "not"))
        else:
            out.append(tok)

    out = _rewrite_possessives(out)

    result: list[Token] = []
    for tok, nxt in zip(out, [*out[1:], None]):
        if tok.kind is TokenKind.WORD and tok.lowered() in ARTICLES:
            if nxt is not None and nxt.kind in _WORD_KINDS and nxt.lowered() not in _ARTICLE_STOPPERS:
                continue
            # An article not determining a noun phrase is really an
            # identifier that happens to be spelled "a" (as in "a is b.").
            tok = Token(TokenKind.IDENT, tok.text, tok.span)
        result.append(tok)
    return result


def _rewrite_possessives(tokens: list[Token]) -> list[Token]:
    """Turn ``X 's [ordinal] attr`` into ``[ordinal] attr of X`` in one
    left-to-right pass.

    The possessor ``X`` is the word before ``'s``, or, when ``'s`` directly
    follows a rewritten phrase, that whole phrase: possessive chains read
    left to right, so ``m's method's name`` becomes ``name of method of m``.
    """
    out: list[Token] = []
    start = end = -1  # out[start:end] is the last rewritten phrase
    i, n = 0, len(tokens)
    while i < n:
        tok = tokens[i]
        if tok.kind is not TokenKind.POSSESSIVE:
            out.append(tok)
            i += 1
            continue
        if len(out) != end:
            if not out or out[-1].kind not in (TokenKind.IDENT, TokenKind.WORD):
                raise IllegalCharacter("possessive marker without a possessor", tok.span)
            start = len(out) - 1
        j = i + 1
        if j < n and tokens[j].kind is TokenKind.ORDINAL:
            j += 1
        if j >= n or tokens[j].kind not in (TokenKind.IDENT, TokenKind.WORD):
            raise IllegalCharacter("possessive marker without an attribute", tok.span)
        out[start:] = [*tokens[i + 1 : j + 1], _word(tok, "of"), *out[start:]]
        end = len(out)
        i = j + 1
    return out


def ordinal_value(word: str) -> int | None:
    """1-based value of an ordinal adjective, or None if not one of the ten."""
    return ORDINALS.get(word.lower())
