"""The controlled-English front end as it was before the parser read
possessives, kept as the reference the tests check the compiler against.

``oracle_tokenize`` is the named-group scanner ``tokenize`` replaced: one
named group per kind in a ``finditer`` scan and a ``Span`` per token.
``oracle_normalize`` is the token rewrite ``normalize`` replaced, in three
passes: ``doesn't`` expands to ``does not``, each ``X 's [ordinal] attr``
becomes ``[ordinal] attr of X`` (the possessor being the word before the
``'s``, or the phrase just rewritten, so chains read left to right), and
articles drop as determiners.  ``normalize`` keeps the first and last
passes; the parser now does the middle one.  Tokens here are ``(kind,
text, span)`` triples.

``oracle_terms`` is the Halstead term loop ``nsra_terms`` replaced: it
classifies each token of the normalized stream in turn, and reads an
integer's value from its token.
"""

from __future__ import annotations

import re

from nsra.errors import IllegalCharacter, Span, UnterminatedString
from nsra.lexer import ARTICLES, ORDINALS, STRUCTURE_WORDS, Token, TokenKind, normalize, tokenize
from nsra.registry import builtin_crypto_profile

_ORACLE_SCANNER = re.compile(
    r"""
    \s*(?:
      (?P<STRING>["“”][^"”]*["”])
    | (?P<LIST_OPEN>\[)
    | (?P<LIST_CLOSE>\])
    | (?P<COMMA>,)
    | (?P<PERIOD>\.)
    | (?P<POSSESSIVE>['’][sS](?![A-Za-z0-9_]))
    | (?P<INT>\d+)
    | (?P<WORD>[A-Za-z0-9_]+['’](?![sS](?![A-Za-z0-9_]))[A-Za-z0-9_]+)
    | (?P<IDENT>[A-Za-z0-9_]+)
    | (?P<error>\S)
    )?
    """,
    re.VERBOSE,
)
_ORACLE_KINDS = {**dict.fromkeys(STRUCTURE_WORDS, TokenKind.WORD), **dict.fromkeys(ORDINALS, TokenKind.ORDINAL)}
_ORACLE_STOPPERS = {"is", "invokes", "invoke", "does", "precedes", "follows", "and", "or", "then", "in"}
_NAMES = (TokenKind.IDENT, TokenKind.WORD)


def oracle_tokenize(text):
    tokens = []
    for m in _ORACLE_SCANNER.finditer(text):
        if m.lastgroup is None:
            break
        start, end = m.span(m.lastgroup)
        value, ch = text[start:end], text[start]
        if m.lastgroup == "error":
            if ch in "\"“”":
                raise UnterminatedString("unterminated string literal", Span(start, len(text)))
            message = f"stray {ch!r}" if ch in "'’" else f"illegal character {ch!r}"
            raise IllegalCharacter(message, Span(start, end))
        kind = TokenKind[m.lastgroup]
        if kind is TokenKind.IDENT:
            kind = _ORACLE_KINDS.get(value.lower(), TokenKind.IDENT)
        tokens.append((kind, value[1:-1] if kind is TokenKind.STRING else value, Span(start, end)))
    return tokens


def oracle_expand_contractions(tokens):
    expanded = []
    for kind, text, span in tokens:
        if kind is TokenKind.WORD and text.lower() in ("doesn't", "doesn’t"):
            expanded += [(TokenKind.WORD, "does", span), (TokenKind.WORD, "not", span)]
        else:
            expanded.append((kind, text, span))
    return expanded


def oracle_rewrite_possessives(expanded):
    out, start, end, i = [], -1, -1, 0
    while i < len(expanded):
        kind, text, span = expanded[i]
        if kind is not TokenKind.POSSESSIVE:
            out.append(expanded[i])
            i += 1
            continue
        if len(out) != end:
            if not out or out[-1][0] not in _NAMES:
                raise IllegalCharacter("possessive marker without a possessor", span)
            start = len(out) - 1
        j = i + 1
        if j < len(expanded) and expanded[j][0] is TokenKind.ORDINAL:
            j += 1
        if j >= len(expanded) or expanded[j][0] not in _NAMES:
            raise IllegalCharacter("possessive marker without an attribute", span)
        out[start:] = [*expanded[i + 1 : j + 1], (TokenKind.WORD, "of", span), *out[start:]]
        end, i = len(out), j + 1
    return out


def oracle_drop_articles(out):
    result = []
    for k, (kind, text, span) in enumerate(out):
        if kind is TokenKind.WORD and text.lower() in ARTICLES:
            nxt = out[k + 1] if k + 1 < len(out) else None
            if nxt and nxt[0] in (*_NAMES, TokenKind.ORDINAL) and nxt[1].lower() not in _ORACLE_STOPPERS:
                continue
            kind = TokenKind.IDENT
        result.append((kind, text, span))
    return result


def oracle_normalize(tokens):
    return oracle_drop_articles(oracle_rewrite_possessives(oracle_expand_contractions(tokens)))


def reference_tokens(text: str) -> list[Token]:
    """The tokens the parser read before it read possessives itself."""
    return [Token(kind, value, span.start, span.end) for kind, value, span in oracle_normalize(oracle_tokenize(text))]


_OBJECT_OF = [("op", "object"), ("op", "of")]


def oracle_terms(text, registry=None, front_end=lambda text: normalize(tokenize(text))):
    """The ``(class, value)`` terms of each token ``front_end`` gives for ``text``."""
    rules = (registry or builtin_crypto_profile()).rules
    terms = []
    tokens = front_end(text)
    for i, tok in enumerate(tokens):
        kind, value = tok.kind, tok.text
        if kind in (TokenKind.WORD, TokenKind.ORDINAL):
            word = value.lower()
            if word in ("invokes", "does") and terms[-3:-1] == _OBJECT_OF and tokens[i - 1].kind in _NAMES:
                terms[-1] = ("id", tokens[i - 1].text)
            terms.append(("op", word))
        elif kind is TokenKind.IDENT:
            lowered = value.lower()
            terms.append(("op", lowered) if lowered in rules else ("id", value))
        elif kind is TokenKind.STRING:
            terms.append(("str", value))
        elif kind is TokenKind.INT:
            terms.append(("int", tok.int_value()))
        else:
            terms.append((kind.name, value))
    return terms
