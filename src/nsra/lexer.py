"""Tokenizer and paraphrase normalizer for the controlled-English query language.

``tokenize`` segments raw text into tokens whose source ranges, with only
whitespace between them, cover the input.  One ``findall`` yields each
token's source text, ``_classify`` tells each distinct one's kind once, from
its first character, and one object is built per token; a ``Span`` only for
a diagnostic.  ``normalize`` then applies the word-level paraphrase rules,
stated once here for the Halstead count too, without moving a token:
contractions expanded and articles dropped.  The parser reads possessives.
"""

from __future__ import annotations

import re
from enum import Enum, auto

from .errors import TOO_LONG_INTEGER, IllegalCharacter, Record, SourceError, Span, UnterminatedString


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


# The kinds as module names, in definition order: on CPython 3.11 every
# ``TokenKind.X`` goes through ``EnumType.__getattr__``'s attribute hook, which
# costs several times a global lookup in the per-token loops.
WORD, ORDINAL, STRING, INT, IDENT, LIST_OPEN, LIST_CLOSE, COMMA, PERIOD, POSSESSIVE = TokenKind


class Token(Record):
    """One token: its kind, its text (a string's without the quotes) and the
    half-open range ``[start, end)`` of its source text.  ``span`` builds a
    ``Span`` for a diagnostic; nothing else needs one."""

    __slots__ = ("kind", "text", "start", "end")

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)

    def int_value(self) -> int:  # of an INT token; one too long for ``int`` is an error at it
        try:
            return int(self.text)
        except ValueError:
            raise SourceError(TOO_LONG_INTEGER, self.span) from None


# Ordinal adjectives admitted by the grammar, in argument-position order, and
# each one's 1-based position.
ORDINAL_WORDS = ("first", "second", "third", "fourth", "fifth", "sixth", "seventh", "eighth", "ninth", "tenth")
ORDINALS = {word: n for n, word in enumerate(ORDINAL_WORDS, 1)}

ARTICLES = frozenset({"a", "an", "the"})

# The type nouns of ``x is a variable``, each by its words: the phrases the
# parser reads after ``is``, and the keys of a profile's ``[types]``.
TYPE_NOUNS = {("variable",): "variable", ("class",): "class", ("method", "access"): "method access"}

# The contraction ``normalize`` expands, case-folded, and the words it stands for.
_CONTRACTIONS = dict.fromkeys(("doesn't", "doesn’t"), ("does", "not"))

# An article is dropped as a determiner, unless the next word is one of these
# statement keywords, the contraction among them: then the article is itself
# a subject, as the identifier "a" is in "a is b.".
_ARTICLE_STOPPERS = frozenset(
    {"is", "invokes", "invoke", "does", "precedes", "follows", "and", "or", "then", "in"}
).union(_CONTRACTIONS)

# The words that open a pattern or an ``if``.
_OPENERS = frozenset({"object", "signature", "if"})

# Closed vocabulary of structural words: each word of the role sets above, and
# the words that have no other role.  Anything alphabetic outside this set (and
# the ordinals) lexes as an identifier; attribute words such as "algorithm"
# are identifiers whose attribute role is positional.
STRUCTURE_WORDS = frozenset(("of", "not", "it", "false", "necessary", "that")).union(
    ARTICLES, _ARTICLE_STOPPERS.difference(_CONTRACTIONS), _OPENERS, *TYPE_NOUNS
)

# Each match is a skip prefix of whitespace, then one token: one alternative
# per token kind, tried in order, as in the "Writing a Tokenizer" recipe of
# the ``re`` docs.  The group is the token's source text, and its first
# character tells its kind (``tokenize``).  A string opens with any of
# ``" “ ”`` and closes at the first ``"`` or ``”``, and keeps both quotes.  An
# apostrophe before ``s`` and a non-word character is the possessive marker;
# any other apostrophe between word characters makes one contraction WORD
# (``doesn't``).  The last alternative takes any other non-space character
# alone, so a lone quote or apostrophe, or a ``²`` where ``\d`` reads only
# decimal digits, is a one-character token that ``tokenize`` rejects.  The
# token is optional, so a match never backtracks into the whitespace; it is
# empty only at the end of the text.
_SCANNER = re.compile(
    r"""\s*(["“”][^"”]*["”]|[\[\],.]|['’][sS](?![A-Za-z0-9_])|\d+"""
    r"""|[A-Za-z0-9_]+(?:['’](?![sS](?![A-Za-z0-9_]))[A-Za-z0-9_]+)?|\S)?"""
)

# The kind of every word that is not an identifier, by its case-folded text.
_KINDS = {**dict.fromkeys(STRUCTURE_WORDS, WORD), **dict.fromkeys(ORDINALS, ORDINAL)}

# The kind a token's first character tells: IDENT stands for every word,
# which ``_KINDS`` then sorts, and INT for an ASCII digit.  A token that
# starts with any other character is an integer of other decimal digits, or
# an error.
_LEADS = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", IDENT),
    **dict.fromkeys("0123456789", INT),
    **dict.fromkeys("\"“”", STRING),
    **dict.fromkeys("'’", POSSESSIVE),
    "[": LIST_OPEN, "]": LIST_CLOSE, ",": COMMA, ".": PERIOD,
}

# The words the parser reads in another role where ``the word of x`` or
# ``x's word`` puts an attribute word: an article, a statement keyword that
# stops an article, an ordinal, or the start of a pattern or an ``if``.
_NOT_ATTRIBUTES = ARTICLES.union(_ARTICLE_STOPPERS, ORDINALS, _OPENERS)


def _is_attribute_word(word: str) -> bool:
    """True when the parser reads ``word`` as an attribute word in both
    phrasings, ``the word of x`` and ``x's word``: one scanner word that starts
    with a letter or ``_`` and that has no other role there."""
    return _SCANNER.findall(word) == [word, ""] and _LEADS.get(word[0]) is IDENT and word.lower() not in _NOT_ATTRIBUTES


def _classify(value: str, start: int = 0, text: str = "") -> tuple[TokenKind, str]:
    """The kind and text (a string's unquoted) of token ``value`` at ``start`` in ``text``; raises its error there."""
    kind = _LEADS.get(value[0])
    if kind is IDENT:
        return WORD if "'" in value or "’" in value else _KINDS.get(value.lower(), IDENT), value
    if kind is None and value.isdecimal():
        return INT, value
    if kind is None or len(value) == 1 and kind in (STRING, POSSESSIVE):  # only `\S` took it
        if kind is STRING:
            raise UnterminatedString("unterminated string literal", Span(start, len(text)))
        raise IllegalCharacter(f"stray {value!r}" if kind else f"illegal character {value!r}", Span(start, start + 1))
    return kind, value[1:-1] if kind is STRING else value


# The kind and text of each case-folded keyword and punctuation mark: where
# every ``tokenize`` call's table of classified source texts starts.
_FIXED = {value: _classify(value) for value in [*_KINDS, *".,[]"]}


def tokenize(text: str) -> list[Token]:
    """Segment query text into tokens.

    Quoted strings (straight or typographic quotes) become single STRING
    tokens holding their content verbatim; ``'s`` becomes a POSSESSIVE token;
    the contraction ``doesn't`` stays one WORD token for ``normalize`` to
    expand.  A token starts at the first occurrence of its source text after
    the previous token, since only whitespace lies between them; each distinct
    source text is classified once.
    """
    tokens: list[Token] = []
    lexed = _FIXED.copy()
    end = 0
    for value in _SCANNER.findall(text):
        if not value:  # only whitespace is left
            break
        start = text.index(value, end)
        end = start + len(value)
        kind, value = lexed.get(value) or lexed.setdefault(value, _classify(value, start, text))
        tokens.append(Token(kind, value, start, end))
    return tokens


# Whether an article drops as a determiner before a token of this kind and
# case-folded text.
def _article_drops(next_kind: TokenKind | None, next_folded: str) -> bool:
    return next_kind in (WORD, ORDINAL, IDENT) and next_folded not in _ARTICLE_STOPPERS


def normalize(tokens: list[Token]) -> list[Token]:
    """Apply the two word-level paraphrase rules in one pass that keeps
    token order: ``doesn't`` (or typographic ``doesn’t``) expands to ``does
    not``, both taking the contraction's source range, and an article drops
    as a determiner unless the next token is no word or a statement keyword,
    when it is an identifier spelled ``a`` or ``the`` (``a is b.``).

    Idempotent: normalizing canonical output returns it unchanged.
    """
    out: list[Token] = []
    for tok, nxt in zip(tokens, [*tokens[1:], None]):
        if tok.kind is WORD:
            folded = tok.text.lower()
            if folded in _CONTRACTIONS:
                out += (Token(WORD, word, tok.start, tok.end) for word in _CONTRACTIONS[folded])
                continue
            if folded in ARTICLES:
                if nxt is not None and _article_drops(nxt.kind, nxt.text.lower()):
                    continue
                tok = Token(IDENT, tok.text, tok.start, tok.end)
        out.append(tok)
    return out
