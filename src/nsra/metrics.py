"""Halstead counts for controlled-English queries and generated CodeQL.

Counting conventions (fixed; reported numbers are only meaningful relative
to a convention, so both are spelled out here):

* Controlled-English queries are counted on the lexer's scan, with the
  contraction and article rules of ``normalize`` applied and no token built.
  Operands are user-defined terminals: identifiers plus string and integer
  literals (list items included), and an invocation's class however it is
  spelled, ``Signature`` as much as ``Cipher``.  Operators are the language's
  working vocabulary: statement keywords, attribute words, and ordinal
  adjectives.  Pure glue carries no weight: ``of``, articles, possessive
  markers, list brackets and commas, and sentence periods are not counted.
* CodeQL text is counted on its token stream after the import lines;
  comments are not tokens.  Operators are the clause keywords, called method
  names, comparison signs, and punctuation; operands are the remaining
  identifiers (variables and type names) and literals.

Keywords and attribute words count case-insensitively, as the parser reads
them; identifiers and literals are distinct case-sensitively.
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import Record, SourceError
from .lexer import ARTICLES, IDENT, INT, ORDINAL, STRING, WORD, TokenKind, tokenize
from .lexer import _CONTRACTIONS, _SCANNER, _article_drops, _classify
from .qlgen import QlReader, _is_ident
from .registry import Registry, builtin_crypto_profile


class HalsteadCounts(Record):
    __slots__ = ("distinct_operators", "distinct_operands", "total_operators", "total_operands")

    def __init__(
        self, distinct_operators: int, distinct_operands: int, total_operators: int, total_operands: int
    ):
        if min(distinct_operators, distinct_operands, total_operators, total_operands) < 0:
            raise ValueError("negative Halstead count")
        if total_operands > 0 and distinct_operands == 0:
            raise ValueError("operands counted but none distinct")
        self.distinct_operators, self.distinct_operands = distinct_operators, distinct_operands
        self.total_operators, self.total_operands = total_operators, total_operands

    @property
    def vocabulary(self) -> int:
        return self.distinct_operators + self.distinct_operands

    @property
    def length(self) -> int:
        return self.total_operators + self.total_operands

    @property
    def volume(self) -> float:
        if self.vocabulary == 0:
            return 0.0
        return self.length * math.log2(self.vocabulary)

    @property
    def difficulty(self) -> float:
        if self.distinct_operands == 0:
            return 0.0
        return (self.distinct_operators / 2) * (self.total_operands / self.distinct_operands)

    @property
    def effort(self) -> float:
        return self.difficulty * self.volume


# The class of the terms a kind of token gives when it is no operator; a
# punctuation kind's is its name.  A table, since an enum member's ``name`` is
# a property.
_TERM_CLASSES = {**{kind: kind.name for kind in TokenKind}, IDENT: "id", STRING: "str", INT: "int"}

# The terms before an invocation's class.
_OBJECT_OF = [("op", "object"), ("op", "of")]

# The words whose terms depend on their neighbours: the articles, and the
# verbs after an invocation's class, the contraction among them.
_CONTEXTUAL = ARTICLES | {"invokes", "does", *_CONTRACTIONS}


def nsra_terms(query_text: str, registry: Registry | None = None) -> list[tuple[str, object]]:
    """Every token of the normalized query as a ``(class, value)`` term.

    Class ``"op"`` is the closed vocabulary: structure words, ordinals, and
    attribute words (an identifier whose case-folded text names a registry
    rule, the same lookup the parser makes), valued case-folded.  Classes
    ``"id"``, ``"str"`` and ``"int"`` are user terminals, valued as written,
    as are the class ``X`` of ``object of X invokes``, whatever word it is,
    and an article kept as a name.
    Punctuation is classed by its token kind's name.  Each distinct source
    text is classified once, and no token is built but to locate an error.
    """
    rules = (registry or builtin_crypto_profile()).rules
    values = _SCANNER.findall(query_text.rstrip())[:-1]  # the last match is the empty one at the end
    classes = {}  # each distinct source text's kind, case-folded text and term on its own
    try:
        for value in set(values):
            kind, text = _classify(value)
            folded = text.lower()
            if kind is WORD and folded in _CONTEXTUAL:
                classes[value] = kind, folded, None
            elif kind is WORD or kind is ORDINAL or kind is IDENT and folded in rules:
                classes[value] = kind, folded, ("op", folded)
            else:
                classes[value] = kind, folded, (_TERM_CLASSES[kind], int(text) if kind is INT else text)
    except (SourceError, ValueError):
        for tok in tokenize(query_text):  # raises where the text does not lex
            if tok.kind is INT:
                tok.int_value()  # raises at the first integer too long for ``int``
    terms: list[tuple[str, object]] = []
    for i, value in enumerate(values):
        kind, folded, term = classes[value]
        if term is not None:
            terms.append(term)
        elif folded not in ARTICLES:  # ``invokes``, ``does`` or the contraction: X of ``object of X`` is a class
            if terms[-3:-1] == _OBJECT_OF and classes[values[i - 1]][0] in (WORD, IDENT):
                terms[-1] = ("id", values[i - 1])
            terms += [("op", word) for word in _CONTRACTIONS.get(folded, (folded,))]
        elif i + 1 == len(values) or not _article_drops(*classes[values[i + 1]][:2]):  # an article kept as a name
            terms.append(("id", value))
    return terms


# Glue that carries no Halstead weight in controlled-English counting, next
# to the punctuation terms, which are never counted.
_UNCOUNTED_WORDS = frozenset({"of"})
_OPERAND_CLASSES = frozenset({"id", "str", "int"})


def halstead_nsra(query_text: str, registry: Registry | None = None) -> HalsteadCounts:
    """Counts for a controlled-English query (see module docstring).

    The registry decides which identifier-looking words are attribute
    vocabulary (operators) rather than user terminals (operands).
    """
    terms = nsra_terms(query_text, registry)
    operators = [term for term in terms if term[0] == "op" and term[1] not in _UNCOUNTED_WORDS]
    operands = [term for term in terms if term[0] in _OPERAND_CLASSES]
    return HalsteadCounts(len(set(operators)), len(set(operands)), len(operators), len(operands))


def halstead_ql(ql_text: str) -> HalsteadCounts:
    """Counts for CodeQL text (see module docstring for the convention).

    A token is its source text, so a string keeps its quotes and is never
    spelled like an identifier; each distinct token is classified once."""
    return reader_counts(QlReader(ql_text, runs=False))


def reader_counts(reader: QlReader) -> HalsteadCounts:
    """``halstead_ql`` of the text ``reader`` lexed, counted from its ``pos``: before it reads past the imports."""
    tokens = reader.tokens[reader.pos :]  # the last is the reader's end sentinel
    calls = Counter(name for name, nxt in zip(tokens, tokens[1:]) if nxt == "(")
    operators: dict[str, int] = {}
    operands: dict[object, int] = {}
    for tok, uses in Counter(tokens[:-1]).items():
        if tok[0] == '"':
            operands[tok] = uses
        elif tok[0].isdecimal():
            value = int(tok)
            operands[value] = operands.get(value, 0) + uses
        elif not _is_ident(tok):  # a keyword or punctuation
            operators[tok] = uses
        else:  # an identifier: an operator where it names a called method
            if calls[tok]:
                operators[tok] = calls[tok]
            if uses > calls[tok]:
                operands[tok] = uses - calls[tok]
    return HalsteadCounts(len(operators), len(operands), sum(operators.values()), sum(operands.values()))


class ComparisonRow(Record):
    """One query's controlled-English counts against its CodeQL counts."""

    __slots__ = (
        "vocab_nsra", "vocab_ql", "length_nsra", "length_ql", "reduction_pct", "vocab_reduction_pct", "effort_ratio"
    )

    def to_dict(self) -> dict[str, float | int]:
        return {
            "vocabulary_nsra": self.vocab_nsra,
            "vocabulary_ql": self.vocab_ql,
            "length_nsra": self.length_nsra,
            "length_ql": self.length_ql,
            "length_reduction_pct": self.reduction_pct,
            "vocabulary_reduction_pct": self.vocab_reduction_pct,
            "effort_ratio": self.effort_ratio,
        }


def compare(nsra: HalsteadCounts, ql: HalsteadCounts) -> ComparisonRow:
    """Length/vocabulary reductions and the effort ratio (QL over NSRA).

    The time ratio would equal the effort ratio: Halstead time is effort
    over a constant."""
    if ql.length == 0:
        raise ZeroDivisionError("cannot compare against an empty query")
    if ql.vocabulary == 0:
        raise ZeroDivisionError("cannot compare against an empty vocabulary")
    return ComparisonRow(
        vocab_nsra=nsra.vocabulary,
        vocab_ql=ql.vocabulary,
        length_nsra=nsra.length,
        length_ql=ql.length,
        reduction_pct=100.0 * (1.0 - nsra.length / ql.length),
        vocab_reduction_pct=100.0 * (1.0 - nsra.vocabulary / ql.vocabulary),
        effort_ratio=ql.effort / nsra.effort if nsra.effort else math.inf,
    )


def format_row(row: ComparisonRow) -> str:
    lines = [
        f"{'':<12}{'vocabulary':>12}{'length':>10}",
        f"{'query':<12}{row.vocab_nsra:>12}{row.length_nsra:>10}",
        f"{'codeql':<12}{row.vocab_ql:>12}{row.length_ql:>10}",
        f"length reduction:     {row.reduction_pct:6.1f}%",
        f"vocabulary reduction: {row.vocab_reduction_pct:6.1f}%",
        f"effort ratio (ql/query): {row.effort_ratio:.1f}x",
    ]
    return "\n".join(lines)
