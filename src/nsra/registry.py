"""Attribute registry: English attribute words -> CodeQL call-chain templates.

A profile (README's "Attribute profiles"; ``_BUILTIN_PROFILE`` below) has
one ``word = template`` rule per line, then optional ``[aliases]`` and
``[types]`` sections of ``name = value`` lines.  A template is QL call text,
read with the QL scanner: ``name(args)`` calls joined by ``.``, each argument
a string literal, a decimal integer or ``@ordinal``, the slot an ordinal
adjective fills (zero-based at render time), one comma between two
arguments.  ``#`` starts a comment outside a string literal.  A rule's word
is one the parser reads as an attribute word in both phrasings, ``the word
of x`` and ``x's word`` (``lexer._is_attribute_word``), other than ``of``,
case-folded as the parser reads it; a ``[types]`` key is one of the type
nouns.  User rules shadow built-in rules by attribute word.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Mapping
from types import MappingProxyType

from .errors import (
    TOO_LONG_INTEGER, BadTemplate, ConfigParseError, DuplicateAttribute, Record, Span, UnknownAttribute
)
from .lexer import TYPE_NOUNS, _is_attribute_word
from .qlgen import _QL_TOKEN, _is_ident, _token_span, escape_string, unescape_string

# Call names whose result is directly comparable to a string literal.
_STRING_RESULTS = frozenset({"toString", "getName", "replaceAll", "splitAt"})

# A profile line up to its comment: ``#`` starts one outside a string literal,
# and an unterminated string runs to the end of the line.
_CONTENT = re.compile(r'(?:[^"#\n]+|"(?:[^"\\\n]+|\\.)*"?)*')


class AttributeRule(Record):
    """A word's template, rendered once: ``steps`` are the calls' text, and
    ``render_steps`` writes the ordinal at ``slot``, a (call index, offset)
    or None.  ``result_kind`` is "string" or "object"."""

    __slots__ = ("steps", "result_kind", "slot")

    def render_steps(self, ordinal_index: int | None = None) -> tuple[str, ...]:
        if self.slot is None:
            return self.steps
        if ordinal_index is None:
            raise ValueError("ordinal slot left unfilled")
        call, at = self.slot
        step = self.steps[call]
        return (*self.steps[:call], f"{step[:at]}{ordinal_index}{step[at:]}", *self.steps[call + 1 :])


class Registry(Record):
    """Attribute rules, type aliases and QL type names, held in read-only
    maps so that one instance (the built-in profile) can be shared."""

    __slots__ = ("rules", "type_aliases", "ql_type_names")

    def __init__(
        self,
        rules: Mapping[str, AttributeRule] = MappingProxyType({}),
        type_aliases: Mapping[str, str] = MappingProxyType({}),
        ql_type_names: Mapping[str, str] = MappingProxyType({}),
    ):
        self.rules = MappingProxyType(dict(rules))
        self.type_aliases = MappingProxyType(dict(type_aliases))
        self.ql_type_names = MappingProxyType(dict(ql_type_names))

    def resolve_alias(self, simple_name: str) -> str:
        """Qualified name for a simple type name; unknown names pass through
        with a warning on the ``nsra.registry`` logger."""
        if simple_name in self.type_aliases:
            return self.type_aliases[simple_name]
        import logging  # here, not at the top: only this fallback logs

        logging.getLogger(__name__).warning("no qualified-name alias for type %r; using it as written", simple_name)
        return simple_name


def lookup_attribute(word: str, reg: Registry) -> AttributeRule:
    rule = reg.rules.get(word)
    if rule is None:
        raise UnknownAttribute(word, tuple(reg.rules))
    return rule


_BUILTIN_PROFILE = r"""
# Attribute vocabulary for Java cryptography queries.
name      = getName()
type      = getType()
argument  = getArgument(@ordinal)
method    = getMethod()
algorithm = toString().replaceAll("\"", "").splitAt("/", 0)
mode      = toString().replaceAll("\"", "").splitAt("/", 1)
padding   = toString().replaceAll("\"", "").splitAt("/", 2)

[aliases]
PublicKey   = java.security.PublicKey
PrivateKey  = java.security.PrivateKey
Certificate = java.security.cert.Certificate

[types]
variable      = Variable
class         = Class
method access = MethodAccess
"""


@functools.cache
def builtin_crypto_profile() -> Registry:
    """The built-in Java-cryptography profile, parsed from profile syntax
    once per process and shared."""
    return load_profile(_BUILTIN_PROFILE, base=Registry())


def load_profile(config_text: str, base: Registry | None = None) -> Registry:
    """Parse profile text and overlay it on ``base`` (built-in by default).
    Every error is a ``SourceError`` with a span into ``config_text``."""
    if base is None:
        base = builtin_crypto_profile()
    rules: dict[str, AttributeRule] = {}  # this profile's own, overlaid on ``base`` at the end
    aliases = dict(base.type_aliases)
    type_names = dict(base.ql_type_names)
    section = "rules"
    end = 0
    for raw in config_text.splitlines(keepends=True):
        start, end = end, end + len(raw)
        body = _CONTENT.match(raw)[0].strip()
        if not body:
            continue
        at = start + raw.index(body)  # ``body`` is config_text[at:at + len(body)]
        if body[0] == "[" and body[-1] == "]":
            section = body[1:-1].strip().lower()
            if section not in ("rules", "aliases", "types"):
                raise ConfigParseError(f"unknown section [{section}]", Span(at, at + len(body)))
            continue
        key, eq, value = body.partition("=")
        key, value = key.rstrip(), value.strip()
        if not (eq and key and value):
            raise ConfigParseError("expected 'name = value'", Span(at, at + len(body)))
        word = key.lower()
        if section == "aliases":
            aliases[key] = value
        elif section == "types":
            if word not in TYPE_NOUNS.values():
                nouns = ", ".join(TYPE_NOUNS.values())
                raise ConfigParseError(f"{key!r} is not a type noun: {nouns}", Span(at, at + len(key)))
            type_names[word] = value
        elif not _is_attribute_word(key):
            raise ConfigParseError(f"the parser does not read {key!r} as an attribute word", Span(at, at + len(key)))
        elif word == "of":  # the parser reads it as one, but an attribute word must count as an operator
            message = f"{key!r} cannot be an attribute word: the Halstead count reads 'of' as glue"
            raise ConfigParseError(message, Span(at, at + len(key)))
        elif word in rules:
            raise DuplicateAttribute(f"attribute {word!r} defined twice in one profile", Span(at, at + len(key)))
        else:
            rules[word] = _read_template(word, config_text, at + len(body) - len(value), at + len(body))
    return Registry({**base.rules, **rules}, aliases, type_names)


def _read_template(word: str, text: str, start: int, end: int) -> AttributeRule:
    """The rule for ``word`` whose template is ``text[start:end]``, read
    with the QL scanner so that its literals are what ``QlReader`` reads."""
    tokens = _QL_TOKEN.findall(text, start, end)
    if "" in tokens:  # the match of a QL comment, which holds no token
        at = next(m.start() for m in _QL_TOKEN.finditer(text, start, end) if m[1] is None)
        raise ConfigParseError("unexpected '/' in template", Span(at, at + 1))
    tokens.append("")  # the end of the template

    def span(k: int) -> Span:
        return _token_span(text, k, start, end)

    steps: list[str] = []
    slot, i = None, 0
    while True:
        name = tokens[i]
        if not _is_ident(name):
            raise ConfigParseError(f"expected a call name in template for {word!r}", span(i))
        if tokens[i + 1] != "(":
            raise ConfigParseError(f"call {name!r} needs parentheses", span(i + 1))
        i += 2
        args: list[str] = []
        while tokens[i] != ")":
            if args:  # one comma between two arguments
                if tokens[i] != ",":
                    raise ConfigParseError(_arg_error(word, tokens[i]), span(i))
                i += 1
            tok = tokens[i]
            if tok == "@" and tokens[i + 1] == "ordinal":
                if slot is not None:
                    raise BadTemplate(f"bad template for attribute {word!r}: ordinal slot named twice", span(i))
                slot, tok = (len(steps), len(f"{name}({', '.join([*args, ''])}")), ""  # where the ordinal goes
                i += 1
            elif tok[:1] == '"' and len(tok) > 1:
                tok = '"' + escape_string(unescape_string(tok[1:-1])) + '"'
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


def _arg_error(word: str, tok: str) -> str:
    if not tok:
        return f"unterminated argument list for {word!r}"
    return "unterminated string in template" if tok == '"' else f"unexpected {tok!r} in template arguments"
