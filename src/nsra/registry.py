"""Attribute registry: English attribute words -> CodeQL call-chain templates.

A profile is a line-oriented text file:

    # attribute rules come first, one per line
    receiver = getReceiverType()
    algorithm = toString().replaceAll("\\"", "").splitAt("/", 0)
    argument  = getArgument(@ordinal)

    [aliases]
    PublicKey = java.security.PublicKey

    [types]
    variable = Variable
    method access = MethodAccess

``@ordinal`` marks the slot filled by an ordinal adjective (zero-based at
render time).  ``#`` starts a comment.  Attribute words are case-folded, as
the parser reads them.  User rules shadow built-in rules by attribute word.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Mapping

from .errors import TOO_LONG_INTEGER, BadTemplate, ConfigParseError, DuplicateAttribute, Record, Span, UnknownAttribute
from .qlgen import escape_string

ORDINAL_SLOT = "@ordinal"

# Call names whose result is directly comparable to a string literal.
_STRING_RESULTS = frozenset({"toString", "getName", "replaceAll", "splitAt"})


class CallStep(Record):
    """One rendered method call: name plus literal args (str or int literals,
    or ORDINAL_SLOT), with at most one ordinal slot."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple[object, ...] = ()):
        self.name, self.args = name, args

    def render(self, ordinal_index: int | None = None) -> str:
        rendered = []
        for arg in self.args:
            if arg == ORDINAL_SLOT:
                if ordinal_index is None:
                    raise ValueError("ordinal slot left unfilled")
                rendered.append(str(ordinal_index))
            elif isinstance(arg, int):
                rendered.append(str(arg))
            else:
                rendered.append(f'"{escape_string(str(arg))}"')
        return f"{self.name}({', '.join(rendered)})"


class AttributeRule(Record):
    """``result_kind`` is "string" or "object"."""

    __slots__ = ("word", "steps", "result_kind")

    def __init__(self, word: str, steps: tuple[CallStep, ...], result_kind: str):
        if not steps:
            raise BadTemplate(word, "template has no calls")
        if sum(1 for s in steps for a in s.args if a == ORDINAL_SLOT) > 1:
            raise BadTemplate(word, "template names an ordinal slot twice")
        self.word, self.steps, self.result_kind = word, steps, result_kind

    @property
    def has_ordinal_slot(self) -> bool:
        return any(a == ORDINAL_SLOT for s in self.steps for a in s.args)

    def render_steps(self, ordinal_index: int | None = None) -> tuple[str, ...]:
        return tuple(step.render(ordinal_index) for step in self.steps)


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

    Raises ConfigParseError for malformed lines, DuplicateAttribute when one
    file defines an attribute twice, BadTemplate for ill-formed templates.
    """
    if base is None:
        base = builtin_crypto_profile()
    rules = dict(base.rules)
    aliases = dict(base.type_aliases)
    type_names = dict(base.ql_type_names)
    seen_words: set[str] = set()
    section = "rules"
    end = 0
    for line_no, raw in enumerate(config_text.splitlines(keepends=True), start=1):
        start, end = end, end + len(raw)
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("rules", "aliases", "types"):
                raise ConfigParseError(f"unknown section [{section}]", line_no)
            continue
        if "=" not in line:
            raise ConfigParseError("expected 'name = value'", line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigParseError("expected 'name = value'", line_no)
        if section == "aliases":
            aliases[key] = value
        elif section == "types":
            type_names[key.lower()] = value
        else:
            key = key.lower()
            if key in seen_words:
                raise DuplicateAttribute(key, line_no)
            seen_words.add(key)
            steps = _parse_template(key, value, line_no, start + raw.index(value, raw.index("=") + 1))
            kind = "string" if steps[-1].name in _STRING_RESULTS else "object"
            rules[key] = AttributeRule(key, steps, kind)
    return Registry(rules, aliases, type_names)


def _parse_template(word: str, text: str, line_no: int, at: int) -> tuple[CallStep, ...]:
    # ``at`` is the offset of ``text`` in the profile.
    steps: list[CallStep] = []
    i = 0
    n = len(text)
    while i < n:
        j = i
        while j < n and (text[j].isalnum() or text[j] == "_"):
            j += 1
        name = text[i:j]
        if not name:
            raise ConfigParseError(f"expected a call name in template for {word!r}", line_no)
        if j >= n or text[j] != "(":
            raise ConfigParseError(f"call {name!r} needs parentheses", line_no)
        args, j = _parse_args(word, text, j + 1, line_no, at)
        steps.append(CallStep(name, args))
        i = j
        if i < n:
            if text[i] != ".":
                raise ConfigParseError(f"expected '.' between calls, found {text[i]!r}", line_no)
            i += 1
    if not steps:
        raise BadTemplate(word, "template has no calls")
    return tuple(steps)


def _parse_args(word: str, text: str, i: int, line_no: int, at: int) -> tuple[tuple[object, ...], int]:
    args: list[object] = []
    n = len(text)
    while True:
        while i < n and text[i] == " ":
            i += 1
        if i >= n:
            raise ConfigParseError(f"unterminated argument list for {word!r}", line_no)
        if text[i] == ")":
            return tuple(args), i + 1
        if text[i] == '"':
            value = []
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n:
                    value.append(text[i + 1])
                    i += 2
                else:
                    value.append(text[i])
                    i += 1
            if i >= n:
                raise ConfigParseError("unterminated string in template", line_no)
            args.append("".join(value))
            i += 1
        elif text[i] == "@":
            if text[i : i + len(ORDINAL_SLOT)] != ORDINAL_SLOT:
                raise ConfigParseError("unknown @ marker (only @ordinal)", line_no)
            args.append(ORDINAL_SLOT)
            i += len(ORDINAL_SLOT)
        elif text[i].isdecimal() or text[i] == "-" and text[i + 1 : i + 2].isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            try:
                args.append(int(text[i:j]))
            except ValueError:
                raise ConfigParseError(TOO_LONG_INTEGER, line_no, Span(at + i, at + j)) from None
            i = j
        else:
            raise ConfigParseError(f"unexpected {text[i]!r} in template arguments", line_no, Span(at + i, at + i + 1))
        while i < n and text[i] == " ":
            i += 1
        if i < n and text[i] == ",":
            i += 1
