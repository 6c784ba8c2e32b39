"""Exception types, diagnostic helpers, source spans and the base of the
value classes, shared across the compiler."""

from __future__ import annotations

import functools
import operator
import sys

# What every reader says of an integer literal too long for ``int`` to read.
TOO_LONG_INTEGER = f"integer literal of more than {sys.get_int_max_str_digits()} digits"


@functools.cache
def _initializer(names: tuple[str, ...], defaults: tuple, types: tuple[type, ...]) -> object:
    """An ``__init__`` storing its arguments in the fields ``names``, the last
    ``len(defaults)`` optional, built from source as ``dataclasses`` builds its
    methods.  ``types`` only keys the cache: ``True == 1``, but not as a default."""
    scope: dict = {}
    stores = "; ".join(f"self.{name} = {name}" for name in names) or "pass"
    exec(f"def __init__({', '.join(('self', *names))}): {stores}", {}, scope)
    scope["__init__"].__defaults__ = defaults
    return scope["__init__"]


class Record:
    """Base of the compiler's value classes.  A subclass lists its fields in
    ``__slots__``, and defaults for the last of them in ``_defaults``; unless it
    writes its own ``__init__``, it gets one taking the fields by position or by
    name.  Records are equal when they are of the same class and their fields
    are equal, hash by their fields, and print as ``Name(field=value, ...)``."""

    __slots__ = ()
    _defaults: tuple = ()

    def __init_subclass__(cls):
        names = cls.__slots__
        if "__init__" not in cls.__dict__:
            cls.__init__ = _initializer(names, cls._defaults, tuple(map(type, cls._defaults)))
        # ``_values(record)`` is the tuple of its fields: for two fields or
        # more one C call, since ``attrgetter`` of one name returns the bare
        # value and of none fails.
        if len(names) > 1:
            cls._values = operator.attrgetter(*names)
        elif names:
            cls._values = staticmethod(lambda self, name=names[0]: (getattr(self, name),))
        else:
            cls._values = staticmethod(lambda self: ())

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Span(Record):
    """Half-open character range [start, end) into the source text."""

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int):
        if start > end:
            raise ValueError(f"backwards span: {start}..{end}")
        self.start, self.end = start, end


class SourceError(Exception):
    """Base class for every user-visible compiler error.

    Carries an optional span so the CLI can point at the offending text.
    """

    severity = "error"

    def __init__(self, message: str, span: Span | None = None):
        super().__init__(message)
        self.message = message
        self.span = span


class UnterminatedString(SourceError):
    pass


class IllegalCharacter(SourceError):
    pass


class QuerySyntaxError(SourceError):
    """Parse failure; ``expected`` lists the token kinds/words that would
    have been accepted at the error position."""

    def __init__(self, message: str, span: Span | None = None, expected: tuple[str, ...] = ()):
        if expected:
            message = f"{message} (expected {', '.join(sorted(expected))})"
        super().__init__(message, span)
        self.expected = tuple(sorted(expected))


class UnknownOrdinal(SourceError):
    def __init__(self, word: str, span: Span | None = None):
        super().__init__(f"unknown ordinal adjective {word!r}", span)


class EmptyList(SourceError):
    pass


class NestingTooDeep(SourceError):
    pass


class UnknownAttribute(SourceError):
    def __init__(self, word: str, known: tuple[str, ...] = ()):
        message = f"unknown attribute {word!r}"
        if known:
            message += f"; known attributes: {', '.join(sorted(known))}"
        super().__init__(message)


class OrdinalNotAllowed(SourceError):
    def __init__(self, attribute: str):
        super().__init__(f"attribute {attribute!r} does not take an ordinal adjective")


class MissingOrdinal(SourceError):
    def __init__(self, attribute: str):
        super().__init__(f"attribute {attribute!r} requires an ordinal adjective")


class UndeclaredSubject(SourceError):
    def __init__(self, name: str):
        super().__init__(
            f"{name!r} is never introduced by an invocation statement or a type assumption"
        )


class DuplicateDeclaration(SourceError):
    def __init__(self, name: str):
        super().__init__(f"conflicting declarations for {name!r}")


class ConfigParseError(SourceError):
    pass


class DuplicateAttribute(SourceError):
    pass


class BadTemplate(SourceError):
    pass


class QlLexError(SourceError):
    pass


def line_column(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of a character offset into ``text``."""
    offset = max(0, min(offset, len(text)))
    line = text.count("\n", 0, offset) + 1
    last_nl = text.rfind("\n", 0, offset)
    return line, offset - last_nl


def format_diagnostic(path: str, text: str, err: SourceError) -> str:
    """Render ``path:line:col: severity: message`` for editor jump-to-error."""
    line, col = (1, 1)
    if err.span is not None:
        line, col = line_column(text, err.span.start)
    return f"{path}:{line}:{col}: {err.severity}: {err.message}"
