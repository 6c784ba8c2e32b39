"""The value classes' base: ``Record`` builds each ``__init__`` from
``__slots__`` and ``_defaults``."""

from __future__ import annotations

import pytest

import nsra.cli  # noqa: F401  loads every module that defines a value class
from nsra import ir, syntax
from nsra.errors import Record, Span
from nsra.metrics import HalsteadCounts
from nsra.registry import Registry


class Pair(Record):
    __slots__ = ("left", "right")


class Flagged(Record):
    __slots__ = ("name", "flag")
    _defaults = (True,)


def test_fields_by_position_or_by_name():
    pair = Pair(1, 2)
    assert (pair.left, pair.right) == (1, 2)
    assert pair == Pair(left=1, right=2) == Pair(1, right=2) == Pair(right=2, left=1)
    assert repr(Pair(1, right="x")) == "Pair(left=1, right='x')"


def test_defaults_fill_the_last_fields():
    assert Flagged("x").flag is True
    assert Flagged("x", False).flag is False
    assert Flagged(name="x", flag=None).flag is None
    assert syntax.Basic(syntax.Ident("x"), syntax.Ident("y")).negated is False


@pytest.mark.parametrize(
    "build",
    [
        lambda: Pair(1),
        lambda: Pair(right=2),
        lambda: Pair(1, 2, 3),
        lambda: Pair(1, 2, middle=3),
        lambda: Pair(1, 2, left=1),
        lambda: Flagged(),
        lambda: Flagged("x", True, 3),
        lambda: ir.TrueExpr(1),
    ],
)
def test_missing_or_extra_field_is_a_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_one_function_per_fields_and_defaults():
    assert ir.Eq.__init__ is ir.Lt.__init__
    assert syntax.LiteralList.__init__ is ir.And.__init__ is ir.Or.__init__
    assert syntax.InvocationPattern.__init__ is not syntax.SignaturePattern.__init__  # other fields

    class SameFlagged(Record):
        __slots__ = ("name", "flag")
        _defaults = (True,)

    class NoDefault(Record):
        __slots__ = ("name", "flag")

    class IntDefault(Record):  # ``1 == True``, but it is another default
        __slots__ = ("name", "flag")
        _defaults = (1,)

    assert SameFlagged.__init__ is Flagged.__init__
    assert NoDefault.__init__ is not Flagged.__init__
    assert IntDefault.__init__ is not Flagged.__init__
    assert type(IntDefault("x").flag) is int and type(Flagged("x").flag) is bool


def _records(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_records(sub))
    return found


def test_only_classes_that_check_or_convert_define_an_init():
    compiler_records = [c for c in _records(Record) if c.__module__.startswith("nsra.")]
    assert len(compiler_records) > 30
    # A method written in a class body is qualified by the class; a built one is not.
    written = {c for c in compiler_records if c.__init__.__qualname__ == f"{c.__qualname__}.__init__"}
    assert written == {Span, HalsteadCounts, Registry}


def test_only_a_basic_statement_has_an_optional_field():
    """The parser leaves out a type assumption's ``negated``; every other caller passes every field."""
    compiler_records = [c for c in _records(Record) if c.__module__.startswith("nsra.")]
    assert {c for c in compiler_records if c._defaults} == {syntax.Basic}
