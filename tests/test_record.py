"""The value classes' base: ``Record`` builds each ``__init__`` from
``__slots__``."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import nsra.cli  # noqa: F401  loads every module that defines a value class
from nsra import ir, syntax
from nsra.errors import Record, Span
from nsra.metrics import HalsteadCounts
from nsra.registry import Registry


class Pair(Record):
    __slots__ = ("left", "right")


def test_fields_by_position_or_by_name():
    pair = Pair(1, 2)
    assert (pair.left, pair.right) == (1, 2)
    assert pair == Pair(left=1, right=2) == Pair(1, right=2) == Pair(right=2, left=1)
    assert repr(Pair(1, right="x")) == "Pair(left=1, right='x')"


@pytest.mark.parametrize(
    "build",
    [
        lambda: Pair(1),
        lambda: Pair(right=2),
        lambda: Pair(1, 2, 3),
        lambda: Pair(1, 2, middle=3),
        lambda: Pair(1, 2, left=1),
        lambda: Pair(),
        lambda: ir.Not(),
        lambda: ir.TrueExpr(1),
    ],
)
def test_missing_or_extra_field_is_a_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_one_function_per_field_list():
    assert ir.Eq.__init__ is ir.Lt.__init__
    assert syntax.LiteralList.__init__ is ir.And.__init__ is ir.Or.__init__
    assert syntax.Basic.__init__ is not syntax.SignaturePattern.__init__  # other fields

    class SamePair(Record):
        __slots__ = ("left", "right")

    assert SamePair.__init__ is Pair.__init__


def _records(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_records(sub))
    return found


def _defined_records() -> set[tuple[str, str]]:
    """(module, class) of each class that a module of the package defines on ``Record``."""
    package = Path(nsra.cli.__file__).parent
    found = set()
    for path in package.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) == "Record" for b in node.bases):
                found.add((f"nsra.{path.stem}", node.name))
    return found


def test_only_classes_that_check_or_convert_define_an_init():
    compiler_records = [c for c in _records(Record) if c.__module__.startswith("nsra.")]
    # Importing the CLI loaded every module that defines a value class, so every one of them is checked.
    assert {(c.__module__, c.__qualname__) for c in compiler_records} == _defined_records()
    # A method written in a class body is qualified by the class; a built one is not.
    written = {c for c in compiler_records if c.__init__.__qualname__ == f"{c.__qualname__}.__init__"}
    assert written == {Span, HalsteadCounts, Registry}

