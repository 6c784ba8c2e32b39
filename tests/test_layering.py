"""Each module of the package imports only the modules README's Layout lists
above it, so the profile loader, say, never runs the parser.  The imports
are read from the source: ``import nsra.registry`` cannot show them, since
the package's ``__init__`` loads every module first."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nsra"


def _layout() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Layout\n\n```\n(.*?)^```", readme, re.S | re.M)
    return re.findall(r"^  (\w+)\.py ", block, re.M)


def _package_imports(path: Path) -> set[str]:
    """The package modules that ``path`` imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module.split(".")[0]} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nsra."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("nsra.")}
    return found


def test_layout_lists_every_module_once():
    order = _layout()
    assert sorted(order) == sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def test_each_module_imports_only_modules_above_it():
    order = _layout()
    for i, name in enumerate(order):
        assert _package_imports(SRC / f"{name}.py") <= set(order[:i]), name


def test_the_profile_loader_does_not_import_the_parser():
    assert not _package_imports(SRC / "registry.py") & {"parser", "syntax"}
