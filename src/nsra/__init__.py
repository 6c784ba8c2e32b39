"""nsra: compile controlled-English program-analysis queries to CodeQL.

The pipeline is tokenize -> normalize -> parse -> lower -> render; no stage
before the parser moves a token, and the parser reads possessives too.  The
``metrics`` module adds Halstead comparisons between the two notations.
"""

from .errors import SourceError
from .lowering import lower
from .metrics import compare, halstead_nsra, halstead_ql
from .parser import parse_query, parse_text
from .qlgen import normalize_ql, render
from .registry import Registry, builtin_crypto_profile, load_profile, lookup_attribute

__version__ = "0.1.0"

__all__ = [
    "Registry",
    "SourceError",
    "builtin_crypto_profile",
    "compare",
    "compile_text",
    "halstead_nsra",
    "halstead_ql",
    "load_profile",
    "lookup_attribute",
    "lower",
    "normalize_ql",
    "parse_query",
    "parse_text",
    "render",
]


def compile_text(text: str, registry: Registry | None = None) -> str:
    """One-call pipeline: controlled-English text in, CodeQL text out."""
    reg = registry or builtin_crypto_profile()
    return render(lower(parse_text(text), reg))
