"""Command-line interface: compile queries, compare metrics, check goldens.

Exit codes: 0 success, 1 compile/parse/check failure, 2 usage error.
Diagnostics go to stderr as ``file:line:col: severity: message``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from pathlib import Path

from .errors import SourceError, format_diagnostic
from .lowering import lower
from .metrics import HalsteadCounts, compare, format_row, halstead_nsra, reader_counts
from .parser import parse_text
from .qlgen import QlReader, canonical, dump_ir, read_ql, render, repaired
from .registry import Registry, builtin_crypto_profile, load_profile

PROFILE_ENV = "NSRA_PROFILE"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsra",
        description="Compile controlled-English program-analysis queries to CodeQL.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    comp = sub.add_parser("compile", help="compile .nsra files to CodeQL text")
    comp.add_argument("inputs", nargs="+", metavar="FILE")
    comp.add_argument("-o", "--output", help="output path (single input only)")
    comp.add_argument("--profile", help="attribute profile file")
    comp.add_argument("--emit", choices=("ql", "ir"), default="ql")
    comp.add_argument("--header", help="import lines and comments, written verbatim above the QL output")

    met = sub.add_parser("metrics", help="compare query metrics against a CodeQL file")
    met.add_argument("input", metavar="FILE")
    met.add_argument("--ql", required=True, help="reference CodeQL file")
    met.add_argument("--profile", help="attribute profile file")
    met.add_argument("--json", action="store_true", help="machine-readable output")

    chk = sub.add_parser("check", help="compile and compare against a golden CodeQL file")
    chk.add_argument("input", metavar="FILE")
    chk.add_argument("--golden", required=True, help="expected CodeQL file")
    chk.add_argument("--profile", help="attribute profile file")
    chk.add_argument("--header", help="import lines and comments, whose imports the golden's must equal")
    return parser


class _Diagnostic(Exception):
    """A failure already formatted for stderr; ``run`` prints it and exits 1."""


def _read(path: str, prefix: str = "") -> str:
    """The text of ``path``, without a UTF-8 byte-order mark; an ``OSError`` or
    bytes that are not UTF-8 become a diagnostic after ``prefix``."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as err:
        raise _Diagnostic(f"{prefix}error: {err}") from err
    except UnicodeDecodeError as err:
        raise _Diagnostic(f"{prefix}error: {path!r} is not UTF-8: {err.reason} at byte offset {err.start}") from err


def _write(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path``; an ``OSError`` becomes a diagnostic."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as err:
        raise _Diagnostic(f"error: {err}") from err


def _apply(fn: Callable, path: str, text: str, *args: object):
    """``fn(text, *args)``; a ``SourceError`` becomes a diagnostic at ``path``."""
    try:
        return fn(text, *args)
    except SourceError as err:
        raise _Diagnostic(format_diagnostic(path, text, err)) from err


def _load_registry(profile_path: str | None) -> Registry:
    path = profile_path or os.environ.get(PROFILE_ENV)
    if not path:
        return builtin_crypto_profile()
    return _apply(load_profile, path, _read(path))


def _header_imports(header: str) -> list[str]:
    """The import names of a ``--header``, which holds import lines and comments only."""
    try:
        reader = QlReader(header)
        if reader.tokens[reader.pos]:
            reader.expect("import")
    except SourceError as err:
        raise _Diagnostic(f"error: --header: {err.message}") from err
    return reader.imports


def _lowered(text: str, registry: Registry):  # the query's IR; every command runs it
    return lower(parse_text(text), registry)


def _cmd_compile(args: argparse.Namespace) -> int:
    if args.output and len(args.inputs) > 1:
        print("error: -o/--output needs exactly one input file", file=sys.stderr)
        return 2
    if args.header is not None and args.emit == "ir":
        print("error: --header needs --emit ql", file=sys.stderr)
        return 2
    registry = _load_registry(args.profile)
    if args.header:
        _header_imports(args.header)  # before any output is written
    summary: list[str] = []
    for path in args.inputs:
        try:
            ir = _apply(_lowered, path, _read(path, f"{path}: "), registry)
            out = dump_ir(ir) if args.emit == "ir" else render(ir)
            if args.header:
                out = args.header.rstrip("\n") + "\n" + out
            if args.output:
                _write(args.output, out)
            elif len(args.inputs) == 1:
                sys.stdout.write(out)
            else:
                _write(Path(path).with_suffix(".ir" if args.emit == "ir" else ".ql"), out)
        except _Diagnostic as diag:
            print(diag, file=sys.stderr)
            summary.append(f"{path}: error")
            continue
        summary.append(f"{path}: ok")
    if len(args.inputs) > 1:
        print("\n".join(summary), file=sys.stderr)
    return 0 if all(line.endswith(": ok") for line in summary) else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    registry = _load_registry(args.profile)
    text, ql_text = _read(args.input), _read(args.ql)
    # Neither a query that does not compile nor QL that does not read as a
    # query has counts; once both read, counting cannot fail.
    _apply(_lowered, args.input, text, registry)
    ql_counts = _apply(_read_counted, args.ql, ql_text)
    row = compare(halstead_nsra(text, registry), ql_counts)
    if args.json:
        import json  # here, not at the top: only --json needs it

        print(json.dumps(row.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_row(row))
    return 0


def _read_counted(ql_text: str) -> HalsteadCounts:
    """The ``halstead_ql`` counts of QL text, lexed once; raises as ``read_ql`` does where the text is no query."""
    reader = QlReader(ql_text)
    counts = reader_counts(reader)
    reader.read_query()
    return counts


def _cmd_check(args: argparse.Namespace) -> int:
    # Two texts normalize alike exactly when their imports and the IR read
    # from them are equal, and the lowered IR is what its rendering reads back
    # as, so nothing is rendered unless the two differ.
    registry = _load_registry(args.profile)
    ir = _apply(_lowered, args.input, _read(args.input), registry)
    golden_imports, golden = _apply(read_ql, args.golden, _read(args.golden))
    imports = _header_imports(args.header) if args.header else []
    if imports == golden_imports and (ir == golden or repaired(ir) == golden):
        print(f"{args.input}: matches {args.golden}")
        return 0
    print(f"{args.input}: does not match {args.golden}", file=sys.stderr)
    import difflib  # here, not at the top: only a mismatch needs it

    left, right = canonical(imports, repaired(ir)).splitlines(), canonical(golden_imports, golden).splitlines()
    for line in difflib.unified_diff(right, left, args.golden, args.input, lineterm=""):
        print(line, file=sys.stderr)
    return 1


def run(argv: list[str] | None = None) -> int:
    """Entry point returning the exit code (0 ok, 1 failure, 2 usage)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    command = {"compile": _cmd_compile, "metrics": _cmd_metrics, "check": _cmd_check}[args.subcommand]
    try:
        return command(args)
    except _Diagnostic as diag:
        print(diag, file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
