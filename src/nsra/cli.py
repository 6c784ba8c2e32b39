"""Command-line interface: compile queries, compare metrics, check goldens.

Exit codes: 0 success, 1 compile/parse/check failure, 2 usage error.
Diagnostics go to stderr as ``file:line:col: severity: message``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import SourceError, format_diagnostic
from .lowering import lower
from .metrics import compare, format_row, halstead_nsra, halstead_ql
from .parser import parse_text
from .qlgen import dump_ir, normalize_ql, render
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
    comp.add_argument("--header", help="verbatim header text prepended to QL output")

    met = sub.add_parser("metrics", help="compare query metrics against a CodeQL file")
    met.add_argument("input", metavar="FILE")
    met.add_argument("--ql", required=True, help="reference CodeQL file")
    met.add_argument("--profile", help="attribute profile file")
    met.add_argument("--json", action="store_true", help="machine-readable output")

    chk = sub.add_parser("check", help="compile and compare against a golden CodeQL file")
    chk.add_argument("input", metavar="FILE")
    chk.add_argument("--golden", required=True, help="expected CodeQL file")
    chk.add_argument("--profile", help="attribute profile file")
    chk.add_argument("--header", help="verbatim header text prepended before comparing")
    return parser


class _Diagnostic(Exception):
    """A failure already formatted for stderr; ``run`` prints it and exits 1."""


def _load_registry(profile_path: str | None) -> Registry:
    path = profile_path or os.environ.get(PROFILE_ENV)
    if not path:
        return builtin_crypto_profile()
    try:
        text = Path(path).read_text(encoding="utf-8")
        return load_profile(text)
    except OSError as err:
        raise _Diagnostic(f"error: {err}") from err
    except SourceError as err:
        raise _Diagnostic(format_diagnostic(path, text, err)) from err


def _compile_file(path: str, registry: Registry, emit: str, header: str | None) -> str:
    text = Path(path).read_text(encoding="utf-8")
    try:
        ir = lower(parse_text(text), registry)
    except SourceError as err:
        raise _Diagnostic(format_diagnostic(path, text, err)) from err
    if emit == "ir":
        return dump_ir(ir)
    out = render(ir)
    if header:
        out = header.rstrip("\n") + "\n" + out
    return out


def _cmd_compile(args: argparse.Namespace) -> int:
    if args.output and len(args.inputs) > 1:
        print("error: -o/--output needs exactly one input file", file=sys.stderr)
        return 2
    registry = _load_registry(args.profile)
    failures = 0
    summary: list[str] = []
    for path in args.inputs:
        try:
            out = _compile_file(path, registry, args.emit, args.header)
        except _Diagnostic as diag:
            print(diag, file=sys.stderr)
            summary.append(f"{path}: error")
            failures += 1
            continue
        except OSError as err:
            print(f"{path}: error: {err}", file=sys.stderr)
            summary.append(f"{path}: error")
            failures += 1
            continue
        if args.output:
            Path(args.output).write_text(out, encoding="utf-8")
        elif len(args.inputs) == 1:
            sys.stdout.write(out)
        else:
            suffix = ".ir" if args.emit == "ir" else ".ql"
            Path(path).with_suffix(suffix).write_text(out, encoding="utf-8")
        summary.append(f"{path}: ok")
    if len(args.inputs) > 1:
        for line in summary:
            print(line, file=sys.stderr)
    return 1 if failures else 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    try:
        registry = _load_registry(args.profile)
        text = Path(args.input).read_text(encoding="utf-8")
        ql_text = Path(args.ql).read_text(encoding="utf-8")
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        nsra_counts = halstead_nsra(text, registry)
    except SourceError as err:
        print(format_diagnostic(args.input, text, err), file=sys.stderr)
        return 1
    try:
        ql_counts = halstead_ql(ql_text)
    except SourceError as err:
        print(format_diagnostic(args.ql, ql_text, err), file=sys.stderr)
        return 1
    try:
        row = compare(nsra_counts, ql_counts)
    except ZeroDivisionError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(row.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_row(row))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        registry = _load_registry(args.profile)
        compiled = _compile_file(args.input, registry, "ql", args.header)
        golden = Path(args.golden).read_text(encoding="utf-8")
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        right = normalize_ql(golden)
    except SourceError as err:
        print(format_diagnostic(args.golden, golden, err), file=sys.stderr)
        return 1
    try:
        # The compiled text is the header followed by render's output, which
        # always reads, so an error here is in the header.
        left = normalize_ql(compiled)
    except SourceError as err:
        print(f"error: --header: {err.message}", file=sys.stderr)
        return 1
    if left == right:
        print(f"{args.input}: matches {args.golden}")
        return 0
    print(f"{args.input}: does not match {args.golden}", file=sys.stderr)
    import difflib  # here, not at the top: only a mismatch needs it

    diff = difflib.unified_diff(
        right.splitlines(), left.splitlines(), fromfile=args.golden, tofile=args.input, lineterm=""
    )
    for line in diff:
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
