"""``nsra check`` as it was before it compared IRs, kept as the reference the
tests check the command against.

``oracle_cmd_check`` renders the lowered query, prepends ``--header`` to
that text, and compares ``oracle_normalize_ql`` of it with the same of the
golden, so the compiled side is rendered, lexed, read and rendered again,
and the header is read fused with the query.  ``oracle_normalize_ql`` reads
with the underscore repair as the reader's literal hook and re-renders at
infinite width.  ``as_parent()`` installs the old command in ``cli`` for the
length of a ``with`` block, so ``cli.run(["check", ...])`` called inside it
takes the old path.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from unittest import mock

from nsra import cli
from nsra.errors import SourceError
from nsra.qlgen import QlReader, _restore_underscores, render


def oracle_normalize_ql(text: str) -> str:
    reader = QlReader(text)
    reader.literal = _restore_underscores  # from here on, after the import lines
    ir = reader.read_query()
    return "".join(f"import {name}\n" for name in reader.imports) + render(ir, line_width=math.inf)


def oracle_cmd_check(args: argparse.Namespace) -> int:
    registry = cli._load_registry(args.profile)
    ir = cli._apply(cli._lowered, args.input, cli._read(args.input), registry)
    compiled = render(ir)
    if args.header:
        compiled = args.header.rstrip("\n") + "\n" + compiled
    golden = cli._read(args.golden)
    right = cli._apply(oracle_normalize_ql, args.golden, golden)
    try:
        # The compiled text is the header followed by render's output, which
        # always reads, so an error here is in the header.
        left = oracle_normalize_ql(compiled)
    except SourceError as err:
        raise cli._Diagnostic(f"error: --header: {err.message}") from err
    if left == right:
        print(f"{args.input}: matches {args.golden}")
        return 0
    print(f"{args.input}: does not match {args.golden}", file=sys.stderr)
    import difflib

    for line in difflib.unified_diff(right.splitlines(), left.splitlines(), args.golden, args.input, lineterm=""):
        print(line, file=sys.stderr)
    return 1


@contextlib.contextmanager
def as_parent():
    """Inside the block, ``cli.run`` checks a query as before."""
    with mock.patch.object(cli, "_cmd_check", oracle_cmd_check):
        yield
