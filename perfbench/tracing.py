"""Spans around the compiler's layer functions, for the traced run.

``Tracer.installed()`` replaces each layer function named in ``LAYERS`` by a
wrapper in every ``nsra`` module that holds it, so calls between layers
(``halstead_nsra`` calling ``normalize``, ``builtin_crypto_profile`` calling
``load_profile``) get spans too, and puts the originals back on exit. Each
span records its name, start, end and parent; the spans stay in memory until
``write``. A layer's self time is its spans' time minus their children's.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from dataclasses import fields, is_dataclass


def _ir_nodes(ir) -> int:
    """Dataclass nodes in an IR, declarations and values included."""
    count, stack = 0, [ir]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node)
        elif is_dataclass(node):
            count += 1
            stack.extend(getattr(node, f.name) for f in fields(node))
    return count


# (module, function, counter name, counter of the result)
LAYERS = (
    ("lexer", "tokenize", "lexer.tokens", len),
    ("lexer", "normalize", None, None),
    ("parser", "parse_query", "parser.statements", lambda ast: len(ast.statements)),
    ("lowering", "lower", "lowering.ir_nodes", _ir_nodes),
    ("qlgen", "render", "qlgen.ql_bytes", lambda text: len(text.encode())),
    ("qlgen", "lex_ql", "qlgen.ql_tokens", len),
    ("qlgen", "read_query_text", None, None),
    ("qlgen", "normalize_ql", None, None),
    ("metrics", "halstead_nsra", None, None),
    ("metrics", "halstead_ql", None, None),
    ("metrics", "compare", None, None),
    ("registry", "builtin_crypto_profile", None, None),
    ("registry", "load_profile", None, None),
)
COUNTER_UNITS = {"qlgen.ql_bytes": "bytes"}


class NullTracer:
    @contextlib.contextmanager
    def span(self, name: str):
        yield


class Tracer:
    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.stack: list = []
        self.counters = {name: 0 for _, _, name, _ in LAYERS if name}

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, counter: str | None, count):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter:
                self.counters[counter] += count(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "nsra" or n.startswith("nsra.")]
        replaced = []
        for mod_name, fn_name, counter, count in LAYERS:
            fn = getattr(sys.modules[f"nsra.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn, counter, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        replaced.append((mod, attr, fn))
        try:
            yield
        finally:
            for mod, attr, fn in replaced:
                setattr(mod, attr, fn)

    def self_times(self) -> list:
        child = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(len(self.names))]

    def layer_metrics(self, rounds: int) -> dict:
        """Per-round self time of each layer and per-round counts, plus the
        share of the compile spans' time spent in ``normalize``."""
        self_ns = self.self_times()
        totals: dict = {f"{m}.{f}": 0 for m, f, _, _ in LAYERS}
        totals["cli.run"] = 0
        compile_ns = normalize_in_compile = 0
        for i, name in enumerate(self.names):
            if name in totals:
                totals[name] += self_ns[i]
            if name == "compile":
                compile_ns += self.ends[i] - self.starts[i]
            elif name == "lexer.normalize" and self.parents[i] >= 0 and self.names[self.parents[i]] == "compile":
                normalize_in_compile += self_ns[i]
        out = {f"{name}.ms": (ns / rounds / 1e6, "ms") for name, ns in totals.items()}
        out.update({name: (n / rounds, COUNTER_UNITS.get(name, "count")) for name, n in self.counters.items()})
        out["lexer.normalize.compile_pct"] = (100 * normalize_in_compile / compile_ns, "%")
        return out

    def write(self, path) -> None:
        spans = [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p}
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        path.write_text(json.dumps({"spans": spans}), encoding="utf-8")
