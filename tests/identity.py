"""Byte-identity oracle: one fixed set of inputs, every output the compiler
gives for them, and the inputs whose outputs differ between two checkouts.

    python tests/identity.py                 # this checkout: inputs and digest per output kind
    python tests/identity.py --against PATH  # this checkout against the one at PATH

The inputs are built here, from this checkout's ``perfbench/gen.py`` (imported
unchanged) and ``tests/golden``:

* query texts: the goldens and rules, the benchmark's task-sized queries at
  fixed seeds in both phrasings with and without its profile, ``large``
  queries, and seeded token deletions, duplications, swaps, substitutions and
  insertions of those, each run with the built-in and the benchmark registry;
* profiles: the built-in, benchmark and README profiles and token mutations;
* QL texts: the golden QL, the benchmark's expected QL and token mutations,
  and ``QL_RUN_CASES``, each with and without an ``import java`` line.

Each side runs in a child interpreter (``python -I -B``) whose only path to
``nsra`` is that checkout's ``src``.  Per query it records the QL at widths 100
and 60, the ``--emit ir`` dump, each error's class, message, span and
diagnostic, ``nsra_terms``, both Halstead counts, ``normalize_ql`` of the
output, ``query_to_text`` and ``nsra check``'s verdict against the query's
reference QL; per profile what ``load_profile`` makes of it; per QL text its
``normalize_ql`` and ``halstead_ql``.  It also checks that every printed query
parses back to its tree.  The tool exits 0; it prints, per output kind, how
many inputs differ and the first few, and ``src/``'s counted lines for both
sides.  pytest does not collect it; ``tests/test_identity.py`` runs a slice.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SHOWN = 3  # differing inputs shown per output kind

# One token of a query, profile or QL text; the text between tokens is kept
# as written, so a mutation changes only the tokens it touches.
_TOKEN = re.compile(r'("(?:\\.|[^"\\])*"|\w+|[^\w\s])')
_SUBSTITUTES = {
    "query": ("not", "is", "in", "and", "or", "if", "then", "signature", "of", "'s", "the", "a",
              "first", "does not invoke", "invokes", "precedes", "follows", "variable", "[", "]", ",", ".", '"x"', "1"),
    "profile": ("=", "[aliases]", "[types]", "@ordinal", "(", ")", ".", ",", "getName()", "count()", "name", "of",
                "a", "1", '"x"', "#", "\n"),
    "ql": ("from", "where", "select", "and", "or", "not", "exists", "count", "import", "(", ")", ".", ",", "=", "<",
           "|", "x", "1", '"a"', "//"),
}

# Texts that put a run of calls (one token to the QL reader) where no chain
# holds it, or that spell calls so that they are no run.
QL_RUN_CASES = (
    "import a.b()",
    "import a . b .f() . c",
    "from T x.f() select x",
    "select x.f()",
    "from T x where 1.f() = 1 select x",
    'from T x where "a".f() = 1 select x',
    "from T x where x.count() = 1 select x",
    "from T x where x.²f() = 1 select x",
    "from T x where x.f(1, " + "9" * 4301 + ") = 1 select x",
    "from T x where x.f( 1 ,2 ) = 1 select x",
    "from T x where x.f(/* c */ 1) = 1 select x",
    'from T x where x.f("A B").g( 1).é("C D") = x.f("A B") and x.f("A B").g() = select x',
)


def _mutations(texts: list[str], language: str, n: int, seed: int) -> list[tuple[str, int]]:
    """``n`` (mutation, index of the text in ``texts`` it mutates): each with
    one token deleted, duplicated, swapped with another, substituted or
    preceded by an inserted one, or, for a query, one sentence negated by
    ``it is false that``."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        source = rng.randrange(len(texts))
        parts = _TOKEN.split(texts[source])  # odd indices hold the tokens
        tokens = range(1, len(parts), 2)
        if not tokens:
            continue
        i, j = rng.choice(tokens), rng.choice(tokens)
        edit = rng.choice(("delete", "duplicate", "swap", "substitute", "insert", "negate"))
        word = rng.choice(_SUBSTITUTES[language])
        if edit == "delete":
            parts[i] = ""
        elif edit == "duplicate":
            parts[i] += " " + parts[i]
        elif edit == "swap":
            parts[i], parts[j] = parts[j], parts[i]
        elif edit == "substitute":
            parts[i] = word
        elif edit == "negate" and language == "query":
            i = rng.choice([1] + [k + 2 for k in tokens if parts[k] == "." and k + 2 < len(parts)])
            parts[i] = f"it is false that {parts[i]}"
        else:
            parts[i] = f"{word} {parts[i]}"
        out.append(("".join(parts), source))
    return out


def _builtin_profile_text() -> str:
    """``registry._BUILTIN_PROFILE`` of this checkout, read without importing it."""
    tree = ast.parse((ROOT / "src" / "nsra" / "registry.py").read_text(encoding="utf-8"))
    (value,) = [n.value for n in tree.body if isinstance(n, ast.Assign) and n.targets[0].id == "_BUILTIN_PROFILE"]
    return ast.literal_eval(value)


def build_inputs() -> dict[str, list]:
    """The fixed inputs: ``queries`` as ``[text, reference QL]``, ``profiles``
    and ``ql`` as texts.  ``profile_text`` is the benchmark registry's profile."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    import gen  # the benchmark's seeded query generator

    paths = sorted(GOLDEN.glob("*.nsra")) + sorted((GOLDEN / "rules").glob("*.nsra"))
    golden = [[p.read_text(encoding="utf-8"), p.with_suffix(".ql").read_text(encoding="utf-8")] for p in paths]
    task_sized = []
    for profile in (False, True):
        for seed in range(5):
            generator = gen.Generator(seed, profile=profile)
            task_sized += [generator.task_sized(1 + i % 8) for i in range(40)]
    large = [gen.Generator(1).large(n) for n in (40, 100, 200)]
    sources = golden + [[q.text(phrasing), q.expected_ql] for q in task_sized for phrasing in ("poss", "plain")]
    queries = sources + [[q.text(phrasing), q.expected_ql] for q in large for phrasing in ("poss", "plain")]
    mutated = _mutations([text for text, _ in sources], "query", 6000, seed=0)
    queries += [[text, sources[source][1]] for text, source in mutated]

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (readme_profile,) = re.findall(r"^## Attribute profiles\n.*?^```ini\n(.*?)^```", readme, re.S | re.M)
    profiles = [_builtin_profile_text(), gen.PROFILE_TEXT, readme_profile]
    profiles += [text for text, _ in _mutations(profiles, "profile", 600, seed=1)]

    ql = [reference for _, reference in golden] + [q.expected_ql for q in task_sized[::4]]
    ql += [text for text, _ in _mutations(ql, "ql", 3000, seed=2)]
    ql += [header + text for text in QL_RUN_CASES for header in ("", "import java\n")]
    return {"queries": queries, "profiles": profiles, "ql": ql, "profile_text": gen.PROFILE_TEXT}


# --- the child: every output of one checkout ---------------------------------


def child_outputs(inputs: dict) -> dict[str, list[dict[str, str]]]:
    """Every output of the ``nsra`` on ``sys.path`` for ``inputs``, as text,
    keyed by output kind; an output that does not exist (no QL for a query
    that does not compile) is left out."""
    from nsra import cli
    from nsra.errors import SourceError, format_diagnostic
    from nsra.lowering import lower
    from nsra.metrics import halstead_nsra, halstead_ql, nsra_terms
    from nsra.parser import parse_text
    from nsra.qlgen import dump_ir, normalize_ql, render
    from nsra.registry import builtin_crypto_profile, load_profile
    from nsra.syntax import query_to_text

    os.environ.pop(cli.PROFILE_ENV, None)

    def error(err: Exception, text: str) -> str:
        if not isinstance(err, SourceError):
            return f"not a SourceError: {type(err).__name__}: {err}"
        return f"{type(err).__name__} {err.message!r} {err.span!r}\n{format_diagnostic('q.nsra', text, err)}"

    def attempt(out: dict, kind: str, fn, text: str, *args) -> object:
        try:
            value = fn(text, *args)
        except Exception as err:  # every exception is an output to compare
            out[kind] = error(err, text)
            return None
        out[kind] = value if isinstance(value, str) else repr(value)
        return value

    registries = {
        "builtin": (builtin_crypto_profile(), []),
        "bench": (load_profile(inputs["profile_text"]), ["--profile", "p.ini"]),
    }
    results: dict[str, list[dict[str, str]]] = {"queries": [], "profiles": [], "ql": []}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the check's diff names its files as given: the same on both sides
        Path("p.ini").write_text(inputs["profile_text"], encoding="utf-8")
        for text, reference in inputs["queries"]:
            Path("q.nsra").write_text(text, encoding="utf-8")
            Path("g.ql").write_text(reference, encoding="utf-8")
            results["queries"].append({})
            for name, (registry, profile_args) in registries.items():
                out: dict[str, str] = {}
                warnings = io.StringIO()
                with contextlib.redirect_stderr(warnings):
                    tree = attempt(out, "error", parse_text, text)
                    printed = None if tree is None else attempt(out, "query_to_text", query_to_text, tree)
                    ir = None if tree is None else attempt(out, "error", lower, tree, registry)
                    if ir is not None:
                        # Only a tree that lowers has a meaning to keep: one that names an
                        # unknown attribute may print as text that does not parse.
                        if printed is None or attempt({}, "", parse_text, printed) != tree:
                            out["round_trip"] = f"does not parse back: {printed!r}"
                        ql = attempt(out, "ql100", render, ir)
                        attempt(out, "ql60", lambda ir: render(ir, line_width=60), ir)
                        attempt(out, "ir", dump_ir, ir)
                        attempt(out, "normalize_ql", normalize_ql, ql)
                        attempt(out, "halstead_ql", halstead_ql, ql)
                        stdout = io.StringIO()
                        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout):
                            code = cli.run(["check", "q.nsra", "--golden", "g.ql", *profile_args])
                        out["check"] = f"{code}\n{stdout.getvalue()}"
                    attempt(out, "nsra_terms", nsra_terms, text, registry)
                    attempt(out, "halstead_nsra", halstead_nsra, text, registry)
                if warnings.getvalue():
                    out["warnings"] = warnings.getvalue()
                results["queries"][-1].update({f"{kind} ({name})": value for kind, value in out.items()})
        os.chdir(home)
    for text in inputs["profiles"]:
        out = {}
        attempt(out, "load_profile", load_profile, text)
        results["profiles"].append(out)
    for text in inputs["ql"]:
        out = {}
        attempt(out, "normalize_ql", normalize_ql, text)
        attempt(out, "halstead_ql", halstead_ql, text)
        results["ql"].append(out)
    return results


def _child_main(src: str, inputs_path: str) -> None:
    sys.path.insert(0, str(Path(src).resolve()))  # absolute: the child changes directory
    import nsra

    if Path(nsra.__file__).parents[1] != Path(src).resolve():
        raise SystemExit(f"nsra was imported from {nsra.__file__}, not from {src}")
    inputs = json.loads(Path(inputs_path).read_text(encoding="utf-8"))
    json.dump(child_outputs(inputs), sys.stdout)


# --- the parent: run the sides and compare -----------------------------------


def run_sides(checkouts: list[Path], inputs: dict) -> list[dict]:
    """The outputs of each checkout for ``inputs``, one child interpreter per checkout, all running at once."""
    with tempfile.TemporaryDirectory() as tmp:
        inputs_path = Path(tmp) / "inputs.json"
        inputs_path.write_text(json.dumps(inputs), encoding="utf-8")
        children = [
            subprocess.Popen([sys.executable, "-I", "-B", __file__, "--child", str(checkout / "src"), str(inputs_path)],
                             stdout=subprocess.PIPE, text=True)
            for checkout in checkouts
        ]
        outputs = []
        for child in children:
            stdout, _ = child.communicate()
            if child.returncode:
                raise SystemExit(f"child {child.args} exited {child.returncode}")
            outputs.append(json.loads(stdout))
        return outputs


def by_kind(outputs: dict) -> dict[tuple[str, str], list]:
    """(input group, output kind) -> each input's output of that kind, ``None`` where it has none."""
    kinds: dict[tuple[str, str], list] = {}
    for group, per_input in outputs.items():
        names = sorted({kind for out in per_input for kind in out})
        for kind in names:
            kinds[group, kind] = [out.get(kind) for out in per_input]
    return kinds


def digests(outputs: dict) -> dict[tuple[str, str], str]:
    """(input group, output kind) -> a digest of every input's output of that kind."""
    return {key: hashlib.sha256(json.dumps(out).encode()).hexdigest()[:16] for key, out in by_kind(outputs).items()}


def round_trip_failures(outputs: dict) -> list[int]:
    """The queries whose printed text does not parse back to their tree."""
    return [i for i, out in enumerate(outputs["queries"]) if any(kind.startswith("round_trip") for kind in out)]


def src_lines(checkout: Path) -> int:
    """ROADMAP aim 2's count: the lines of ``src/nsra/*.py`` that are neither blank nor comments."""
    pattern = re.compile(r"^\s*(#|$)")
    return sum(1 for p in (checkout / "src" / "nsra").glob("*.py") for line in p.read_text().splitlines()
               if not pattern.match(line))


def _shown(value: str | None, start: int = 0) -> str:
    return "(none)" if value is None else ("..." if start else "") + json.dumps(value[start:])[:240]


def _first_difference(a: str | None, b: str | None) -> int:
    """Where to start showing two outputs: a little before their first differing character."""
    if a is None or b is None:
        return 0
    k = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return max(0, k - 60)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="PATH", type=Path, help="another checkout, compared with this one")
    args = parser.parse_args(argv)
    inputs = build_inputs()
    print(f"inputs: {len(inputs['queries'])} queries (each with 2 registries), {len(inputs['profiles'])} profiles,"
          f" {len(inputs['ql'])} QL texts")
    checkouts = [ROOT] if args.against is None else [ROOT, args.against]
    sides = run_sides(checkouts, inputs)
    print("src/ counted lines: " + ", ".join(f"{c}: {src_lines(c)}" for c in checkouts))
    for checkout, side in zip(checkouts, sides):
        failures = round_trip_failures(side)
        print(f"print/parse round-trip failures, {checkout}: {len(failures)}")
        for i in failures[:SHOWN]:
            print(f"  input {i}: {_shown(inputs['queries'][i][0])}")
    if args.against is None:
        for (group, kind), digest in digests(sides[0]).items():
            print(f"{group:<8} {kind:<28} {digest}")
        return 0
    this, other = by_kind(sides[0]), by_kind(sides[1])
    texts = {"queries": [t for t, _ in inputs["queries"]], "profiles": inputs["profiles"], "ql": inputs["ql"]}
    print(f"{'group':<8} {'output kind':<28} {'inputs':>7} {'differ':>7}")
    shown = []
    for key in sorted(set(this) | set(other)):
        group, kind = key
        a = this.get(key, [None] * len(texts[group]))
        b = other.get(key, [None] * len(texts[group]))
        differing = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
        present = sum(1 for x, y in zip(a, b) if x is not None or y is not None)
        print(f"{group:<8} {kind:<28} {present:>7} {len(differing):>7}")
        for i in differing[:SHOWN]:
            start = _first_difference(a[i], b[i])
            shown.append(f"{group} / {kind} / input {i}: {_shown(texts[group][i])}\n"
                         f"  this:    {_shown(a[i], start)}\n  against: {_shown(b[i], start)}")
    if shown:
        print("\nfirst differences:\n" + "\n".join(shown))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child_main(*sys.argv[2:4])
    else:
        sys.exit(main())
