#!/usr/bin/env python3
"""The nsra benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 55 --trace 0

Runs from a checkout of the repository and drives the compiler in ``src/``
only through its public functions and through ``python -m nsra.cli``. The
load is a closed loop with one caller: each operation starts when the last
one has returned, and the CLI operations run one child process at a time.

A run sets up (import, input generation, registries, warm-up), then
repeats whole rounds of the workload's operations until ``--seconds`` have
passed, setting up once more after each round and reporting the median
set-up time as ``setup_s``, checks every output, and prints one JSON object
as its last line of standard output. With
``--trace 1`` the compile path runs stage by stage under spans and the run
prints the per-layer metrics instead; the spans are written to
``perfbench/out/``. README.md in this directory describes the workloads,
the metrics and the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("corpus", "large-possessive")
# Queries of each length in the corpus, each in both phrasings. The four
# golden queries, the only real ones, have 1, 2, 3 and 3 sentences; three
# quarters of the corpus follow that mix and the rest spread up to 8.
CORPUS_LENGTHS = {1: 16, 2: 16, 3: 32, 4: 4, 5: 4, 6: 4, 7: 4, 8: 4}
# Sentences of each large query. normalize is half of a compile at 100
# sentences and 60-75% from 150 up; larger queries would leave a run fewer
# rounds to take the best of.
LARGE_SIZES = (100, 150, 200)
# Each CLI operation runs this many times a round, after as many slices of
# the in-process items: a CLI metric is a best time over the run, and a
# child process's time varies more than an in-process call's, so it needs
# more samples to settle.
CLI_PASSES = 2
HEADER = "/** @name task2 @kind problem */"


def collapse(text: str) -> str:
    return " ".join(text.split())


@dataclass
class Item:
    """One query the workload compiles, checks and counts."""

    name: str
    text: str
    expected: str  # the generator's QL, in render's layout
    reference: str  # the QL that check and metrics compare with
    terms: tuple
    decls: tuple
    profile: bool = False
    alt_text: str | None = None  # the same content in the other phrasing
    path: Path | None = None
    ref_path: Path | None = None

    @property
    def src_tokens(self) -> int:
        return gen.nsra_token_count(self.text)

    # The expectations are worked out once per item, so that checking an
    # output costs little of the run's time.
    @functools.cached_property
    def flat_expected(self) -> str:
        return collapse(self.expected)

    @functools.cached_property
    def want(self) -> tuple:
        return expected_counts(self)


@dataclass
class CliOp:
    command: str  # compile | check | metrics
    args: list
    item: Item
    fails_today: bool = False  # a known fault makes it exit nonzero


@dataclass
class Workload:
    items: list
    cli_ops: list  # timed and counted in every round
    cli_checks: list = field(default_factory=list)  # run and checked once per run, not timed or counted
    failing: list = field(default_factory=list)  # in-process compiles that fail today
    warm: Item | None = None


# --- inputs ------------------------------------------------------------------


def _task_items() -> list:
    out = []
    for name, q in gen.task_queries().items():
        golden = (GOLDEN / f"{name}.ql").read_text(encoding="utf-8")
        out.append(
            Item(name, (GOLDEN / f"{name}.nsra").read_text(encoding="utf-8"), q.expected_ql, golden,
                 q.terms, q.decls, alt_text=q.plain_text, path=GOLDEN / f"{name}.nsra", ref_path=GOLDEN / f"{name}.ql")
        )
    return out


def _generated(name: str, q: gen.Query, phrasing: str) -> Item:
    other = "plain" if phrasing == "poss" else "poss"
    return Item(name, q.text(phrasing), q.expected_ql, q.expected_ql, q.terms, q.decls, q.profile, q.text(other))


def _write(work: Path, item: Item) -> None:
    if item.path is None:
        item.path = work / f"{item.name}.nsra"
        item.path.write_text(item.text, encoding="utf-8")
    if item.ref_path is None:
        item.ref_path = work / f"{item.name}.ql"
        item.ref_path.write_text(item.reference, encoding="utf-8")


def _cli_ops(item: Item, profile_path: Path) -> list:
    extra = ["--profile", str(profile_path)] if item.profile else []
    return [
        CliOp("compile", ["compile", str(item.path), *extra], item),
        CliOp("check", ["check", str(item.path), "--golden", str(item.ref_path), *extra], item),
        CliOp("metrics", ["metrics", str(item.path), "--ql", str(item.ref_path), "--json", *extra], item),
    ]


def build_workload(name: str, seed: int, work: Path) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    profile_path = work / "crypto.profile"
    profile_path.write_text(gen.PROFILE_TEXT, encoding="utf-8")
    tasks = _task_items()
    g = gen.Generator(seed)
    if name == "corpus":
        gp = gen.Generator(seed, profile=True)
        items = list(tasks)
        for size, n in CORPUS_LENGTHS.items():
            for i in range(n):
                q = g.task_sized(size)
                items.append(_generated(f"q{size}_{i}p", q, "poss"))
                items.append(_generated(f"q{size}_{i}o", q, "plain"))
        # The CLI, one process at a time. Timed: the three commands on a
        # 3-sentence query with --profile. Each CLI metric is a best time
        # over the run, and it settles only with some fifty samples of its
        # operation, so few operations are timed. Checked once per run: the
        # goldens through check, and an 8-sentence query without --profile.
        profiled = _generated("profiled3", gp.task_sized(3), "poss")
        plain8 = items[-1]
        for item in (profiled, plain8):
            _write(work, item)
        ops = _cli_ops(profiled, profile_path)
        checks = [CliOp("check", ["check", str(t.path), "--golden", str(t.ref_path)], t) for t in tasks]
        checks += _cli_ops(plain8, profile_path)
        # Fails today: lex_ql rejects the '/' of a QL comment, so the
        # header on both sides does not normalize alike.
        header_ref = work / "task2_header.ql"
        header_ref.write_text(HEADER + "\n" + tasks[2].reference, encoding="utf-8")
        task2 = tasks[2]
        ops.append(CliOp("check", ["check", str(task2.path), "--golden", str(header_ref), "--header", HEADER], task2, True))
        # Fails today: profile rule keys are not case-folded.
        recv_profile, recv_query = gen.receiver_failure()
        recv = _generated("receiver", recv_query, "poss")
        _write(work, recv)
        (work / "receiver.profile").write_text(recv_profile, encoding="utf-8")
        ops.append(CliOp("compile", ["compile", str(recv.path), "--profile", str(work / "receiver.profile")], recv, True))
        return Workload(items, ops, checks, warm=tasks[3])
    items = [_generated(f"large{n}", g.large(n), "poss") for n in LARGE_SIZES]
    # The other phrasing is checked on the smallest query only, as it costs
    # a compile and a count of each query.
    for item in items[1:]:
        item.alt_text = None
    _write(work, items[0])
    failing = [_generated("nested1000", gen.recursion_failure(), "plain")]
    return Workload(items, _cli_ops(items[0], profile_path), failing=failing, warm=tasks[3])


# --- the program ---------------------------------------------------------------


def import_program():
    """Fresh import of the package and the CLI module, as a new process would."""
    for mod in [m for m in sys.modules if m == "nsra" or m.startswith("nsra.")]:
        del sys.modules[mod]
    nsra = importlib.import_module("nsra")
    importlib.import_module("nsra.cli")
    return nsra


class Checker:
    """Counts operations attempted and failed, and reports every failed check
    on standard error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.correct = False
            print(f"check failed: {what}", file=sys.stderr)


def counts(h) -> tuple:
    return h.distinct_operators, h.distinct_operands, h.total_operators, h.total_operands


class Program:
    """The public functions the benchmark drives, looked up on the modules at
    call time so that the traced run can wrap them."""

    def __init__(self, nsra):
        self.nsra = nsra
        self.mods = {n: sys.modules[f"nsra.{n}"] for n in ("lexer", "parser", "lowering", "qlgen", "metrics", "registry", "cli")}
        self.profile_registry = nsra.load_profile(gen.PROFILE_TEXT)

    def registry(self, item: Item):
        return self.profile_registry if item.profile else None

    # untraced operations, as a user calls them
    def compile(self, item: Item) -> str:
        return self.nsra.compile_text(item.text, self.registry(item))

    def check(self, item: Item) -> bool:
        out = self.nsra.compile_text(item.text, self.registry(item))
        return self.nsra.normalize_ql(out) == self.nsra.normalize_ql(item.reference)

    def metrics(self, item: Item):
        hn = self.nsra.halstead_nsra(item.text, self.registry(item))
        hq = self.nsra.halstead_ql(item.reference)
        return hn, hq, self.nsra.compare(hn, hq)

    # staged operations, one call per stage
    def staged_compile(self, item: Item):
        m = self.mods
        toks = m["lexer"].tokenize(item.text)
        ast = m["parser"].parse_query(m["lexer"].normalize(toks))
        reg = self.profile_registry if item.profile else m["registry"].builtin_crypto_profile()
        ir = m["lowering"].lower(ast, reg)
        return ir, m["qlgen"].render(ir)

    def staged_check(self, item: Item) -> bool:
        """The check, plus the render/read round trip on its output."""
        ir, out = self.staged_compile(item)
        q = self.mods["qlgen"]
        same = q.normalize_ql(out) == q.normalize_ql(item.reference)
        return same and q.read_query_text(out) == ir


def expected_counts(item: Item) -> tuple:
    """The generator's Halstead counts for the query and for its reference
    QL, and the (vocabulary, length) pairs a comparison row must show."""
    want_n = gen.halstead(item.terms)
    want_q = gen.halstead(gen.ql_terms(item.reference))
    row = (want_n[0] + want_n[1], want_n[2] + want_n[3], want_q[0] + want_q[1], want_q[2] + want_q[3])
    return want_n, want_q, row


def check_metrics(chk: Checker, item: Item, hn, hq, row) -> None:
    want_n, want_q, want_row = item.want
    chk.expect(counts(hn) == want_n, f"{item.name}: halstead_nsra {counts(hn)} != {want_n}")
    chk.expect(counts(hq) == want_q, f"{item.name}: halstead_ql {counts(hq)} != {want_q}")
    got = (row.vocab_nsra, row.length_nsra, row.vocab_ql, row.length_ql)
    chk.expect(got == want_row, f"{item.name}: compare {got} != {want_row}")


def attempt_failing(chk: Checker, item: Item, compile_fn, source_error) -> None:
    """An operation that fails today: RecursionError counts as failed; QL or
    a SourceError counts as done, and QL must be right."""
    chk.attempted += 1
    try:
        out = compile_fn(item)
    except RecursionError:
        chk.failed += 1
        return
    except source_error:
        return
    chk.expect(collapse(out) == item.flat_expected, f"{item.name}: compile output")


# --- CLI processes -------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NSRA_PROFILE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


CHILD_ENV = child_env()


LAUNCHER = """
import itertools, json, os, subprocess, sys, time
cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))
for line in sys.stdin:
    argv, out_path, err_path = json.loads(line)
    os.sched_setaffinity(0, {next(cpus)})
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    print(json.dumps([os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss]), flush=True)
"""


class Launcher:
    """Starts the child processes, one at a time, from a small helper process.

    Linux carries a process's peak resident memory through exec, so a child
    forked from the benchmark reports at least the benchmark's own peak (its
    inputs and set-ups take tens of MB). The helper, started before any
    input exists, stays below the peak of an ``nsra`` process.

    The helper moves itself to the next of its CPUs before each child, so
    the children take turns on every CPU. Left to the scheduler, they can
    all start on one CPU for a whole run; on a shared host one CPU can be
    slower than the other for tens of seconds, and a CLI metric is a best
    time, so it needs samples from every CPU."""

    def __init__(self, work: Path):
        work.mkdir(parents=True, exist_ok=True)
        self.out, self.err = work / "child.out", work / "child.err"
        self.proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER], stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=CHILD_ENV, text=True
        )

    def run(self, argv: list) -> tuple:
        """Run one child to completion: (exit code, stdout, seconds, peak RSS MB)."""
        self.proc.stdin.write(json.dumps([argv, str(self.out), str(self.err)]) + "\n")
        self.proc.stdin.flush()
        code, elapsed, maxrss_kb = json.loads(self.proc.stdout.readline())
        return code, self.out.read_text(encoding="utf-8"), elapsed, maxrss_kb / 1024

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def cli_argv(op: CliOp) -> list:
    return [sys.executable, "-m", "nsra.cli", *op.args]


def check_cli_output(chk: Checker, op: CliOp, code: int, stdout: str) -> None:
    """A nonzero exit counts as failed; it is wrong unless the operation is
    one that fails today."""
    if code != 0:
        chk.failed += 1
        chk.expect(op.fails_today, f"{op.item.name}: CLI {op.command} exited {code}")
        return
    item = op.item
    if op.command == "compile":
        chk.expect(collapse(stdout) == item.flat_expected, f"{item.name}: CLI compile output")
    elif op.command == "check":
        chk.expect("matches" in stdout, f"{item.name}: CLI check output")
    else:
        row = json.loads(stdout)
        got = (row["vocabulary_nsra"], row["length_nsra"], row["vocabulary_ql"], row["length_ql"])
        want = item.want[2]
        chk.expect(got == want, f"{item.name}: CLI metrics {got} != {want}")


def verify_cli(wl: Workload, chk: Checker, launcher: Launcher) -> None:
    """The CLI operations checked once per run, outside the counts: a
    nonzero exit or a wrong output makes the run incorrect."""
    for op in wl.cli_checks:
        code, stdout, _, _ = launcher.run(cli_argv(op))
        probe = Checker()
        check_cli_output(probe, op, code, stdout)
        chk.expect(probe.correct and probe.failed == 0, f"{op.item.name}: checked CLI {op.command}")


# --- setup ---------------------------------------------------------------------


def setup(workload: str, seed: int, work: Path):
    nsra = import_program()
    wl = build_workload(workload, seed, work)
    program = Program(nsra)
    nsra.builtin_crypto_profile()
    warm = wl.warm
    program.compile(warm)
    program.check(warm)
    program.metrics(warm)
    return program, wl


def timed_setup(workload: str, seed: int, work: Path, times: list):
    gc.collect()
    t0 = time.perf_counter()
    program, wl = setup(workload, seed, work)
    times.append(time.perf_counter() - t0)
    return program, wl


def first_setup(workload: str, seed: int, work: Path, times: list):
    program, wl = timed_setup(workload, seed, work, times)
    # The inputs live for the whole run; keep the collector from rescanning
    # them, as it never would in a compiler process of its own.
    gc.collect()
    gc.freeze()
    return program, wl


# --- untraced run --------------------------------------------------------------


class Samples:
    """Every time an operation took, keyed by (kind, operation index).

    An operation's time in a run is its best over the rounds, as ``timeit``
    reports it: the host's own slowdowns only ever add time, and a run of
    several rounds sees some of them unslowed. The metrics take medians and
    sums over the operations' best times.
    """

    def __init__(self):
        self.times: dict = defaultdict(list)
        self.cli_rss = 0.0

    def best(self, kind: str) -> list:
        return [min(ts) for (k, _), ts in self.times.items() if k == kind]


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def in_process_item(program: Program, i: int, item: Item, chk: Checker, s: Samples) -> None:
    chk.attempted += 3
    out, dt = timed(program.compile, item)
    s.times["compile", i].append(dt)
    chk.expect(collapse(out) == item.flat_expected, f"{item.name}: compile output")
    same, dt = timed(program.check, item)
    s.times["check", i].append(dt)
    chk.expect(same, f"{item.name}: check")
    (hn, hq, row), dt = timed(program.metrics, item)
    s.times["metrics", i].append(dt)
    check_metrics(chk, item, hn, hq, row)


def untraced_round(program: Program, wl: Workload, chk: Checker, s: Samples, launcher: Launcher) -> None:
    """Every item once, in CLI_PASSES slices, each slice followed by every
    CLI operation; then the compiles that fail today."""
    n = len(wl.items)
    for p in range(CLI_PASSES):
        for i in range(p * n // CLI_PASSES, (p + 1) * n // CLI_PASSES):
            in_process_item(program, i, wl.items[i], chk, s)
        cli_round(wl, chk, s, launcher)
    for item in wl.failing:
        attempt_failing(chk, item, program.compile, program.nsra.SourceError)


def cli_round(wl: Workload, chk: Checker, s: Samples, launcher: Launcher) -> None:
    for j, op in enumerate(wl.cli_ops):
        chk.attempted += 1
        code, stdout, dt, rss = launcher.run(cli_argv(op))
        s.cli_rss = max(s.cli_rss, rss)
        if code == 0:
            s.times["cli-" + op.command, j].append(dt)
        check_cli_output(chk, op, code, stdout)


def token_rates(wl: Workload, s: Samples) -> dict:
    """Tokens per second of best time: source tokens compiled, QL tokens
    normalized (output and reference) and tokens counted, all counted by the
    generator's lexers."""
    src = [item.src_tokens for item in wl.items]
    ref = [len(gen.ql_tokens(item.reference)) for item in wl.items]
    out = [len(gen.ql_tokens(item.expected)) for item in wl.items]
    tokens = {"compile": sum(src), "check": sum(out) + sum(ref), "metrics": sum(src) + sum(ref)}
    return {kind: n / sum(s.best(kind)) for kind, n in tokens.items()}


def tail(samples: list) -> float:
    """The highest percentile with at least ten samples beyond it; with
    fewer than forty samples there is no tail, so the median."""
    if len(samples) < 40:
        return statistics.median(samples)
    return sorted(samples)[-11]


def peak_alloc_mb(program: Program, wl: Workload) -> float:
    """tracemalloc peak over one compile, check and metrics pass on the
    workload's largest query, which the timed rounds have already run."""
    item = max(wl.items, key=lambda i: i.src_tokens)
    gc.collect()
    tracemalloc.start()
    try:
        program.compile(item)
        program.check(item)
        program.metrics(item)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def verify(program: Program, wl: Workload, chk: Checker) -> None:
    """Checks too costly for every operation, made once per input after the
    timed rounds: stage outputs against compile_text, the render/read round
    trip, the declarations, and the other phrasing."""
    for item in wl.items:
        ir, out = program.staged_compile(item)
        chk.expect(out == program.compile(item), f"{item.name}: staged compile differs from compile_text")
        chk.expect(program.mods["qlgen"].read_query_text(out) == ir, f"{item.name}: render/read round trip")
        decls = tuple((d.ql_type, d.var_name) for d in ir.decls)
        chk.expect(decls == item.decls, f"{item.name}: declarations {decls}")
        if item.alt_text is not None:
            alt = Item(item.name + "/alt", item.alt_text, item.expected, item.reference, item.terms, item.decls, item.profile)
            chk.expect(collapse(program.compile(alt)) == item.flat_expected, f"{alt.name}: paraphrase QL")
            hn = program.nsra.halstead_nsra(alt.text, program.registry(alt))
            chk.expect(counts(hn) == gen.halstead(item.terms), f"{alt.name}: paraphrase Halstead counts")


def run_untraced(workload: str, seed: int, seconds: float, work: Path, launcher: Launcher) -> dict:
    setup_times: list = []
    program, wl = first_setup(workload, seed, work, setup_times)
    chk, s = Checker(), Samples()
    t0 = time.perf_counter()
    while not s.times or time.perf_counter() - t0 < seconds:
        untraced_round(program, wl, chk, s, launcher)
        # One more set-up after each round, its result thrown away: set-ups
        # spread over the run see the machine's fast and slow stretches in
        # the same proportion as the timed operations do.
        timed_setup(workload, seed, work, setup_times)
    verify(program, wl, chk)
    verify_cli(wl, chk, launcher)
    rates = token_rates(wl, s)
    ms = lambda kind: statistics.median(s.best(kind)) * 1e3  # noqa: E731
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "compile_ms": (ms("compile"), "ms"),
        "compile_tail_ms": (tail(s.best("compile")) * 1e3, "ms"),
        "check_ms": (ms("check"), "ms"),
        "metrics_ms": (ms("metrics"), "ms"),
        "compile_tokens_per_s": (rates["compile"], "1/s"),
        "check_tokens_per_s": (rates["check"], "1/s"),
        "metrics_tokens_per_s": (rates["metrics"], "1/s"),
        "cli_compile_ms": (ms("cli-compile"), "ms"),
        "cli_check_ms": (ms("cli-check"), "ms"),
        "cli_metrics_ms": (ms("cli-metrics"), "ms"),
        "cli_peak_rss_mb": (s.cli_rss, "MB"),
        "peak_alloc_mb": (peak_alloc_mb(program, wl), "MB"),
    }
    return result(chk, metrics)


# --- traced run ----------------------------------------------------------------


def staged_round(program: Program, wl: Workload, tr, chk: Checker | None = None, expected_out=None) -> None:
    """The in-process operations, called stage by stage under spans; with
    ``chk`` None it only spends the time (the baseline for the overhead)."""
    for item in wl.items:
        with tr.span("compile"):
            _, out = program.staged_compile(item)
        with tr.span("check"):
            checked = program.staged_check(item)
        with tr.span("metrics"):
            hn, hq, row = program.metrics(item)
        if chk is not None:
            chk.attempted += 3
            chk.expect(out == expected_out[item.name], f"{item.name}: staged compile differs from compile_text")
            chk.expect(collapse(out) == item.flat_expected, f"{item.name}: compile output")
            chk.expect(checked, f"{item.name}: check or render/read round trip")
            check_metrics(chk, item, hn, hq, row)


def traced_compile(program: Program, tr):
    def compile_fn(item: Item) -> str:
        with tr.span("compile"):
            return program.staged_compile(item)[1]

    return compile_fn


def cli_run_round(program: Program, wl: Workload, chk: Checker, tr) -> None:
    cli = program.mods["cli"]
    for op in wl.cli_ops:
        chk.attempted += 1
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), tr.span("cli.run"):
            code = cli.run(op.args)
        check_cli_output(chk, op, code, stdout.getvalue())


IMPORT_PROBE = "import time; t = time.perf_counter(); import nsra.cli; print((time.perf_counter() - t) * 1e3)"


def run_traced(workload: str, seed: int, seconds: float, work: Path, launcher: Launcher) -> dict:
    program, wl = first_setup(workload, seed, work, [])
    expected_out = {item.name: program.compile(item) for item in wl.items}
    chk = Checker()
    tr = tracing.Tracer()
    import_ms, traced_s, plain_s = [], [], []
    rounds = 0
    t0 = time.perf_counter()
    while rounds == 0 or time.perf_counter() - t0 < seconds:
        with tr.installed():
            t1 = time.perf_counter()
            staged_round(program, wl, tr, chk, expected_out)
            traced_s.append(time.perf_counter() - t1)
            for item in wl.failing:
                attempt_failing(chk, item, traced_compile(program, tr), program.nsra.SourceError)
            cli_run_round(program, wl, chk, tr)
        t1 = time.perf_counter()
        staged_round(program, wl, tracing.NullTracer())
        plain_s.append(time.perf_counter() - t1)
        for _ in range(2):
            code, stdout, _, _ = launcher.run([sys.executable, "-c", IMPORT_PROBE])
            if code != 0:
                raise RuntimeError("import nsra.cli failed in a fresh interpreter")
            import_ms.append(float(stdout))
        rounds += 1
    verify(program, wl, chk)
    verify_cli(wl, chk, launcher)
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"trace-{workload}-{seed}.json")
    metrics = {name: (value, unit) for name, (value, unit) in tr.layer_metrics(rounds).items()}
    metrics["cli.import.ms"] = (statistics.median(import_ms), "ms")
    overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1
    metrics["trace.overhead_pct"] = (overhead * 100, "%")
    return result(chk, metrics)


# --- main ----------------------------------------------------------------------


def result(chk: Checker, metrics: dict) -> dict:
    return {
        "correct": chk.correct,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in (SRC / "nsra" / "__init__.py", GOLDEN) if not p.exists()]
    if missing:
        print(f"error: not a checkout of the compiler; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    run = run_traced if args.trace else run_untraced
    try:
        with Launcher(work) as launcher:
            res = run(args.workload, args.seed, args.seconds, work, launcher)
    finally:
        for f in work.glob("*"):
            f.unlink()
        with contextlib.suppress(OSError):
            work.rmdir()
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
