from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import nsra
from nsra import cli, qlgen
from nsra.cli import run
from nsra.parser import MAX_NESTING
from nsra.qlgen import MAX_QL_NESTING, normalize_ql
from conftest import GOLDEN, QL_PREAMBLES, golden_text


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.delenv("NSRA_PROFILE", raising=False)
    return tmp_path


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports this checkout's ``nsra``."""
    src = str(Path(nsra.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("NSRA_PROFILE", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def test_compile_to_file_and_check(workdir, capsys):
    src = str(GOLDEN / "task2.nsra")
    out = workdir / "task2.ql"
    assert run(["compile", src, "-o", str(out)]) == 0
    assert normalize_ql(out.read_text()) == normalize_ql(golden_text("task2.ql"))
    assert run(["check", src, "--golden", str(GOLDEN / "task2.ql")]) == 0
    assert "matches" in capsys.readouterr().out


def test_compile_to_stdout(workdir, capsys):
    src = str(GOLDEN / "example_invoke.nsra")
    assert run(["compile", src]) == 0
    out = capsys.readouterr().out
    assert out.startswith("from MethodAccess init")


def test_compile_parse_error_diagnostics(workdir, capsys):
    bad = write(workdir / "bad.nsra", "getInstance precede init.")
    assert run(["compile", bad, "-o", str(workdir / "bad.ql")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}:1:")
    assert ": error: " in err
    assert "Traceback" not in err


def test_compile_rejects_non_decimal_digit_at_its_position(workdir, capsys):
    bad = write(workdir / "bad.nsra", "An object of Cipher invokes init.\nThe first argument of init is ².\n")
    assert run(["compile", bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}:2:31: error: illegal character '²'")
    assert "Traceback" not in err


LONG_INT = "1" * 5000  # past the 4300 digits ``int`` reads from text


def test_over_long_integer_is_an_error_at_it(workdir, capsys):
    query = write(workdir / "q.nsra", f"An object of Cipher invokes init.\nThe first argument of init is {LONG_INT}.\n")
    golden = write(workdir / "g.ql", f"from MethodAccess init\nwhere init.getArgument(0) = {LONG_INT}\nselect init\n")
    example = str(GOLDEN / "example_invoke.nsra")
    for argv, where in [
        (["compile", query], f"{query}:2:31"),
        (["metrics", query, "--ql", str(GOLDEN / "example_invoke.ql")], f"{query}:2:31"),
        (["metrics", example, "--ql", golden], f"{golden}:2:29"),
        (["check", example, "--golden", golden], f"{golden}:2:29"),
    ]:
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == f"{where}: error: integer literal of more than 4300 digits\n", argv


@pytest.mark.parametrize(
    "argument, message",
    [("-", "unexpected '-' in template arguments"), ("²", "unexpected '²' in template arguments"),
     (LONG_INT, "integer literal of more than 4300 digits")],
)
def test_profile_integer_errors_point_at_the_literal(workdir, capsys, argument, message):
    profile = write(workdir / "p.profile", f"# extra\nargument2 =  getArgument({argument})\n")
    example = str(GOLDEN / "example_invoke.nsra")
    for argv in (["compile", example], ["check", example, "--golden", example], ["metrics", example, "--ql", example]):
        assert run([*argv, "--profile", profile]) == 1
        assert capsys.readouterr().err == f"{profile}:2:26: error: {message}\n"


@pytest.mark.parametrize(
    "line, where, message",
    [
        ("[rulez]", "2:1", "unknown section [rulez]"),
        ("receiver getReceiverType()", "2:1", "expected 'name = value'"),
        ("Name = getOther()", "2:1", "attribute 'name' defined twice in one profile"),
        ('mode = splitAt("/" 1)', "2:20", "unexpected '1' in template arguments"),
        ("argument2 = getArgument(1", "2:26", "unterminated argument list for 'argument2'"),
    ],
)
def test_every_profile_error_is_printed_at_file_line_col(workdir, capsys, line, where, message):
    profile = write(workdir / "p.profile", f"name = getName()  # one\n{line}\n")
    assert run(["compile", str(GOLDEN / "example_invoke.nsra"), "--profile", profile]) == 1
    assert capsys.readouterr().err == f"{profile}:{where}: error: {message}\n"


def test_metrics_diagnostic_points_into_the_query(workdir, capsys):
    bad = write(workdir / "bad.nsra", 'An object of Cipher invokes init.\nThe name of init is "x.\n')
    ref = str(GOLDEN / "example_invoke.ql")
    assert run(["metrics", bad, "--ql", ref]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}:2:21: error: ")
    assert "unterminated" in err


def test_metrics_rejects_a_query_that_does_not_parse(workdir, capsys):
    bad = write(workdir / "bad.nsra", "An object of Cipher invokes init.\nthe the the.\n")
    assert run(["metrics", bad, "--ql", str(GOLDEN / "example_invoke.ql")]) == 1
    assert capsys.readouterr() == ("", f"{bad}:2:12: error: unexpected '.' (expected is)\n")


def test_metrics_rejects_a_query_that_does_not_compile(workdir, capsys):
    """``metrics`` lowers the query as ``compile`` does, and fails with its diagnostic."""
    bad = write(workdir / "bad.nsra", 'An object of Cipher invokes init. The x of init is "AES".')
    ref = str(GOLDEN / "example_invoke.ql")
    assert run(["compile", bad]) == 1
    compiled = capsys.readouterr()
    assert compiled.err.startswith(f"{bad}:1:1: error: unknown attribute 'x'; ")
    assert run(["metrics", bad, "--ql", ref]) == 1
    assert capsys.readouterr() == compiled


def test_metrics_diagnostic_points_into_the_ql_file(workdir, capsys):
    src = str(GOLDEN / "example_invoke.nsra")
    bad = write(workdir / "bad.ql", 'from MethodAccess init\nwhere init.getName() = "x\n')
    assert run(["metrics", src, "--ql", bad]) == 1
    assert capsys.readouterr().err.startswith(f"{bad}:2:24: error: ")


def test_metrics_reads_the_ql_file_as_check_reads_a_golden(workdir, capsys):
    """A reference that lexes but is no query has no counts: ``metrics``
    fails with the diagnostic ``check`` gives for it as a golden."""
    src = str(GOLDEN / "example_invoke.nsra")
    bad = write(workdir / "bad.ql", ") ( where where = = select")
    assert run(["metrics", src, "--ql", bad]) == 1
    assert capsys.readouterr() == ("", f"{bad}:1:1: error: expected select, found ')'\n")
    assert run(["check", src, "--golden", bad]) == 1
    assert capsys.readouterr() == ("", f"{bad}:1:1: error: expected select, found ')'\n")


def test_failed_compile_leaves_no_output(workdir):
    bad = write(workdir / "bad.nsra", "this is not a query")
    target = workdir / "bad.ql"
    run(["compile", bad, "-o", str(target)])
    assert not target.exists()


def test_failed_compile_keeps_existing_output(workdir):
    bad = write(workdir / "bad.nsra", "this is not a query")
    target = workdir / "bad.ql"
    target.write_text("previous contents")
    run(["compile", bad, "-o", str(target)])
    assert target.read_text() == "previous contents"


def test_batch_compile_isolates_failures(workdir, capsys):
    good = write(workdir / "good.nsra", "An object of Cipher invokes init.")
    bad = write(workdir / "bad.nsra", "nonsense everywhere.")
    assert run(["compile", good, bad]) == 1
    captured = capsys.readouterr()
    assert (workdir / "good.ql").exists()
    assert not (workdir / "bad.ql").exists()
    assert f"{good}: ok" in captured.err
    assert f"{bad}: error" in captured.err


@pytest.mark.parametrize("rule", sorted(p.stem for p in (GOLDEN / "rules").glob("*.nsra")))
def test_rule_golden(rule, workdir, capsys):
    query, golden = GOLDEN / "rules" / f"{rule}.nsra", GOLDEN / "rules" / f"{rule}.ql"
    assert normalize_ql(nsra.compile_text(query.read_text(encoding="utf-8"))) == normalize_ql(golden.read_text())
    assert run(["check", str(query), "--golden", str(golden)]) == 0
    assert "matches" in capsys.readouterr().out


def test_batch_compile_all_good(workdir):
    paths = []
    for name in ("task1", "task2", "task3"):
        paths.append(write(workdir / f"{name}.nsra", golden_text(f"{name}.nsra")))
    assert run(["compile", *paths]) == 0
    for name in ("task1", "task2", "task3"):
        compiled = (workdir / f"{name}.ql").read_text()
        assert normalize_ql(compiled) == normalize_ql(golden_text(f"{name}.ql"))


def test_output_flag_with_multiple_inputs_is_usage_error(workdir):
    a = write(workdir / "a.nsra", "An object of Cipher invokes init.")
    b = write(workdir / "b.nsra", "An object of Cipher invokes init.")
    assert run(["compile", a, b, "-o", str(workdir / "out.ql")]) == 2


def test_no_inputs_is_usage_error(capsys):
    assert run(["compile"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["explode"]) == 2
    capsys.readouterr()


def test_emit_ir(workdir, capsys):
    src = str(GOLDEN / "example_invoke.nsra")
    assert run(["compile", src, "--emit", "ir"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("decl MethodAccess init")
    assert "select init" in out


def test_header_prepended(workdir, capsys):
    src = str(GOLDEN / "example_invoke.nsra")
    header = "/** @name find init */"
    assert run(["compile", src, "--header", header]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == header
    assert out.splitlines()[1].startswith("from ")


def test_compile_reports_header_error_and_writes_nothing(workdir, capsys):
    """``compile`` reads ``--header`` as ``check`` does, before it writes any output."""
    src = str(GOLDEN / "example_invoke.nsra")
    target = workdir / "out.ql"
    for header, message in [
        ("import a.", "expected ident, found 'end'"),
        ("from T t", "expected import, found 'from'"),
    ]:
        assert run(["compile", src, "--header", header, "-o", str(target)]) == 1
        assert capsys.readouterr() == ("", f"error: --header: {message}\n")
        assert not target.exists()


def test_header_with_emit_ir_is_a_usage_error(workdir, capsys):
    src = str(GOLDEN / "example_invoke.nsra")
    assert run(["compile", src, "--emit", "ir", "--header", "import java"]) == 2
    assert capsys.readouterr() == ("", "error: --header needs --emit ql\n")


def test_compiled_header_checks_with_the_same_header(workdir, capsys):
    src = str(GOLDEN / "task1.nsra")
    header = "/** @name q */\nimport java"
    out = workdir / "task1.ql"
    assert run(["compile", src, "--header", header, "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith(header + "\nfrom ")
    assert run(["check", src, "--golden", str(out), "--header", header]) == 0
    assert capsys.readouterr().out == f"{src}: matches {out}\n"


def test_profile_flag(workdir, capsys):
    profile = write(workdir / "p.profile", "receiver = getReceiverType()")
    query = write(
        workdir / "q.nsra",
        'An object of Cipher invokes init. the receiver of init is "Cipher".',
    )
    assert run(["compile", query, "--profile", profile]) == 0
    assert "init.getReceiverType()" in capsys.readouterr().out


def test_profile_flag_capitalized_rule(workdir, capsys):
    profile = write(workdir / "p.profile", "Receiver = getReceiverType()")
    query = write(
        workdir / "q.nsra",
        'An object of Cipher invokes init. The Receiver of init is "Cipher".',
    )
    assert run(["compile", query, "--profile", profile]) == 0
    assert 'init.getReceiverType().toString() = "Cipher"' in capsys.readouterr().out


@pytest.mark.parametrize(
    "task, header", [("task2", "/** @name task2 @kind problem */"), ("task1", "import java")]
)
def test_check_with_header(workdir, capsys, task, header):
    src = str(GOLDEN / f"{task}.nsra")
    golden = write(workdir / f"{task}.ql", header + "\n" + golden_text(f"{task}.ql"))
    assert run(["check", src, "--golden", golden, "--header", header]) == 0
    assert "matches" in capsys.readouterr().out


def test_check_reports_golden_syntax_error(workdir, capsys):
    src = str(GOLDEN / "example_invoke.nsra")
    golden = write(workdir / "bad.ql", 'from MethodAccess init\nwhere init.getName() = = "x"\nselect init\n')
    assert run(["check", src, "--golden", golden]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{golden}:2:24: error: unexpected '=' in value position")
    assert "Traceback" not in err


def test_check_reports_header_error(workdir, capsys):
    """The header is read on its own, as import lines and comments, and an
    error is the reader's message at the header's own token."""
    src = str(GOLDEN / "example_invoke.nsra")
    golden = str(GOLDEN / "example_invoke.ql")
    for header, message in [
        ("/* never closed", "unterminated comment"),
        ("import a.", "expected ident, found 'end'"),  # not the query's 'from' joined to the name
        ('"abc', "unterminated string literal"),  # not a string run into the query
        ("import java\nfrom T t", "expected import, found 'from'"),
    ]:
        assert run(["check", src, "--golden", golden, "--header", header]) == 1
        assert capsys.readouterr() == ("", f"error: --header: {message}\n")


@pytest.mark.parametrize("header", [None, "import java"])
def test_check_reads_the_golden_once_and_renders_only_on_a_mismatch(workdir, capsys, header):
    """A match scans the golden and the header, once each and with the
    reader's scan alone, and renders nothing; a mismatch renders each side
    once, for the diff."""
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append((name, *args[:1]))
            return fn(*args, **kwargs)

        return call

    src = str(GOLDEN / "task1.nsra")
    reference = (f"{header}\n" if header else "") + golden_text("task1.ql")
    golden = write(workdir / "task1.ql", reference)
    other = write(workdir / "other.ql", "import java\nselect 1\n")
    extra = ["--header", header] if header else []
    with contextlib.ExitStack() as stack:
        for module in (qlgen, cli):
            for name in ("lex_ql", "lex_ql_runs", "render", "normalize_ql"):
                if hasattr(module, name):
                    stack.enter_context(mock.patch.object(module, name, counted(name, getattr(module, name))))
        assert run(["check", src, "--golden", golden, *extra]) == 0
        assert calls == [("lex_ql_runs", reference)] + [("lex_ql_runs", header)] * bool(header)
        calls.clear()
        assert run(["check", src, "--golden", other, *extra]) == 1
    assert [name for name, *_ in calls] == ["lex_ql_runs"] * (1 + bool(header)) + ["render", "render"]
    capsys.readouterr()


def test_profile_env_var(workdir, capsys, monkeypatch):
    profile = write(workdir / "p.profile", "receiver = getReceiverType()")
    query = write(
        workdir / "q.nsra",
        'An object of Cipher invokes init. the receiver of init is "Cipher".',
    )
    monkeypatch.setenv("NSRA_PROFILE", profile)
    assert run(["compile", query]) == 0
    assert "getReceiverType" in capsys.readouterr().out


def test_check_mismatch_exits_one(workdir, capsys):
    query = write(workdir / "q.nsra", "An object of Cipher invokes init.")
    golden = write(workdir / "ref.ql", 'from MethodAccess x\nwhere x.getName() = "y"\nselect x')
    assert run(["check", query, "--golden", golden]) == 1
    err = capsys.readouterr().err
    assert "does not match" in err
    assert f"--- {golden}" in err.splitlines()
    assert f"+++ {query}" in err.splitlines()


def test_metrics_text_output(capsys):
    src = str(GOLDEN / "task3.nsra")
    ref = str(GOLDEN / "task3.ql")
    assert run(["metrics", src, "--ql", ref]) == 0
    out = capsys.readouterr().out
    assert "length reduction" in out


def test_metrics_json_output(workdir, capsys):
    src = str(GOLDEN / "task3.nsra")
    outputs = []
    for i, preamble in enumerate(QL_PREAMBLES):
        ref = write(workdir / f"task3_{i}.ql", preamble + golden_text("task3.ql"))
        assert run(["metrics", src, "--ql", ref, "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    data = json.loads(outputs[0])
    assert data["length_nsra"] == 56
    assert 85.0 <= data["length_reduction_pct"] <= 90.0
    assert outputs == [outputs[0]] * len(QL_PREAMBLES)


def test_compile_deterministic(workdir):
    src = str(GOLDEN / "task1.nsra")
    out1, out2 = workdir / "a.ql", workdir / "b.ql"
    assert run(["compile", src, "-o", str(out1)]) == 0
    assert run(["compile", src, "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_missing_input_reports_error(workdir, capsys):
    missing = str(workdir / "absent.nsra")
    assert run(["compile", missing, "-o", str(workdir / "x.ql")]) == 1
    assert "error" in capsys.readouterr().err


def test_import_leaves_rare_modules_unloaded():
    probe = "import sys, nsra.cli; print(sorted({'logging', 'difflib', 'json'} & set(sys.modules)))"
    proc = fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_import_loads_no_dataclasses_inspect_or_typing():
    # ``-S``: a ``site`` that runs ``.pth`` files may load ``typing`` itself.
    probe = "import sys, nsra.cli; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    proc = fresh_python("-S", "-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_compile_warns_about_a_type_without_alias(workdir):
    query = write(
        workdir / "q.nsra",
        'An object of Cipher invokes init. The type of the second argument of init is "SecretKeySpec".',
    )
    proc = fresh_python("-m", "nsra.cli", "compile", query)
    assert proc.returncode == 0, proc.stderr
    assert 'getType().toString() = "SecretKeySpec"' in proc.stdout
    assert "no qualified-name alias for type 'SecretKeySpec'; using it as written" in proc.stderr
    # metrics lowers the query too, so it warns as compile does.
    proc = fresh_python("-m", "nsra.cli", "metrics", query, "--ql", str(GOLDEN / "example_invoke.ql"))
    assert proc.returncode == 0, proc.stderr
    assert "no qualified-name alias for type 'SecretKeySpec'; using it as written" in proc.stderr


@pytest.mark.parametrize("command", ["compile", "check", "metrics"])
def test_missing_file_is_an_error_not_a_traceback(workdir, capsys, command):
    missing = str(workdir / "absent")
    query = str(GOLDEN / "task1.nsra")
    argv = {
        "compile": ["compile", missing],
        "check": ["check", missing, "--golden", str(GOLDEN / "task1.ql")],
        "metrics": ["metrics", missing, "--ql", str(GOLDEN / "task1.ql")],
    }[command]
    assert run(argv) == 1
    assert f"error: [Errno 2] No such file or directory: '{missing}'" in capsys.readouterr().err
    assert run([command, query, *argv[2:], "--profile", missing]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


@pytest.mark.parametrize("command", ["compile", "check", "metrics"])
def test_query_that_is_not_utf8_is_an_error_not_a_traceback(workdir, capsys, command):
    query = workdir / "latin1.nsra"
    query.write_bytes('An object of Cipher invokes init. The name of init is "café".'.encode("latin-1"))
    argv = {
        "compile": ["compile", str(query)],
        "check": ["check", str(query), "--golden", str(GOLDEN / "task1.ql")],
        "metrics": ["metrics", str(query), "--ql", str(GOLDEN / "task1.ql")],
    }[command]
    assert run(argv) == 1
    prefix = f"{query}: " if command == "compile" else ""
    message = f"{prefix}error: '{query}' is not UTF-8: invalid continuation byte at byte offset 58\n"
    assert capsys.readouterr() == ("", message)
    assert run(["compile", str(GOLDEN / "task1.nsra"), "--profile", str(query)]) == 1
    assert capsys.readouterr().err == message.removeprefix(prefix)


def test_a_utf8_byte_order_mark_is_skipped(workdir, capsys):
    """Windows Notepad starts a UTF-8 file with a byte-order mark; each kind of
    input file reads as if it had none."""

    def with_bom(name, text):
        path = workdir / name
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        return str(path)

    query, golden = str(GOLDEN / "task1.nsra"), str(GOLDEN / "task1.ql")
    bom_golden = with_bom("task1.ql", golden_text("task1.ql"))
    assert run(["compile", with_bom("task1.nsra", golden_text("task1.nsra"))]) == 0
    assert capsys.readouterr() == (nsra.compile_text(golden_text("task1.nsra")), "")
    assert run(["check", query, "--golden", bom_golden]) == 0
    assert capsys.readouterr() == (f"{query}: matches {bom_golden}\n", "")
    assert run(["metrics", query, "--ql", golden]) == 0
    plain = capsys.readouterr().out
    assert run(["metrics", query, "--ql", bom_golden]) == 0
    assert capsys.readouterr() == (plain, "")
    profile = with_bom("p.profile", "receiver = getReceiverType()")
    receiver_query = write(workdir / "r.nsra", 'An object of Cipher invokes init. the receiver of init is "Cipher".')
    assert run(["compile", receiver_query, "--profile", profile]) == 0
    assert "init.getReceiverType()" in capsys.readouterr().out


def test_output_into_a_missing_directory_is_an_error_not_a_traceback(workdir, capsys):
    out = workdir / "nodir" / "x.ql"
    assert run(["compile", str(GOLDEN / "task1.nsra"), "-o", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{out}'\n")
    assert not out.parent.exists()


def test_metrics_against_an_empty_query_is_an_error(workdir, capsys):
    ref = write(workdir / "empty.ql", "import java\n")
    assert run(["metrics", str(GOLDEN / "task1.nsra"), "--ql", ref]) == 1
    assert capsys.readouterr().err == f"{ref}:2:1: error: expected select, found 'end'\n"


def test_emit_ir_dumps_negation_existential_and_true(workdir, capsys):
    negated = write(workdir / "negated.nsra", "An object of Cipher does not invoke foo.")
    assert run(["compile", negated, "--emit", "ir"]) == 0
    assert capsys.readouterr().out == (
        "where\n"
        "  not\n"
        "    exists MethodAccess foo\n"
        "      and\n"
        '        = foo.getMethod().getName() :: "foo"\n'
        '        = foo.getReceiverType().getName() :: "Cipher"\n'
        "select 1\n"
    )
    assumed = write(workdir / "assumed.nsra", "x is a variable.")
    assert run(["compile", assumed, "--emit", "ir"]) == 0
    assert capsys.readouterr().out == "decl Variable x\nwhere\n  true\nselect x\n"


def test_nesting_too_deep_is_a_diagnostic(workdir, capsys):
    text = "An object of Cipher invokes init.\n" + "It is false that " * (MAX_NESTING + 1) + 'init is "x".\n'
    query = write(workdir / "deep.nsra", text)
    assert run(["compile", query]) == 1
    column = len("It is false that ") * MAX_NESTING + 1
    assert capsys.readouterr().err == f"{query}:2:{column}: error: phrases nested more than {MAX_NESTING} deep\n"


def _nested_golden(depth: int) -> str:
    return "from MethodAccess init\nwhere " + "not (" * depth + 'init.getName() = "a"' + ")" * depth + "\nselect init\n"


@pytest.mark.parametrize("command", ["check", "metrics"])
def test_ql_nested_at_the_limit_reads(workdir, capsys, command):
    query, ql = str(GOLDEN / "example_invoke.nsra"), write(workdir / "deep.ql", _nested_golden(MAX_QL_NESTING))
    argv = [command, query, "--golden" if command == "check" else "--ql", ql]
    assert run(argv) == (1 if command == "check" else 0)  # the golden reads, and does not match
    err = capsys.readouterr().err
    assert err.startswith(f"{query}: does not match {ql}\n--- {ql}\n") if command == "check" else err == ""
    proc = fresh_python("-m", "nsra.cli", *argv)
    assert (proc.returncode, proc.stderr) == (1 if command == "check" else 0, err)


@pytest.mark.parametrize("command", ["check", "metrics"])
def test_ql_nested_past_the_limit_is_a_diagnostic(workdir, capsys, command):
    query, ql = str(GOLDEN / "example_invoke.nsra"), write(workdir / "deep.ql", _nested_golden(MAX_QL_NESTING + 1))
    argv = [command, query, "--golden" if command == "check" else "--ql", ql]
    column = len("where ") + len("not (") * MAX_QL_NESTING + 1
    diagnostic = f"{ql}:2:{column}: error: groups nested more than {MAX_QL_NESTING} deep\n"
    assert run(argv) == 1
    assert capsys.readouterr().err == diagnostic
    proc = fresh_python("-m", "nsra.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", diagnostic)


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["compile", "{d}/good.nsra", "{d}/bad.nsra", "{d}/absent.nsra"], 1,
         "{d}/bad.nsra:1:13: error: unexpected 'precede' (expected is)\n"
         "{d}/absent.nsra: error: [Errno 2] No such file or directory: '{d}/absent.nsra'\n"
         "{d}/good.nsra: ok\n{d}/bad.nsra: error\n{d}/absent.nsra: error\n"),
        (["compile", "{d}/good.nsra", "{d}/bad.nsra", "-o", "{d}/out.ql"], 2,
         "error: -o/--output needs exactly one input file\n"),
        (["compile", "{d}/good.nsra", "{d}/bad.nsra", "--profile", "{d}/absent.profile"], 1,
         "error: [Errno 2] No such file or directory: '{d}/absent.profile'\n"),
        (["check", "{d}/bad.nsra", "--golden", "{d}/absent.ql"], 1,
         "{d}/bad.nsra:1:13: error: unexpected 'precede' (expected is)\n"),
        (["check", "{d}/good.nsra", "--golden", "{d}/absent.ql"], 1,
         "error: [Errno 2] No such file or directory: '{d}/absent.ql'\n"),
        (["check", "{d}/unknown.nsra", "--golden", "{d}/absent.ql"], 1,
         "{d}/unknown.nsra:1:1: error: unknown attribute 'x'; known attributes: "
         "algorithm, argument, method, mode, name, padding, type\n"),
        (["metrics", "{d}/unterminated.nsra", "--ql", "{d}/absent.ql"], 1,
         "error: [Errno 2] No such file or directory: '{d}/absent.ql'\n"),
        (["metrics", "{d}/unterminated.nsra", "--ql", "{d}/unterminated.ql"], 1,
         "{d}/unterminated.nsra:1:21: error: unterminated string literal\n"),
    ],
)
def test_each_failure_prints_one_diagnostic(workdir, capsys, argv, code, err):
    """A failure stops a command at the first input it reads, in argument
    order; a batch compile reports each file and then the summary."""
    write(workdir / "good.nsra", "An object of Cipher invokes init.")
    write(workdir / "bad.nsra", "getInstance precede init.")
    write(workdir / "unknown.nsra", 'An object of Cipher invokes init. The x of init is "AES".')
    write(workdir / "unterminated.nsra", 'The name of init is "x.')
    write(workdir / "unterminated.ql", 'from MethodAccess init\nwhere init.getName() = "x\n')
    assert run([arg.format(d=workdir) for arg in argv]) == code
    assert capsys.readouterr() == ("", err.format(d=workdir))


def test_metrics_lexes_the_ql_file_once(workdir, monkeypatch, capsys):
    """``metrics`` reads the ``--ql`` file as a query and counts it from one lexing."""
    ql_text = golden_text("task1.ql")
    ql = write(workdir / "q.ql", ql_text)
    lexed = []
    for name in ("lex_ql", "lex_ql_runs"):  # either scan counts
        lex = getattr(qlgen, name)
        monkeypatch.setattr(qlgen, name, lambda text, lex=lex: lexed.append(text) or lex(text))
    assert run(["metrics", str(GOLDEN / "task1.nsra"), "--ql", ql, "--json"]) == 0
    assert lexed.count(ql_text) == 1
    assert json.loads(capsys.readouterr().out)["length_ql"] == nsra.halstead_ql(ql_text).length
