from __future__ import annotations

import json

import pytest

from nsra.cli import run
from nsra.qlgen import normalize_ql
from conftest import GOLDEN, QL_PREAMBLES, golden_text


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.delenv("NSRA_PROFILE", raising=False)
    return tmp_path


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


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


def test_metrics_diagnostic_points_into_the_query(workdir, capsys):
    bad = write(workdir / "bad.nsra", 'An object of Cipher invokes init.\nThe name of init is "x.\n')
    ref = str(GOLDEN / "example_invoke.ql")
    assert run(["metrics", bad, "--ql", ref]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}:2:21: error: ")
    assert "unterminated" in err


def test_metrics_diagnostic_points_into_the_ql_file(workdir, capsys):
    src = str(GOLDEN / "example_invoke.nsra")
    bad = write(workdir / "bad.ql", 'from MethodAccess init\nwhere init.getName() = "x\n')
    assert run(["metrics", src, "--ql", bad]) == 1
    assert capsys.readouterr().err.startswith(f"{bad}:2:24: error: ")


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
    src = str(GOLDEN / "example_invoke.nsra")
    golden = str(GOLDEN / "example_invoke.ql")
    assert run(["check", src, "--golden", golden, "--header", "/* never closed"]) == 1
    assert capsys.readouterr().err == "error: --header: unterminated comment\n"


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
