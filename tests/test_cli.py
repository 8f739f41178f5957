"""Command-line surface: output shapes and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pegfold
import pegfold.cli
import pegfold.interp
from pegfold.cli import run

MATH = """Expr = Sum
Sum = Product {@ ( '+' #add / '-' #sub ) @Product }*
Product = Value {@ ( '*' #mul / '/' #div) @Value }*
Value = { [0-9]+ #Integer } / '(' Expr ')'
"""


@pytest.fixture
def math_peg(tmp_path):
    path = tmp_path / "math.peg"
    path.write_text(MATH)
    return str(path)


def write_input(tmp_path, data):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    return str(path)


def test_check_clean_grammar(math_peg, capsys):
    assert run(["check", math_peg]) == 0
    out = capsys.readouterr().out
    assert out == "4 productions, 2 memo points\n"


def test_check_reports_diagnostics_and_fails(tmp_path, capsys):
    path = tmp_path / "bad.peg"
    path.write_text("Pair = {@Expr ',' @Term #Pair }\nExpr = Pair / Term\nTerm = { [A-z]+ #Term }\n")
    assert run(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "error left-recursion" in out


def test_check_warnings_do_not_fail(tmp_path, capsys):
    path = tmp_path / "warn.peg"
    path.write_text("A = #t 'x'\n")
    assert run(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "warning tag-outside-constructor A:" in out
    assert "1 productions" in out


def test_check_missing_file_is_io_error(capsys):
    assert run(["check", "/nonexistent/g.peg"]) == 2
    assert "cannot read grammar" in capsys.readouterr().err


def test_check_syntax_error(tmp_path, capsys):
    path = tmp_path / "syn.peg"
    path.write_text("A = (")
    assert run(["check", str(path)]) == 1
    assert "error syntax" in capsys.readouterr().err


def test_parse_prints_tree(math_peg, tmp_path, capsys):
    assert run(["parse", math_peg, write_input(tmp_path, b"1+2*3")]) == 0
    out = capsys.readouterr().out
    assert out == "#add[#Integer['1'] #mul[#Integer['2'] #Integer['3']]]\n"


def test_parse_reports_grammar_errors_before_reading_input(tmp_path, capsys):
    path = tmp_path / "bad.peg"
    path.write_text("A = A 'x'\n")
    for command in ("parse", "bench"):
        assert run([command, str(path), "/nonexistent/input"]) == 1
        err = capsys.readouterr().err
        assert "error left-recursion A:" in err
        assert "cannot read input" not in err


@pytest.mark.parametrize("command", [["parse"], ["bench", "--iterations", "1"]])
def test_parse_and_bench_validate_the_grammar_once(command, math_peg, tmp_path, monkeypatch):
    calls = []
    for module in (pegfold.cli, pegfold.interp):
        original = module.validate

        def counted(grammar, _original=original):
            calls.append(grammar)
            return _original(grammar)

        monkeypatch.setattr(module, "validate", counted)
    data = write_input(tmp_path, b"1+2")
    assert run([command[0], math_peg, data, *command[1:]]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("module", ["pegfold", "pegfold.cli"])
def test_runs_as_a_module(module, math_peg, tmp_path):
    source_root = str(Path(pegfold.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source_root, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", module, "parse", math_peg, write_input(tmp_path, b"1+2*3")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "#add[#Integer['1'] #mul[#Integer['2'] #Integer['3']]]\n"


def test_parse_stats_block(math_peg, tmp_path, capsys):
    assert run(["parse", math_peg, write_input(tmp_path, b"7"), "--stats"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "#Integer['7']"
    stats = dict(line.split(": ") for line in out[1:])
    assert stats["consumed"] == "1"
    assert stats["backtrack_ratio"] == "0"
    assert stats["nodes_unused"] == "0"


def test_parse_json_format(math_peg, tmp_path, capsys):
    assert run(["parse", math_peg, write_input(tmp_path, b"1+2"), "--format", "json", "--stats"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ast"]["tag"] == "add"
    assert payload["consumed"] == 3
    assert payload["stats"]["consumed"] == 3
    assert [c["text"] for c in payload["ast"]["children"]] == ["1", "2"]


def test_parse_failure_exit_and_position(math_peg, tmp_path, capsys):
    assert run(["parse", math_peg, write_input(tmp_path, b"+")]) == 1
    assert "byte offset 0" in capsys.readouterr().err


def test_parse_strict_rejects_trailing_input(math_peg, tmp_path, capsys):
    data = write_input(tmp_path, b"1+2;rest")
    assert run(["parse", math_peg, data]) == 0
    capsys.readouterr()
    assert run(["parse", math_peg, data, "--strict"]) == 1
    assert "unconsumed" in capsys.readouterr().err


def test_parse_start_override(tmp_path, capsys):
    path = tmp_path / "g.peg"
    path.write_text("A = 'a'\nB = { 'b' #B }\n")
    data = write_input(tmp_path, b"b")
    assert run(["parse", str(path), data, "--start", "B"]) == 0
    assert capsys.readouterr().out == "#B['b']\n"


def test_parse_stdin(math_peg, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": io.BytesIO(b"8*9")})())
    assert run(["parse", math_peg, "-"]) == 0
    assert capsys.readouterr().out == "#mul[#Integer['8'] #Integer['9']]\n"


def test_parse_output_is_deterministic(math_peg, tmp_path, capsys):
    data = write_input(tmp_path, b"(1+2)*3")
    run(["parse", math_peg, data, "--stats"])
    first = capsys.readouterr().out
    run(["parse", math_peg, data, "--stats"])
    assert capsys.readouterr().out == first


def test_no_memo_changes_stats_not_output(math_peg, tmp_path, capsys):
    data = write_input(tmp_path, b"(1+2)*3-4")
    run(["parse", math_peg, data, "--stats"])
    with_memo = capsys.readouterr().out.splitlines()
    run(["parse", math_peg, data, "--stats", "--no-memo"])
    without = capsys.readouterr().out.splitlines()
    assert with_memo[0] == without[0]
    lookups = dict(line.split(": ") for line in without[1:])["memo_lookups"]
    assert lookups == "0"
    assert dict(line.split(": ") for line in with_memo[1:])["memo_lookups"] != "0"


def test_bench_reports_both_modes_and_ratio(math_peg, tmp_path, capsys):
    data = write_input(tmp_path, b"(1+2)*3-4*5")
    assert run(["bench", math_peg, data, "--iterations", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("recognize_best_s: ")
    assert out[1].startswith("ast_best_s: ")
    assert out[2].startswith("ast_recognize_ratio: ")


def test_bench_single_mode(math_peg, tmp_path, capsys):
    data = write_input(tmp_path, b"1*2")
    assert run(["bench", math_peg, data, "--iterations", "2", "--mode", "ast"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("ast_best_s: ")


def test_bench_recognize_not_slower_sanity(math_peg, tmp_path, capsys):
    data = write_input(tmp_path, b"(1+2)*3-4*(5+6)/7" * 200)
    assert run(["bench", math_peg, data, "--iterations", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    recognize = float(out[0].split(": ")[1])
    ast = float(out[1].split(": ")[1])
    assert recognize <= ast


def test_bench_input_io_error(math_peg, capsys):
    assert run(["bench", math_peg, "/nonexistent/input"]) == 2
    assert "cannot read input" in capsys.readouterr().err


def test_parse_right_nested_pairs_golden(tmp_path, capsys):
    path = tmp_path / "pairs.peg"
    path.write_text(
        "Expr = Pair / Term\nPair =  {@Term ',' @Expr #Pair }\nTerm = { [A-z] #Term }\n"
    )
    assert run(["parse", str(path), write_input(tmp_path, b"A,B,C,D")]) == 0
    out = capsys.readouterr().out
    assert out == "#Pair[#Term['A'] #Pair[#Term['B'] #Pair[#Term['C'] #Term['D']]]]\n"


def test_parse_deterministic_grammar_stats_golden(tmp_path, capsys):
    path = tmp_path / "csv.peg"
    path.write_text(
        "File = { #File (@Row)* }\n"
        "Row = { #Row @Cell (',' @Cell)* } '\\n'\n"
        "Cell = { #Cell [a-z]+ }\n"
    )
    assert run(["parse", str(path), write_input(tmp_path, b"ab,cd\nef,gh\n"), "--stats"]) == 0
    lines = capsys.readouterr().out.splitlines()
    stats = dict(line.split(": ") for line in lines[1:])
    assert stats["backtrack_ratio"] == "0"
    assert stats["nodes_unused"] == "0"
