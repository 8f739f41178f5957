"""Command-line surface: output shapes and exit codes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from corpus import ENGINE_STEPS, benchmark_grammars, make_corpus
from peak import writer_peak

import pegfold
import pegfold.cli
import pegfold.interp
import pegfold.tree
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
    assert capsys.readouterr().err == "error syntax <grammar>:1:6: expected an expression\n"


def test_check_an_index_of_non_ascii_digits_prints_one_line(tmp_path, capsys):
    path = tmp_path / "index.peg"
    path.write_text("A = @[²] 'b'\n", encoding="utf-8")
    assert run(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error syntax <grammar>:1:7: character class entries must be single bytes, got '²'\n"
    assert captured.out == ""


def test_check_a_grammar_nested_too_deeply_prints_one_line(tmp_path, capsys):
    path = tmp_path / "deep.peg"
    path.write_text("S = " + "(" * 400 + "'a'" + ")" * 400 + "\n")
    assert run(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error syntax <grammar>:1:5: grammar nests too deeply\n"
    assert captured.out == ""


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


@pytest.mark.parametrize(
    "command, option",
    [("parse", "--window"), ("bench", "--window"), ("bench", "--iterations")],
)
def test_a_count_option_below_one_exits_with_one_line(command, option, math_peg, tmp_path):
    source_root = str(Path(pegfold.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source_root, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "pegfold", command, math_peg, write_input(tmp_path, b"1"), option, "0"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr == f"error: {option} must be at least 1\n"
    assert done.stdout == ""


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


@pytest.mark.parametrize("command", ["parse", "bench"])
def test_commands_nest_deeper_than_the_library_and_restore_the_limit(
    command, math_peg, tmp_path, capsys
):
    # 1,000 nested parentheses take about 4,000 frames: past the default
    # recursion limit a library parse runs under, well inside the
    # command's own.
    limit = sys.getrecursionlimit()
    deep = write_input(tmp_path, b"(" * 1000 + b"1" + b")" * 1000)
    args = [command, math_peg, deep] + (["--iterations", "1"] if command == "bench" else [])
    assert run(args) == 0
    assert sys.getrecursionlimit() == limit
    capsys.readouterr()


@pytest.mark.parametrize("command", ["parse", "bench"])
def test_deep_nesting_exits_with_a_one_line_error(command, math_peg, tmp_path, capsys):
    deep = write_input(tmp_path, b"(" * 5000 + b"1" + b")" * 5000)
    assert run([command, math_peg, deep]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: input nests too deeply") and err.count("\n") == 1
    assert run([command, math_peg, write_input(tmp_path, b"1+2")]) == 0


def test_parse_prints_a_tree_deeper_than_the_recursion_limit(math_peg, tmp_path, capsys):
    # A flat sum folds into a left spine 30,000 nodes deep.
    terms = 30_000
    assert run(["parse", math_peg, write_input(tmp_path, b"+".join([b"1"] * terms))]) == 0
    out = capsys.readouterr().out
    assert out.startswith("#add[" * (terms - 1) + "#Integer['1'] #Integer['1']]")
    assert out.count("#Integer['1']") == terms and out.endswith("]\n")


def test_parse_json_prints_a_tree_deeper_than_the_recursion_limit(math_peg, tmp_path, capsys):
    terms = 30_000
    data = b"+".join([b"1"] * terms)
    assert run(["parse", math_peg, write_input(tmp_path, data), "--format", "json"]) == 0
    out = capsys.readouterr().out
    # The outermost fold opens at the last '+'; the innermost adopts the first term.
    end = len(data)
    assert out.startswith(f'{{"ast": {{"tag": "add", "start": {end - 2}, "end": {end}, "children": [')
    innermost = (
        '{"tag": "add", "start": 1, "end": 3, "children": ['
        '{"tag": "Integer", "start": 0, "end": 1, "text": "1"}, '
        '{"tag": "Integer", "start": 2, "end": 3, "text": "1"}]}'
    )
    assert innermost in out
    assert out.count('"tag": "add"') == terms - 1 and out.count('"text": "1"') == terms
    last = f'{{"tag": "Integer", "start": {end - 1}, "end": {end}, "text": "1"}}'
    assert out.endswith(f'{last}]}}, "consumed": {end}}}\n')


@pytest.mark.parametrize("stats", [False, True], ids=["plain", "stats"])
def test_parse_json_writes_what_json_dumps_writes(stats, tmp_path, capsys):
    grammar_path = tmp_path / "grammar.peg"
    flags = ["--format", "json"] + (["--stats"] if stats else [])
    checked = 0
    for text, grammar, data in make_corpus(101, 150):
        try:
            result = pegfold.ParseSession(grammar, data, max_steps=ENGINE_STEPS).parse()
        except (pegfold.ParseError, pegfold.StepLimitExceeded):
            continue
        payload = {"ast": pegfold.to_json_dict(result.root), "consumed": result.consumed}
        if stats:
            payload["stats"] = result.stats.as_dict()
        grammar_path.write_text(text)
        assert run(["parse", str(grammar_path), write_input(tmp_path, data), *flags]) == 0
        assert capsys.readouterr().out == json.dumps(payload) + "\n"
        checked += 1
    assert checked > 50


def json_doc(seed, size):
    """A seeded JSON document of about ``size`` bytes: one array, wide at the
    top, of objects, arrays, strings, numbers and literals."""
    rng = random.Random(seed)

    def value(depth):
        roll = rng.random()
        if depth and roll < 0.2:
            return {f"k{i}": value(depth - 1) for i in range(rng.randint(1, 5))}
        if depth and roll < 0.35:
            return [value(depth - 1) for _ in range(rng.randint(1, 6))]
        if roll < 0.6:
            return "".join(rng.choice('ab z"\\\n\u00e9') for _ in range(rng.randint(0, 12)))
        if roll < 0.9:
            return rng.choice([rng.randint(-10**6, 10**6), round(rng.uniform(-1e3, 1e3), 3)])
        return rng.choice([True, False, None])

    values, size_so_far = [], 0
    while size_so_far < size:
        values.append(value(3))
        size_so_far += len(json.dumps(values[-1])) + 2
    return json.dumps(values).encode()


@pytest.fixture(scope="module")
def wide_json(tmp_path_factory):
    """The paths of the JSON-like grammar and of a 120 KB doc."""
    folder = tmp_path_factory.mktemp("wide_json")
    (folder / "json.peg").write_text(benchmark_grammars().JSON_LIKE)
    (folder / "doc.json").write_bytes(json_doc(23, 120_000))
    return [str(folder / "json.peg"), str(folder / "doc.json")]


@pytest.mark.parametrize("stats", [False, True], ids=["plain", "stats"])
@pytest.mark.parametrize("form", ["sexpr", "json"])
@pytest.mark.parametrize("shape", ["deep", "wide"])
def test_parse_prints_what_the_whole_text_printed(
    shape, form, stats, wide_json, math_peg, tmp_path, capsys
):
    # The command writes the tree in chunks; joined, they are the text it
    # printed whole: the notation, or the JSON envelope around ``to_json``.
    deep = [math_peg, write_input(tmp_path, b"1+" * 29_999 + b"1")]
    paths = wide_json if shape == "wide" else deep
    grammar = pegfold.parse_grammar(Path(paths[0]).read_text())
    result = pegfold.ParseSession(grammar, Path(paths[1]).read_bytes()).parse()
    root = result.root
    writer = pegfold.tree._json_chunks if form == "json" else pegfold.tree._notation_chunks
    assert len(list(writer(root))) > 10
    assert run(["parse", *paths, "--format", form] + (["--stats"] if stats else [])) == 0
    out = capsys.readouterr().out
    if form == "sexpr":
        block = pegfold.cli._format_stats(result.stats) + "\n" if stats else ""
        assert out == pegfold.serialize(root) + "\n" + block
        return
    counts = result.stats.as_dict()
    tail = f', "stats": {json.dumps(counts)}' if stats else ""
    assert out == f'{{"ast": {pegfold.to_json(root)}, "consumed": {result.consumed}{tail}}}\n'
    if shape == "wide":  # shallow enough for json.dumps
        payload = {"ast": pegfold.to_json_dict(root), "consumed": result.consumed}
        assert out == json.dumps(payload | ({"stats": counts} if stats else {})) + "\n"


def test_parse_holds_one_chunk_of_the_json_text_not_all_of_it(wide_json):
    # Above what it held when its parse returned (grammar, input and tree),
    # the command's peak is what the writer holds; printing the text whole
    # took about three times the text.
    peak, written = writer_peak([*wide_json, "--format", "json"])
    assert written > 500_000
    assert peak < written / 2


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


@pytest.mark.parametrize("command", ["parse", "bench"])
def test_unknown_start_production_fails_before_reading_input(command, math_peg, capsys):
    assert run([command, math_peg, "/nonexistent/input", "--start", "Nope"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: unknown start production 'Nope'\n"
    assert captured.out == ""


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
    data = write_input(tmp_path, b"+".join([b"(1+2)*3-4*(5+6)/7"] * 200))
    assert run(["bench", math_peg, data, "--iterations", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    recognize = float(out[0].split(": ")[1])
    ast = float(out[1].split(": ")[1])
    assert recognize <= ast


def test_bench_recognize_not_slower_without_memo_sanity(math_peg, tmp_path, capsys):
    # Without memoization both modes run the same recognition, and the AST
    # mode adds tree building to it.
    data = write_input(tmp_path, b"+".join([b"(1+2)*3-4*(5+6)/7"] * 200))
    assert run(["bench", math_peg, data, "--iterations", "5", "--no-memo"]) == 0
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
