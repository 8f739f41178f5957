"""Command-line surface: output shapes and exit codes."""

import argparse
import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from corpus import ENGINE_STEPS, benchmark_grammars, make_corpus
from overhead import COMMAND_STEPS, Command, command_steps, garbage, measured
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


def counting(monkeypatch, owner, name, calls):
    """Replaces ``owner.name`` with a function that appends its first
    argument to ``calls`` and calls the original."""
    original = getattr(owner, name)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("command", [["parse"], ["bench", "--iterations", "1"]])
def test_parse_and_bench_validate_the_grammar_once(command, tmp_path, monkeypatch, capsys):
    # A text of its own, which no earlier command of the process has read.
    path = tmp_path / "math.peg"
    path.write_text(MATH + f"// {command[0]}\n")
    calls = []
    for module in (pegfold.cli, pegfold.interp):
        counting(monkeypatch, module, "validate", calls)
    argv = [command[0], str(path), write_input(tmp_path, b"1+2"), *command[1:]]
    assert run(argv) == 0
    assert len(calls) == 1
    # The same command again finds the grammar it read, compiled.
    assert run(argv) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_a_repeated_command_builds_no_parser_and_compiles_nothing(
    math_peg, tmp_path, monkeypatch, capsys
):
    pegfold.cli._build_parser.cache_clear()
    monkeypatch.setattr(pegfold.cli, "_last_grammar", None)
    parsers, reads, execs = [], [], []
    counting(monkeypatch, argparse.ArgumentParser, "__init__", parsers)
    counting(monkeypatch, pegfold.cli, "parse_grammar", reads)

    def counted_exec(code, namespace):
        execs.append(code)
        exec(code, namespace)

    # ``program_for`` finds ``exec`` among its module's globals first.
    monkeypatch.setattr(pegfold.interp, "exec", counted_exec, raising=False)
    argv = ["parse", math_peg, write_input(tmp_path, b"1+2*3")]
    assert run(argv) == 0
    first = capsys.readouterr().out
    built = len(parsers)
    assert built > 0 and len(reads) == len(execs) == 1
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    assert len(parsers) == built and len(reads) == len(execs) == 1


def test_overhead_sets_up_a_benchmark_grammar_by_name(tmp_path, capsys):
    import overhead

    assert overhead.grammar_text("JSON_LIKE") == benchmark_grammars().JSON_LIKE
    path = tmp_path / "a.peg"
    path.write_text("S = 'a'\n")
    assert overhead.grammar_text(str(path)) == "S = 'a'\n"
    with pytest.raises(SystemExit) as stopped:
        overhead.main(["--setup", str(tmp_path / "missing.peg")])
    assert stopped.value.code == 2
    assert "no grammar file" in capsys.readouterr().err


def test_overhead_counts_the_steps_of_a_repeated_command(math_peg, tmp_path):
    # ``tests/overhead.py --command``: after a first command, reading the
    # unchanged grammar parses nothing and finding its program compiles
    # nothing, and the command leaves nothing to the collector.  The
    # counts are deterministic: the command makes 293 calls on this input;
    # building its argument parser and reading its grammar on every command
    # made 3,935, and left 184 objects to the collector.
    argv = ["parse", math_peg, write_input(tmp_path, b"(7+5+6*6+5+8)")]
    named = command_steps(argv)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, pegfold.cli.RECURSION_LIMIT))
    try:
        named["command"](Command())
        work = measured(named, Command)
        left = garbage(named["command"], Command)
    finally:
        sys.setrecursionlimit(limit)
    calls = {name: figures[2] for name, figures in work.items()}
    assert list(calls) == [*COMMAND_STEPS, "command"]
    assert calls["grammar"] <= 10 and calls["program"] <= 2
    assert sum(calls[name] for name in COMMAND_STEPS) <= calls["command"] <= 400
    assert left == 0


@pytest.mark.parametrize("stats", [[], ["--stats"]], ids=["plain", "stats"])
@pytest.mark.parametrize("form", ["sexpr", "json"])
def test_a_repeated_command_leaves_nothing_to_the_collector(
    form, stats, math_peg, tmp_path, capsys
):
    argv = ["parse", math_peg, write_input(tmp_path, b"(1+2)*3-4"), "--format", form, *stats]
    assert run(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert run(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_a_rewritten_grammar_is_read_anew(tmp_path, capsys):
    path = tmp_path / "g.peg"
    data = write_input(tmp_path, b"ab")
    path.write_text("S = { 'a' #A } 'b'\n")
    assert run(["parse", str(path), data]) == 0
    assert capsys.readouterr().out == "#A['a']\n"
    path.write_text("S = { 'a' 'b' #B }\n")
    assert run(["parse", str(path), data]) == 0
    assert capsys.readouterr().out == "#B['ab']\n"


@pytest.mark.parametrize("text", ["A = A 'x'\n", "A = ("], ids=["invalid", "syntax"])
@pytest.mark.parametrize("command", ["check", "parse"])
def test_an_invalid_grammar_reports_the_same_on_every_command(command, text, tmp_path, capsys):
    path = tmp_path / "bad.peg"
    path.write_text(text)
    argv = [command, str(path)] + (["/nonexistent/input"] if command == "parse" else [])
    assert run(argv) == 1
    first = capsys.readouterr()
    assert "error" in first.out + first.err
    assert run(argv) == 1
    assert capsys.readouterr() == first


def test_a_failed_read_keeps_the_last_grammar_it_read(math_peg, tmp_path, monkeypatch, capsys):
    data = write_input(tmp_path, b"1+2")
    assert run(["parse", math_peg, data]) == 0
    tree = capsys.readouterr().out
    reads = []
    counting(monkeypatch, pegfold.cli, "parse_grammar", reads)
    broken = tmp_path / "broken.peg"
    broken.write_text("A = (")
    assert run(["parse", str(tmp_path / "missing.peg"), data]) == 2
    assert run(["parse", str(broken), data]) == 1
    assert run(["parse", math_peg, data]) == 0
    assert capsys.readouterr().out == tree
    assert reads == ["A = ("]


@pytest.mark.parametrize("command", ["parse", "bench"])
def test_unknown_start_after_a_kept_grammar_fails_before_reading_input(
    command, math_peg, tmp_path, capsys
):
    options = ["--iterations", "1"] if command == "bench" else []
    assert run([command, math_peg, write_input(tmp_path, b"1"), *options]) == 0
    capsys.readouterr()
    assert run([command, math_peg, "/nonexistent/input", "--start", "Nope"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: unknown start production 'Nope'\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "text", [MATH, "S = " + "(" * 400 + "'a'" + ")" * 400 + "\n"], ids=["math", "deep"]
)
def test_check_after_parse_prints_what_check_prints_alone(text, tmp_path, capsys):
    # A grammar too deep for ``check``'s recursion limit reads under the
    # raised one of ``parse``; ``check`` must not take that read.
    path = tmp_path / "g.peg"
    path.write_text(text)
    assert run(["check", str(path)]) in (0, 1)
    alone = capsys.readouterr()
    assert run(["parse", str(path), write_input(tmp_path, b"1" if text == MATH else b"a")]) == 0
    capsys.readouterr()
    assert run(["check", str(path)]) in (0, 1)
    assert capsys.readouterr() == alone


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
