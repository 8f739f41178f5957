"""The generated module: deterministic source, shared code, one function per
production, and the step limit it enforces."""

import cProfile
import pstats
from pathlib import Path

import pytest

import pegfold.interp
from pegfold.analysis import assign_memo_points
from pegfold.grammar import parse_grammar
from pegfold.interp import ParseSession, StepLimitExceeded, generate, program_for
from test_analysis import benchmark_grammars

MATH = """Expr = Sum
Sum = Product {@ ( '+' #add / '-' #sub ) @Product }*
Product = Value {@ ( '*' #mul / '/' #div ) @Value }*
Value = { [0-9]+ #Integer } / '(' Expr ')'
"""

# The math grammar's module with tree building and memoization on.
MATH_MODULE = (Path(__file__).parent / "math_module.txt").read_text()

SETTINGS = [(ast, memo) for ast in (True, False) for memo in (True, False)]


def test_equal_text_gives_equal_source():
    first, second = parse_grammar(MATH), parse_grammar(MATH)
    assert first is not second
    assert generate(first, assign_memo_points(first)) == generate(
        second, assign_memo_points(second)
    )
    assert generate(first, None) == generate(second, None)


def test_math_module_is_pinned():
    program = program_for(parse_grammar(MATH), memo=True, build_ast=True)
    assert program.source == MATH_MODULE


def test_equal_grammars_share_one_compiled_module(monkeypatch):
    compiled = []

    def counting(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(pegfold.interp, "compile", counting, raising=False)
    text = "Pair = { @Word ',' @Word #Pair }\nWord = { [a-z]+ #Word }\n"
    first = program_for(parse_grammar(text), memo=True, build_ast=True)
    second = program_for(parse_grammar("// the same\n" + text), memo=True, build_ast=True)
    assert second.code is first.code
    assert compiled == ["<pegfold grammar>"]
    other = program_for(parse_grammar(text.replace("','", "';'")), memo=True, build_ast=True)
    assert other.code is not first.code
    assert compiled == ["<pegfold grammar>"] * 2


@pytest.mark.parametrize("build_ast, memo", SETTINGS)
def test_step_limit_stops_the_call_past_it(build_ast, memo):
    grammar = parse_grammar(MATH)
    data = b"(1+2)*3-4/(5+6)"
    session = ParseSession(grammar, data, build_ast=build_ast, memo=memo)
    session.parse()
    assert session.calls == 19  # the start counts as none
    for k in (0, 1, 10, 18):
        limited = ParseSession(grammar, data, build_ast=build_ast, memo=memo, max_steps=k)
        with pytest.raises(StepLimitExceeded):
            limited.parse()
        assert limited.calls == k + 1  # raised as call k + 1 started
    enough = ParseSession(grammar, data, build_ast=build_ast, memo=memo, max_steps=19)
    assert enough.parse().consumed == len(data)


def test_each_production_checks_the_limit_and_looks_itself_up_once():
    grammar = parse_grammar(benchmark_grammars().JSON_LIKE)
    program = program_for(grammar, memo=True, build_ast=False)
    assert program.source.count("if calls > limit:") == len(grammar.productions)
    points = program.plan.nonterminal_points
    assert len(points) == len(grammar.productions)  # recognition memoizes every production
    for point in points.values():
        assert program.source.count(f"table.lookup({point}, ") == 1


def test_a_negative_step_limit_is_refused():
    grammar = parse_grammar("S = 'a'")
    with pytest.raises(ValueError):
        ParseSession(grammar, b"a", max_steps=-1)
    for build_ast, memo in SETTINGS:  # the start is no call, so no limit stops it
        session = ParseSession(grammar, b"a", build_ast=build_ast, memo=memo, max_steps=0)
        assert session.parse().consumed == 1


@pytest.mark.parametrize("build_ast", [True, False])
def test_profiles_name_each_production(build_ast):
    session = ParseSession(parse_grammar(MATH), b"(1+2)*3-4/(5+6)", build_ast=build_ast)
    profile = cProfile.Profile()
    profile.runcall(session.parse)
    functions = {
        name for filename, _, name in pstats.Stats(profile).stats if filename == "<pegfold grammar>"
    }
    assert {"Sum", "Product", "Value"} <= functions


def test_names_that_clash_are_mangled():
    # A keyword, a builtin, an engine global, a local's name, a name with an
    # underscore in front: each production still gets a function of its own.
    text = "class = len data p _t / 'z'\nlen = 'a'\ndata = 'b'\np = 'c'\n_t = 'd'\n"
    grammar = parse_grammar(text)
    assert ParseSession(grammar, b"abcd").parse().consumed == 4
    names = {pegfold.interp._mangle(name) for name in grammar.productions}
    assert len(names) == 5 and all(name.startswith("_P_") for name in names)
    assert pegfold.interp._mangle("Sum") == "Sum"
    assert pegfold.interp._mangle("a-b") != pegfold.interp._mangle("a_2D_b")


def nested_options(depth, tagged):
    """``'a0' ('a1' ('a2' … )? )?`` nested ``depth`` deep, its items tagged at
    one eager constructor's level if ``tagged``."""
    body = ""
    for k in reversed(range(depth)):
        tag = f" #T{k}" if tagged else ""
        body = f"'{chr(97 + k % 26)}'{tag} ({body})?" if body else f"'{chr(97 + k % 26)}'{tag}"
    return "S = { " + body + " }\n" if tagged else "S = " + body + "\n"


@pytest.mark.parametrize("tagged", [False, True], ids=["plain", "record"])
def test_expressions_nested_past_a_function_limit_move_into_helpers(tagged):
    # 40 nested options go deeper than a function's body may nest; the
    # inner ones run in nested helper functions, which reach the record of
    # the enclosing eager constructor through their closure.
    grammar = parse_grammar(nested_options(40, tagged))
    program = program_for(grammar, memo=True, build_ast=True)
    assert "    def h" in program.source
    assert ("nonlocal" in program.source) == tagged
    data = bytes(97 + k % 26 for k in range(40))
    for n in (40, 27, 1):
        result = ParseSession(grammar, data[:n]).parse()
        assert result.consumed == n
        if tagged:
            assert result.root.tag == f"T{n - 1}"


def test_calls_of_productions_that_never_log_read_no_log():
    # Every production of the math and JSON-like grammars never logs, so no
    # link reads the log length, commits or rolls back, and no attempt saves
    # more of the machine than its left register.
    for text in (MATH, benchmark_grammars().JSON_LIKE):
        for memo in (True, False):
            source = program_for(parse_grammar(text), memo=memo, build_ast=True).source
            for needless in ("len(machine.log)", "machine.commit", "machine.abort", "machine.save"):
                assert needless not in source, (text, memo, needless)
