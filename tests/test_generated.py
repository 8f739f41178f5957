"""The generated module: deterministic source, shared code, one function per
production, counters and the step limit only in the counting module."""

import cProfile
import dis
import pstats
import sys
from collections import Counter
from pathlib import Path

import pytest
from corpus import benchmark_grammars, module_digest

import pegfold.interp
from pegfold.analysis import assign_memo_points
from pegfold.grammar import parse_grammar
from pegfold.interp import ParseSession, StepLimitExceeded, generate, program_for
from lines import count_lines

MATH = """Expr = Sum
Sum = Product {@ ( '+' #add / '-' #sub ) @Product }*
Product = Value {@ ( '*' #mul / '/' #div ) @Value }*
Value = { [0-9]+ #Integer } / '(' Expr ')'
"""

# The math and JSON-like grammars' modules with tree building and
# memoization on: the bare ones a parse runs by default, and the counting
# ones that a step limit or a read counter runs.
HERE = Path(__file__).parent
MATH_MODULE = (HERE / "math_module.txt").read_text()
JSON_MODULE = (HERE / "json_module.txt").read_text()
MATH_COUNTING_MODULE = (HERE / "math_counting_module.txt").read_text()
JSON_COUNTING_MODULE = (HERE / "json_counting_module.txt").read_text()

SETTINGS = [(ast, memo) for ast in (True, False) for memo in (True, False)]


def test_equal_text_gives_equal_source():
    first, second = parse_grammar(MATH), parse_grammar(MATH)
    assert first is not second
    assert generate(first, assign_memo_points(first)) == generate(
        second, assign_memo_points(second)
    )
    assert generate(first, None) == generate(second, None)


def test_math_module_is_pinned():
    grammar = parse_grammar(MATH)
    assert program_for(grammar, memo=True, build_ast=True).source == MATH_MODULE
    counting = program_for(grammar, memo=True, build_ast=True, counting=True)
    assert counting.source == MATH_COUNTING_MODULE


def test_json_module_is_pinned():
    grammar = parse_grammar(benchmark_grammars().JSON_LIKE)
    assert program_for(grammar, memo=True, build_ast=True).source == JSON_MODULE
    counting = program_for(grammar, memo=True, build_ast=True, counting=True)
    assert counting.source == JSON_COUNTING_MODULE


def test_benchmark_modules_are_pinned():
    # Every module of the three benchmark grammars: memo on and off, trees
    # on and off, bare and counting, and their diagnostics.
    assert module_digest(seeds=(), pairs=0) == (
        "a4f41bb3946e83208db9f0100ff2c66b7703390dd3824e1683667fb6a874cd4f",
        "912b1bc65505eec2f98f02ec199df9a8df5d2cb4fd23321bc392fce13524d684",
        24,
    )


def test_a_corpus_slice_of_modules_is_pinned():
    # One seed of the corpus's grammars, in every setting: a drift in any
    # analysis that feeds the emitter changes this digest.
    assert module_digest(seeds=range(100, 101), pairs=200) == (
        "eec040422aa2a34e5b540f0f9fead7a742587174439b9cface25ebd7a3aaa3cb",
        "ff1142e16ce03bf4dd0b60926b637e441cbc6d2a838fc13f5a8cdd4711d08df0",
        560,
    )


@pytest.mark.parametrize("build_ast, memo", SETTINGS)
def test_bare_modules_count_nothing(build_ast, memo):
    # Instrumentation is free when off: the module a parse runs by default
    # names no counter and no step limit, and its counting twin names them
    # all but the limit where it builds no node.
    workloads = benchmark_grammars()
    counters = ("calls", "limit", "farthest", "backtrack", "created")
    for text in (MATH, workloads.JSON_LIKE, workloads.PATHOLOGICAL):
        grammar = parse_grammar(text)
        bare = program_for(grammar, memo=memo, build_ast=build_ast).source
        assert [name for name in counters if name in bare] == [], text
        counting = program_for(grammar, memo=memo, build_ast=build_ast, counting=True).source
        builds = "machine.left = (" in counting
        assert [name for name in counters if name in counting] == list(counters[: 4 + builds])


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
    program = program_for(grammar, memo=True, build_ast=False, counting=True)
    assert program.source.count("if calls > limit:") == len(grammar.productions)
    points = program.plan.nonterminal_points
    assert len(points) == len(grammar.productions)  # recognition memoizes every production
    for point in points.values():
        assert program.source.count(f"table.lookup({point}, ") == 1


@pytest.mark.parametrize("build_ast, memo", SETTINGS)
def test_the_line_counter_counts_each_production(build_ast, memo):
    data = b"(1+2)*3"
    tracer = sys.gettrace()
    counts, session = count_lines(MATH, data, build_ast=build_ast, memo=memo)
    assert list(counts) == ["Expr", "Sum", "Product", "Value"]
    assert all(counts.values())
    again = ParseSession(parse_grammar(MATH), data, build_ast=build_ast, memo=memo)
    assert again.parse().consumed == len(data)
    assert (session.farthest, session.backtrack, session.calls) == (
        again.farthest,
        again.backtrack,
        again.calls,
    )
    assert sys.gettrace() is tracer


def test_a_negative_step_limit_is_refused():
    grammar = parse_grammar("S = 'a'")
    with pytest.raises(ValueError):
        ParseSession(grammar, b"a", max_steps=-1)
    for build_ast, memo in SETTINGS:  # the start is no call, so no limit stops it
        session = ParseSession(grammar, b"a", build_ast=build_ast, memo=memo, max_steps=0)
        assert session.parse().consumed == 1


@pytest.mark.parametrize("memo", [True, False])
def test_a_window_below_one_is_refused_when_the_session_is_built(memo):
    grammar = parse_grammar("S = 'a'")
    for window in (0, -1):
        with pytest.raises(ValueError, match="window"):
            ParseSession(grammar, b"a", memo=memo, window=window)


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


def calls_per_node_build(source):
    """The CALL instructions on the lines of each node build in a generated
    module: the line that puts the node's record in the left register, and
    the line before it that computes its children, ``k = …``, if it has
    one."""
    lines = source.splitlines()
    builds = []
    for last, line in enumerate(lines, 1):
        if line.strip().startswith("machine.left = ("):
            first = last - 1 if lines[last - 2].strip().startswith("k = ") else last
            builds.append(range(first, last + 1))
    calls = Counter()
    codes = [compile(source, "<pegfold grammar>", "exec")]
    while codes:
        code = codes.pop()
        codes.extend(c for c in code.co_consts if hasattr(c, "co_code"))
        for instruction in dis.get_instructions(code):
            if instruction.opname in ("CALL", "CALL_FUNCTION_EX"):
                calls[instruction.positions.lineno] += 1
    return [sum(calls[number] for number in build) for build in builds]


@pytest.mark.parametrize("memo", [True, False])
def test_each_generated_node_build_makes_no_call(memo):
    for text, count in ((MATH, 3), (benchmark_grammars().JSON_LIKE, 6)):
        source = program_for(parse_grammar(text), memo=memo, build_ast=True).source
        assert calls_per_node_build(source) == [0] * count, (text, memo)
