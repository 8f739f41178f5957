"""Compiled programs: one per grammar and setting, shared by every session."""

import gc
import inspect
import sys
import threading
import tracemalloc
import weakref

import pytest
from corpus import ENGINE_STEPS, make_corpus
from overhead import STEPS, counts

import pegfold.interp
import pegfold.tree
from pegfold.expr import Terminal
from pegfold.grammar import parse_grammar
from pegfold.interp import (
    InvalidGrammarError,
    NestingLimitExceeded,
    ParseError,
    ParseSession,
    StepLimitExceeded,
)
from pegfold.tree import serialize

MATH = """Expr = Sum
Sum = Product {@ ( '+' #add / '-' #sub ) @Product }*
Product = Value {@ ( '*' #mul / '/' #div) @Value }*
Value = { [0-9]+ #Integer } / '(' Expr ')'
"""

# @A is a link memo point: the memo table stores A's node.
MEMO_NODE = "S = { #S @A 'x' } / { #S @A 'y' }\nA = { #A 'a' }"

SETTINGS = [
    {"memo": True, "build_ast": True},
    {"memo": False, "build_ast": True},
    {"memo": True, "build_ast": False, "window": 4},
    {"memo": False, "build_ast": False},
]


def outcome(grammar, data, **options):
    session = ParseSession(grammar, data, max_steps=ENGINE_STEPS, **options)
    try:
        result = session.parse()
    except ParseError as exc:
        return ("fail", exc.position)
    except StepLimitExceeded:
        return ("steps",)
    return ("ok", serialize(result.root), result.consumed, result.stats)


def run_states(grammar):
    """What the grammar's programs hold between parses: the globals of their
    generated functions, per compiled ``(memo, build_ast, counting)``."""
    states = {}
    for key, program in grammar._programs.items():
        state = inspect.getclosurevars(program.run).nonlocals["namespace"]
        states[key] = (state["data"], state["machine"], state["table"])
    return states


@pytest.fixture
def deep_stack():
    """A recursion limit deep enough for thousands of nested parentheses,
    as the command line sets one; the caller's limit comes back after."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    yield
    sys.setrecursionlimit(saved)


def math_input(i):
    return f"({i}+{i + 1})*{i % 7}-{i}/3+{i * 11}".encode()


def test_reused_program_matches_a_fresh_compile():
    corpus = make_corpus(9191, 150)
    texts = list(dict.fromkeys(text for text, _, _ in corpus))
    shared = {text: parse_grammar(text) for text in texts}
    inputs = {text: [data for t, _, data in corpus if t == text] for text in texts}
    checked = 0
    # Interleave grammars and settings so every parse follows a parse of
    # some other input, through the same or another program.
    for round_ in range(3):
        for text in texts:
            if round_ >= len(inputs[text]):
                continue
            data = inputs[text][round_]
            for options in SETTINGS:
                reused = outcome(shared[text], data, **options)
                fresh = outcome(parse_grammar(text), data, **options)
                assert reused == fresh, (text, data, options)
                checked += 1
    assert checked == 4 * len(corpus)
    assert all(len(g._programs) == len(SETTINGS) for g in shared.values())


def test_grammar_is_validated_and_planned_once(monkeypatch):
    counts = {"validate": 0, "assign_memo_points": 0}
    for name in counts:
        original = getattr(pegfold.interp, name)

        def counted(grammar, _name=name, _original=original):
            counts[_name] += 1
            return _original(grammar)

        monkeypatch.setattr(pegfold.interp, name, counted)
    grammar = parse_grammar(MATH)
    for i in range(5):
        ParseSession(grammar, math_input(i)).parse()
        ParseSession(grammar, math_input(i), build_ast=False).parse()
    assert counts == {"validate": 1, "assign_memo_points": 2}


@pytest.mark.parametrize(
    "text, data, raises, max_steps",
    [
        (MEMO_NODE, b"ay", None, 100),
        (MEMO_NODE, b"ay", None, None),
        (MATH, b"*1", ParseError, 100),
        (MATH, b"*1", ParseError, None),
        ("S = T '!' / 'a' S / 'a'\nT = 'a' T / 'a'", b"a" * 400, StepLimitExceeded, 100),
    ],
    ids=["returned", "returned-bare", "parse-error", "parse-error-bare", "step-limit"],
)
def test_program_keeps_no_input_or_tree_after_a_parse(text, data, raises, max_steps):
    grammar = parse_grammar(text)
    session = ParseSession(grammar, data, max_steps=max_steps)
    if raises is None:
        result = session.parse()
        assert session.table.hits == 1
        assert result.stats.memo_hits == 1  # a bare parse runs again, counting
    else:
        with pytest.raises(raises):
            session.parse()
    states = run_states(grammar)
    assert (True, True, True) in states
    assert set(states.values()) == {(None, None, None)}


def test_deep_nesting_raises_a_clean_error_and_frees_the_program(deep_stack):
    grammar = parse_grammar(MATH)
    with pytest.raises(NestingLimitExceeded) as caught:
        ParseSession(grammar, b"(" * 5000 + b"1" + b")" * 5000).parse()
    assert isinstance(caught.value, ParseError)
    assert 0 < caught.value.position < 5000
    # The bare program raised, and the counting one found the position.
    assert set(run_states(grammar)) == {(True, True, False), (True, True, True)}
    assert set(run_states(grammar).values()) == {(None, None, None)}
    for program in grammar._programs.values():
        assert not inspect.getclosurevars(program.run).nonlocals["lock"].locked()
    result = ParseSession(grammar, b"1+2").parse()
    assert serialize(result.root) == "#add[#Integer['1'] #Integer['2']]"


# A grammar the reader accepts at the default recursion limit, but whose
# analyses and emitter, recursing per level, need a deeper stack.
DEEP_GRAMMAR = "S = " + "{ 'a' @" * 150 + "{'b'}" + " }" * 150
DEEP_INPUT = b"a" * 150 + b"b"


def test_a_grammar_nested_past_the_recursion_limit_is_invalid():
    grammar = parse_grammar(DEEP_GRAMMAR)
    with pytest.raises(InvalidGrammarError) as caught:
        ParseSession(grammar, DEEP_INPUT)
    (d,) = caught.value.diagnostics
    assert (d.severity, d.code, d.message) == (
        "error",
        "nesting-limit",
        "grammar nests too deeply for the recursion limit",
    )
    assert grammar._programs == {}  # nothing half-built is kept


def test_a_deep_grammar_compiles_and_parses_on_a_deep_stack(deep_stack):
    result = ParseSession(parse_grammar(DEEP_GRAMMAR), DEEP_INPUT).parse()
    assert result.consumed == len(DEEP_INPUT)
    node, depth = result.root, 1
    while node.children:
        (node,) = node.children
        depth += 1
    assert depth == 151 and node.text == b"b"


def deepest_nesting(grammar, **options):
    """The most nested parentheses a parse follows, by bisection."""
    low, high = 100, 8000  # parses, raises
    while high - low > 1:
        middle = (low + high) // 2
        try:
            ParseSession(grammar, b"(" * middle + b"1" + b")" * middle, **options).parse()
            low = middle
        except NestingLimitExceeded:
            high = middle
    return low


def test_recognition_follows_as_deep_a_nesting_as_tree_building(deep_stack):
    # A memoized production's call looks its result up itself, so erasing
    # the tree operators, which makes every production a memo point, adds
    # no frame per level.
    grammar = parse_grammar(MATH)
    deepest = deepest_nesting(grammar)
    assert deepest > 1000
    assert deepest_nesting(grammar, build_ast=False) == deepest


def test_tree_dies_with_its_session_and_result():
    grammar = parse_grammar(MEMO_NODE)
    session = ParseSession(grammar, b"ay")
    result = session.parse()
    root, child = weakref.ref(result.root), weakref.ref(result.root.children[0])
    del session, result
    gc.collect()
    assert root() is None and child() is None
    assert grammar._programs  # the program itself stays with the grammar


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "no-memo"])
def test_parse_leaves_no_reference_cycles(memo):
    # The tree and the commit's records go with their last reference, not
    # at whatever later collection finds them, so a parse's peak memory
    # does not depend on when the collector runs.
    grammar = parse_grammar(MATH)
    ParseSession(grammar, b"1", memo=memo).parse()  # compiles the program
    gc.collect()
    gc.disable()
    try:
        result = ParseSession(grammar, b"(1+2)*3-4/(5+6)", memo=memo).parse()
        root = weakref.ref(result.root)
        del result
        assert root() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_grammar_and_its_programs_go_with_their_last_reference():
    # A caller that reads a grammar per input drops one per input: it and
    # its programs, the counting one and the generated modules' namespaces
    # included, must not wait for a collection.
    grammar = parse_grammar(MATH)
    assert ParseSession(grammar, b"1+2").parse().stats.nodes_created == 3
    runs = [weakref.ref(program.run) for program in grammar._programs.values()]
    assert len(runs) == 2
    gc.disable()
    try:
        gc.collect()
        del grammar
        assert [run() for run in runs] == [None, None]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_stats_count_reachable_nodes_on_first_read(monkeypatch):
    count_reachable = pegfold.interp._count_reachable
    calls = []

    def counting(root):
        calls.append(root)
        return count_reachable(root)

    monkeypatch.setattr(pegfold.interp, "_count_reachable", counting)
    result = ParseSession(parse_grammar(MATH), b"(1+2)*3-4/(5+6)").parse()
    serialize(result.root)
    assert calls == []
    stats = result.stats
    assert result.stats is stats and calls == [result.root._record]
    assert stats.nodes_in_result == count_reachable(result.root._record) == 11


def test_stats_read_late_equal_a_direct_count():
    for _, grammar, data in make_corpus(4242, 120):
        for memo in (True, False):
            session = ParseSession(grammar, data, memo=memo, max_steps=ENGINE_STEPS)
            try:
                result = session.parse()
            except (ParseError, StepLimitExceeded):
                continue
            reachable = pegfold.interp._count_reachable(result.root._record)
            assert result.stats.nodes_in_result == reachable
            assert result.stats.nodes_unused == result.stats.nodes_created - reachable


def test_parse_and_serialize_stay_within_an_allocation_budget():
    # Peak traced allocation of one parse plus serialize of 8,769 bytes of
    # math expressions, grammar already compiled: about 1.51 MB.  The bound
    # fails nodes with a per-node __dict__ or a reachability walk on every
    # parse, which together take 1.75 MB.
    grammar = parse_grammar(MATH)
    data = b"+".join(math_input(i) for i in range(400))
    assert len(data) == 8769
    ParseSession(grammar, b"1").parse()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        serialize(ParseSession(grammar, data).parse().root)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1_625_000


def test_threads_sharing_a_grammar_get_the_sequential_trees():
    grammar = parse_grammar(MATH)
    inputs = [[math_input(100 * t + i) for i in range(25)] for t in range(4)]
    expected = [
        [serialize(ParseSession(parse_grammar(MATH), d).parse().root) for d in chunk]
        for chunk in inputs
    ]
    got = [[] for _ in inputs]
    barrier = threading.Barrier(len(inputs))

    def work(t):
        barrier.wait()
        for data in inputs[t]:
            got[t].append(serialize(ParseSession(grammar, data).parse().root))

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(len(inputs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(saved)
    assert got == expected


def test_productions_are_read_only():
    grammar = parse_grammar(MATH)
    with pytest.raises(TypeError):
        grammar.productions["X"] = Terminal(b"x")
    with pytest.raises(AttributeError):
        grammar.productions = {}


def test_session_keeps_its_run_state_after_a_parse():
    grammar = parse_grammar(MATH)
    session = ParseSession(grammar, b"1+2*3")
    result = session.parse()
    assert session.data == b"1+2*3"
    assert session.calls > 0
    assert session.plan.count == 2
    assert session.table.lookups == result.stats.memo_lookups > 0


def counting_runs(grammar, memo=True, build_ast=True):
    """The start names of every run of the grammar's counting program from
    now on, which this wraps."""
    key = (memo, build_ast, True)
    program = pegfold.interp.program_for(grammar, memo=memo, build_ast=build_ast, counting=True)
    runs = []

    def run(record, name):
        runs.append(name)
        return program.run(record, name)

    grammar._programs[key] = program._replace(run=run)
    return runs


def read_counters(session, result=None):
    stats = result.stats.as_dict() if result is not None else None
    return session.farthest, session.backtrack, session.calls, stats


@pytest.mark.parametrize("options", SETTINGS)
@pytest.mark.parametrize(
    "text, data",
    [
        (MATH, b"(1+2)*3-4/(5+6)"),
        (MATH, b"(1+2)*+3"),
        (MATH, b"1+"),
        # The start leaves a node under construction: the run commits the
        # whole log to build the root.
        ("S = { @A 'x' } #S / { @A 'y' } #T\nA = { 'a' } #A", b"ay"),
        # The start leaves no node: the root is a token.
        ("S = 'a'*", b"aaa"),
    ],
    ids=["ok", "fail", "prefix", "whole-log-commit", "token"],
)
def test_counters_read_after_a_bare_parse_equal_counting_ones(options, text, data):
    # Read after the parse, from one counting re-run: the same counters and
    # statistics, and the same failure position, as a session that counted
    # from the start.  A run builds its own root, so the re-run counts the
    # nodes built for it too.
    grammar, other = parse_grammar(text), parse_grammar(text)
    runs = counting_runs(grammar, options["memo"], options["build_ast"])
    bare = ParseSession(grammar, data, **options)
    counting = ParseSession(other, data, max_steps=10**9, **options)
    try:
        expected = read_counters(counting, counting.parse())
    except ParseError as error:
        with pytest.raises(ParseError) as caught:
            bare.parse()
        assert caught.value.position == error.position
        assert runs == [grammar.start]  # the failure found its position
        assert read_counters(bare) == read_counters(counting)
    else:
        result = bare.parse()
        assert runs == []  # nothing read yet
        assert read_counters(bare, result) == expected
        assert runs == [grammar.start]
        assert read_counters(bare, result) == expected
        assert runs == [grammar.start]  # read twice, counted once


def test_a_program_makes_the_callable_that_finds_its_counting_one_once(monkeypatch):
    # A session finds its program with one lookup, and the program's own
    # callable finds the counting program for every session of the setting:
    # for a failed parse's position and for counters read after a bare parse.
    grammar = parse_grammar(MATH)
    program = ParseSession(grammar, b"1")._program
    calls = []
    monkeypatch.setattr(pegfold.interp, "program_for", lambda *a, **k: calls.append(k))
    first, second = ParseSession(grammar, b"(1+2)*3"), ParseSession(grammar, b"4-5")
    assert first._program is second._program is program and calls == []
    monkeypatch.undo()
    counting = program.recount(grammar)
    assert counting is grammar._programs[(True, True, True)] and counting.recount is None
    other = parse_grammar(MATH)
    for session in (first, second):
        expected = ParseSession(other, session.data, max_steps=10**9)
        assert read_counters(session, session.parse()) == read_counters(expected, expected.parse())
    with pytest.raises(ParseError) as caught:
        ParseSession(grammar, b"(1+2*").parse()
    assert caught.value.position == 5
    assert grammar._programs[(True, True, False)] is program  # and its callable with it


def test_a_small_parse_pays_for_its_bytes_not_for_its_session_and_writer(monkeypatch):
    # The calls ``tests/overhead.py`` counts outside the generated module:
    # the steps' add up to the operation's, a session makes no call but the
    # one lookup of its program, and the operation makes 96 where it made
    # 110 when each session made its own counting callable and each
    # ``serialize`` its own tables.  The writer's tables start empty, as in
    # a process that writes only these trees; earlier tests may have filled
    # them with other tags.
    monkeypatch.setattr(pegfold.tree, "_NOTATION", {})
    work = counts(parse_grammar(MATH), b"(7+5+6*6+5+8)")
    calls = {name: figures[2] for name, figures in work.items()}
    assert calls["operation"] == sum(calls[step] for step in STEPS)
    assert calls["session"] <= 3
    assert calls["operation"] <= 96
    assert sys.getprofile() is None


def test_counters_of_a_step_limited_parse_need_no_second_run():
    grammar = parse_grammar(MATH)
    runs = counting_runs(grammar)
    limited = ParseSession(grammar, b"(1+2)*3-4/(5+6)", max_steps=10)
    with pytest.raises(StepLimitExceeded):
        limited.parse()
    assert runs == ["Expr"]
    assert limited.calls == 11
    assert runs == ["Expr"]  # the limited run counted as it went


def test_a_result_keeps_the_counters_of_its_own_parse():
    grammar = parse_grammar("S = 'a' 'b' / 'a'\nT = 'a'*")
    session = ParseSession(grammar, b"ac")
    first = session.parse()
    second = session.parse("T")
    assert (first.stats.backtrack_total, second.stats.backtrack_total) == (1, 0)
    assert session.backtrack == 0 and session.calls == 0


def test_counters_of_a_parse_too_deep_are_found_at_its_depth():
    # The counting re-run starts from the frame the bare run started from,
    # so it meets the recursion limit at the same place.
    data = b"(" * 400 + b"1" + b")" * 400  # deeper than the default limit
    bare = ParseSession(parse_grammar(MATH), data)
    counting = ParseSession(parse_grammar(MATH), data, max_steps=10**9)
    with pytest.raises(NestingLimitExceeded) as expected:
        counting.parse()
    with pytest.raises(NestingLimitExceeded) as caught:
        bare.parse()
    assert 0 < caught.value.position == expected.value.position
    assert read_counters(bare) == read_counters(counting)


def parse_deepest(grammar, depth, **options):
    session = ParseSession(grammar, b"(" * depth + b"1" + b")" * depth, **options)
    return session, session.parse()


def read_deeper(frames, read):
    return read_deeper(frames - 1, read) if frames else read()


def test_counters_read_deeper_than_the_parse_ran_are_counted_on_a_thread(monkeypatch):
    # The deepest nesting a parse from here follows leaves no frames to
    # spare: reading its counters from deeper in the stack re-runs it on a
    # fresh thread, with the counts of a parse that counted from the start.
    grammar = parse_grammar(MATH)
    depth = deepest_nesting(grammar)
    counting = read_counters(*parse_deepest(grammar, depth, max_steps=10**9))
    threads = []

    class Thread(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(pegfold.interp.threading, "Thread", Thread)
    session, result = parse_deepest(grammar, depth)
    assert read_deeper(20, lambda: read_counters(session, result)) == counting
    assert len(threads) == 1
