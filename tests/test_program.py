"""Compiled programs: one per grammar and setting, shared by every session."""

import gc
import inspect
import sys
import threading
import weakref

import pytest
from corpus import ENGINE_STEPS, make_corpus

import pegfold.interp
from pegfold.expr import Terminal
from pegfold.grammar import parse_grammar
from pegfold.interp import ParseError, ParseSession, StepLimitExceeded
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


def run_state(grammar, memo=True, build_ast=True):
    """What the grammar's program holds between parses."""
    program = grammar._programs[(memo, build_ast)]
    state = inspect.getclosurevars(program.run).nonlocals
    return state["data"], state["machine"], state["table"]


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
    "text, data, raises",
    [
        (MEMO_NODE, b"ay", None),
        (MATH, b"*1", ParseError),
        ("S = T '!' / 'a' S / 'a'\nT = 'a' T / 'a'", b"a" * 400, StepLimitExceeded),
    ],
    ids=["returned", "parse-error", "step-limit"],
)
def test_program_keeps_no_input_or_tree_after_a_parse(text, data, raises):
    grammar = parse_grammar(text)
    session = ParseSession(grammar, data, max_steps=100)
    if raises is None:
        result = session.parse()
        assert session.table.hits == 1
    else:
        with pytest.raises(raises):
            session.parse()
    assert run_state(grammar) == (None, None, None)


def test_tree_dies_with_its_session_and_result():
    grammar = parse_grammar(MEMO_NODE)
    session = ParseSession(grammar, b"ay")
    result = session.parse()
    root, child = weakref.ref(result.root), weakref.ref(result.root.children[0])
    del session, result
    gc.collect()
    assert root() is None and child() is None
    assert grammar._programs  # the program itself stays with the grammar


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
