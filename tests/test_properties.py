"""Randomized invariants over generated grammars and inputs."""

import random

from corpus import (
    DIGEST_SETTINGS,
    ENGINE_STEPS,
    _Generator,
    digest,
    engine_outcome,
    make_corpus,
    oracle_outcome,
)

from pegfold.analysis import assign_memo_points
from pegfold.expr import (
    EMPTY,
    And,
    CharClass,
    Choice,
    LeftFold,
    Link,
    New,
    Not,
    OneOrMore,
    Option,
    Sequence,
    Terminal,
    ZeroOrMore,
    choice,
)
from pegfold.grammar import Grammar, format_grammar, parse_grammar
from pegfold.interp import ParseError, ParseSession, StepLimitExceeded
from pegfold.tree import equals, parse_notation, serialize, to_json


def consumed_or_fail(grammar, data, *, build_ast=True):
    session = ParseSession(
        grammar, data, memo=False, build_ast=build_ast, max_steps=ENGINE_STEPS
    )
    try:
        return session.parse().consumed
    except ParseError:
        return "fail"
    except StepLimitExceeded:
        return None


def desugar(e, *, expand_char_classes=False):
    """A reference form of ``e`` over a smaller core of operators, which the
    engine's native compile of the sugared forms must agree with.

    ``e?`` becomes a choice with the empty expression, ``e+`` becomes
    ``e e*``, and ``&e`` becomes ``!!e``.  ``e*`` stays a native loop.
    Character classes stay native too unless ``expand_char_classes`` is
    set, in which case each class becomes a choice over its member bytes.
    """

    def again(body):
        return desugar(body, expand_char_classes=expand_char_classes)

    match e:
        case Option(body):
            return Choice((again(body), EMPTY))
        case OneOrMore(body):
            b = again(body)
            return Sequence((b, ZeroOrMore(b)))
        case And(body):
            return Not(Not(again(body)))
        case CharClass(ranges) if expand_char_classes:
            return choice([Terminal(bytes([b])) for lo, hi in ranges for b in range(lo, hi + 1)])
        case ZeroOrMore(body):
            return ZeroOrMore(again(body))
        case Not(body):
            return Not(again(body))
        case Sequence(items):
            return Sequence(tuple(again(i) for i in items))
        case Choice(alternatives):
            return Choice(tuple(again(a) for a in alternatives))
        case New(body):
            return New(again(body))
        case LeftFold(body):
            return LeftFold(again(body))
        case Link(body, index):
            return Link(again(body), index)
        case _:
            return e


def test_desugar_preserves_recognition():
    rng = random.Random(424242)
    gen = _Generator(rng)
    checked = 0
    for _ in range(120):
        _, grammar = gen.grammar()
        desugared = Grammar(
            {n: desugar(b) for n, b in grammar.productions.items()}, grammar.start
        )
        expanded = Grammar(
            {n: desugar(b, expand_char_classes=True) for n, b in grammar.productions.items()},
            grammar.start,
        )
        for _ in range(3):
            data = gen.an_input(grammar)[:32]
            raw = consumed_or_fail(grammar, data)
            cooked = consumed_or_fail(desugared, data)
            klass_free = consumed_or_fail(expanded, data)
            if None in (raw, cooked, klass_free):
                continue
            assert raw == cooked == klass_free, (format_grammar(grammar), data)
            checked += 1
    assert checked > 250


def test_erasing_tree_operators_preserves_recognition():
    rng = random.Random(777)
    gen = _Generator(rng)
    checked = 0
    for _ in range(120):
        _, grammar = gen.grammar()
        for _ in range(3):
            data = gen.an_input(grammar)
            full = consumed_or_fail(grammar, data)
            bare = consumed_or_fail(grammar, data, build_ast=False)
            if None in (full, bare):
                continue
            assert full == bare, (format_grammar(grammar), data)
            checked += 1
    assert checked > 250


def test_random_grammars_round_trip_through_the_writer():
    rng = random.Random(31416)
    gen = _Generator(rng)
    for _ in range(150):
        _, grammar = gen.grammar()  # asserts writer/reader agreement internally
        printed = format_grammar(grammar)
        assert parse_grammar(printed) == grammar


def test_memo_plan_deterministic_over_equal_text():
    rng = random.Random(2718)
    gen = _Generator(rng)
    for _ in range(60):
        text, _ = gen.grammar()
        a = assign_memo_points(parse_grammar(text))
        b = assign_memo_points(parse_grammar(text))
        assert a == b


def test_notation_round_trip_on_engine_trees():
    for _, grammar, data in make_corpus(5150, 150):
        outcome = engine_outcome(grammar, data, memo=True)
        if outcome is None or outcome[0] != "ok":
            continue
        session = ParseSession(grammar, data, memo=True, max_steps=ENGINE_STEPS)
        root = session.parse().root
        text = serialize(root)
        reparsed = parse_notation(text)
        assert equals(root, reparsed)
        assert serialize(reparsed) == text


def test_predicates_are_pure():
    # a predicate evaluation leaves position, left node, stack and log alone
    g = parse_grammar("S = 'x' P 'y'\nP = !( { 'y' #Ghost 'z' } ) / &( 'y' )")
    session = ParseSession(g, b"xy", memo=False)
    result = session.parse()
    assert result.consumed == 2
    assert serialize(result.root) == "#token['xy']"
    assert result.stats.nodes_created == 1


def test_transparency_quick():
    for _, grammar, data in make_corpus(8088, 120):
        baseline = engine_outcome(grammar, data, memo=False)
        if baseline is None:
            continue
        for window in (1, 4, 256):
            run = engine_outcome(grammar, data, memo=True, window=window)
            if run is not None:
                assert run == baseline, (format_grammar(grammar), data, window)


def test_oracle_equivalence_quick():
    for _, grammar, data in make_corpus(60606, 120):
        engine = engine_outcome(grammar, data, memo=False)
        reference = oracle_outcome(grammar, data)
        if engine is None or reference is None:
            continue
        assert engine == reference, (format_grammar(grammar), data)


def test_the_corpus_digest_covers_six_settings_per_pair_and_repeats():
    first = digest(seeds=[100], pairs=3)
    assert first == digest(seeds=[100], pairs=3)
    assert first[1] == 3 * 6 and len(first[0]) == 64


def test_the_corpus_digest_is_pinned():
    # Every tree, span, failure position and counter over 6,000 outcomes.
    # A change that must keep the engine's behaviour keeps this value; one
    # that changes it on purpose re-pins it as a recorded spec change.
    assert digest(seeds=range(100, 105)) == (
        "be5413195f6ca66101e066b00405655ab0e5dc4d2b8eb2b8b2fe96cbcf556022",
        6000,
    )


def parse_outcome(session):
    """A session's parse: the consumed length and the tree as JSON, with
    every node's span, or the failure and its position; then the counters
    and the statistics, read after the parse."""
    try:
        result = session.parse()
    except ParseError as error:
        outcome: tuple = (type(error).__name__, error.position, None)
    else:
        outcome = ("ok", result.consumed, to_json(result.root), result.stats)
    return outcome + (session.farthest, session.backtrack, session.calls)


def test_bare_and_counting_modules_agree_over_the_corpus():
    # A parse runs the bare module and leaves its failure position and its
    # counters to the counting one, which a step limit runs from the start:
    # both give the same outcome on every pair the limit lets finish.
    compared = 0
    for seed in range(100, 105):
        for _, grammar, data in make_corpus(seed, 200):
            for memo, window in DIGEST_SETTINGS:
                for build_ast in (True, False):
                    options = {"memo": memo, "window": window, "build_ast": build_ast}
                    limited = ParseSession(grammar, data, max_steps=ENGINE_STEPS, **options)
                    try:
                        counting = parse_outcome(limited)
                    except StepLimitExceeded:
                        continue
                    bare = parse_outcome(ParseSession(grammar, data, **options))
                    assert bare == counting, (format_grammar(grammar), data, options)
                    compared += 1
    assert compared > 5900
