"""Randomized invariants over generated grammars and inputs."""

import random

from corpus import ENGINE_STEPS, _Generator, engine_outcome, make_corpus, oracle_outcome

from pegfold.analysis import assign_memo_points
from pegfold.expr import desugar
from pegfold.grammar import Grammar, format_grammar, parse_grammar
from pegfold.interp import ParseError, ParseSession, StepLimitExceeded
from pegfold.tree import equals, parse_notation, serialize


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
