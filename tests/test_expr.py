"""Expression constructors, equality and hashing, operator erasure and printing."""

import copy
import dataclasses
import pickle
import sys

import pytest

from pegfold.expr import (
    ANY,
    EMPTY,
    KINDS,
    And,
    AnyChar,
    CharClass,
    Choice,
    Empty,
    LeftFold,
    Link,
    New,
    Not,
    Nonterminal,
    OneOrMore,
    Option,
    Sequence,
    Tag,
    Terminal,
    ZeroOrMore,
    choice,
    erase_tree_operators,
    format_expression,
    sequence,
    subexpressions,
)
from pegfold.analysis import shape
from pegfold.grammar import Grammar, parse_grammar

A = Terminal(b"a")
B = Terminal(b"b")


def test_invariants_enforced():
    with pytest.raises(ValueError):
        Terminal(b"")
    with pytest.raises(ValueError):
        CharClass(())
    with pytest.raises(ValueError):
        CharClass(((9, 3),))
    with pytest.raises(ValueError):
        Sequence((A,))
    with pytest.raises(ValueError):
        Choice((A,))
    with pytest.raises(ValueError):
        Link(A, -1)


def test_constructor_helpers_collapse():
    assert sequence([]) == EMPTY
    assert sequence([A]) == A
    assert sequence([A, B]) == Sequence((A, B))
    assert choice([A]) == A


def test_erase_tree_operators():
    decorated = New(Sequence((Link(Nonterminal("X"), 1), Tag("T"), A)))
    assert erase_tree_operators(decorated) == Sequence((Nonterminal("X"), A))


def test_erase_pure_tagging_becomes_empty():
    assert erase_tree_operators(New(Tag("T"))) == EMPTY


def test_format_expression_minimal_parens():
    e = Choice((Sequence((A, Not(ZeroOrMore(B)))), EMPTY))
    assert format_expression(e) == "'a' !'b'* / ''"


def test_format_expression_parenthesizes_when_needed():
    e = ZeroOrMore(Choice((A, B)))
    assert format_expression(e) == "( 'a' / 'b' )*"
    e2 = ZeroOrMore(Not(A))
    assert format_expression(e2) == "( !'a' )*"


# One expression of each class, and one more that differs from it in one
# field or subexpression.
PAIRS = [
    (Empty(), AnyChar()),
    (Terminal(b"a"), Terminal(b"b")),
    (CharClass(((48, 57),)), CharClass(((48, 56),))),
    (AnyChar(), Empty()),
    (Nonterminal("a"), Tag("a")),
    (Tag("a"), Tag("b")),
    (Option(A), ZeroOrMore(A)),
    (ZeroOrMore(A), ZeroOrMore(B)),
    (OneOrMore(A), Option(A)),
    (And(A), Not(A)),
    (Not(A), Not(B)),
    (New(A), LeftFold(A)),
    (LeftFold(A), LeftFold(B)),
    (Link(A), Link(A, 0)),
    (Sequence((A, B)), Sequence((A, B, A))),
    (Choice((A, B)), Choice((B, A))),
]


def test_every_class_has_its_kind():
    assert [type(e) for e, _ in PAIRS] == list(KINDS)
    assert [cls.kind for cls in KINDS] == list(range(len(KINDS)))


@pytest.mark.parametrize("e, other", PAIRS, ids=[type(e).__name__ for e, _ in PAIRS])
def test_equal_expressions_hash_alike_and_others_differ(e, other):
    twin = copy.copy(e)
    assert twin is not e and twin == e and hash(twin) == hash(e)
    assert e != other and other != e
    assert e != object() and e != type(e).__name__
    assert type(e)(*[getattr(twin, name) for name in type(e).__match_args__]) == e
    assert subexpressions(twin) == subexpressions(e)


@pytest.mark.parametrize("e, other", PAIRS, ids=[type(e).__name__ for e, _ in PAIRS])
def test_the_flat_form_of_productions_is_equal_where_they_are(e, other):
    # The compiled-module cache finds a grammar's module by ``shape``: it
    # must tell apart what ``==`` tells apart, and nothing more.
    def flat(*bodies):
        return shape(Grammar({f"P{i}": body for i, body in enumerate(bodies)}))

    assert flat(e, Sequence((e, A))) == flat(copy.deepcopy(e), Sequence((copy.copy(e), A)))
    assert flat(e) != flat(other) and flat(e) != shape(Grammar({"Q": e}))
    assert flat(Sequence((e, B))) != flat(Sequence((other, B)))


def test_class_patterns_match_the_fields():
    match Choice((New(Sequence((Link(Nonterminal("X"), 2), Terminal(b"a")))), ZeroOrMore(ANY))):
        case Choice((New(Sequence((Link(Nonterminal(name), index), Terminal(text)))), ZeroOrMore(AnyChar()))):
            assert (name, index, text) == ("X", 2, b"a")
        case _:
            pytest.fail("no pattern matched")


@pytest.mark.parametrize("e", [e for e, _ in PAIRS], ids=[type(e).__name__ for e, _ in PAIRS])
def test_expressions_are_frozen(e):
    for name in ("_hash", "kind", *type(e).__match_args__):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(e, name, A)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(e, name)


def test_expressions_copy_pickle_and_print_their_fields():
    e = New(Sequence((Link(Nonterminal("X"), 2), CharClass(((97, 99),)), Tag("T"), ANY)))
    for twin in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert twin == e and hash(twin) == hash(e)
    assert repr(Link(Nonterminal("X"))) == "Link(body=Nonterminal(name='X'), index=None)"
    assert repr(EMPTY) == "Empty()"


# Nested deeper than an equality or a hash that recursed per level could
# follow at the default recursion limit.
DEEP = "S = " + "{ 'a' " * 170 + "'b'" + " }" * 170


def test_deep_grammars_compare_and_hash_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    first, second = parse_grammar(DEEP), parse_grammar(DEEP)
    assert first == second
    assert hash(tuple(first.productions.items())) == hash(tuple(second.productions.items()))
    other = parse_grammar(DEEP.replace("'b'", "'c'"))
    assert first != other
    assert hash(first.productions["S"]) != hash(other.productions["S"])
    assert shape(first) == shape(second) != shape(other)
