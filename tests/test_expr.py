"""Expression constructors, operator erasure and printing."""

import pytest

from pegfold.expr import (
    EMPTY,
    CharClass,
    Choice,
    Link,
    New,
    Not,
    Nonterminal,
    Sequence,
    Tag,
    Terminal,
    ZeroOrMore,
    choice,
    erase_tree_operators,
    format_expression,
    sequence,
)

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
