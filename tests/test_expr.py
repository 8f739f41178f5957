"""Expression constructors, desugaring, and operator erasure."""

import pytest

from pegfold.expr import (
    ANY,
    EMPTY,
    And,
    CharClass,
    Choice,
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
    desugar,
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


def test_desugar_option():
    assert desugar(Option(A)) == Choice((A, EMPTY))


def test_desugar_one_or_more():
    assert desugar(OneOrMore(A)) == Sequence((A, ZeroOrMore(A)))


def test_desugar_and_predicate():
    assert desugar(And(A)) == Not(Not(A))


def test_desugar_recurses_and_keeps_star_native():
    inner = desugar(ZeroOrMore(Option(A)))
    assert inner == ZeroOrMore(Choice((A, EMPTY)))


def test_desugar_keeps_char_class_by_default():
    cc = CharClass(((0x61, 0x63),))
    assert desugar(New(cc)) == New(cc)


def test_desugar_can_expand_char_classes():
    cc = CharClass(((0x61, 0x62), (0x7A, 0x7A)))
    assert desugar(cc, expand_char_classes=True) == Choice(
        (Terminal(b"a"), Terminal(b"b"), Terminal(b"z"))
    )


def test_desugar_core_has_no_sugar():
    sugary = New(Sequence((Option(A), OneOrMore(B), And(ANY), CharClass(((0x30, 0x31),)))))
    core = desugar(sugary, expand_char_classes=True)

    def scan(e):
        assert not isinstance(e, (Option, OneOrMore, And, CharClass)), e
        match e:
            case Sequence(items):
                for i in items:
                    scan(i)
            case Choice(alternatives):
                for a in alternatives:
                    scan(a)
            case ZeroOrMore(body) | Not(body) | New(body) | LeftFold(body) | Link(body):
                scan(body)

    scan(core)


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
