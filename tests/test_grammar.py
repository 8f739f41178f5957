"""Grammar file reader and writer."""

import random
import re

import pytest
from corpus import digest_texts

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
    Option,
    Sequence,
    Tag,
    Terminal,
    ZeroOrMore,
)
from pegfold.grammar import Diagnostic, GrammarSyntaxError, format_grammar, parse_grammar


def body(text, name=None):
    g = parse_grammar(text)
    return g.productions[name or g.start]


def test_single_terminal():
    g = parse_grammar("A = 'a'")
    assert g.start == "A"
    assert g.productions == {"A": Terminal(b"a")}


def test_precedence_choice_below_sequence():
    assert body("A = 'a' 'b' / 'c'") == Choice(
        (Sequence((Terminal(b"a"), Terminal(b"b"))), Terminal(b"c"))
    )


def test_precedence_suffix_binds_tightest():
    assert body("A = !'a'*") == Not(ZeroOrMore(Terminal(b"a")))
    assert body("A = 'a'*?") == Option(ZeroOrMore(Terminal(b"a")))


def test_grouping():
    assert body("A = ('a' / 'b') 'c'") == Sequence(
        (Choice((Terminal(b"a"), Terminal(b"b"))), Terminal(b"c"))
    )


def test_singletons_collapse():
    assert body("A = ( 'a' )") == Terminal(b"a")


def test_prefix_operators():
    assert body("A = &'a' !'b' @'c'") == Sequence(
        (And(Terminal(b"a")), Not(Terminal(b"b")), Link(Terminal(b"c"), None))
    )


def test_indexed_link_and_class_after_at():
    assert body("A = @[1]'b'") == Link(Terminal(b"b"), 1)
    assert body("A = @[12]'b'") == Link(Terminal(b"b"), 12)
    # "@[" followed by a non-index is a character-class link body
    assert body("A = @[0-9]") == Link(CharClass(((0x30, 0x39),)), None)


@pytest.mark.parametrize("digit", ["²", "٣"])
def test_an_index_takes_ascii_digits_only(digit):
    # Anything but ASCII digits after "@[" is a class body, and a class
    # entry must be one byte.
    with pytest.raises(GrammarSyntaxError) as info:
        parse_grammar(f"A = @[{digit}] 'b'")
    (d,) = info.value.diagnostics
    assert str(d) == f"error syntax <grammar>:1:7: character class entries must be single bytes, got {digit!r}"


def test_constructor_fold_and_link_disambiguation():
    # "{@ X}" folds; "{@X}" is a constructor starting with a link.
    assert body("A = {@ B }  B = 'b'") == LeftFold(Nonterminal("B"))
    assert body("A = {@B }  B = 'b'") == New(Link(Nonterminal("B"), None))


def test_constructor_with_links_and_tag():
    assert body("A = { @[1]B '+' @[0]B #Add }  B = 'b'") == New(
        Sequence(
            (
                Link(Nonterminal("B"), 1),
                Terminal(b"+"),
                Link(Nonterminal("B"), 0),
                Tag("Add"),
            )
        )
    )


def test_fold_under_repetition():
    expected = Sequence(
        (
            Nonterminal("Product"),
            ZeroOrMore(
                LeftFold(
                    Sequence(
                        (
                            Choice(
                                (
                                    Sequence((Terminal(b"+"), Tag("add"))),
                                    Sequence((Terminal(b"-"), Tag("sub"))),
                                )
                            ),
                            Link(Nonterminal("Product"), None),
                        )
                    )
                )
            ),
        )
    )
    text = "Sum = Product {@ ( '+' #add / '-' #sub ) @Product }*\nProduct = 'p'"
    assert body(text, "Sum") == expected


def test_dot_and_empty_literal():
    assert body("A = . ''") == Sequence((ANY, EMPTY))


def test_literal_escapes():
    assert body(r"A = 'a\'b\\c\n\r\t\x41\xff'") == Terminal(b"a'b\\c\n\r\tA\xff")


def test_literal_utf8_bytes():
    assert body("A = 'é'") == Terminal("é".encode("utf-8"))


def test_char_class_forms():
    assert body("A = [a-z0-9_]") == CharClass(((0x61, 0x7A), (0x30, 0x39), (0x5F, 0x5F)))
    assert body("A = [A-z]") == CharClass(((0x41, 0x7A),))
    assert body(r"A = [\]\\\-]") == CharClass(((0x5D, 0x5D), (0x5C, 0x5C), (0x2D, 0x2D)))
    assert body("A = [a-]") == CharClass(((0x61, 0x61), (0x2D, 0x2D)))


def test_comments_and_whitespace():
    g = parse_grammar("// header\nA = 'a' // trailing\n  B // ref\nB = 'b'\n")
    assert g.productions["A"] == Sequence((Terminal(b"a"), Nonterminal("B")))


def test_crlf_tabs_and_comment_at_eof():
    g = parse_grammar("A = 'a'\r\n\tB\r\nB = 'b' // no newline after this")
    assert g.productions["A"] == Sequence((Terminal(b"a"), Nonterminal("B")))
    assert g.productions["B"] == Terminal(b"b")


def test_high_byte_escapes_round_trip():
    g = parse_grammar(r"A = '\x00\xff' [\xc0-\xff]")
    assert g.productions["A"] == Sequence(
        (Terminal(b"\x00\xff"), CharClass(((0xC0, 0xFF),)))
    )
    assert parse_grammar(format_grammar(g)) == g


def test_next_production_terminates_sequence():
    g = parse_grammar("A = 'a' B\nB = 'b'")
    assert g.productions["A"] == Sequence((Terminal(b"a"), Nonterminal("B")))
    assert list(g.productions) == ["A", "B"]


def test_start_defaults_to_first_production():
    assert parse_grammar("First = 'a'\nSecond = 'b'").start == "First"


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "A",
        "A =",
        "A = (",
        "A = 'a",
        "A = 'a' )",
        "A = {",
        "A = {}",
        "A = []",
        "A = [z-a]",
        r"A = '\q'",
        r"A = '\x4'",
        "A = #",
        "= 'a'",
        "A = 'a' = 'b'",
    ],
)
def test_syntax_errors(bad):
    with pytest.raises(GrammarSyntaxError) as info:
        parse_grammar(bad)
    d = info.value.diagnostics[0]
    assert d.severity == "error"
    assert d.line >= 1 and d.column >= 1


@pytest.mark.parametrize("open_, close, wrap", [("(", ")", lambda e: e), ("{ ", "}", New)])
def test_nesting_past_the_recursion_limit_is_a_syntax_error(open_, close, wrap):
    with pytest.raises(GrammarSyntaxError) as info:
        parse_grammar("A = 'a'\nB = " + open_ * 400 + "'b'" + close * 400)
    d = info.value.diagnostics[0]
    assert (d.severity, d.code, d.message) == ("error", "syntax", "grammar nests too deeply")
    assert (d.line, d.column) == (2, 5)  # the outermost unclosed bracket
    expected = Terminal(b"b")
    for _ in range(150):
        expected = wrap(expected)
    assert body("B = " + open_ * 150 + "'b'" + close * 150) == expected


@pytest.mark.parametrize(
    "text, column, message",
    [
        ("A = '\ud800'", 6, "lone surrogate in literal"),
        ("A = 'ab\udfffc'", 8, "lone surrogate in literal"),
        ("A = [\ud800]", 6, "character class entries must be single bytes, got '\\ud800'"),
    ],
)
def test_a_lone_surrogate_is_a_syntax_error_at_its_position(text, column, message):
    with pytest.raises(GrammarSyntaxError) as info:
        parse_grammar(text)
    (d,) = info.value.diagnostics
    assert (d.severity, d.code, d.message) == ("error", "syntax", message)
    assert (d.line, d.column) == (1, column)


def test_duplicate_production_rejected():
    with pytest.raises(GrammarSyntaxError) as info:
        parse_grammar("A = 'a'\nA = 'b'")
    assert info.value.diagnostics[0].code == "duplicate-production"
    assert info.value.diagnostics[0].line == 2


def test_error_positions_are_line_and_column():
    with pytest.raises(GrammarSyntaxError) as info:
        parse_grammar("A = 'a'\nB = [")
    d = info.value.diagnostics[0]
    assert d.line == 2


def test_a_diagnostic_prints_its_position_when_it_has_one():
    with pytest.raises(GrammarSyntaxError) as info:
        parse_grammar("A = 'a'\nB = (")
    assert str(info.value.diagnostics[0]) == "error syntax <grammar>:2:6: expected an expression"
    assert str(Diagnostic("warning", "w", "text", "A", 3, 1)) == "warning w A:3:1: text"
    assert str(Diagnostic("error", "e", "text")) == "error e <grammar>: text"


def test_locations_recorded():
    g = parse_grammar("A = 'a'\nB = 'b'")
    assert g.location("A") == (1, 1)
    assert g.location("B") == (2, 1)


FIXES = [
    "A = 'a'",
    "A = 'a' 'b' / 'c'+ / !('d' B)?\nB = [x-z]* . ''",
    "S = { #S @A 'x' } / { @A 'y' #S }\nA = {@ 'a' }",
    "M = P {@ ( '+' #add / '-' #sub ) @P }*\nP = { [0-9]+ #Int } / '(' M ')'",
    "L = { @T (',' @T)+ #List }\nT = { [A-z] #Term }",
    "Q = @[2]( [0-9] ) &'x' @( 'y' )",
]


# What a mutation inserts: the reader's lexical corners, non-ASCII digits and
# letters beside the ASCII ones it accepts, and a lone surrogate, which has
# no UTF-8 form.
PIECES = (
    "²", "³", "٣", "é", "Ж", "\0", "\\x", "\\", "@[", "{@", "//", "'", "[", "]",
    "{", "}", "(", ")", "=", "/", "@", "#", "-", " ", "\n", "7", "A", "\ud800",
)  # fmt: skip
CORNERS = re.compile(r"@\[|\{@|\\|//")  # where the reader looks past one character


def mutate(text, rng):
    """``text`` after one to three edits: one or two ``PIECES`` inserted, one
    to three characters deleted, or one replaced by a piece.  Half of them
    land just after one of the ``CORNERS``."""
    for _ in range(rng.randint(1, 3)):
        sites = [m.end() for m in CORNERS.finditer(text)]
        at = rng.choice(sites) if sites and rng.random() < 0.5 else rng.randint(0, len(text))
        roll = rng.random()
        if roll < 0.5:
            text = text[:at] + "".join(rng.choices(PIECES, k=rng.randint(1, 2))) + text[at:]
        elif roll < 0.75:
            text = text[:at] + text[at + rng.randint(1, 3) :]
        else:
            text = text[:at] + rng.choice(PIECES) + text[at + 1 :]
    return text


def test_mutated_grammars_read_or_fail_with_a_diagnostic():
    rng = random.Random(18)
    texts = FIXES + digest_texts(range(100, 103))  # corpus grammars, then the benchmark's
    for _ in range(2000):
        text = mutate(rng.choice(texts), rng)
        try:
            grammar = parse_grammar(text)
        except GrammarSyntaxError as error:
            (d,) = error.diagnostics
            assert d.severity == "error" and d.line >= 1 and d.column >= 1, text
            continue
        assert parse_grammar(format_grammar(grammar)) == grammar, text


# Nested deeper than a writer that recursed per level could follow at the
# default recursion limit.
DEEP = "S = " + "{ 'a' " * 170 + "'b'" + " }" * 170


@pytest.mark.parametrize("text", [*FIXES, pytest.param(DEEP, id="nested-170")])
def test_write_parse_round_trip(text):
    g = parse_grammar(text)
    printed = format_grammar(g)
    if text is DEEP:
        assert printed == DEEP + "\n"
    assert parse_grammar(printed) == g
    # printing is a fixed point after one round
    assert format_grammar(parse_grammar(printed)) == printed
