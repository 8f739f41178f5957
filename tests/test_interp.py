"""Engine semantics: recognition, tree construction, statistics."""

import itertools

import pytest
from corpus import engine_outcome, oracle_outcome

from pegfold.grammar import parse_grammar
from pegfold.interp import (
    InvalidGrammarError,
    ParseError,
    ParseSession,
    StepLimitExceeded,
)
from pegfold.machine import Machine
from pegfold.tree import serialize

TAGGING = "Value  = { [0-9]+ }\nNumber = { [0-9]+ } #Int\n"

NUMBER = "Number = { [0-9]+ #Int }\n"

LINKS = (
    "Additive = { @Number '+' @Number #Add }\n"
    "Additive2 = { @[1]Number '+' @[0]Number #Add }\n"
    "AdditiveM = { @Number ('+' @Number)+ #Add }\n"
    "AdditiveM2 = { @Number ('+' @[1]Number)+ #Add }\n" + NUMBER
)

FLAT_LIST = (
    "Expr = List / Term\n"
    "List  = { @Term (',' @Term)+ #List}\n"
    "Term = {[A-z] #Term}\n"
)

RIGHT_PAIRS = (
    "Expr = Pair / Term\n"
    "Pair =  {@Term ',' @Expr #Pair }\n"
    "Term = { [A-z] #Term }\n"
)

LEFT_PAIRS = "Expr = Term {@ (',' @Term) #Pair }*\nTerm = {[A-z] #Term}\n"

MATH = """Expr = Sum
Sum = Product {@ ( '+' #add / '-' #sub ) @Product }*
Product = Value {@ ( '*' #mul / '/' #div) @Value }*
Value = { [0-9]+ #Integer } / '(' Expr ')'
"""


def run(grammar_text, data, start=None, **kw):
    session = ParseSession(parse_grammar(grammar_text), data, **kw)
    return session.parse(start)


def tree_of(grammar_text, data, start=None, **kw):
    return serialize(run(grammar_text, data, start, **kw).root)


# -- construction shapes ------------------------------------------------------


def test_capture_without_tag_is_token():
    assert tree_of(TAGGING, b"12", "Value") == "#token['12']"


def test_tag_after_constructor():
    assert tree_of(TAGGING, b"12", "Number") == "#Int['12']"


@pytest.mark.parametrize(
    "text",
    [
        "Number = Value #Int\nValue = { [0-9]+ }",
        "Number = { #Int [0-9]+ }",
        "Number = { [0-9]+ #Int}",
    ],
)
def test_equivalent_tagging_spellings(text):
    assert tree_of(text, b"12") == "#Int['12']"


def test_conditional_tag_override():
    g = "Number = { [0-9]+ #Int ([Ll] #Long)? }"
    assert tree_of(g, b"12") == "#Int['12']"
    assert tree_of(g, b"12L") == "#Long['12L']"


def test_two_links():
    assert tree_of(LINKS, b"1+2", "Additive") == "#Add[#Int['1'] #Int['2']]"


def test_indexed_links_swap_order():
    assert tree_of(LINKS, b"1+2", "Additive2") == "#Add[#Int['2'] #Int['1']]"


def test_links_in_repetition_flatten():
    assert (
        tree_of(LINKS, b"1+2+3+4", "AdditiveM")
        == "#Add[#Int['1'] #Int['2'] #Int['3'] #Int['4']]"
    )


def test_indexed_link_in_repetition_overrides():
    assert tree_of(LINKS, b"1+2+3+4", "AdditiveM2") == "#Add[#Int['1'] #Int['4']]"


def test_flattened_list():
    assert (
        tree_of(FLAT_LIST, b"A,B,C,D")
        == "#List[#Term['A'] #Term['B'] #Term['C'] #Term['D']]"
    )


def test_right_associative_pairs():
    assert (
        tree_of(RIGHT_PAIRS, b"A,B,C,D")
        == "#Pair[#Term['A'] #Pair[#Term['B'] #Pair[#Term['C'] #Term['D']]]]"
    )


def test_left_associative_pairs():
    assert (
        tree_of(LEFT_PAIRS, b"A,B,C,D")
        == "#Pair[#Pair[#Pair[#Term['A'] #Term['B']] #Term['C']] #Term['D']]"
    )


def test_math_precedence_and_associativity():
    assert tree_of(MATH, b"1+2*3") == "#add[#Integer['1'] #mul[#Integer['2'] #Integer['3']]]"
    assert tree_of(MATH, b"1-2-3") == "#sub[#sub[#Integer['1'] #Integer['2']] #Integer['3']]"
    assert tree_of(MATH, b"(1+2)*3") == "#mul[#add[#Integer['1'] #Integer['2']] #Integer['3']]"


def test_fold_span_opens_at_fold_point():
    root = run(MATH, b"12+34").root
    assert root.tag == "add"
    assert root.start == 2 and root.end == 5
    assert root.children[0].start == 0  # first child precedes the fold span


def test_fold_right_after_constructor_adopts_its_node():
    result = run("A = { 'a' } {@ 'b' }", b"ab")
    assert serialize(result.root) == "#tree[#token['a']]"
    assert (result.root.start, result.root.end) == (1, 2)
    assert (result.root.children[0].start, result.root.children[0].end) == (0, 1)


# Links whose bodies fold their parent away, directly or two folds deep
# (with or without a link into the first fold), which must be refused as
# cycles; a constructor that breaks the fold chain, so the link stands;
# and these inside choice alternatives that fail after the link.  N is a
# link memo point in every grammar.
CYCLE_GRAMMARS = [
    ("S = { #S 'a' @( {@ #F 'b' } ) ('c' @N)? }\nN = { #N 'c' }", "abc"),
    ("S = { #S 'a' @F (@N)? } 'd'?\nF = {@ #F {@ #G 'b' } }\nN = { #N 'c' }", "abcd"),
    (
        "S = { #S @( {@ 'b' } @N {@ 'd' } 'x' / {@ 'b' } { #C 'c' } {@ 'd' } ) }\n"
        "N = { #N 'c' }",
        "bcdx",
    ),
    (
        "S = { #S 'a' ( @F 'x' / @G 'y' / @H 'z' / @N @N / @F ) } / { #T @N 'q' }\n"
        "F = {@ #F 'b' }\nG = {@ #G2 {@ #G1 'b' } }\nH = {@ 'b' } @N {@ 'd' }\nN = { #N 'b' }",
        "abdqxyz",
    ),
]


def assert_matches_the_reference(text, letters):
    """Every input of up to four ``letters``, memo off and on at windows 1 and 256."""
    grammar = parse_grammar(text)
    for size in range(5):
        for chars in itertools.product(letters, repeat=size):
            data = "".join(chars).encode()
            expected = oracle_outcome(grammar, data)
            for memo, window in ((False, 256), (True, 1), (True, 256)):
                got = engine_outcome(grammar, data, memo=memo, window=window)
                assert got == expected, (data, memo, window)


@pytest.mark.parametrize("text, letters", CYCLE_GRAMMARS)
def test_fold_chain_cycles_match_the_reference(text, letters):
    assert_matches_the_reference(text, letters)


# Grammars on both sides of the eager-construction boundary: constructors
# that nothing can change once they close, and ones that a tag, a link, an
# enclosing capture, a predicate or a loop's next iteration still reaches.
# Each also runs inside choice alternatives that fail after it.
EAGER_BOUNDARY_GRAMMARS = [
    # a fold inside a constructor: the outer capture targets the fold node
    (
        "S = { #S @F 'z' } / { #T @F } / F 'z' / @( { 'a' {@ 'b' } 'c' } ) 'y'\n"
        "F = { 'a' {@ 'b' #B } 'c' }",
        "abcyz",
    ),
    ("S = { 'a' } #T 'z' / { 'a' } #T / 'b'", "abz"),
    ("S = { 'a' } @B 'z' / { 'a' } @B / @B\nB = { 'b' #B }", "abz"),
    # a constructor that closes inside its caller's, directly or via C
    ("S = A 'z' / A\nA = { 'x' B }\nB = { 'b' } / C\nC = D\nD = { 'd' }", "xbdz"),
    ("S = &{ 'a' #P } { 'a' 'b' #Q } 'z' / !{ 'b' } { 'a' #R } / { 'b' }", "abz"),
    ("S = ( { ''? } )* 'z' / ( { ''? #E } )* { 'a' }", "az"),
    # a loop whose next iteration tags or links into the last node
    ("S = ( { 'a' } / 'b' #T )* 'z' / ( { 'a' } / @B )+\nB = { 'b' }", "abz"),
]


@pytest.mark.parametrize("text, letters", EAGER_BOUNDARY_GRAMMARS)
def test_eager_construction_boundaries_match_the_reference(text, letters):
    assert_matches_the_reference(text, letters)


# Choices whose next byte rules out alternatives that open a node: the
# skipped constructors, folds and trailing tags must leave the same trees.
DISPATCH_GRAMMARS = [
    ("S = { 'a' #A } / { 'b' #B } / 'c' / { #C }", "abc"),
    ("S = X ({@ '+' @X #Add } / {@ '-' @X #Sub })*\nX = { 'a' #X } / { 'b' }", "ab+-"),
    ("S = ({ 'a' #A } / {@ 'b' #B })* { 'c' }? / { 'a' } 'b'", "abc"),
    ("S = { 'a' {@ 'b' } #T } / { 'a' #T } / 'b'", "ab"),
    ("S = { @A 'x' #S } / { @B 'y' #S } / @B\nA = { 'a' #A }\nB = { 'a' } #B / { 'b' }", "abxy"),
]


@pytest.mark.parametrize("text, letters", DISPATCH_GRAMMARS)
def test_dispatch_skips_constructors_to_the_reference_trees(text, letters):
    assert_matches_the_reference(text, letters)


def test_eager_node_takes_its_trailing_tag():
    assert tree_of("S = { #a 'x' #b }", b"x") == "#b['x']"


# Local constructors: tags, links and savepoints at their level go to a
# record, links commit lazily built children at once and restore the
# machine when they fail, and a fold over a lazily built node is logged.
LOCAL_GRAMMARS = [
    # record savepoints: a failed alternative, option or loop step drops
    # the tags and links it added
    ("S = { ( @A #X 'b' / @A 'c' / 'a' #Y ) ( @A #Z 'b' )? ( @A 'c' #W )* }\nA = { 'a' }", "abc"),
    ("S = { ( #E )* ( 'a' #T )* ( @A ''? )* }\nA = { 'b' }", "ab"),
    # indexed links, with gaps, overwritten slots and a replaced first child
    ("S = { @[2]A ( @[0]A 'x' / @[2]B ) ( @[1]B )? }\nA = { 'a' }\nB = { 'b' #B }", "abx"),
    ("S = A {@ @[0]B ( ',' @[2]A )* #F }*\nA = { 'a' }\nB = { 'b' }", "ab,"),
    # lazily built children, and link bodies that fail after building
    ("S = { @A ( 'x' @A )* #S } / { @B #R }\nA = { 'a' } #A\nB = { 'a' } #B 'c' / 'a'", "acx"),
    ("S = { @A ( 'x' @A )* } 'y' / A\nA = { 'a' } #A 'b' / { 'a' #C }", "abxy"),
    # folds over a lazily built node, with and without a level
    ("S = A {@ 'b' @C #F } ( {@ 'c' } )?\nA = { 'a' } #A\nC = { 'c' }", "abc"),
]


@pytest.mark.parametrize("text, letters", LOCAL_GRAMMARS)
def test_local_constructors_match_the_reference(text, letters):
    assert_matches_the_reference(text, letters)


def test_a_trailing_tag_beats_the_tags_of_a_local_level():
    g = "S = { #A 'a' ( 'b' #B )? } ';' / { #A 'a' ( 'b' #B )? #T }"
    assert tree_of(g, b"ab;") == "#B['ab']"
    assert tree_of(g, b"a;") == "#A['a']"
    assert tree_of(g, b"ab") == "#T['ab']"


def test_a_local_fold_adopts_a_built_node_and_links_into_it():
    session = ParseSession(parse_grammar("S = N {@ '+' @N #Add }*\nN = { [0-9] #Int }"), b"1+2+3")
    root = session.parse().root
    assert serialize(root) == "#Add[#Add[#Int['1'] #Int['2']] #Int['3']]"
    assert (root.start, root.end) == (3, 5)  # the span opens at the fold point
    assert (root.children[0].start, root.children[0].end) == (1, 3)
    # every node was built at its close: nothing was logged
    assert session.machine.log == [] and session.machine.first == []


def test_local_indexed_links_fill_their_slots_and_drop_gaps():
    g = "S = { @[3]D @[1]D @[3]D }\nD = { [0-9] #d }"
    assert tree_of(g, b"123") == "#tree[#d['2'] #d['3']]"


def test_math_parse_aborts_nothing(monkeypatch):
    aborts = []
    monkeypatch.setattr(Machine, "abort", lambda self, mark: aborts.append(mark))
    g = parse_grammar(MATH)
    data = b"(1+2)*3-(4*(5-6)+7)/8*9+((0))"
    for memo, build_ast in itertools.product((False, True), repeat=2):
        ParseSession(g, data, memo=memo, build_ast=build_ast).parse()
    # every choice, option and loop step that starts is one that can succeed
    assert aborts == []


# The JSON-like grammar of the benchmark's json-doc workload.
JSON_LIKE = r"""Doc    = S Value S
Value  = Object / Array / String / Number / Lit
Object = { '{' S (@Member S (',' S @Member S)*)? '}' #Object }
Member = { @String S ':' S @Value #Member }
Array  = { '[' S (@Value S (',' S @Value S)*)? ']' #Array }
String = '"' { (!["\\] . / '\\' .)* #String } '"'
Number = { '-'? [0-9]+ ('.' [0-9]+)? ([eE] [+\-]? [0-9]+)? #Number }
Lit    = { ('true' / 'false' / 'null') #Lit }
S      = [ \t\r\n]*
"""

JSON_INPUT = b'{"a": [1, -2.5e3, true, "x\\"y"], "b": {}, "c": null}'


def count_transactions(monkeypatch):
    """Patches ``Machine.save`` and ``Machine.abort`` to count their calls."""
    counts = {"save": 0, "abort": 0}
    for name in counts:

        def counted(self, *args, _name=name, _real=getattr(Machine, name)):
            counts[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(Machine, name, counted)
    return counts


def test_recognize_mode_opens_no_savepoint(monkeypatch):
    counts = count_transactions(monkeypatch)
    for text, data in ((MATH, b"(1+2)*3-(4*(5-6)+7)/8*9+((0))"), (JSON_LIKE, JSON_INPUT)):
        for memo in (False, True):
            result = ParseSession(parse_grammar(text), data, memo=memo, build_ast=False).parse()
            assert result.consumed == len(data)
    # with tree operators erased no attempt can change the machine
    assert counts == {"save": 0, "abort": 0}


@pytest.mark.parametrize("memo", [False, True])
def test_json_parse_opens_savepoints_only_where_a_rollback_finds_work(monkeypatch, memo):
    counts = count_transactions(monkeypatch)
    result = ParseSession(parse_grammar(JSON_LIKE), JSON_INPUT, memo=memo).parse()
    assert serialize(result.root).startswith("#Object[#Member[#String['a'] #Array[#Number['1']")
    # None.  Value's String alternative builds its node before the closing
    # quote, but String never logs, so its savepoint holds the left register
    # alone.  Objects, arrays and members build from local records, which a
    # failure drops, and their links restore the register themselves.
    assert counts == {"save": 0, "abort": 0}


# Alternatives, options and loop steps that fail after a tag, a link, an
# opened constructor or a fold over a lazily built node: each is dirty, so
# its entries must roll back, while clean ones around it run without a
# savepoint.  Memo on, @A is a memoized link, clean whatever its body.
TRANSACTION_GRAMMARS = [
    ("S = { 'x' } ( 'a' #T 'b' / 'a' 'c' )", "xabc"),
    ("S = { 'x' } ( ( 'q' / 'a' #T 'b' ) / 'a' 'c' )", "xabcq"),
    ("S = { 'x' ( @A 'b' / @A 'c' ) #S }\nA = { 'a' #A }", "xabc"),
    ("S = { @A 'b' #B } / { @A 'c' #C } / { 'a' 'd' }\nA = { 'a' #A }", "abcd"),
    ("S = { 'x' } #T ( {@ 'a' } 'b' / {@ 'a' #F } 'c' / 'a' )", "xabc"),
    ("S = { 'x' ( 'a' #T 'b' )? ( @A 'c' )* 'a'? }\nA = { 'a' } #A", "xabc"),
    ("S = { 'x' ( @A / 'a' 'c' ) #S }\nA = { @B 'c' #A }\nB = { 'a' 'b' } / 'a'", "xabc"),
    ("S = { 'x' ( @A / 'a' ) }\nA = 'a' #T 'b'", "xab"),  # a link body that tags the parent
    # tree operators in predicates inside constructors that open no node
    ("S = { 'a' } { &( #T 'b' ) 'b' } / { 'a' } { !( @A ) 'c' } / 'a'\nA = { 'b' }", "abc"),
    ("S = { 'x' } ( !( #T 'b' ) 'a' / &( @A ) 'b' )\nA = { 'b' #A }", "xab"),
    # calls of productions that never log, whose attempts restore the left
    # register alone; memoized links of one, which log the link; a predicate,
    # under which every constructor is lazy
    ("S = { 'x' #X } ( A 'b' / 'a' 'c' )\nA = { 'a' #A }", "xabc"),
    ("S = { 'x' } #T ( @A 'b' / @A 'c' / 'a' )\nA = { 'a' #A } / '('", "xabc("),
    ("S = { 'x' #X } ( &( A 'b' ) 'a' 'b' / 'a' )\nA = { 'a' #A }", "xab"),
    ("S = { 'x' #X } ( A 'b' )* ( A 'c' )?\nA = { 'a' #A } / ''", "xabc"),
]


@pytest.mark.parametrize("text, letters", TRANSACTION_GRAMMARS)
def test_failures_after_building_match_the_reference(text, letters):
    assert_matches_the_reference(text, letters)


def test_root_fallback_token_when_nothing_built():
    result = run("A = 'ab' 'c'", b"abc")
    assert serialize(result.root) == "#token['abc']"
    assert result.root.end == 3


def test_child_spans_nest_without_folds_or_indexed_links():
    for grammar, data in ((FLAT_LIST, b"A,B,C,D"), (RIGHT_PAIRS, b"A,B,C,D")):
        root = run(grammar, data).root

        def check(n):
            for c in n.children:
                assert n.start <= c.start <= c.end <= n.end
                check(c)

        check(root)


def test_leaf_spans_are_byte_exact():
    result = run(MATH, b"10+2")
    leaves = []

    def collect(n):
        if n.is_leaf():
            leaves.append(n)
        for c in n.children:
            collect(c)

    collect(result.root)
    for n in leaves:
        assert n.text == result.root.source[n.start : n.end]
    assert [n.text for n in leaves] == [b"10", b"2"]


# -- recognition semantics ----------------------------------------------------


def test_empty_input_on_star_grammar():
    result = run("A = 'a'*", b"")
    assert result.consumed == 0


def test_prefix_parse_succeeds_and_reports_consumed():
    result = run("A = 'ab'", b"abXYZ")
    assert result.consumed == 2


def test_parse_failure_raises_with_farthest_position():
    with pytest.raises(ParseError) as info:
        run("A = 'ab' 'cd'", b"abcX")
    assert info.value.position == 2  # 'cd' attempted at offset 2


def test_choice_is_prioritized():
    assert run("A = 'a' / 'ab'", b"ab").consumed == 1


def test_greedy_repetition_extends_with_input():
    shorter = run("A = 'ab'*", b"ababX").consumed
    longer = run("A = 'ab'*", b"abababX").consumed
    assert (shorter, longer) == (4, 6)


def test_negation():
    assert run("A = !'a' .", b"b").consumed == 1
    with pytest.raises(ParseError):
        run("A = !'a' .", b"a")


def test_and_predicate_checks_without_consuming():
    result = run("A = &'ab' 'a'", b"ab")
    assert result.consumed == 1


def test_predicates_leave_no_trace():
    g = "A = &( { 'x' #Ghost } ) { 'xy' #Real }"
    result = run(g, b"xy")
    assert serialize(result.root) == "#Real['xy']"
    assert result.stats.nodes_created == 1


def test_zero_consumption_iteration_stops_loop():
    result = run("A = ('x'?)* 'y'", b"y")
    assert result.consumed == 1


def test_zero_consumption_iteration_drops_entries():
    result = run("A = ( {''} )* 'y'", b"y")
    assert serialize(result.root) == "#token['y']"
    assert result.stats.nodes_created == 1  # only the fallback root


def test_tree_operators_do_not_affect_recognition():
    plain = run("A = 'a' 'b' / 'a' 'c'", b"ac").consumed
    decorated = run("A = { @B #X 'b' } / { 'a' 'c' #Y }\nB = { 'a' #B }", b"ac").consumed
    assert plain == decorated == 2


def test_invalid_grammar_rejected_at_session_creation():
    with pytest.raises(InvalidGrammarError):
        ParseSession(parse_grammar("A = A 'x'"), b"aa")


def test_unknown_start_symbol():
    session = ParseSession(parse_grammar("A = 'a'"), b"a")
    with pytest.raises(KeyError):
        session.parse("Missing")


def test_step_limit_guard():
    g = parse_grammar("S = T '!' / 'a' S / 'a'\nT = 'a' T / 'a'")
    with pytest.raises(StepLimitExceeded):
        ParseSession(g, b"a" * 400, memo=False, max_steps=2_000).parse()


def test_sessions_are_reusable():
    session = ParseSession(parse_grammar(NUMBER), b"42")
    first = session.parse()
    second = session.parse()
    assert serialize(first.root) == serialize(second.root) == "#Int['42']"
    assert second.stats.nodes_created == 1


# -- statistics ---------------------------------------------------------------


def test_no_backtracking_means_zero_ratio():
    result = run("A = 'ab' 'c'", b"abc")
    assert result.stats.backtrack_total == 0
    assert result.stats.backtrack_ratio == 0.0


def test_choice_backtrack_counts_consumed_bytes():
    # first alternative consumes 'ab' then dies at 'X'
    result = run("A = 'a' 'b' 'X' / 'a' 'b' 'c'", b"abc", memo=False)
    assert result.stats.backtrack_total == 2
    assert result.stats.backtrack_ratio == pytest.approx(2 / 3)


# An attempt that cannot start at the next byte is skipped; the failure
# position, backtrack total and (on success) farthest failure are those of
# running it: ("ok", consumed, backtrack_total, farthest) or ("fail",
# position, backtrack_total).
GUARD_CASES = [
    # a skipped alternative before the winner
    ("S = 'a' ('x' / 'y')", b"ay", ("ok", 2, 0, 1)),
    ("S = 'a' ('x' / 'y')", b"az", ("fail", 1, 0)),
    # a skipped last alternative
    ("S = 'a' ('x' / 'y') / 'a' 'b'", b"ab", ("ok", 2, 1, 1)),
    ("S = 'a' ('x' / 'y') / 'a' 'b'", b"ac", ("fail", 1, 1)),
    # no last alternative in the row, and the tried ones fail
    ("S = 'a' ('x' 'z' / 'x' 'w' / 'y') / 'a' 'x'", b"ax", ("ok", 2, 3, 2)),
    ("S = 'a' ('x' 'z' / 'x' 'w' / 'y')", b"axq", ("fail", 2, 2)),
    # guarded loops and options, at the end of input too
    ("S = 'a' ('b' 'c')* ('d' 'e')?", b"abc", ("ok", 3, 0, 3)),
    ("S = 'a' ('b' 'c')* ('d' 'e')?", b"ab", ("ok", 1, 1, 2)),
    ("S = ('b' 'c')*", b"bc", ("ok", 2, 0, 2)),
    ("S = 'a' ('d' 'e')?", b"a", ("ok", 1, 0, 1)),
    ("S = ('b' 'c')? 'z'", b"b", ("fail", 1, 1)),
    # nullable bodies always run
    ("S = 'a' ('x' / 'y'?) ('b'? 'c'?)*", b"a", ("ok", 1, 0, 1)),
    ("S = ('x' / 'y'?) 'z'", b"z", ("ok", 1, 0, 0)),
    # a predicate-led body always runs
    ("S = '\"' (!'\"' .)* '\"'", b'"ab"', ("ok", 4, 1, 3)),
    ("S = '\"' (!'\"' .)* '\"'", b'"ab', ("fail", 3, 0)),
    ("S = (!'b' 'a')* 'b'", b"aab", ("ok", 3, 1, 2)),
]


@pytest.mark.parametrize("memo", [False, True])
@pytest.mark.parametrize("text, data, expected", GUARD_CASES)
def test_skipped_attempts_fail_where_they_start(text, data, expected, memo):
    session = ParseSession(parse_grammar(text), data, memo=memo)
    try:
        result = session.parse()
    except ParseError as error:
        got = ("fail", error.position, session.backtrack)
    else:
        got = ("ok", result.consumed, result.stats.backtrack_total, session.farthest)
    assert got == expected


def test_and_predicate_consumption_counts_as_backtrack():
    result = run("A = &('abcde') 'abc'", b"abcde", memo=False)
    assert result.stats.backtrack_total == 5
    assert result.consumed == 3


def test_negation_failure_counts_partial_progress():
    # !'ab' scans 'a' before dying on 'b'... literals are atomic, so use a sequence
    result = run("A = !('a' 'b' 'X') 'abc'", b"abc", memo=False)
    assert result.stats.backtrack_total == 2


def test_aborted_branches_materialize_nothing():
    g = "S = { @A 'x' #S } / { @A 'y' #S }\nA = { 'a' #A }"
    result = run(g, b"ay", memo=False)
    # nothing can change A's node once its constructor closes, so A is
    # built there, also in the first alternative, which then fails; S's
    # node in that alternative was still open and materializes nothing
    assert result.stats.nodes_created == 3
    assert result.stats.nodes_in_result == 2
    assert result.stats.nodes_unused == 1


@pytest.mark.parametrize("memo", [False, True])
def test_a_link_that_fails_after_building_leaves_no_entries(memo):
    g = "S = { 'x' ( @A / 'a' 'd' ) }\nA = { @B 'c' #A }\nB = { 'a' #B }"
    result = run(g, b"xad", memo=memo)
    assert serialize(result.root) == "#token['xad']"
    # B is built at its close; A's entries roll back, memoized link or not,
    # so no commit builds A
    assert result.stats.nodes_created == 2


@pytest.mark.parametrize("memo", [False, True])
def test_a_local_link_that_fails_after_building_leaves_no_entries(memo):
    g = "S = { 'x' ( @A / 'a' 'd' ) }\nA = { 'a' } #A 'c'"
    session = ParseSession(parse_grammar(g), b"xad", memo=memo)
    result = session.parse()
    assert serialize(result.root) == "#token['xad']"
    # S builds from a record; the failed @A rolled back the lazy node it
    # logged, so no commit builds it
    assert result.stats.nodes_created == 1
    assert session.machine.log == []


def test_aborted_lazy_branches_materialize_nothing():
    g = "S = { @A 'x' } #S / { @A 'y' } #S\nA = { 'a' } #A"
    result = run(g, b"ay", memo=False)
    # the trailing tags keep S and A lazy: the failed first alternative's
    # entries were aborted before any node existed
    assert serialize(result.root) == "#S[#A['a']]"
    assert result.stats.nodes_created == 2
    assert result.stats.nodes_unused == 0


def test_a_local_link_commits_a_lazily_built_child_at_once():
    g = "S = { @A 'x' #S } / { @A 'y' #S }\nA = { 'a' } #A"
    result = run(g, b"ay", memo=False)
    # S builds from a local record, so its links commit A as they close,
    # also in the first alternative, which then fails
    assert serialize(result.root) == "#S[#A['a']]"
    assert result.stats.nodes_created == 3
    assert result.stats.nodes_unused == 1


def test_speculative_memo_nodes_can_end_up_unused():
    g = "S = { #S @A 'x' } / { 'a' 'y' #T }\nA = { #A 'a' }"
    result = run(g, b"ay", memo=True)
    # @A committed its node speculatively before 'x' failed; the second
    # alternative never links it, so it stays materialized but unused
    assert result.stats.nodes_created == 2
    assert result.stats.nodes_in_result == 1
    assert result.stats.nodes_unused == 1


def test_memo_avoids_rebuilding_nodes():
    g = "S = { #S @A 'x' } / { #S @A 'y' }\nA = { #A 'a' }"
    result = run(g, b"ay", memo=True)
    assert result.stats.memo_hits == 1
    assert result.stats.nodes_created == 2
    assert result.stats.nodes_unused == 0


def test_consumed_reported_in_stats():
    result = run("A = 'ab'", b"abcd")
    assert result.stats.consumed == 2


def test_recognize_mode_builds_nothing_and_consumes_the_same():
    g = parse_grammar(MATH)
    full = ParseSession(g, b"(1+2)*3-4").parse()
    bare = ParseSession(g, b"(1+2)*3-4", build_ast=False).parse()
    assert bare.consumed == full.consumed
    assert bare.stats.nodes_created == 1  # fallback root only
    assert serialize(bare.root) == "#token['(1+2)*3-4']"


def test_recognize_mode_memoizes_the_stripped_grammar():
    g = parse_grammar(MATH)
    session = ParseSession(g, b"1+2", build_ast=False)
    # with tree operators gone every production is a plain memo point
    assert set(session.plan.nonterminal_points) == {"Expr", "Sum", "Product", "Value"}
    assert session.plan.link_points == {}
    assert session.parse().stats.memo_lookups > 0


def test_str_input_is_utf8_encoded():
    result = run("A = 'é'*", "ééé")
    assert result.consumed == 6
