"""Engine semantics: recognition, tree construction, statistics."""

import pytest

from pegfold.grammar import parse_grammar
from pegfold.interp import (
    InvalidGrammarError,
    ParseError,
    ParseSession,
    StepLimitExceeded,
)
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
    # the failed first alternative's entries were aborted before any
    # node existed: deferred mutation means zero wasted instantiation
    assert result.stats.nodes_created == 2
    assert result.stats.nodes_unused == 0


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
