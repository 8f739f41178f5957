"""Grammar validation and memo-point assignment."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from corpus import benchmark_grammars
from overhead import measured, setup_steps

import pegfold
from pegfold.analysis import (
    _BUILDS,
    _EMPTY,
    _FAILS,
    _FOLDS,
    _KEEPS,
    _LOGS_OUT,
    _MUTATES,
    _REACHES,
    _SUCCEEDS,
    _TAGGED,
    _TOUCHES,
    _facts,
    assign_memo_points,
    compiled_facts,
    eager_constructors,
    untagged,
    validate,
)
from pegfold.expr import (
    Choice,
    LeftFold,
    Link,
    New,
    Nonterminal,
    Sequence,
    Tag,
    Terminal,
    subexpressions,
)
from pegfold.grammar import Grammar, parse_grammar


MATH = """Expr = Sum
Sum = Product {@ ( '+' #add / '-' #sub ) @Product }*
Product = Value {@ ( '*' #mul / '/' #div) @Value }*
Value = { [0-9]+ #Integer } / '(' Expr ')'
"""


def codes(diags, severity=None):
    return [d.code for d in diags if severity is None or d.severity == severity]


def test_direct_left_recursion():
    diags = validate(parse_grammar("A = A 'a'"))
    assert "left-recursion" in codes(diags, "error")
    assert diags[0].production == "A"


def test_mutual_left_recursion_through_link():
    g = parse_grammar(
        "Expr = Pair / Term\n"
        "Pair = {@Expr ',' @Term #Pair }\n"
        "Term = { [A-z]+ #Term }\n"
    )
    errors = [d for d in validate(g) if d.code == "left-recursion"]
    assert errors
    assert {d.production for d in errors} >= {"Pair"}


def test_left_recursion_behind_nullable_prefix():
    diags = validate(parse_grammar("A = 'x'? A 'y'"))
    assert "left-recursion" in codes(diags, "error")


def test_left_recursion_inside_predicate():
    diags = validate(parse_grammar("A = !A 'x'"))
    assert "left-recursion" in codes(diags, "error")


def test_guarded_recursion_is_fine():
    assert validate(parse_grammar("A = 'x' A / 'x'")) == []


def test_undefined_nonterminal():
    diags = validate(parse_grammar("A = B 'a'"))
    assert codes(diags, "error") == ["undefined-nonterminal"]
    assert "B" in diags[0].message


def test_nullable_repetition_warns():
    diags = validate(parse_grammar("A = ('x'?)*"))
    assert codes(diags) == ["nullable-repetition"]
    assert diags[0].severity == "warning"


def test_tag_outside_constructor_warns():
    diags = validate(parse_grammar("A = #t 'x'"))
    assert "tag-outside-constructor" in codes(diags, "warning")


def test_tag_after_creating_nonterminal_no_warning():
    g = parse_grammar("Number = Value #Int\nValue = { [0-9]+ }")
    assert validate(g) == []


def test_math_grammar_is_clean():
    assert validate(parse_grammar(MATH)) == []


def test_right_assoc_pairs_not_left_recursive():
    g = parse_grammar(
        "Expr = Pair / Term\nPair =  {@Term ',' @Expr #Pair }\nTerm = { [A-z] #Term }\n"
    )
    assert validate(g) == []


def test_diagnostics_carry_location():
    diags = validate(parse_grammar("A = 'a'\nB = B 'x'"))
    assert diags[0].production == "B"
    assert diags[0].line == 2


# -- the fact table ------------------------------------------------------------

FLAGS = {
    "empty": _EMPTY,
    "fails": _FAILS,
    "succeeds": _SUCCEEDS,
    "keeps": _KEEPS,
    "reaches": _REACHES,
    "builds": _BUILDS,
    "tagged": _TAGGED,
    "touches": _TOUCHES,
    "mutates": _MUTATES,
    "folds": _FOLDS,
}
BYTE = {"fails", "succeeds", "keeps"}  # a byte test's flags
PASSES = {"empty", "succeeds", "keeps"}  # what always succeeds and keeps the node
TREE = {"reaches", "builds"}
TOUCH = {"touches", "mutates"}  # a tag, or a link of what its body built, in the outer node


def named(word):
    return {name for name, bit in FLAGS.items() if word & bit}


def flags_of(text):
    """The flags of production ``S``'s body."""
    grammar = parse_grammar(text)
    return named(_facts(grammar).words["S"])


@pytest.mark.parametrize(
    "text, flags",
    [
        ("S = 'a'", BYTE),
        ("S = [a-z]", BYTE),
        ("S = .", BYTE),
        ("S = ''", PASSES),
        ("S = 'a'?", PASSES),
        ("S = 'a'*", PASSES),
        ("S = 'a'+", BYTE),
        ("S = ''+", PASSES),
        ("S = 'a' 'b'?", BYTE),  # a sequence: empty and succeeding when every item is
        ("S = 'a'? ''", PASSES),
        ("S = 'a' / 'b'", BYTE),  # a choice: failing when every alternative does
        ("S = 'a' / ''", PASSES),
        ("S = #T", PASSES | TREE | {"tagged"} | TOUCH),
        ("S = { 'a' }", {"fails", "succeeds"} | TREE),  # a fresh node: the outer one is gone
        ("S = {@ '' }", {"empty", "succeeds", "mutates", "folds"} | TREE),
        ("S = @'a'", BYTE | TREE),  # a link of nothing built touches nothing
        ("S = @{ 'a' }", BYTE | TREE | TOUCH),
        ("S = ( 'a' #T )?", PASSES | TREE | {"tagged"} | TOUCH),
        # a tag after a fresh node touches that node, not the outer one
        ("S = { 'a' } #T", {"fails", "succeeds", "tagged", "touches"} | TREE),
        ("S = { 'a' {@ 'b' } }", {"fails", "succeeds", "folds"} | TREE),
        # constructors, links and predicates succeed whatever their bodies do
        ("S = { N }\nN = 'a' N", {"fails", "succeeds"} | TREE),
        ("S = @N\nN = 'a' N", BYTE | TREE),
        ("S = N\nN = 'a' N", {"fails"}),
        ("S = &N\nN = 'a' N", PASSES | {"fails"}),  # ``&e`` fails as ``e`` does
        ("S = &''", PASSES),
        ("S = !''", PASSES | {"fails"}),  # ``!e`` may always fail
        # a predicate's body reaches a tree operator but builds nothing
        ("S = !{ 'a' #T }", PASSES | {"fails", "reaches", "tagged"}),
        # a call reads the callee's flags: it builds where the callee reaches,
        # even inside a predicate, and holds no ``#tag`` of the callee's
        ("S = N\nN = &{ 'a' } 'a' #T", BYTE | TREE | TOUCH),
        ("S = N 'b'\nN = 'a' #T", BYTE | TREE | TOUCH),
        ("S = N\nN = {@ 'a' }", {"fails", "succeeds", "mutates"} | TREE),  # and no fold
        ("S = N 'b'\nN = 'a'", BYTE),
        ("S = M\nM = N\nN = 'a'?", PASSES),
        ("S = 'a' S / ''", PASSES),  # a least fixpoint over recursion
        ("S = 'a' S", {"fails"}),
    ],
)
def test_flags(text, flags):
    assert flags_of(text) == flags


@pytest.mark.parametrize(
    "productions, words",
    [
        (
            ["S = A 'x' / B", "A = { 'a' } / ''", "B = 'b' B / 'c' #T"],
            {"S": BYTE | TREE | TOUCH, "A": PASSES | TREE, "B": BYTE | TREE | {"tagged"} | TOUCH},
        ),
        # mutual recursion: which call reads its callee before the callee's
        # turn depends on the order
        (
            ["S = 'a' T / @'b'", "T = S 'c' / #T"],
            {"S": BYTE | TREE | TOUCH, "T": PASSES | TREE | {"tagged"} | TOUCH},
        ),
    ],
)
def test_facts_settle_the_same_whatever_order_productions_come_in(productions, words):
    callee_last = _facts(parse_grammar("\n".join(productions))).words
    callee_first = _facts(parse_grammar("\n".join(reversed(productions)))).words
    assert callee_first == callee_last
    assert {name: named(word) for name, word in callee_last.items()} == words


# -- memo plan --------------------------------------------------------------


def test_plain_terminal_production_is_a_nonterminal_point():
    plan = assign_memo_points(parse_grammar("A = 'a'"))
    assert plan.link_points == {}
    assert plan.nonterminal_points == {"A": 0}
    assert plan.count == 1


def test_math_grammar_link_points():
    plan = assign_memo_points(parse_grammar(MATH))
    assert set(plan.link_points) == {"Product", "Value"}
    # every production builds nodes, so none is a plain point
    assert plan.nonterminal_points == {}
    assert plan.count == 2
    assert sorted(plan.link_points.values()) == [0, 1]


def test_constructing_nonterminal_is_not_a_plain_point():
    g = parse_grammar("Name = { NAME #Name }\nSymbol = Name #Symbol\nNAME = [A-z]+")
    plan = assign_memo_points(g)
    assert plan.link_points == {}
    assert "Name" not in plan.nonterminal_points
    assert "Symbol" not in plan.nonterminal_points
    # NAME is tree-operator free, but a #tag follows it in sequence in
    # both uses, so the tag-after scan drops it as well.  The scan is a
    # selectivity rule, not a safety rule (see pegfold.analysis).
    assert "NAME" not in plan.nonterminal_points
    assert plan.count == 0


def test_pure_lexeme_without_following_tag_is_memoized():
    g = parse_grammar("Name = { #Name NAME }\nNAME = [A-z]+")
    plan = assign_memo_points(g)
    assert "NAME" in plan.nonterminal_points


def test_tag_after_link_in_same_sequence_disables_point():
    g = parse_grammar("L = { @T (',' @T)+ #List }\nT = { [A-z] #Term }")
    plan = assign_memo_points(g)
    assert plan.link_points == {}


def test_tag_after_plain_nonterminal_disables_point():
    g = parse_grammar("S = { T #Sym }\nT = [a-z]+")
    plan = assign_memo_points(g)
    assert "T" not in plan.nonterminal_points


def test_tag_before_link_keeps_point():
    g = parse_grammar("S = { #S @T 'x' }\nT = { #T 'a' }")
    plan = assign_memo_points(g)
    assert plan.link_points == {"T": 0}


def test_link_of_outer_mutating_body_is_not_memoized():
    # T tags whatever node is current when it runs: storing its result
    # would bake in context, so it must not get a memo point.
    g = parse_grammar("S = { 'x' @T }\nT = #Boom 'a'")
    plan = assign_memo_points(g)
    assert plan.link_points == {}


def test_link_of_outer_folding_body_is_not_memoized():
    g = parse_grammar("S = { 'x' @T 'y' }\nT = {@ 'a' }")
    plan = assign_memo_points(g)
    assert plan.link_points == {}


def test_link_of_outer_linking_body_is_not_memoized():
    g = parse_grammar("S = { 'x' @T 'y' }\nT = @U\nU = { 'u' }")
    plan = assign_memo_points(g)
    assert "T" not in plan.link_points


def test_link_of_pure_recognition_body_is_memoized():
    g = parse_grammar("S = { #S @T 'x' }\nT = 'a' [b-c]*")
    plan = assign_memo_points(g)
    assert "T" in plan.link_points


def test_shared_link_sites_share_one_id():
    g = parse_grammar("Add = { #Add @Num '+' @Num }\nNum = { #Int [0-9] }")
    plan = assign_memo_points(g)
    assert plan.link_points == {"Num": 0}
    assert plan.count == 1


def test_plan_is_deterministic():
    a = assign_memo_points(parse_grammar(MATH))
    b = assign_memo_points(parse_grammar(MATH))
    assert a == b


def test_ids_dense_across_both_kinds():
    g = parse_grammar("S = { #S @T 'x' } U\nT = { #T 'a' }\nU = 'u'\n")
    plan = assign_memo_points(g)
    ids = sorted(list(plan.link_points.values()) + list(plan.nonterminal_points.values()))
    assert ids == list(range(plan.count))


def test_nonterminal_points_reach_no_tree_operator():
    # independent reachability scan over a mixed grammar
    g = parse_grammar(
        "S = { #S @A B }\nA = { #A 'a' }\nB = C 'b'\nC = 'c' / B\n"
    )
    plan = assign_memo_points(g)

    def ops_reachable(name, seen):
        if name in seen:
            return False
        seen.add(name)
        stack = [g.productions[name]]
        while stack:
            e = stack.pop()
            if isinstance(e, (New, LeftFold, Link, Tag)):
                return True
            if isinstance(e, Nonterminal):
                if ops_reachable(e.name, seen):
                    return True
                continue
            stack.extend(subexpressions(e))
        return False

    for name in plan.nonterminal_points:
        assert not ops_reachable(name, set())
    assert set(plan.nonterminal_points) == {"B", "C"}


# -- left-register rules ----------------------------------------------------
# S links T inside its own node, so T is a link point exactly when T cannot
# tag, fold away or link into the node that was current when it started.


def link_points_of(t_body):
    return assign_memo_points(parse_grammar(f"S = {{ 'x' @T }}\nT = {t_body}")).link_points


def warned(text):
    diags = validate(parse_grammar(text))
    return [d.production for d in diags if d.code == "tag-outside-constructor"]


@pytest.mark.parametrize(
    "operator", ["{ 'b' }?", "{ 'b' }*", "&{ 'b' }", "!{ 'b' }", "@'b'", "@{ 'b' }"]
)
def test_outer_node_survives_operator_so_later_tag_denies_point(operator):
    assert link_points_of(f"{operator} #X 'a'") == {}
    assert warned(f"A = {operator} #X 'a'") == ["A"]


def test_constructor_ends_outer_liveness_so_later_tag_keeps_point():
    assert link_points_of("{ 'b' } #X 'a'") == {"T": 0}


@pytest.mark.parametrize("constructor", ["{ 'b' }", "{@ 'b' }"])
def test_constructor_ends_outer_liveness_so_later_tag_does_not_warn(constructor):
    assert validate(parse_grammar(f"A = {constructor} #X 'a'")) == []


def test_recursion_takes_least_fixpoint():
    # T never succeeds, so its #X never runs: T stays a link point.  With
    # an alternative that ends the recursion, the tag is live again.
    assert link_points_of("'a' T #X") == {"T": 0}
    assert validate(parse_grammar("S = { 'x' @T }\nT = 'a' T #X")) == []
    assert link_points_of("'a' T #X / 'b'") == {}


def test_tag_warnings_follow_the_start_symbol():
    # T runs inside S's node; U is never reached, so it is its own root.
    assert warned("S = { 'x' @T }\nT = #X 'a'\nU = #Y 'u'") == ["U"]
    # reached with the outer node still current, T warns
    assert warned("S = T\nT = #X 'a'") == ["T"]
    # N never succeeds, so T does not run from S and is its own root
    assert warned("S = { N T }\nN = 'a' N\nT = #X 'b'") == ["T"]


def test_tag_warning_roots_follow_production_order():
    # B runs inside A's node, so it is no root when A comes first ...
    assert warned("S = 'a'\nA = { B }\nB = #t 'b'") == []
    # ... but it is analyzed on its own, and warns, when it comes first.
    assert warned("S = 'a'\nB = #t 'b'\nA = { B }") == ["B"]


# -- eager constructors -------------------------------------------------------


def eager_marks(text):
    """Per ``{ }``/``{@ }`` occurrence, in grammar order: is it eager?"""
    grammar = parse_grammar(text)
    eager = eager_constructors(grammar)
    marks = []
    for body in grammar.productions.values():
        stack = [body]
        while stack:
            x = stack.pop()
            if isinstance(x, (New, LeftFold)):
                marks.append(id(x) in eager)
            stack.extend(reversed(subexpressions(x)))
    return marks


def test_benchmark_grammars_build_every_node_eagerly():
    workloads = benchmark_grammars()
    assert eager_marks(MATH) == eager_marks(workloads.MATH) == [True] * 3
    assert eager_marks(workloads.JSON_LIKE) == [True] * 6
    assert eager_marks(workloads.PATHOLOGICAL) == []


def direct_marks(text):
    """Per eager ``{ }``/``{@ }`` occurrence, in grammar order: is it direct,
    with nothing at its level but a trailing tag?"""
    grammar = parse_grammar(text)
    eager = eager_constructors(grammar)
    builds = _facts(grammar).builds
    marks = []
    for body in grammar.productions.values():
        stack = [body]
        while stack:
            x = stack.pop()
            if id(x) in eager:
                marks.append(not any(builds(item) for item in untagged(x.body)[0]))
            stack.extend(reversed(subexpressions(x)))
    return marks


def test_benchmark_grammars_build_every_node_from_a_record_or_directly():
    workloads = benchmark_grammars()
    # the two folds tag and link at their level; Value's leaf has no level
    assert direct_marks(MATH) == [False, False, True]
    # Object, Member and Array link at theirs; String, Number and Lit do not
    assert direct_marks(workloads.JSON_LIKE) == [False, False, False, True, True, True]


@pytest.mark.parametrize(
    "text, marks",
    [
        ("S = { 'a' } #T", [False]),  # a later tag
        ("S = { 'a' } @B\nB = { 'b' }", [False, True]),  # a later link
        ("S = { 'a' } T\nT = #X 'b'", [False]),  # a later call that tags
        ("S = { 'a' } T\nT = 'b' { 'c' }", [True, True]),  # ... or does not
        # the outer capture targets the fold, and the outer node is not local
        ("S = { 'a' {@ 'b' } 'c' }", [False, False]),
        ("S = { 'x' A }\nA = B\nB = { 'b' }", [False, False]),  # through calls
        ("S = &{ 'a' } !{ 'b' } 'a'", [False, False]),  # predicates
        ("S = ( { ''? } )*", [False]),  # a nullable loop body
        ("S = ( @B { 'a' } )+\nB = { 'b' }", [False, True]),  # the next iteration
        ("S = ( { 'a' } / 'b' #T )*", [False]),
        # a link of a lazily built child, or of anything but a production
        # call, makes the outer node lazy up front
        ("S = { 'a' @( { 'b' } #T ) 'c' @{ 'd' } }", [False, False, True]),
        # a local level: tags, choices, loops and indexed links of
        # productions that leave the node they start with alone
        ("S = { 'a' #A ( 'b' #B / 'c' ) @C ( ',' @[0]C )* #S }\nC = { 'c' }", [True, True]),
        # ... but a production's lazily built child is committed as it links
        ("S = { @B 'c' }\nB = { 'b' } #B", [True, False]),
        ("S = { @B 'c' }\nB = #X 'b'", [False]),  # a link that tags the node
        ("S = { 'a' B #S }\nB = 'b' #B", [False]),  # a call that reaches a tag
        ("S = { &( @B ) 'b' }\nB = { 'b' }", [False, True]),  # a predicate that links
    ],
)
def test_eager_rules(text, marks):
    assert eager_marks(text) == marks


def test_an_expression_shared_by_an_eager_and_a_lazy_place_is_lazy():
    shared = New(Terminal(b"a"))
    grammar = Grammar({"S": Sequence((Link(shared), shared, Tag("T")))})
    assert eager_constructors(grammar) == frozenset()
    assert eager_constructors(Grammar({"S": Link(shared)})) == {id(shared)}


def table(grammar, memo_links=()):
    """The grammar's compiled fact table, with its eager constructors."""
    return compiled_facts(grammar, eager_constructors(grammar), memo_links)


# -- never-logging productions -------------------------------------------------


def quiet_productions(text):
    """Per production: does it never log?  That is, is it not loud: neither
    logs its body nor can it mutate the node it starts with."""
    grammar = parse_grammar(text)
    words = table(grammar).words
    return {name: not word & (_LOGS_OUT | _MUTATES) for name, word in words.items()}


def test_benchmark_grammars_never_log():
    workloads = benchmark_grammars()
    for text in (MATH, workloads.MATH, workloads.JSON_LIKE, workloads.PATHOLOGICAL):
        assert all(quiet_productions(text).values()), text


@pytest.mark.parametrize(
    "text, quiet",
    [
        ("S = { 'a' @A #S }\nA = { 'a' #A }", {"S": True, "A": True}),
        ("S = { 'a' } #T", {"S": False}),  # a lazy constructor
        ("S = #T 'a'", {"S": False}),  # a tag outside any constructor
        ("S = @A 'b'\nA = { 'a' }", {"S": False, "A": True}),  # a link outside one
        # a call of a production that logs, even where a link commits it at once
        ("S = { 'x' @A #S }\nA = { 'a' } #T", {"S": False, "A": False}),
        ("S = 'x' A\nA = { 'a' } #T", {"S": False, "A": False}),
        # a fold of a node an eager constructor built, or of the outer node
        ("S = A {@ 'b' #F }\nA = { 'a' }", {"S": True, "A": True}),
        ("S = 'a'? {@ 'b' #F }", {"S": False}),
        ("S = B\nB = 'b'? {@ 'c' }", {"S": False, "B": False}),
        ("S = &{ 'a' } 'a'", {"S": False}),  # a constructor in a predicate is lazy
        ("S = 'a'", {"S": True}),
    ],
)
def test_never_logs_rules(text, quiet):
    assert quiet_productions(text) == quiet


def test_an_expression_with_a_fold_of_its_own_may_log():
    # No fold of S's can find the outer node, but on its own the sequence
    # may run where the register holds a node still being logged.
    text = "S = A {@ 'b' #F }\nA = { 'a' }"
    grammar = parse_grammar(text)
    quiet = table(grammar).quiet
    assert quiet_productions(text)["S"]
    assert not quiet(grammar.productions["S"])
    assert quiet(grammar.productions["S"].items[0])


# -- transactions ----------------------------------------------------------------


def dirty_productions(text, memo_links=()):
    """Per production: can it fail after changing the machine?"""
    grammar = parse_grammar(text)
    facts = table(grammar, memo_links)
    return {name: facts.dirty(body) for name, body in grammar.productions.items()}


def test_benchmark_grammars_fail_dirty_only_where_a_node_is_open_or_built():
    workloads = benchmark_grammars()
    # '(' Expr ')' builds, then can fail at ')'
    assert dirty_productions(MATH) == dict.fromkeys(["Expr", "Sum", "Product", "Value"], True)
    assert dirty_productions(workloads.JSON_LIKE) == {
        "Doc": False,
        "Value": False,  # its last alternative, Lit, is a direct constructor
        "Object": False,  # local constructors: a failed body drops their record
        "Member": False,
        "Array": False,
        "String": True,  # the node is built before the closing quote
        "Number": False,
        "Lit": False,
        "S": False,
    }
    assert dirty_productions(workloads.PATHOLOGICAL) == dict.fromkeys("RTU", False)


@pytest.mark.parametrize(
    "text, dirty",
    [
        ("S = 'a' #T 'b'", True),  # built earlier, fails later
        ("S = 'a' 'b' #T", False),
        ("S = 'c' / 'a' #T 'b'", True),  # the last alternative decides
        ("S = 'a' #T 'b' / 'c'", False),
        ("S = ( 'a' #T 'b' )* ( 'a' #T 'b' )?", False),  # restore themselves
        ("S = !( #T 'x' ) &( #T 'y' )", False),
        ("S = ( 'a' #T 'b' )+", True),
        ("S = { 'a' 'b' #T }", False),  # direct: nothing opened
        ("S = {@ 'a' 'b' }", False),
        ("S = { 'a' } {@ 'b' }", True),
        ("S = { @A 'b' }\nA = { 'a' }", False),  # a local constructor
        ("S = { @A 'b' } #T\nA = { 'a' }", True),  # an open constructor
        ("S = { @A? 'b'? } #T\nA = { 'a' }", False),  # ... whose body cannot fail
        ("S = 'x' A\nA = 'a' #T 'b'", True),  # through a call
    ],
)
def test_dirty_rules(text, dirty):
    assert dirty_productions(text)["S"] is dirty


def test_a_memoized_link_is_clean():
    text = "S = @A\nA = { 'a' } #T 'b'"
    assert dirty_productions(text)["S"] is True
    assert dirty_productions(text, memo_links={"A"})["S"] is False


def test_a_link_at_a_local_level_is_clean():
    grammar = parse_grammar("S = { @A } / @A\nA = { 'a' } #T 'b'")
    facts = table(grammar)
    local, plain = grammar.productions["S"].alternatives
    # it restores the machine itself when its body fails
    assert facts.dirty(local.body, True) is False
    assert facts.dirty(plain) is True


# -- lead masks --------------------------------------------------------------------


def lead_bytes(text, name="S"):
    """The bytes of production ``name``'s lead mask, or None."""
    grammar = parse_grammar(text)
    mask = table(grammar).lead(grammar.productions[name])
    return None if mask is None else bytes(b for b in range(256) if mask >> b & 1)


@pytest.mark.parametrize(
    "text, lead",
    [
        ("S = 'ab'", b"a"),
        ("S = [a-c]", b"abc"),
        ("S = .", bytes(range(256))),
        ("S = 'a'? 'b' 'c'", b"ab"),  # the items up to the first that cannot be empty
        ("S = 'b' / 'a' / 'b'", b"ab"),
        ("S = 'a'+", b"a"),
        # tree operators leave masks alone, and a call reads its callee's
        ("S = #T { @N 'c' }\nN = 'x' N / 'y'", b"xy"),
        ("S = 'a'?", None),  # it can succeed empty
        ("S = 'a'* ''", None),
        ("S = &'a' 'a'", None),  # a predicate runs before the first byte
        ("S = 'a'? !'b' 'c'", None),
    ],
)
def test_lead_masks(text, lead):
    assert lead_bytes(text) == lead


def test_benchmark_grammars_lead_masks():
    workloads = benchmark_grammars()
    assert lead_bytes(MATH, "Value") == b"(0123456789"
    assert lead_bytes(workloads.JSON_LIKE, "Value") == b'"-0123456789[fnt{'
    assert lead_bytes(workloads.JSON_LIKE, "S") is None


# -- deep grammars -----------------------------------------------------------------


def nest(inner, wrap, depth=3000):
    for _ in range(depth):
        inner = wrap(inner)
    return inner


def test_the_analyses_follow_a_grammar_deeper_than_the_recursion_limit():
    # Two nests of choices, one level each, far past the default limit;
    # the nest after the last alternative sits inside ``{ }``.
    assert sys.getrecursionlimit() <= 1000
    inner = Sequence((Terminal(b"a"), Tag("T"), Terminal(b"b")))
    first = nest(inner, lambda e: Choice((e, Terminal(b"b"))))
    last = nest(inner, lambda e: Choice((Terminal(b"b"), e)))
    grammar = Grammar({"S": Sequence((first, New(last)))})
    assert codes(validate(grammar)) == ["tag-outside-constructor"]  # the first nest's tag
    constructor = grammar.productions["S"].items[1]
    eager = eager_constructors(grammar)
    assert eager == {id(constructor)}  # only its level tags it, and nothing follows it
    facts = compiled_facts(grammar, eager, ())
    assert facts.lead(first) == facts.lead(last) == 1 << ord("a") | 1 << ord("b")
    assert facts.dirty(inner) and facts.dirty(last, True) and not facts.dirty(first)
    assert not facts.dirty(constructor) and facts.quiet(constructor)
    assert not facts.quiet(first)  # its tag runs outside any constructor


def test_a_set_up_makes_half_the_calls_and_tests_no_class():
    # ``tests/overhead.py --setup`` on the JSON-like benchmark grammar: the
    # read, validate and program steps and the whole set-up, which made
    # 4,158 calls when the analyses tested classes and walked each body
    # three times and the compiled-module key hashed and compared the
    # expression trees; ``validate`` made 1,177 ``isinstance`` calls.
    text = benchmark_grammars().JSON_LIKE
    work = measured(setup_steps(text), lambda: None)
    assert work["setup"][2] <= 2100
    tests = []

    def profile(frame, event, arg):
        if event == "c_call" and arg is isinstance:
            tests.append(frame.f_code.co_name)

    grammar = parse_grammar(text)
    sys.setprofile(profile)
    try:
        validate(grammar)
    finally:
        sys.setprofile(None)
    assert tests == []


SETUP_COUNTS = """
import sys
sys.path[:0] = sys.argv[1:]
from corpus import benchmark_grammars
from overhead import measured, setup_steps
work = measured(setup_steps(benchmark_grammars().JSON_LIKE), lambda: None)
print({step: (figures[0], figures[2]) for step, figures in work.items()})
"""


def test_set_up_counts_repeat_under_every_hash_seed():
    # The blocks and calls ``tests/overhead.py --setup JSON_LIKE`` prints,
    # in fresh processes whose sets and dicts of names hash differently:
    # the analyses take callees in the order of their calls, not of a set.
    paths = [str(Path(__file__).parent), str(Path(pegfold.__file__).resolve().parents[1])]
    printed = []
    for seed in ("1", "2", "3"):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_COUNTS, *paths],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        printed.append(done.stdout)
    assert printed[0] == printed[1] == printed[2], printed


def test_lexical_expressions_hold_no_call_and_no_tree_operator():
    grammar = parse_grammar("S = 'a' [b-c]* !'d' T\nT = ('x' / 'y')+ &'z'\nU = { 'u' #U } 'v'* !T\n")
    facts = compiled_facts(grammar, eager_constructors(grammar), ())
    s, t, u = (grammar.productions[name] for name in "STU")
    assert [facts.lexical(x) for x in s.items] == [True, True, True, False]
    assert not facts.lexical(s) and facts.lexical(t)
    assert [facts.lexical(x) for x in u.items] == [False, True, False]  # a call in a predicate too
    assert facts.fails(s) and not facts.fails(u.items[1])
