"""Call-free productions inline: in a bare module, a production that calls
none and is no memo point runs as its body at each call site and at each
``@Name`` link, tree operators and all, with what its caller knows of the
first byte.  The counting module keeps every call.  On each input the bare
module, the counting module and the oracle agree."""

import pytest
from corpus import benchmark_grammars, oracle_outcome

from pegfold.grammar import parse_grammar
from pegfold.interp import ParseError, ParseSession, program_for
from pegfold.tree import serialize

# A string whose node is built before its closing quote is read: on an
# unclosed string the body fails after its constructor closed.
STR = """Str = '"' { [a-z]* #Str } '"'\n"""

CASES = [
    # at a choice, whose next alternative finds the register as it was
    ("choice", "V = Str / { '\"' [a-z]* #Open }\n" + STR, [b'"ab"', b'"ab', b'"', b'""', b"x"]),
    # at an eager level's link, which fails and leaves its record alone
    (
        "eager link",
        "V = { @Str '!' #Pair } / { '\"' [a-z]* #Open }\n" + STR,
        [b'"ab"!', b'"ab"', b'"ab', b'"!'],
    ),
    # in a loop iteration that fails after its link: the link is dropped
    (
        "loop",
        "L = { (@Str ',')* @Str? 'x' #L }\n" + STR,
        [b'"a","b"x', b'"a",x', b'"a","bx', b"x", b'"a"x', b'"a","b",'],
    ),
    # at a lazy level, where the constructors log their entries
    ("lazy", "A = { '[' Str ']' #A } / { '[' [a-z\"]* #B }\n" + STR, [b'["ab"]', b'["ab', b'["ab"', b"[a"]),
    # at a link point with memo on, which stays a call; inline without memo
    (
        "memo point",
        "A = { #X @Str 'x' } / { #Y @Str 'y' }\n" + STR,
        [b'"ab"x', b'"ab"y', b'"ab', b'"ab"z'],
    ),
]

SETTINGS = [(memo, build_ast) for memo in (True, False) for build_ast in (True, False)]


def outcome(grammar, data, *, counting, memo, build_ast):
    steps = {"max_steps": 10**6} if counting else {}
    try:
        result = ParseSession(grammar, data, memo=memo, build_ast=build_ast, **steps).parse()
    except ParseError as error:
        return ("fail", error.position)
    return ("ok", result.consumed, serialize(result.root) if build_ast else None)


def calls(source: str, name: str) -> int:
    """The calls of production ``name`` in a module's source."""
    return source.count(f"{name}(") - source.count(f"def {name}(")


@pytest.mark.parametrize("memo, build_ast", SETTINGS)
@pytest.mark.parametrize("case, text, inputs", CASES, ids=[case for case, _, _ in CASES])
def test_an_inlined_body_agrees_with_its_call(case, text, inputs, memo, build_ast):
    grammar = parse_grammar(text)
    options = {"memo": memo, "build_ast": build_ast}
    program = program_for(grammar, **options)
    points = program.plan.link_points.keys() | program.plan.nonterminal_points.keys() if memo else ()
    # ``Str`` calls nothing: a call only where it is a memo point.
    assert (calls(program.source, "Str") > 0) == ("Str" in points), program.source
    assert calls(program_for(grammar, **options, counting=True).source, "Str") > 0
    if case == "memo point":  # a link point with trees, a nonterminal one without
        assert ("Str" in points) == memo
    for data in inputs:
        got = outcome(grammar, data, counting=False, **options)
        assert got == outcome(grammar, data, counting=True, **options), data
        expected = oracle_outcome(grammar, data)
        assert got[0] == expected[0], data
        if got[0] == "ok":
            assert got[1] == expected[1], data
            if build_ast:
                assert got[2] == expected[2], data


def test_json_tokens_cost_no_call_in_the_bare_module():
    # With trees and memo on, the JSON-like grammar plans no memo point:
    # ``String``, ``Number``, ``Lit`` and ``S`` run inline at every call
    # site and link, and the guard that dispatched on the first byte stands
    # for their own first test.  Recognition memoizes every production, and
    # the counting module keeps its calls.
    grammar = parse_grammar(benchmark_grammars().JSON_LIKE)
    bare = program_for(grammar, memo=True, build_ast=True).source
    assert [calls(bare, name) for name in ("String", "Number", "Lit", "S")] == [0, 0, 0, 0]
    assert calls(bare, "Value") > 0 and calls(bare, "Member") > 0
    value = bare[bare.index("def Value(") : bare.index("def Object(")]
    assert "data[p] == 34" not in value  # ``String``'s quote, which the dispatch tested
    recognize = program_for(grammar, memo=True, build_ast=False).source
    counting = program_for(grammar, memo=True, build_ast=True, counting=True).source
    for source in (recognize, counting):
        assert all(calls(source, name) > 0 for name in ("String", "Number", "Lit", "S"))
