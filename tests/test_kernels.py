"""Kernels: in a bare module, a lexical expression that holds a repetition
runs as one ``match`` of a pattern with atomic groups and possessive
quantifiers.  Each case below is one where a backtracking match would leave
the PEG's result; on each input the bare module, the counting module and the
oracle agree."""

import re

import pytest
from corpus import benchmark_grammars, oracle_outcome

from pegfold.grammar import parse_grammar
from pegfold.interp import ParseError, ParseSession, program_for
from pegfold.tree import serialize

JSON_LIKE = benchmark_grammars().JSON_LIKE

CASES = [
    # a loop that takes what follows it
    ("S = [0-9]* '1'", [b"11", b"1", b"231", b"", b"2"]),
    ("S = 'a'* 'a'", [b"aaa", b"a", b""]),
    ("S = 'ab'* 'ab' / 'ab'+", [b"abab", b"ab", b"a"]),
    # a choice that commits to its first success
    ("S = ('a' / 'ab') 'c' 'd'*", [b"abc", b"ac", b"acdd", b"ab"]),
    ("S = ('a' / 'ab')+ 'c'", [b"abc", b"aac", b"ababc"]),
    # nullable loop bodies, which stop at their first empty iteration
    ("S = ('ab'?)* 'b'", [b"abb", b"ababb", b"b", b"ab", b"aab", b""]),
    ("S = ('a'? 'b'?)* 'c'", [b"abac", b"c", b"bbc", b"ab"]),
    ("S = ('a'* / 'b')* 'b'", [b"ab", b"b", b"aab", b"ba"]),
    ("S = (&'a')* 'a' [a-z]*", [b"a", b"ab", b"b"]),
    ("S = (!'a')* 'b'+", [b"b", b"a", b"bb"]),
    # predicates, which consume nothing
    ("S = (!'x' .)* 'x'", [b"abx", b"x", b"ab", b"", b"xx"]),
    ("S = &('a' 'b') 'a' [b-c]*", [b"ab", b"abc", b"ac", b"a"]),
    ("S = !('a'+ 'b') [a-c]+", [b"aab", b"aac", b"c", b""]),
    ("S = (!'ab' [a-c])* 'ab'", [b"ccab", b"aab", b"ab", b"acb"]),
    # ``.`` at the end of input
    ("S = 'a'* .", [b"aa", b"ab", b"", b"a"]),
    ("S = (. .)* .?", [b"abc", b"ab", b""]),
    ("S = (!'z' .)+ . .", [b"ab", b"abcz", b"a"]),
    # classes holding ``]``, ``\``, ``^``, ``-`` and bytes from 0x80 on
    (r"S = [\]\\^\-]+ 'z'", [b"]\\^-z", b"-z", b"z", b"a"]),
    (r"S = [\x80-\xff]* [a\-]", [b"\x80\xff-", b"\xc3\xa9a", b"\x7f", b"\xff"]),
    (r"S = (![\]^] .)* [\]^]", [b"ab]", b"\xff^", b"ab"]),
    (r"S = (!'\\' . / '\\' .)* '\\'", [b"a\\b\\", b"\\\\", b"\\"]),
    # a choice in a loop whose first alternative becomes a run of bytes,
    # with a later alternative a run too only where no earlier one starts
    ("S = ([a-c] / 'ab' / [b-d])* 'x'", [b"abdx", b"ddx", b"x", b"abd"]),
    ("S = ('ab' / [a-c] / [x-z])* 'q'", [b"abcxq", b"aq", b"zzq"]),
    ("S = ('bx' / [a-b])* 'y'", [b"abxy", b"aby", b"bxy", b"abx"]),
]


def outcome(grammar, data, *, counting, **options):
    """('ok', consumed, tree) or ('fail', position) of one parse, bare or
    counting from the start."""
    steps = {"max_steps": 10**6} if counting else {}
    try:
        result = ParseSession(grammar, data, **steps, **options).parse()
    except ParseError as error:
        return ("fail", error.position)
    return ("ok", result.consumed, serialize(result.root))


def has_kernel(source):
    return re.search(r"_k\d+ = _compile\(", source) is not None


@pytest.mark.parametrize("build_ast", [True, False])
@pytest.mark.parametrize("memo", [True, False])
@pytest.mark.parametrize("text, inputs", CASES, ids=[text for text, _ in CASES])
def test_kernels_match_what_the_peg_matches(text, inputs, memo, build_ast):
    grammar = parse_grammar(text)
    options = {"memo": memo, "build_ast": build_ast}
    bare = program_for(grammar, **options).source
    assert has_kernel(bare) and "while" not in bare, bare
    assert not has_kernel(program_for(grammar, **options, counting=True).source)
    for data in inputs:
        got = outcome(grammar, data, counting=False, **options)
        assert got == outcome(grammar, data, counting=True, **options), data
        expected = oracle_outcome(grammar, data)
        assert got[0] == expected[0], data
        if got[0] == "ok":
            assert got[1] == expected[1], data
            if build_ast:
                assert got[2] == expected[2], data


JSON_STRINGS = [b'""', b'"a\\"b"', b'"\\\\"', b'"\\\\\\"x"', b'"a', b'"\\', b'"\\"', b'"\xc3\xa9\\u00e9"']
JSON_NUMBERS = [b"1", b"-0", b"12.", b"1.e5", b"1e", b"1e+", b"-", b"1.5E-3", b"3.25e12x", b"01", b"-.5"]


@pytest.mark.parametrize("start, inputs", [("String", JSON_STRINGS), ("Number", JSON_NUMBERS)])
def test_json_strings_and_numbers_run_as_kernels(start, inputs):
    grammar = parse_grammar(JSON_LIKE)
    assert has_kernel(program_for(grammar, memo=True, build_ast=True).source)
    for build_ast in (True, False):
        for data in inputs:
            results = []
            for counting in (False, True):
                steps = {"max_steps": 10**6} if counting else {}
                session = ParseSession(grammar, data, build_ast=build_ast, **steps)
                try:
                    result = session.parse(start)
                    results.append(("ok", result.consumed, serialize(result.root)))
                except ParseError as error:
                    results.append(("fail", error.position))
            assert results[0] == results[1], (start, data, build_ast)


def test_a_lexical_production_runs_inline_where_it_is_no_memo_point():
    # With trees, the JSON-like grammar plans no memo point, so ``S`` runs
    # inline at each call; in recognize mode every production is a point,
    # and ``S`` stays a call.  The counting modules keep every call.
    grammar = parse_grammar(JSON_LIKE)
    assert "S(" not in program_for(grammar, memo=True, build_ast=True).source.replace("def S(", "")
    assert "S(" not in program_for(grammar, memo=False, build_ast=False).source.replace("def S(", "")
    assert "= S(" in program_for(grammar, memo=True, build_ast=False).source
    assert "= S(" in program_for(grammar, memo=True, build_ast=True, counting=True).source


def test_a_lone_class_run_tests_its_first_byte_inline():
    # An empty run makes no call: the pattern runs past a first byte that
    # the module tested itself.
    grammar = parse_grammar("T = 'y' S 'x'\nS = [ \\t]*\n")
    source = program_for(grammar, memo=False, build_ast=True).source
    assert "_k0 = _compile(b'[\\\\x09\\\\x20]*+').match" in source
    assert "s1 = _k0(data, s1 + 1).end()" in source
    for data in (b"yx", b"y x", b"y\t x", b"y \ty"):
        assert outcome(grammar, data, counting=False) == outcome(grammar, data, counting=True)
