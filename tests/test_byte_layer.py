"""The byte layer over random lexical grammars: class, one-byte, literal and
``.`` loops, and ``(!X . / ...)*`` skips, in sequences and choices.  The
bare module runs them as class runs, skips and kernels, the counting module
as class runs and skips; both agree with the oracle.  The counting
module's counters are those of one iteration per byte: they equal those of
the same grammar with each byte test of a loop, or of a skip's ``X``,
written as a choice (``[ab]*`` as ``('a' / 'b')*``), which is neither a
class run nor a skip."""

import pytest
from corpus import oracle_outcome

from pegfold.grammar import parse_grammar
from pegfold.interp import ParseError, ParseSession
from pegfold.tree import serialize

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = [(memo, build_ast) for memo in (True, False) for build_ast in (True, False)]


def as_choice(alternatives):
    """A choice of two alternatives at least, which the emitter compiles as
    a choice even where they are one byte test."""
    return "(" + " / ".join(alternatives * (2 if len(alternatives) == 1 else 1)) + ")"


# Each strategy draws an expression as a pair: its text, and the text with
# its byte tests written as choices.
one_byte = st.one_of(
    st.sets(st.sampled_from("abc"), min_size=1).map(sorted).map(
        lambda cs: (f"[{''.join(cs)}]", as_choice([f"'{c}'" for c in cs]))
    ),
    st.sampled_from("abc").map(lambda c: (f"'{c}'", as_choice([f"'{c}'"]))),
    st.just((".", as_choice(["."]))),
)
literal = st.sampled_from(["ab", "ba", "ca"]).map(lambda t: (f"'{t}'", as_choice([f"'{t}'"])))
loops = st.builds(
    lambda x, quantifier: (x[0] + quantifier, x[1] + quantifier),
    st.one_of(one_byte, literal),
    st.sampled_from("*+"),
)
# A skip's other alternative: none, a sequence, or one that holds a run.
OTHERS = [None, ("'c' .", "'c' ."), ("'a' 'b'", "'a' 'b'"), ("'c' [ab]*", "'c' ('a' / 'b')*")]


def skip(stop, quantifier, other):
    plain, general = f"!{stop[0]} .", f"!{stop[1]} ."
    if other is not None:
        plain, general = f"{plain} / {other[0]}", f"{general} / {other[1]}"
    return f"({plain}){quantifier}", f"({general}){quantifier}"


skips = st.builds(
    skip,
    st.one_of(one_byte.filter(lambda x: x[0] != "."), literal),
    st.sampled_from("*+"),
    st.sampled_from(OTHERS),
)
runs = st.one_of(loops, skips)
plain_items = st.one_of(runs, one_byte, literal)
choices = st.builds(lambda x, y: (f"({x[0]} / {y[0]})", f"({x[1]} / {y[1]})"), plain_items, plain_items)


@st.composite
def grammars(draw):
    """``S``, a sequence of items, and ``T``, a run that ``S`` may call,
    which the bare module runs inline where it is no memo point."""
    body = draw(st.lists(st.one_of(plain_items, choices, st.just(("T", "T"))), min_size=1, max_size=4))
    called = draw(runs)
    return tuple(f"S = {' '.join(x[side] for x in body)}\nT = {called[side]}\n" for side in (0, 1))


inputs = st.lists(st.binary(max_size=8).map(lambda b: bytes(b"abcd"[x % 4] for x in b)), min_size=1, max_size=4)
EXAMPLES = hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)


def outcome(grammar, data, *, counting, memo, build_ast):
    """('ok', consumed, tree) or ('fail', position) of one parse, bare or
    counting from the start, and the counting one's counters."""
    steps = {"max_steps": 10**6} if counting else {}
    session = ParseSession(grammar, data, memo=memo, build_ast=build_ast, **steps)
    try:
        result = session.parse()
        got = ("ok", result.consumed, serialize(result.root) if build_ast else None)
    except ParseError as error:
        got = ("fail", error.position)
    return got, (session.farthest, session.backtrack, session.calls) if counting else None


@EXAMPLES
@hypothesis.given(grammars(), inputs)
def test_bare_and_counting_modules_agree_with_the_oracle(texts, inputs):
    grammar = parse_grammar(texts[0])
    for data in inputs:
        expected = oracle_outcome(grammar, data)
        for memo, build_ast in SETTINGS:
            options = {"memo": memo, "build_ast": build_ast}
            got = outcome(grammar, data, counting=False, **options)[0]
            assert got == outcome(grammar, data, counting=True, **options)[0], (texts[0], data, options)
            assert got[0] == expected[0], (texts[0], data)
            if got[0] == "ok":
                assert got[1] == expected[1], (texts[0], data)
                if build_ast:
                    assert got[2] == expected[2], (texts[0], data)


@EXAMPLES
@hypothesis.given(grammars(), inputs)
def test_runs_and_skips_count_as_one_iteration_per_byte(texts, inputs):
    plain, general = map(parse_grammar, texts)
    for data in inputs:
        for memo, build_ast in SETTINGS:
            options = {"memo": memo, "build_ast": build_ast}
            assert outcome(plain, data, counting=True, **options) == outcome(
                general, data, counting=True, **options
            ), (texts, data, options)
