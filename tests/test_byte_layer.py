"""The byte layer over random lexical grammars: class, one-byte, literal and
``.`` loops, and ``(!X . / ...)*`` skips, in sequences and choices, over
bytes that include 0x00, 0x01 and 0xFF, with sets of one byte and of all
bytes but one.  The bare module runs them as class runs, skips and
kernels, the counting module as class runs and skips; both agree with the
oracle.  The counting module's counters are those of one iteration per
byte: they equal those of the same grammar with each byte test of a loop,
or of a skip's ``X``, written as a choice (``[ab]*`` as ``('a' / 'b')*``),
which is neither a class run nor a skip.

Runs and skips find in a stop mask that a parse builds for each byte set
it runs (``interp._Mask``): the tests below check that a parse builds none
it does not use, keeps none past its end, and builds its own however
threads share a grammar."""

import contextlib
import sys
import threading

import pytest
from corpus import benchmark_grammars, oracle_outcome

from pegfold.grammar import parse_grammar
from pegfold.interp import NestingLimitExceeded, ParseError, ParseSession, _Mask, program_for
from pegfold.tree import serialize

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = [(memo, build_ast) for memo in (True, False) for build_ast in (True, False)]


def as_choice(alternatives):
    """A choice of two alternatives at least, which the emitter compiles as
    a choice even where they are one byte test."""
    return "(" + " / ".join(alternatives * (2 if len(alternatives) == 1 else 1)) + ")"


# The bytes of the inputs, which the grammars' byte tests draw from.
ALPHABET = b"abc\x00\x01\xff"


def escaped(byte):
    return f"\\x{byte:02x}"


def klass(byte_set):
    """A class of the bytes of ``byte_set``, written in ranges."""
    bounds, run = [], None
    for byte in range(257):
        if byte < 256 and byte in byte_set:
            run = run or [byte, byte]
            run[1] = byte
        elif run:
            bounds.append(escaped(run[0]) if run[0] == run[1] else f"{escaped(run[0])}-{escaped(run[1])}")
            run = None
    return f"[{''.join(bounds)}]"


def all_but(byte):
    """A class of the 255 bytes but ``byte``, and the same as a choice of
    the classes below and above it (or the one where it is an end)."""
    below, above = set(range(byte)), set(range(byte + 1, 256))
    return klass(below | above), as_choice([klass(part) for part in (below, above) if part])


# Each strategy draws an expression as a pair: its text, and the text with
# its byte tests written as choices.
one_byte = st.one_of(
    st.sets(st.sampled_from(ALPHABET), min_size=1).map(sorted).map(
        lambda bs: (klass(bs), as_choice([f"'{escaped(b)}'" for b in bs]))
    ),
    st.sampled_from(ALPHABET).map(lambda b: (f"'{escaped(b)}'", as_choice([f"'{escaped(b)}'"]))),
    st.sampled_from(ALPHABET).map(all_but),
    st.just((".", as_choice(["."]))),
)
literal = st.sampled_from(["ab", "ba", "c\\x00", "\\xff\\x01"]).map(lambda t: (f"'{t}'", as_choice([f"'{t}'"])))
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
# A byte test outside a loop stays as it is on both sides: a choice records
# a farthest failure where its first alternative is skipped, which a class
# that matches does not.
plain_items = st.one_of(runs, one_byte.map(lambda x: (x[0], x[0])), literal)
choices = st.builds(lambda x, y: (f"({x[0]} / {y[0]})", f"({x[1]} / {y[1]})"), plain_items, plain_items)


@st.composite
def grammars(draw):
    """``S``, a sequence of items, and ``T``, a run that ``S`` may call,
    which the bare module runs inline where it is no memo point."""
    body = draw(st.lists(st.one_of(plain_items, choices, st.just(("T", "T"))), min_size=1, max_size=4))
    called = draw(runs)
    return tuple(f"S = {' '.join(x[side] for x in body)}\nT = {called[side]}\n" for side in (0, 1))


texts = st.binary(max_size=8).map(lambda b: bytes(ALPHABET[x % len(ALPHABET)] for x in b))
# A text that ends in a run of one byte, which a run or skip can reach the
# end of input on.
ending_in_runs = st.builds(lambda head, byte, n: head + bytes([byte]) * n, texts, st.sampled_from(ALPHABET), st.integers(1, 6))
inputs = st.lists(st.one_of(texts, ending_in_runs), min_size=1, max_size=4)
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


# -- stop masks -----------------------------------------------------------------

MATH = benchmark_grammars().MATH


def namespace(program):
    """The globals of a program's generated module, which its ``run``
    holds."""
    cells = [cell.cell_contents for cell in program.run.__closure__]
    (state,) = [x for x in cells if type(x) is dict and "data" in x]
    return state


@contextlib.contextmanager
def translations():
    """A list of the ``bytes.translate`` calls made in the block, by the
    function that made each: the stop masks built there."""
    made = []

    def profile(frame, event, arg):
        if event == "c_call" and arg.__qualname__ == "bytes.translate":
            made.append(frame.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        yield made
    finally:
        sys.setprofile(None)


@pytest.mark.parametrize("counting", [False, True])
def test_a_parse_builds_only_the_masks_its_runs_use(counting):
    # Math's numbers of one digit start no run of ``[0-9]*``, so their
    # parse translates nothing; a number of two digits builds the mask once
    # and the other runs find in it.
    grammar = parse_grammar(MATH)
    steps = {"max_steps": 10**6} if counting else {}
    with translations() as made:
        ParseSession(grammar, b"1+2*(3-4)/5", **steps).parse()
    assert made == []
    with translations() as made:
        result = ParseSession(grammar, b"12+345*(67-8)", **steps).parse()
    assert made == ["_Mask.find"]
    assert serialize(result.root) == "#add[#Integer['12'] #mul[#Integer['345'] #sub[#Integer['67'] #Integer['8']]]]"


@pytest.mark.parametrize("counting", [False, True])
def test_no_mask_outlives_its_parse(counting):
    # After a parse, a failed one and one too deep for the recursion limit,
    # each mask global holds its stand-in again, not a mask of the input.
    grammar = parse_grammar("S = '(' [ ]* S ')' / [ ]* 'x'")
    steps = {"max_steps": 10**6} if counting else {}
    state = namespace(program_for(grammar, memo=True, build_ast=True, counting=counting))
    masks = [name for name, value in state.items() if type(value) is _Mask]
    assert masks
    deep = b"( " * (sys.getrecursionlimit() + 10) + b"x"
    for data, raised in ((b"(  ( x))", None), (b"( ( x)", ParseError), (deep, NestingLimitExceeded)):
        with translations() as made:
            if raised is None:
                ParseSession(grammar, data, **steps).parse()
            else:
                with pytest.raises(raised):
                    ParseSession(grammar, data, **steps).parse()
        assert made, data[:20]  # it built a mask
        assert all(type(state[name]) is _Mask for name in masks), data[:20]
        assert state["data"] is None


def test_threads_sharing_a_grammar_each_find_in_their_own_masks():
    # Each parse builds the masks of its own input: threads parsing
    # different JSON documents with one grammar, switching often, each get
    # their own trees.  A mask kept from another thread's parse would end
    # runs where that input's runs end.
    grammar = parse_grammar(benchmark_grammars().JSON_LIKE)
    documents = [
        b'[ 1,  "a b",\n  {"k" :  true} ]',
        b'{\t"x":[null ,\t\t2.5e3 ], "y" : "z"  }',
        b'  [[ ], {  }, "  ",\r\n -7 ]  ',
        b'"one string"   ',
    ]
    expected = [serialize(ParseSession(grammar, data).parse().root) for data in documents]
    wrong = []

    def parse_many(data, tree):
        for _ in range(200):
            if serialize(ParseSession(grammar, data).parse().root) != tree:
                wrong.append(data)

    threads = [threading.Thread(target=parse_many, args=pair) for pair in zip(documents, expected)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
