"""Acceptance suite: one test per shipping criterion, each prints a PASS line.

A1  canonical tree outputs, byte-exact
A2  math grammar semantics against an arithmetic oracle
A3  memoization transparency across window sizes
A4  transactional engine equals the snapshot-copy reference interpreter
A5  memoization turns pathological backtracking into linear-time behavior
A6  statistics definitions on deterministic and predicate-heavy grammars
A7  immutability audit never fires
A8  textual notation round trip is a fixed point
"""

import gc
import random
import statistics
import time
from fractions import Fraction

from corpus import ENGINE_STEPS, engine_outcome, make_corpus, oracle_outcome

from pegfold.grammar import parse_grammar
from pegfold.interp import ParseError, ParseSession, StepLimitExceeded
from pegfold.machine import InternalParserError
from pegfold.tree import equals, parse_notation, serialize

MATH = """Expr = Sum
Sum = Product {@ ( '+' #add / '-' #sub ) @Product }*
Product = Value {@ ( '*' #mul / '/' #div) @Value }*
Value = { [0-9]+ #Integer } / '(' Expr ')'
"""

CORPUS_SEED = 20260810
CORPUS_PAIRS = 500
WINDOWS = (1, 4, 256)


def parse_tree(grammar_text, data, start=None, **kw):
    session = ParseSession(parse_grammar(grammar_text), data, **kw)
    return session.parse(start)


def tree_text(grammar_text, data, start=None, **kw):
    return serialize(parse_tree(grammar_text, data, start, **kw).root)


# ---------------------------------------------------------------------------


def test_a1_canonical_tree_outputs():
    began = time.perf_counter()

    tagging = "Value  = { [0-9]+ }\nNumber = { [0-9]+ } #Int\n"
    assert tree_text(tagging, b"12", "Value") == "#token['12']"
    assert tree_text(tagging, b"12", "Number") == "#Int['12']"

    links = (
        "Additive = { @Number '+' @Number #Add }\n"
        "Additive2 = { @[1]Number '+' @[0]Number #Add }\n"
        "AdditiveM = { @Number ('+' @Number)+ #Add }\n"
        "AdditiveM2 = { @Number ('+' @[1]Number)+ #Add }\n"
        "Number = { [0-9]+ #Int }\n"
    )
    assert tree_text(links, b"1+2", "Additive") == "#Add[#Int['1'] #Int['2']]"
    assert tree_text(links, b"1+2", "Additive2") == "#Add[#Int['2'] #Int['1']]"
    assert (
        tree_text(links, b"1+2+3+4", "AdditiveM")
        == "#Add[#Int['1'] #Int['2'] #Int['3'] #Int['4']]"
    )
    assert tree_text(links, b"1+2+3+4", "AdditiveM2") == "#Add[#Int['1'] #Int['4']]"

    flat = "Expr = List / Term\nList  = { @Term (',' @Term)+ #List}\nTerm = {[A-z] #Term}\n"
    assert (
        tree_text(flat, b"A,B,C,D")
        == "#List[#Term['A'] #Term['B'] #Term['C'] #Term['D']]"
    )

    right = "Expr = Pair / Term\nPair =  {@Term ',' @Expr #Pair }\nTerm = { [A-z] #Term }\n"
    assert (
        tree_text(right, b"A,B,C,D")
        == "#Pair[#Term['A'] #Pair[#Term['B'] #Pair[#Term['C'] #Term['D']]]]"
    )

    left = "Expr = Term {@ (',' @Term) #Pair }*\nTerm = {[A-z] #Term}\n"
    assert (
        tree_text(left, b"A,B,C,D")
        == "#Pair[#Pair[#Pair[#Term['A'] #Term['B']] #Term['C']] #Term['D']]"
    )

    elapsed = time.perf_counter() - began
    assert elapsed < 1.0
    print(f"\n[PASS] A1 canonical tree outputs byte-exact ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------


_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}


def _evaluate(node) -> Fraction:
    if node.tag == "Integer":
        return Fraction(int(node.text))
    assert node.tag in _OPS and len(node.children) == 2, serialize(node)
    a, b = (_evaluate(c) for c in node.children)
    return _OPS[node.tag](a, b)


def _random_expression(rng, depth) -> str:
    if depth == 0 or rng.random() < 0.3:
        return str(rng.randint(0, 9))
    left = _random_expression(rng, depth - 1)
    right = _random_expression(rng, depth - 1)
    text = left + rng.choice("+-*") + right
    if rng.random() < 0.3:
        return "(" + text + ")"
    return text


def test_a2_math_grammar_against_arithmetic_oracle():
    grammar = parse_grammar(MATH)
    rng = random.Random(62831853)
    for _ in range(200):
        text = _random_expression(rng, 6)
        session = ParseSession(grammar, text.encode())
        result = session.parse()
        assert result.consumed == len(text)
        got = _evaluate(result.root)
        assert got.denominator == 1
        assert got == eval(text)  # +, -, * over ints: exact

    # division: left associativity and precedence, hand-checked values
    for text, expected in (
        ("8/4/2", 1),
        ("(6/3)*2", 4),
        ("9/(1+2)", 3),
        ("2*3/6", 1),
        ("7-4/2", 5),
        ("1/2*4", 2),
    ):
        result = parse_tree(MATH, text.encode())
        assert _evaluate(result.root) == Fraction(expected), text
    print("\n[PASS] A2 math grammar matches the arithmetic oracle (200 random + division cases)")


# ---------------------------------------------------------------------------


def test_a3_memoization_transparency():
    began = time.perf_counter()
    corpus = make_corpus(CORPUS_SEED, CORPUS_PAIRS)
    checked = skipped = 0
    for _, grammar, data in corpus:
        baseline = engine_outcome(grammar, data, memo=False)
        if baseline is None:
            skipped += 1
            continue
        for window in WINDOWS:
            run = engine_outcome(grammar, data, memo=True, window=window)
            if run is None:
                skipped += 1
                continue
            assert run == baseline, (data, window)
            checked += 1
    elapsed = time.perf_counter() - began
    assert checked >= 3 * (CORPUS_PAIRS - 20)
    assert elapsed < 30.0
    print(
        f"\n[PASS] A3 memoization transparency: {checked} comparisons across "
        f"windows {WINDOWS}, {skipped} budget skips ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------


def test_a4_backtracking_consistency_against_reference():
    began = time.perf_counter()
    corpus = make_corpus(CORPUS_SEED, CORPUS_PAIRS)
    checked = skipped = 0
    for _, grammar, data in corpus:
        engine = engine_outcome(grammar, data, memo=False)
        reference = oracle_outcome(grammar, data)
        if engine is None or reference is None:
            skipped += 1
            continue
        assert engine == reference, data
        checked += 1
    elapsed = time.perf_counter() - began
    assert checked >= CORPUS_PAIRS - 25
    assert elapsed < 60.0
    print(
        f"\n[PASS] A4 engine matches the snapshot-copy reference on "
        f"{checked} pairs, {skipped} budget skips ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------

_UNIT = 64
_CHAIN_LITERAL = "'" + "b" * _UNIT + "'"
PATHOLOGICAL = (
    f"R = T '?' / {_CHAIN_LITERAL} R / {_CHAIN_LITERAL}\n"
    f"T = U '!' / {_CHAIN_LITERAL} T / {_CHAIN_LITERAL}\n"
    f"U = {_CHAIN_LITERAL} U / {_CHAIN_LITERAL}\n"
)


def _timed_parses(sessions, rounds, floor):
    """Per-parse seconds of each session, one list per round.

    The sessions are timed in turn, round after round, so a slow spell of
    the host lands on every size alike instead of on whichever size was
    being timed when it came; each batch repeats its parse until it lasts
    ``floor`` seconds, to out-run timer noise.  The collector is emptied
    outside every timed batch and left on inside it.
    """

    def batch(session, reps):
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(reps):
            session.parse()
        return (time.perf_counter() - t0) / reps

    reps = [max(1, int(floor / max(batch(s, 1), 1e-9))) for s in sessions]
    return [[batch(s, n) for s, n in zip(sessions, reps)] for _ in range(rounds)]


def _growth(rounds, i):
    """The median over rounds of session ``i``'s time over session ``i - 1``'s.

    A round times the two back to back, so a slow spell of the host that
    outlasts both slows them alike and leaves their ratio alone, and one
    that catches a single batch moves one round's ratio, which the median
    passes over.  A best time per size over all rounds would instead let
    one quiet moment at one size decide the ratio.
    """
    return statistics.median(r[i] / r[i - 1] for r in rounds)


def test_a5_memoization_gives_linear_time_on_pathological_grammar():
    grammar = parse_grammar(PATHOLOGICAL)
    sizes = (2048, 4096, 8192)
    times = {}
    calls = {}
    # memo off spends 0.1-0.25 s per parse at the largest size and about
    # 0.7 s per round of its three batches: 4 rounds take about 3 s
    for memo, rounds, floor in ((True, 40, 0.01), (False, 4, 0.25)):
        sessions = [
            ParseSession(grammar, b"b" * n, memo=memo, window=n + 16) for n in sizes
        ]
        times[memo] = _timed_parses(sessions, rounds, floor)
        calls[memo] = [session.calls for session in sessions]

    growth = {memo: [_growth(times[memo], i) for i in (1, 2)] for memo in times}
    best = {memo: [min(r[i] for r in times[memo]) * 1000 for i in range(3)] for memo in times}
    for i in (1, 2):
        assert growth[True][i - 1] <= 2.5, (growth[True], best[True])
        assert growth[False][i - 1] >= 4.0, (growth[False], best[False])
        # the same separation holds for deterministic work counts
        assert calls[True][i] / calls[True][i - 1] <= 2.5
        assert calls[False][i] / calls[False][i - 1] >= 4.0

    on, off = best[True], best[False]
    print(
        "\n[PASS] A5 linear-time memoization: per-doubling growth "
        f"memo-on {growth[True][0]:.2f}x/{growth[True][1]:.2f}x, "
        f"memo-off {growth[False][0]:.1f}x/{growth[False][1]:.1f}x "
        f"(best on {on[0]:.2f}/{on[1]:.2f}/{on[2]:.2f} ms, "
        f"off {off[0]:.0f}/{off[1]:.0f}/{off[2]:.0f} ms)"
    )


# ---------------------------------------------------------------------------

CSV_LIKE = (
    "File = { #File (@Row)* }\n"
    "Row = { #Row @Cell (',' @Cell)* } '\\n'\n"
    "Cell = { #Cell [a-zA-Z0-9 ]+ }\n"
)


def test_a6_stats_definitions():
    cell = b"abc012 xyz789 pqr" * 12  # 204 bytes
    row = b",".join([cell] * 4) + b"\n"
    rows = 1024 * 1024 // len(row) + 1
    data = row * rows
    assert len(data) > 1024 * 1024

    result = parse_tree(CSV_LIKE, data, memo=True)
    stats = result.stats
    assert result.consumed == len(data)
    assert stats.backtrack_total == 0
    assert stats.backtrack_ratio == 0.0
    assert stats.nodes_unused == 0
    assert stats.nodes_in_result == 1 + rows * 5  # file + per row: row node + 4 cells

    predicated = "S = ( &('ab') 'a' 'b' / 'a' / 'b' )*"
    presult = parse_tree(predicated, b"abab", memo=False)
    assert presult.consumed == 4
    assert presult.stats.backtrack_total == 4  # the lookahead re-reads 2 bytes twice
    assert presult.stats.backtrack_ratio > 0
    print(
        f"\n[PASS] A6 stats: {len(data)} deterministic bytes -> backtrack_ratio 0, "
        f"nodes_unused 0 ({stats.nodes_created} nodes); predicate grammar ratio "
        f"{presult.stats.backtrack_ratio:.2f} > 0"
    )


# ---------------------------------------------------------------------------


def test_a7_immutability_audit_never_fires():
    corpus = make_corpus(CORPUS_SEED, CORPUS_PAIRS)
    runs = 0
    for _, grammar, data in corpus:
        for memo in (False, True):
            session = ParseSession(
                grammar, data, memo=memo, window=4, max_steps=ENGINE_STEPS
            )
            try:
                session.parse()
            except (ParseError, StepLimitExceeded):
                pass
            except InternalParserError as exc:  # pragma: no cover - must not happen
                raise AssertionError(f"audit fired on {data!r}: {exc}") from exc
            runs += 1
    assert runs == 2 * CORPUS_PAIRS
    print(f"\n[PASS] A7 immutability audit silent across {runs} parses")


# ---------------------------------------------------------------------------


def test_a8_notation_round_trip_fixed_point():
    roots = []

    tagging = "Value  = { [0-9]+ }\nNumber = { [0-9]+ } #Int\n"
    roots.append(parse_tree(tagging, b"12", "Value").root)
    roots.append(parse_tree(tagging, b"12", "Number").root)
    flat = "Expr = List / Term\nList  = { @Term (',' @Term)+ #List}\nTerm = {[A-z] #Term}\n"
    roots.append(parse_tree(flat, b"A,B,C,D").root)
    left = "Expr = Term {@ (',' @Term) #Pair }*\nTerm = {[A-z] #Term}\n"
    roots.append(parse_tree(left, b"A,B,C,D").root)
    for text in ("1+2*3", "1-2-3", "(1+2)*3", "8/4/2"):
        roots.append(parse_tree(MATH, text.encode()).root)

    for _, grammar, data in make_corpus(CORPUS_SEED, 200):
        for memo in (False, True):
            session = ParseSession(
                grammar, data, memo=memo, max_steps=ENGINE_STEPS
            )
            try:
                roots.append(session.parse().root)
            except (ParseError, StepLimitExceeded):
                pass

    assert len(roots) > 250
    for root in roots:
        text = serialize(root)
        reparsed = parse_notation(text)
        assert equals(root, reparsed)
        assert serialize(reparsed) == text
    print(f"\n[PASS] A8 notation round trip fixed on {len(roots)} trees")
