"""Memoization: windowed table behavior and memoized links."""

import tracemalloc

import pytest

from pegfold.grammar import parse_grammar
from pegfold.interp import ParseSession, StepLimitExceeded
from pegfold.memo import FAILED, MemoEntry, MemoTable
from pegfold.tree import equals, serialize

from corpus import engine_outcome, oracle_outcome


MATH = """Expr = Sum
Sum = Product {@ ( '+' #add / '-' #sub ) @Product }*
Product = Value {@ ( '*' #mul / '/' #div) @Value }*
Value = { [0-9]+ #Integer } / '(' Expr ')'
"""


def entry(consumed):
    return MemoEntry(True, consumed, None)


# -- table unit behavior ------------------------------------------------------


def test_empty_table_misses():
    t = MemoTable(points=2, window=16)
    assert t.lookup(0, 0) is None
    assert t.lookup(1, 7) is None
    assert (t.lookups, t.hits) == (2, 0)


def test_store_then_load():
    t = MemoTable(points=1, window=16)
    e = entry(3)
    t.memoize(0, 5, e)
    assert t.lookup(0, 5) is e
    assert (t.lookups, t.hits) == (1, 1)


def test_same_key_overwrites():
    t = MemoTable(points=1, window=16)
    t.memoize(0, 5, entry(1))
    newer = entry(2)
    t.memoize(0, 5, newer)
    assert t.lookup(0, 5) is newer


def test_failures_are_stored_and_replayed():
    t = MemoTable(points=1, window=16)
    t.memoize(0, 4, FAILED)
    got = t.lookup(0, 4)
    assert got is FAILED and not got.ok


def test_points_are_independent():
    t = MemoTable(points=3, window=8)
    t.memoize(2, 4, entry(9))
    assert t.lookup(0, 4) is None
    assert t.lookup(2, 4) is not None


def test_ring_collision_evicts_row():
    t = MemoTable(points=1, window=16)
    t.memoize(0, 5, entry(1))
    assert t.lookup(0, 21) is None  # 21 % 16 == 5: claims the row
    assert t.lookup(0, 5) is None   # old resident gone


def test_entries_behind_the_window_expire():
    t = MemoTable(points=1, window=16)
    t.memoize(0, 5, entry(1))
    assert t.lookup(0, 5) is not None
    t.lookup(0, 100)  # slides the frontier far ahead
    assert t.lookup(0, 5) is None


def test_entries_within_the_window_survive():
    t = MemoTable(points=1, window=64)
    t.memoize(0, 5, entry(1))
    t.lookup(0, 60)
    assert t.lookup(0, 5) is not None


def test_window_one_still_serves_the_current_position():
    t = MemoTable(points=1, window=1)
    t.memoize(0, 9, entry(2))
    assert t.lookup(0, 9) is not None
    t.memoize(0, 10, entry(1))
    assert t.lookup(0, 9) is None


def test_window_must_be_positive():
    with pytest.raises(ValueError):
        MemoTable(points=1, window=0)


# -- memoized evaluation ------------------------------------------------------


def run(text, data, **kw):
    session = ParseSession(parse_grammar(text), data, **kw)
    return session.parse(), session


def test_distinct_positions_both_miss():
    g = "Add = { #Add @Num '+' @Num }\nNum = { #Int [0-9] }"
    result, _ = run(g, b"1+2")
    assert result.stats.memo_lookups == 2
    assert result.stats.memo_hits == 0


def test_second_alternative_hits_and_reuses_node():
    g = "S = { #S @A 'x' } / { #S @A 'y' }\nA = { #A 'a1' }"
    result, session = run(g, b"a1y")
    assert result.stats.memo_lookups == 2
    assert result.stats.memo_hits == 1
    stored = [
        MemoEntry(*row[1][0])
        for row in session.table.rows
        if row is not None and row[1][0] is not None
    ]
    assert len(stored) == 1
    assert stored[0].node is result.root._record[4][0]  # the very same record


def test_a_hit_at_a_second_place_shows_as_a_second_node():
    # The hit re-attaches the first E's record, so one record sits at both
    # places; each place reads it through a view of its own.
    result, _ = run("S = { #S @E @E }\nE = { #E }", b"")
    first, second = result.root.children
    assert result.stats.memo_hits == 1 and result.stats.nodes_in_result == 2
    assert first._record is second._record
    assert first is not second and first != second and equals(first, second)
    assert serialize(result.root) == "#S[#E[''] #E['']]"


def test_hit_failure_fails_immediately():
    g = "S = A 'x' / A 'y' / 'az'\nA = 'a' 'b'"
    result, _ = run(g, b"az")
    # A fails after its first byte once; the second alternative replays the failure
    assert result.stats.memo_lookups >= 2
    assert result.stats.memo_hits >= 1
    assert result.consumed == 2


def test_plain_nonterminal_hit_is_a_pure_advance():
    g = "S = T 'x' / T 'y'\nT = 'ab' 'c'"
    result, _ = run(g, b"abcy")
    assert result.stats.memo_hits == 1
    assert serialize(result.root) == "#token['abcy']"


def test_the_start_goes_through_its_memo_point_and_counts_as_no_call():
    # recognition makes every production a memo point, S included
    session = ParseSession(parse_grammar("S = 'a' T / 'a' T 'x'\nT = 'b'"), b"ab", build_ast=False)
    result = session.parse()
    assert result.stats.memo_lookups == 2  # S at 0, T at 1
    assert session.calls == 1


def test_a_nonterminal_memo_hit_still_counts_as_a_call():
    grammar = parse_grammar("S = T 'x' / T 'y'\nT = 'a'")
    session = ParseSession(grammar, b"ay", build_ast=False)
    result = session.parse()
    assert (result.stats.memo_lookups, result.stats.memo_hits) == (3, 1)  # S at 0, T at 0 twice
    assert session.calls == 2
    limited = ParseSession(grammar, b"ay", build_ast=False, max_steps=1)
    with pytest.raises(StepLimitExceeded):
        limited.parse()  # the hit is the second call
    assert limited.calls == 2


def test_memoized_link_of_sometimes_creating_body():
    # V creates a node for digits but not for 'z': both outcomes are
    # stored and replayed faithfully.
    g = "S = { #S @V 'x' } / { #S @V 'y' }\nV = { #N [0-9] } / 'z'"
    for data, expect in ((b"1y", "#S[#N['1']]"), (b"zy", "#S['zy']")):
        result, _ = run(g, data)
        assert result.stats.memo_hits == 1
        assert serialize(result.root) == expect


def test_memo_off_disables_table_but_not_results():
    g = "S = { #S @A 'x' } / { #S @A 'y' }\nA = { #A 'a' }"
    on, _ = run(g, b"ay", memo=True)
    off, _ = run(g, b"ay", memo=False)
    assert serialize(on.root) == serialize(off.root)
    assert off.stats.memo_lookups == 0 and off.stats.memo_hits == 0
    assert on.stats.memo_lookups > 0


def test_window_only_affects_hit_rate():
    g = "S = T 'x' / T 'y'\nT = 'ab' 'c'"
    wide, _ = run(g, b"abcy", window=256)
    tiny, _ = run(g, b"abcy", window=1)
    assert wide.consumed == tiny.consumed == 4
    assert tiny.stats.memo_hits <= wide.stats.memo_hits


def test_the_ring_is_no_longer_than_the_input_needs():
    # Positions run from 0 to len(data), so a ring of len(data) + 1 rows
    # gives each its own row; a window of 10**7 would ask for 80 MB.
    data = b"(1+2)*3-4/(5+6)*7890"
    assert len(data) == 20
    tight = ParseSession(parse_grammar(MATH), data, window=len(data) + 1)
    wide = ParseSession(parse_grammar(MATH), data, window=10**7)
    expected = tight.parse()
    wide.parse()  # what a first parse sets up once is not counted
    tracemalloc.start()
    try:
        result = wide.parse()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000
    assert wide.table.window == tight.table.window == len(data) + 1
    assert serialize(result.root) == serialize(expected.root)
    assert result.stats == expected.stats


# A link point at a lazy constructor's level: B tags L's node after the
# link, so L's node is built through the log, and the link commits A's node
# itself before storing it.
LAZY_LEVEL_LINK = """S = L 'x' / L 'y'
L = { @A 'b' B }
B = '' #T
A = { 'a' } #A
"""


@pytest.mark.parametrize(
    "text, data, expect, hits",
    [
        (LAZY_LEVEL_LINK, b"aby", "#T[#A['a']]", 1),
        (
            LAZY_LEVEL_LINK.replace("@A 'b' B", "@[1]A 'b' @[0]C B") + "C = { 'c' } #C\n",
            b"abcy",
            "#T[#C['c'] #A['a']]",
            2,
        ),
    ],
    ids=["append", "indexed"],
)
def test_a_link_point_at_a_lazy_level_replays_the_stored_node(text, data, expect, hits):
    grammar = parse_grammar(text)
    result, session = run(text, data)
    assert serialize(result.root) == expect
    assert result.stats.memo_hits == hits
    entries = [
        MemoEntry(*entry) if entry is not None else None
        for row in session.table.rows
        if row is not None
        for entry in row[1]
    ]
    stored = [entry.node for entry in entries if entry is not None and entry.node is not None]
    assert len(stored) == hits
    assert all(any(node is child for child in result.root._record[4]) for node in stored)
    assert engine_outcome(grammar, data, memo=True) == oracle_outcome(grammar, data)
    assert engine_outcome(grammar, data, memo=False) == oracle_outcome(grammar, data)
