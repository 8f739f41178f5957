"""Windowed memoization table for packrat parsing.

Results are keyed by (memo point, byte position).  The table is a ring
of ``window`` rows indexed by ``position % window``; a row serves exactly
one resident position, so a query for a colliding newer position evicts
the old row.  Entries behind the parse frontier by more than the window
are treated as expired even if their row was never reclaimed.  A window
at least as long as the longest backtrack makes parsing effectively
linear; a smaller one only costs re-parsing, never correctness.

Stored nodes are materialized and immutable node records (the plain
tuples of :mod:`pegfold.tree`); replaying a hit advances the position and,
for link points, re-attaches the stored record verbatim, the same object.
Failures are stored too, so repeated doomed attempts stay cheap.

An entry is an ``(ok, consumed, node)`` triple, which :class:`MemoEntry`
names.  A generated parser stores successes as plain tuples: building one
makes no call, and the collector stops tracking one that holds no node.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["MemoEntry", "MemoTable", "FAILED"]

DEFAULT_WINDOW = 256


class MemoEntry(NamedTuple):
    """Outcome at one (point, position) key."""

    ok: bool
    consumed: int
    node: tuple | None  # a node record


FAILED = MemoEntry(False, 0, None)


class MemoTable:
    """Ring of rows over positions; one parse session each."""

    __slots__ = ("window", "points", "rows", "lookups", "hits", "frontier")

    def __init__(self, points: int, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError("window must be at least 1")
        if points < 0:
            raise ValueError("point count must be non-negative")
        self.window = window
        self.points = points
        self.rows: list[list | None] = [None] * window
        self.lookups = 0
        self.hits = 0
        self.frontier = 0

    def lookup(self, point: int, pos: int) -> MemoEntry | None:
        """The stored entry, or None.  Counts the lookup, and the hit if any."""
        self.lookups += 1
        if pos > self.frontier:
            self.frontier = pos
        elif pos < self.frontier - self.window:
            return None  # expired: the parse moved on by more than the window
        row = self.rows[pos % self.window]
        if row is None:
            return None
        if row[0] != pos:
            self.rows[pos % self.window] = None  # stale resident: evict
            return None
        entry = row[1][point]
        if entry is not None:
            self.hits += 1
        return entry

    def memoize(self, point: int, pos: int, entry: MemoEntry) -> None:
        """Stores ``entry``; overwrites any previous entry at the same key."""
        if pos > self.frontier:
            self.frontier = pos
        slot = pos % self.window
        row = self.rows[slot]
        if row is None or row[0] != pos:
            row = self.rows[slot] = [pos, [None] * self.points]
        row[1][point] = entry
