"""The parsing engine: evaluates a grammar over input bytes.

Expressions compile to closures of ``pos -> pos'``.  Success returns the
new position; failure returns the bitwise complement of the position at
which the attempt died (so backtrack distances can be accounted without
carrying extra state).  Choice alternatives, repetition steps and
predicate bodies run under savepoints: a parse-position snapshot plus a
machine transaction mark.  On failure both are rolled back and the
re-readable distance is added to the backtrack counter; predicates roll
back even on success.

Tree operators compile to machine entry emissions and never influence
recognition.  With memoization enabled, ``@Name`` links at assigned memo
points commit their sub-transaction as soon as the body succeeds, store
the materialized node, and replay it on later hits at the same position;
tree-operator-free productions are memoized as plain position advances.

A grammar is compiled once per ``(memo, build_ast)`` setting; the
grammar keeps that program for every session.  Its closures reach the
input, machine, memo table and counters through cells of the scope that
made them, which a parse binds on entry and clears on exit.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

from .analysis import MemoPlan, assign_memo_points, validate
from .expr import (
    And,
    AnyChar,
    CharClass,
    Choice,
    Empty,
    Expression,
    LeftFold,
    Link,
    New,
    Not,
    Nonterminal,
    OneOrMore,
    Option,
    Sequence,
    Tag,
    Terminal,
    ZeroOrMore,
    erase_tree_operators,
)
from .grammar import Grammar
from .machine import Machine, TxMark
from .memo import DEFAULT_WINDOW, FAILED, MemoEntry, MemoTable
from .tree import Node

__all__ = [
    "ParseSession",
    "ParseResult",
    "ParseError",
    "InvalidGrammarError",
    "StepLimitExceeded",
    "Stats",
]

_MIN_RECURSION_LIMIT = 20000
_NO_STEP_LIMIT = sys.maxsize


class ParseError(Exception):
    """The start production failed.  ``position`` is the farthest failure."""

    def __init__(self, position: int):
        super().__init__(f"parse failed; farthest failure at byte offset {position}")
        self.position = position


class InvalidGrammarError(ValueError):
    """The grammar has validation errors; see ``diagnostics``."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class StepLimitExceeded(Exception):
    """The optional per-parse step budget ran out."""


@dataclass
class Stats:
    """Internal counters for one parse.

    ``backtrack_total`` sums, over every rollback, the distance from the
    failure point back to the savepoint, including distance restored by
    predicates; the ratio divides by input length.  ``nodes_created``
    counts materialized nodes (speculative ones included), and
    ``nodes_unused`` is the created surplus not reachable from the root.
    """

    consumed: int = 0
    backtrack_total: int = 0
    backtrack_ratio: float = 0.0
    memo_lookups: int = 0
    memo_hits: int = 0
    nodes_created: int = 0
    nodes_in_result: int = 0
    nodes_unused: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class ParseResult:
    """A successful parse: the root node and how far it got."""

    root: Node
    consumed: int
    stats: Stats = field(repr=False)


class ParseSession:
    """A grammar bound to one input, ready to parse.

    The session obtains the grammar's program (:func:`program_for`), which
    raises :class:`InvalidGrammarError` on grammar errors, and can then
    parse repeatedly; every ``parse`` call starts from fresh state.

    ``memo`` enables packrat memoization with a sliding ``window`` (in
    byte positions).  ``build_ast=False`` strips all tree operators at
    compile time: recognition behavior is identical, no nodes are built.
    ``max_steps`` bounds production invocations per parse as a runaway
    guard (:class:`StepLimitExceeded`).
    """

    def __init__(
        self,
        grammar: Grammar,
        data: bytes | str,
        *,
        memo: bool = True,
        window: int = DEFAULT_WINDOW,
        build_ast: bool = True,
        max_steps: int | None = None,
    ):
        self._program = program_for(grammar, memo=memo, build_ast=build_ast)
        self.plan = self._program.plan
        self.grammar = grammar
        self.data = data.encode("utf-8") if isinstance(data, str) else bytes(data)
        self.memo_enabled = memo
        self.window = window
        self.build_ast = build_ast
        self.max_steps = max_steps

        # Filled in by each parse.
        self.machine: Machine | None = None
        self.table: MemoTable | None = None
        self.backtrack = 0
        self.farthest = 0
        self.calls = 0

    # -- public API --------------------------------------------------------

    def parse(self, start: str | None = None) -> ParseResult:
        """Parses from offset 0; raises :class:`ParseError` if the start fails.

        Consuming only a prefix still succeeds; ``result.consumed`` tells
        how far the parse got (command-line strictness is layered on top).
        """
        name = start if start is not None else self.grammar.start
        if name not in self.grammar.productions:
            raise KeyError(f"unknown start production {name!r}")
        if sys.getrecursionlimit() < _MIN_RECURSION_LIMIT:
            sys.setrecursionlimit(_MIN_RECURSION_LIMIT)

        end = self._program.run(self, name)
        stats = Stats()
        stats.backtrack_total = self.backtrack
        stats.backtrack_ratio = self.backtrack / len(self.data) if self.data else 0.0
        if self.table is not None:
            stats.memo_lookups = self.table.lookups
            stats.memo_hits = self.table.hits
        if end < 0:
            raise ParseError(self.farthest)
        stats.consumed = end

        machine = self.machine
        if machine.left is None:
            root = Node("token", 0, end, self.data, ())
            machine.created += 1
        else:
            root = machine.commit(TxMark(0, None, 0), self.data)
        stats.nodes_created = machine.created
        stats.nodes_in_result = _count_reachable(root)
        stats.nodes_unused = stats.nodes_created - stats.nodes_in_result
        return ParseResult(root, end, stats)


def _count_reachable(root: Node) -> int:
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.children)
    return len(seen)


class Program(NamedTuple):
    """A grammar compiled for one setting.  ``run(session, name)`` parses
    ``session.data``, one parse at a time, and leaves the machine, memo
    table and counters on the session."""

    plan: MemoPlan | None
    run: Callable[[ParseSession, str], int]


def program_for(grammar: Grammar, *, memo: bool, build_ast: bool) -> Program:
    """The grammar's program for this setting, compiled on first use.

    The first compile of a grammar validates it and raises
    :class:`InvalidGrammarError` on errors; a grammar that already has a
    program has passed.  Two threads racing here may both compile; either
    program is correct.
    """
    program = grammar._programs.get((memo, build_ast))
    if program is not None:
        return program
    if not grammar._programs:
        problems = [d for d in validate(grammar) if d.severity == "error"]
        if problems:
            raise InvalidGrammarError(problems)

    bodies = dict(grammar.productions)
    if not build_ast:
        bodies = {name: erase_tree_operators(body) for name, body in bodies.items()}
    # Memo points reflect what actually runs: with tree building off,
    # links are gone and every production is a plain-advance candidate.
    plan: MemoPlan | None = None
    if memo:
        plan = assign_memo_points(grammar if build_ast else Grammar(bodies, grammar.start))

    # Run state, bound by run() for the length of one parse.
    data: bytes | None = None
    size = 0
    machine: Machine | None = None
    table: MemoTable | None = None
    farthest = backtrack = calls = 0
    limit = _NO_STEP_LIMIT
    rules: dict[str, Callable[[int], int]] = {}
    lock = threading.Lock()

    def compile(e: Expression) -> Callable[[int], int]:
        match e:
            case Empty():
                return lambda pos: pos

            case Terminal(text):
                if len(text) == 1:
                    byte = text[0]

                    def run_byte(pos: int, _b=byte) -> int:
                        nonlocal farthest
                        if pos < size and data[pos] == _b:
                            return pos + 1
                        if pos > farthest:
                            farthest = pos
                        return ~pos

                    return run_byte

                width = len(text)

                def run_text(pos: int, _t=text, _w=width) -> int:
                    nonlocal farthest
                    end = pos + _w
                    if data[pos:end] == _t:
                        return end
                    if pos > farthest:
                        farthest = pos
                    return ~pos

                return run_text

            case CharClass() as cc:
                membership = bytes(cc.membership_table())

                def run_class(pos: int, _t=membership) -> int:
                    nonlocal farthest
                    if pos < size and _t[data[pos]]:
                        return pos + 1
                    if pos > farthest:
                        farthest = pos
                    return ~pos

                return run_class

            case AnyChar():

                def run_any(pos: int) -> int:
                    nonlocal farthest
                    if pos < size:
                        return pos + 1
                    if pos > farthest:
                        farthest = pos
                    return ~pos

                return run_any

            case Nonterminal(name):

                def run_call(pos: int, _n=name) -> int:
                    nonlocal calls
                    calls += 1
                    if calls > limit:
                        raise StepLimitExceeded(f"more than {limit} production calls")
                    return rules[_n](pos)

                return run_call

            case Sequence(items):
                parts = [compile(i) for i in items]
                if len(parts) == 2:
                    first, second = parts

                    def run_pair(pos: int) -> int:
                        pos = first(pos)
                        if pos < 0:
                            return pos
                        return second(pos)

                    return run_pair

                def run_seq(pos: int, _parts=tuple(parts)) -> int:
                    for part in _parts:
                        pos = part(pos)
                        if pos < 0:
                            return pos
                    return pos

                return run_seq

            case Choice(alternatives):
                compiled = [compile(a) for a in alternatives]
                head = tuple(compiled[:-1])
                last = compiled[-1]

                def run_choice(pos: int) -> int:
                    nonlocal backtrack
                    for alt in head:
                        mark = machine.save()
                        r = alt(pos)
                        if r >= 0:
                            return r
                        backtrack += ~r - pos
                        machine.abort(mark)
                    return last(pos)

                return run_choice

            case Option(body):
                inner = compile(body)

                def run_option(pos: int) -> int:
                    nonlocal backtrack
                    mark = machine.save()
                    r = inner(pos)
                    if r >= 0:
                        return r
                    backtrack += ~r - pos
                    machine.abort(mark)
                    return pos

                return run_option

            case ZeroOrMore(body):
                return compile_star(body)

            case OneOrMore(body):
                return compile(Sequence((body, ZeroOrMore(body))))

            case Not(body):
                inner = compile(body)

                def run_not(pos: int) -> int:
                    nonlocal backtrack, farthest
                    mark = machine.save()
                    r = inner(pos)
                    if r >= 0:
                        backtrack += r - pos
                        machine.abort(mark)
                        if pos > farthest:
                            farthest = pos
                        return ~pos
                    backtrack += ~r - pos
                    machine.abort(mark)
                    return pos

                return run_not

            case And(body):
                inner = compile(body)

                def run_and(pos: int) -> int:
                    nonlocal backtrack
                    mark = machine.save()
                    r = inner(pos)
                    backtrack += (r if r >= 0 else ~r) - pos
                    machine.abort(mark)
                    return pos if r >= 0 else ~pos

                return run_and

            case Tag(name):

                def run_tag(pos: int, _n=name) -> int:
                    machine.emit_tag(_n)
                    return pos

                return run_tag

            case New(body):
                inner = compile(body)

                def run_new(pos: int) -> int:
                    machine.emit_new(pos)
                    r = inner(pos)
                    if r >= 0:
                        machine.emit_capture(r)
                    return r

                return run_new

            case LeftFold(body):
                inner = compile(body)

                def run_fold(pos: int) -> int:
                    machine.emit_fold(pos)
                    r = inner(pos)
                    if r >= 0:
                        machine.emit_capture(r)
                    return r

                return run_fold

            case Link(body, index):
                if (
                    plan is not None
                    and isinstance(body, Nonterminal)
                    and body.name in plan.link_points
                ):
                    return memoized_link(body.name, index)
                inner = compile(body)

                def run_link(pos: int, _i=index) -> int:
                    machine.push_left()
                    r = inner(pos)
                    if r < 0:
                        machine.pop_left()
                        return r
                    machine.emit_link(_i)
                    return r

                return run_link

        raise TypeError(f"cannot compile {e!r}")

    def compile_star(body: Expression) -> Callable[[int], int]:
        # Byte loops: a failed or empty iteration of these bodies cannot
        # move the position or touch the machine, so the savepoint per
        # iteration degenerates to nothing.
        if isinstance(body, CharClass):
            membership = bytes(body.membership_table())

            def run_scan(pos: int, _t=membership) -> int:
                while pos < size and _t[data[pos]]:
                    pos += 1
                return pos

            return run_scan
        if isinstance(body, Terminal):
            text = body.text
            width = len(text)

            def run_scan_text(pos: int, _t=text, _w=width) -> int:
                while data[pos : pos + _w] == _t:
                    pos += _w
                return pos

            return run_scan_text

        inner = compile(body)

        def run_star(pos: int) -> int:
            nonlocal backtrack
            while True:
                mark = machine.save()
                r = inner(pos)
                if r < 0:
                    backtrack += ~r - pos
                    machine.abort(mark)
                    return pos
                if r == pos:
                    machine.abort(mark)  # empty iteration: drop its entries, stop
                    return pos
                pos = r

        return run_star

    def memoized_production(name: str, inner: Callable[[int], int]) -> Callable[[int], int]:
        """Wraps a tree-operator-free production with a memo point."""
        point = plan.nonterminal_points[name]

        def run_memo(pos: int) -> int:
            entry = table.lookup(point, pos)
            if entry is not None:
                return pos + entry.consumed if entry.ok else ~pos
            r = inner(pos)
            if r >= 0:
                table.memoize(point, pos, MemoEntry(True, r - pos, None))
            else:
                table.memoize(point, pos, FAILED)
            return r

        return run_memo

    def memoized_link(name: str, index: int | None) -> Callable[[int], int]:
        """``@Name`` at a memo point: commit-on-success, store, replay on hit."""
        point = plan.link_points[name]
        body = compile(Nonterminal(name))

        def run_memo_link(pos: int, _i=index) -> int:
            machine.push_left()
            entry = table.lookup(point, pos)
            if entry is not None:
                if not entry.ok:
                    machine.pop_left()
                    return ~pos
                if entry.node is not None:
                    machine.emit_link_node(entry.node, _i)
                else:
                    machine.pop_left()
                return pos + entry.consumed
            mark = machine.save()
            r = body(pos)
            if r < 0:
                table.memoize(point, pos, FAILED)
                machine.abort(mark)
                machine.pop_left()
                return r
            if machine.left == mark.left:
                # The body built nothing.  Memoize the bare advance, but
                # only when it logged nothing a stored entry would lose.
                if len(machine.log) == mark.log_index:
                    table.memoize(point, pos, MemoEntry(True, r - pos, None))
                machine.pop_left()
                return r
            node = machine.commit(mark, data)
            table.memoize(point, pos, MemoEntry(True, r - pos, node))
            machine.emit_link_node(node, _i)
            return r

        return run_memo_link

    for name, body in bodies.items():
        compiled = compile(body)
        if plan is not None and name in plan.nonterminal_points:
            compiled = memoized_production(name, compiled)
        rules[name] = compiled

    def run(session: ParseSession, name: str) -> int:
        nonlocal data, size, machine, table, farthest, backtrack, calls, limit
        with lock:
            farthest = backtrack = calls = 0
            try:
                data = session.data
                size = len(data)
                machine = session.machine = Machine()
                table = session.table = (
                    MemoTable(plan.count, session.window) if plan is not None else None
                )
                limit = _NO_STEP_LIMIT if session.max_steps is None else session.max_steps
                return rules[name](0)
            finally:
                session.farthest, session.backtrack, session.calls = farthest, backtrack, calls
                # Drop the input and the trees: the program outlives this parse.
                data = machine = table = None

    program = grammar._programs[(memo, build_ast)] = Program(plan, run)
    return program
