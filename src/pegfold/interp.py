"""The parsing engine: evaluates a grammar over input bytes.

Expressions compile to closures of ``pos -> pos'``.  Success returns the
new position; failure returns the bitwise complement of the position at
which the attempt died (so backtrack distances can be accounted without
carrying extra state).  A failed choice alternative, option body or
repetition step, and every predicate body, adds its re-readable distance
to the backtrack counter and leaves the position where it started;
predicates restore it even on success.

Only an attempt that can start at the next byte runs: a choice dispatches
on that byte to the alternatives its lead mask (``analysis.lead_masks``)
admits, and an option or loop tests it first.  A skipped attempt would
have failed where it starts, so skipping it only moves the farthest
failure there.

Tree operators never influence recognition, and build nodes on one of
two paths:

* An eager constructor (``analysis.eager_constructors``) is local: only
  its own level changes its node.  It keeps ``[tag, links, indexed]`` in a
  record of its own while its body runs, and builds its node from that as
  it closes.  A ``#t`` at its level sets the record's tag, and a trailing
  one beats it; an ``@Name`` there calls the production, puts the child in
  the record and restores the left register, committing a lazily built
  child at once and rolling back what the body logged if it fails.  A
  *direct* constructor has nothing at its level but a trailing tag, so no
  record either.  A ``{@ }`` that finds a virtual id in the register logs
  its node instead (``Machine.emit_local_fold``).
* Every other constructor is lazy: its operators append entries to the
  machine's log, and a commit builds its node.

Only an attempt a rollback can find work after gets a savepoint
(``analysis.transactions``): a choice alternative but the last, or an
option body, that can fail after changing the machine; a loop body that
can, or that can change it and succeed empty (an empty step is dropped); a
predicate body that can change it at all.  At an eager constructor's level
the machine does not change, so a savepoint there marks the record: its
tag and how many links it holds.  With tree operators erased, as in
recognize mode, nothing gets one.

With memoization enabled, ``@Name`` links at assigned memo points store
the materialized node as soon as the body succeeds (the node already in
the register if the body logged nothing else, or else the commit of its
sub-transaction), and replay it on later hits at the same position;
calls of tree-operator-free productions at memo points look their result
up and store it as a plain position advance.  The start of a parse goes
through such a call too, counted as none.

A grammar is compiled once per ``(memo, build_ast)`` setting; the
grammar keeps that program for every session.  Its closures reach the
input, machine, memo table and counters through cells of the scope that
made them, which a parse binds on entry and clears on exit.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

from .analysis import (
    MemoPlan,
    assign_memo_points,
    eager_constructors,
    lead_masks,
    transactions,
    untagged,
    validate,
)
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
from .machine import Machine, NodeRef, TxMark, place_links
from .memo import DEFAULT_WINDOW, FAILED, MemoEntry, MemoTable
from .tree import Node, unchecked_node

__all__ = [
    "ParseSession",
    "ParseResult",
    "ParseError",
    "InvalidGrammarError",
    "NestingLimitExceeded",
    "StepLimitExceeded",
    "Stats",
]

_MIN_RECURSION_LIMIT = 20000
_NO_STEP_LIMIT = sys.maxsize


class ParseError(Exception):
    """The start production failed.  ``position`` is the farthest failure."""

    reason = "parse failed"

    def __init__(self, position: int):
        super().__init__(f"{self.reason}; farthest failure at byte offset {position}")
        self.position = position


class NestingLimitExceeded(ParseError):
    """The input nests deeper than Python's recursion limit lets the
    engine follow.  ``position`` is the farthest failure before that."""

    reason = "input nests too deeply for the recursion limit"


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

    ``backtrack_total`` sums, over every failed attempt, the distance from
    the failure point back to where the attempt started, including
    distance restored by predicates; the ratio divides by input length.
    ``nodes_created`` counts materialized nodes, speculative ones
    included: those a memo link stored, those built at an eager
    constructor's closing brace, and lazily built children a link at an
    eager constructor's level committed, in an alternative that then
    failed.  ``nodes_unused`` is the created surplus not reachable from
    the root.  Attempts that cannot start at
    the next byte are skipped, so neither ``nodes_created`` nor
    ``memo_lookups`` counts the work they would have done.
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


class ParseResult:
    """A successful parse: the root node and how far it got.

    ``stats`` counts the nodes reachable from the root when it is first
    read, so a parse whose statistics nobody reads never walks the tree.
    """

    __slots__ = ("root", "consumed", "_stats")

    def __init__(self, root: Node, consumed: int, stats: Stats) -> None:
        self.root = root
        self.consumed = consumed
        self._stats = stats

    @property
    def stats(self) -> Stats:
        stats = self._stats
        if not stats.nodes_in_result:  # 0 until counted: the root is reachable
            stats.nodes_in_result = _count_reachable(self.root)
            stats.nodes_unused = stats.nodes_created - stats.nodes_in_result
        return stats

    def __repr__(self) -> str:
        return f"ParseResult(root={self.root!r}, consumed={self.consumed!r})"


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
        """Parses from offset 0; raises :class:`ParseError` if the start fails
        and :class:`NestingLimitExceeded` if the input nests too deeply.

        Consuming only a prefix still succeeds; ``result.consumed`` tells
        how far the parse got (command-line strictness is layered on top).
        """
        name = start if start is not None else self.grammar.start
        if name not in self.grammar.productions:
            raise KeyError(f"unknown start production {name!r}")
        if sys.getrecursionlimit() < _MIN_RECURSION_LIMIT:
            sys.setrecursionlimit(_MIN_RECURSION_LIMIT)

        # The forward pass and commit recurse per nesting level.  A
        # RecursionError unwinds through the program's ``finally``, which
        # releases its lock and clears its cells.
        try:
            end = self._program.run(self, name)
            if end < 0:
                raise ParseError(self.farthest)
            machine = self.machine
            root = machine.left
            if root is None:
                root = Node("token", 0, end, self.data, ())
                machine.created += 1
            elif isinstance(root, Node) and not machine.log:
                machine.first = []  # as a whole-log commit would
            else:
                root = machine.commit(TxMark(0, None, 0), self.data)
        except RecursionError:
            raise NestingLimitExceeded(self.farthest) from None
        stats = Stats()
        stats.backtrack_total = self.backtrack
        stats.backtrack_ratio = self.backtrack / len(self.data) if self.data else 0.0
        if self.table is not None:
            stats.memo_lookups = self.table.lookups
            stats.memo_hits = self.table.hits
        stats.consumed = end
        stats.nodes_created = machine.created
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

    # The analyses see what actually runs: with tree building off, links
    # are gone, every production is a plain-advance candidate memo point
    # and nothing needs a savepoint.
    running = grammar
    if not build_ast:
        running = Grammar(
            {name: erase_tree_operators(body) for name, body in grammar.productions.items()},
            grammar.start,
        )
    bodies = running.productions
    plan = assign_memo_points(running) if memo else None
    eager = eager_constructors(running)
    rollback = transactions(running, eager, plan.link_points if plan is not None else ())
    builds, dirty = rollback.builds, rollback.dirty
    lead = lead_masks(running)

    # Run state, bound by run() for the length of one parse.
    data: bytes | None = None
    size = 0
    machine: Machine | None = None
    table: MemoTable | None = None
    farthest = backtrack = calls = 0
    limit = _NO_STEP_LIMIT
    # The record of the innermost eager constructor running: [tag, links,
    # indexed], where ``links`` holds each linked child, or ``(index,
    # child)`` for an indexed link, and ``indexed`` says whether any is.
    record: list | None = None
    rules: dict[str, Callable[[int], int]] = {}
    starts: dict[str, Callable[[int], int]] = {}
    lock = threading.Lock()

    # Savepoints as (save, abort) pairs: the machine's, or, at an eager
    # constructor's level, where the machine does not change, its record's.
    def save_record(_machine: Machine) -> tuple:
        return record[0], len(record[1])

    def abort_record(_machine: Machine, mark: tuple) -> None:
        record[0] = mark[0]
        del record[1][mark[1] :]

    def savepoints(local: bool) -> tuple:
        return (save_record, abort_record) if local else (Machine.save, Machine.abort)

    def compile(e: Expression, local: bool = False) -> Callable[[int], int]:
        """``e`` as a closure; ``local``: it runs at an eager constructor's level."""
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
                if plan is None or name not in plan.nonterminal_points:

                    def run_call(pos: int, _n=name) -> int:
                        nonlocal calls
                        calls += 1
                        if calls > limit:
                            over_limit()
                        return rules[_n](pos)

                    return run_call

                # A tree-operator-free production at a memo point: the call
                # looks its result up and stores it, as a plain advance.
                def run_memo_call(pos: int, _n=name, _p=plan.nonterminal_points[name]) -> int:
                    nonlocal calls
                    calls += 1
                    if calls > limit:
                        over_limit()
                    entry = table.lookup(_p, pos)
                    if entry is not None:
                        return pos + entry.consumed if entry.ok else ~pos
                    r = rules[_n](pos)
                    if r >= 0:
                        table.memoize(_p, pos, MemoEntry(True, r - pos, None))
                    else:
                        table.memoize(_p, pos, FAILED)
                    return r

                return run_memo_call

            case Sequence(items):
                parts = [compile(i, local) for i in items]
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
                # Tries only the alternatives that can start at the next byte.
                # A skipped one would fail where it starts, moving ``farthest``
                # there: that needs doing only for skips ahead of the first
                # one tried, since one tried and failed has moved it as far.
                # Of the others, a dirty one runs under a savepoint; the last
                # needs none, since a failure there is the choice's own.  When
                # the last is skipped, the choice fails where it starts, as
                # that one would have.
                compiled = [(compile(a, local), dirty(a, local)) for a in alternatives[:-1]]
                compiled.append((compile(alternatives[-1], local), False))
                masks = [lead(a) for a in alternatives]
                rows: dict[int, tuple] = {}  # next byte (256: end of input) -> (head, last, skips)
                _save, _abort = savepoints(local)

                def run_choice(pos: int) -> int:
                    nonlocal backtrack, farthest
                    b = data[pos] if pos < size else 256
                    try:
                        head, last, skips = rows[b]
                    except KeyError:  # the first time this byte comes here
                        fits = [mask is None or mask >> b & 1 for mask in masks]
                        tried = [alt for alt, fit in zip(compiled, fits) if fit]
                        last = tried.pop()[0] if fits[-1] else None
                        rows[b] = head, last, skips = tuple(tried), last, not fits[0]
                    if skips and pos > farthest:
                        farthest = pos
                    for alt, save in head:
                        if save:
                            mark = _save(machine)
                        r = alt(pos)
                        if r >= 0:
                            return r
                        backtrack += ~r - pos
                        if save:
                            _abort(machine, mark)
                    return ~pos if last is None else last(pos)

                return run_choice

            case Option(body):
                inner = compile(body, local)
                _save, _abort = savepoints(local) if dirty(body, local) else (None, None)

                def run_option(pos: int, _m=lead(body)) -> int:
                    nonlocal backtrack, farthest
                    if _m is None or pos < size and _m >> data[pos] & 1:
                        if _save:
                            mark = _save(machine)
                        r = inner(pos)
                        if r >= 0:
                            return r
                        backtrack += ~r - pos
                        if _save:
                            _abort(machine, mark)
                    elif pos > farthest:
                        farthest = pos  # as the body would have failed here
                    return pos

                return run_option

            case ZeroOrMore(body):
                return compile_star(body, local)

            case OneOrMore(body):
                return compile(Sequence((body, ZeroOrMore(body))), local)

            # A predicate discards what its body did, so it needs a
            # savepoint only when the body can change the machine.  At an
            # eager constructor's level no body can.
            case Not(body):
                inner = compile(body, local)

                def run_not(pos: int, _save=builds(body)) -> int:
                    nonlocal backtrack, farthest
                    if _save:
                        mark = machine.save()
                    r = inner(pos)
                    if _save:
                        machine.abort(mark)
                    if r >= 0:
                        backtrack += r - pos
                        if pos > farthest:
                            farthest = pos
                        return ~pos
                    backtrack += ~r - pos
                    return pos

                return run_not

            case And(body):
                inner = compile(body, local)

                def run_and(pos: int, _save=builds(body)) -> int:
                    nonlocal backtrack
                    if _save:
                        mark = machine.save()
                    r = inner(pos)
                    backtrack += (r if r >= 0 else ~r) - pos
                    if _save:
                        machine.abort(mark)
                    return pos if r >= 0 else ~pos

                return run_and

            case Tag(name):
                if local:

                    def run_record_tag(pos: int, _n=name) -> int:
                        record[0] = _n
                        return pos

                    return run_record_tag

                def run_tag(pos: int, _n=name) -> int:
                    machine.emit_tag(_n)
                    return pos

                return run_tag

            case New(body) | LeftFold(body):
                if id(e) in eager:
                    return compile_eager(e)
                inner = compile(body)
                opener = Machine.emit_fold if isinstance(e, LeftFold) else Machine.emit_new

                def run_constructor(pos: int, _open=opener) -> int:
                    _open(machine, pos)
                    r = inner(pos)
                    if r >= 0:
                        machine.emit_capture(r)
                    return r

                return run_constructor

            case Link(body, index):
                if local:
                    return compile_record_link(body.name, index)
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

    def compile_eager(e: New | LeftFold) -> Callable[[int], int]:
        """An eager constructor: its level writes a record, or nothing if it
        is direct, and it builds its node from that as it closes.  A ``{@ }``
        that finds a virtual id in the register logs the node instead."""
        fold = isinstance(e, LeftFold)
        body, tag = untagged(e.body)  # the node takes a trailing ``#t`` as it is built
        # The constructor runs the items of its body itself, each ``e+`` as
        # ``e`` then ``e*``: one frame fewer, so that tree building follows
        # as deep a nesting as recognition.
        items: list[Expression] = []
        for item in body.items if isinstance(body, Sequence) else (body,):
            if isinstance(item, OneOrMore):
                items += (item.body, ZeroOrMore(item.body))
            else:
                items.append(item)
        parts = tuple(compile(item, True) for item in items)

        if not builds(body):  # direct: nothing at its level but a trailing tag

            def run_direct(pos: int, _tag=tag, _fold=fold) -> int:
                r = pos
                for part in parts:
                    r = part(r)
                    if r < 0:
                        return r
                first = machine.left if _fold else None
                if first is None:
                    machine.left = unchecked_node(_tag or "token", pos, r, data, ())
                elif type(first) is int:
                    machine.emit_local_fold(pos, r, _tag, ())
                    return r
                else:
                    machine.left = unchecked_node(_tag or "tree", pos, r, data, (first,))
                machine.created += 1
                return r

            return run_direct

        # The node is built in a helper: every level of a deep parse holds
        # this frame, and a small one crosses fewer frame-stack chunks.
        def run_record(pos: int, _tag=tag, _fold=fold) -> int:
            nonlocal record
            outer = record
            record = rec = [None, [], False]
            r = pos
            for part in parts:
                r = part(r)
                if r < 0:
                    break
            record = outer
            if r >= 0:
                close_record(rec, pos, r, _tag, _fold)
            return r

        return run_record

    def compile_record_link(name: str, index: int | None) -> Callable[[int], int]:
        """``@Name`` at an eager constructor's level: puts the child in the
        record and restores the register, committing a lazily built child at
        once.  On failure it rolls back what the body logged itself.  At a
        memo point it stores the child, and replays it on later hits."""
        if plan is not None and name in plan.link_points:
            return memoized_record_link(name, index)
        if plan is not None and name in plan.nonterminal_points:
            return compile(Nonterminal(name))  # builds nothing: a plain call

        def run_record_link(pos: int, _n=name, _i=index) -> int:
            nonlocal calls
            prior = machine.left
            base = len(machine.log)
            # The link makes the production call itself, one frame fewer;
            # undoing and committing are helpers, to keep this frame small.
            calls += 1
            if calls > limit:
                over_limit()
            r = rules[_n](pos)
            if r < 0:
                restore(base, prior)
                return r
            child = machine.left
            if child != prior:  # else the body built nothing, so it logged nothing
                if type(child) is not Node or len(machine.log) != base:
                    child = settle(base, prior)
                machine.left = prior
                if _i is None:
                    record[1].append(child)
                else:
                    record[1].append((_i, child))
                    record[2] = True
            return r

        return run_record_link

    def memoized_record_link(name: str, index: int | None) -> Callable[[int], int]:
        """``compile_record_link`` at a memo point."""
        point = plan.link_points[name]
        body = compile(Nonterminal(name))

        def run_memo_record_link(pos: int, _i=index) -> int:
            entry = table.lookup(point, pos)
            if entry is None:
                prior = machine.left
                base = len(machine.log)
                r = body(pos)
                if r < 0:
                    table.memoize(point, pos, FAILED)
                    restore(base, prior)
                    return r
                child = machine.left
                if child == prior:  # the body built nothing, so it logged nothing
                    table.memoize(point, pos, MemoEntry(True, r - pos, None))
                    return r
                if type(child) is not Node or len(machine.log) != base:
                    child = settle(base, prior)
                machine.left = prior
                table.memoize(point, pos, MemoEntry(True, r - pos, child))
            elif entry.ok:
                child = entry.node
                r = pos + entry.consumed
                if child is None:
                    return r
            else:
                return ~pos
            if _i is None:
                record[1].append(child)
            else:
                record[1].append((_i, child))
                record[2] = True
            return r

        return run_memo_record_link

    def close_record(rec: list, start: int, end: int, tag: str | None, fold: bool) -> None:
        """Builds the node of a record constructor that succeeded; a trailing
        ``tag`` beats those its level set."""
        tag = tag or rec[0]
        links = rec[1]
        first = machine.left if fold else None
        if type(first) is int:
            machine.emit_local_fold(start, end, tag, links)
            return
        if rec[2]:
            links = place_links(first, links)
        elif first is not None:
            links = (first, *links)
        machine.left = unchecked_node(
            tag or ("tree" if links else "token"), start, end, data, tuple(links)
        )
        machine.created += 1

    def restore(base: int, prior: NodeRef) -> None:
        """Undoes a failed link body: drops what it logged, restores the register."""
        if len(machine.log) != base:
            machine.abort(TxMark(base, prior, len(machine.stack)))
        machine.left = prior

    def settle(base: int, prior: NodeRef) -> Node:
        """Commits what a link body logged since ``base``: its child, built."""
        return machine.commit(TxMark(base, prior, len(machine.stack)), data)

    def over_limit() -> None:
        raise StepLimitExceeded(f"more than {limit} production calls")

    def compile_star(body: Expression, local: bool) -> Callable[[int], int]:
        # Byte loops: an iteration of these bodies tests one byte or one
        # literal, so the loop needs no call per iteration.
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

        inner = compile(body, local)
        # A savepoint for a failed iteration, or for an empty one, whose
        # entries are dropped too.
        save = builds(body) and (dirty(body, local) or rollback.nullable(body))
        _save, _abort = savepoints(local) if save else (None, None)

        def run_star(pos: int, _m=lead(body)) -> int:
            nonlocal backtrack, farthest
            while _m is None or pos < size and _m >> data[pos] & 1:
                if _save:
                    mark = _save(machine)
                r = inner(pos)
                if r < 0:
                    backtrack += ~r - pos
                    if _save:
                        _abort(machine, mark)
                    return pos
                if r == pos:
                    if _save:
                        _abort(machine, mark)  # empty iteration: drop its entries, stop
                    return pos
                pos = r
            if pos > farthest:
                farthest = pos  # as the body would have failed here
            return pos

        return run_star

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
            node = machine.left
            if not isinstance(node, Node) or len(machine.log) != mark.log_index:
                node = machine.commit(mark, data)
            table.memoize(point, pos, MemoEntry(True, r - pos, node))
            machine.emit_link_node(node, _i)
            return r

        return run_memo_link

    for name, body in bodies.items():
        rules[name] = compile(body)

    def run(session: ParseSession, name: str) -> int:
        nonlocal data, size, machine, table, farthest, backtrack, calls, limit, record
        with lock:
            start = starts.get(name)
            if start is None:
                start = starts[name] = compile(Nonterminal(name))
            # The start goes through a call, memo point included, that
            # counts as none.
            farthest = backtrack = 0
            calls = -1
            try:
                data = session.data
                size = len(data)
                machine = session.machine = Machine()
                table = session.table = (
                    MemoTable(plan.count, session.window) if plan is not None else None
                )
                limit = _NO_STEP_LIMIT if session.max_steps is None else session.max_steps
                return start(0)
            finally:
                session.farthest, session.backtrack, session.calls = farthest, backtrack, calls
                # Drop the input and the trees: the program outlives this parse.
                data = machine = table = record = None

    program = grammar._programs[(memo, build_ast)] = Program(plan, run)
    return program
