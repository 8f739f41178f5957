"""The parsing engine: evaluates a grammar over input bytes.

A grammar compiles to Python source with one function per production,
named after it (``_mangle``), which ``compile`` and ``exec`` turn into a
module whose globals hold the run state of a parse.  A production's
function takes a position and returns the new one on success, or the
bitwise complement of the position at which the attempt died (so backtrack
distances can be accounted without carrying extra state).  Inside it every
expression is inlined: terminals, classes, byte loops, sequences, choices,
options, loops, predicates and tree operators.  A call of another
production is the only Python call the generated code makes, besides the
machine's methods for lazy constructors, ``place_links`` and the memo
table.  A failed choice alternative, option body or repetition step leaves
the position where it started, and predicates restore it even on success.

Each setting compiles to two modules from one emitter.  The bare module,
which a parse runs by default, counts nothing.  The counting module adds
the instrumentation: each function opens with a prologue that counts its
call against the step limit, every failure moves the farthest failure
(``farthest``), each failed attempt and every predicate body adds its
re-readable distance to ``backtrack``, and each node an eager constructor
builds counts in ``machine.created``.  It runs when a session has a step
limit, and otherwise only when something needs what it counts: a failed
parse re-runs with it to find the position of its farthest failure, and
reading a session's counters or a result's statistics re-runs the parse
with it once (:class:`ParseSession`).  A run of either module builds its
own root, a token over what it consumed, the node left in the register or
the commit of the whole log, so that one re-run counts every node the
parse built.

A loop whose body is ``!X .``, or a choice whose first alternative is, with
``X`` a class or a literal, is a scan loop: before each iteration it skips
the run of bytes where ``X`` fails in one C call (``data.find`` for a
literal or a single byte, the ``match`` of a ``[^...]*`` pattern compiled
with the module for a class), and the iteration then runs where ``X``
matches or the input ends.  Every counter keeps its value: a skipped
iteration counts no backtrack, and the farthest failure it would have
recorded lies before the one that iteration records.

Only an attempt that can start at the next byte runs: a choice dispatches
on that byte to the alternatives its lead mask admits (a fact of
``analysis.compiled_facts``), and an option or loop tests it first.  A
skipped attempt would have failed where it starts, so skipping it only
moves the farthest failure there.  What a guard learns of the byte
reaches only attempts that start where the guarded one does, behind items
that can succeed empty, and their lead masks lie inside the guarded one's:
a byte test under a guard is left out where the guard decided it, and
narrowed to what the guard let through otherwise, which is never nothing.

Tree operators never influence recognition, and build nodes on one of
two paths:

* An eager constructor (``analysis.eager_constructors``) is local: only
  its own level changes its node.  It keeps its record in locals of the
  function, a tag and a list of links, and builds its node from them as it
  closes: one tuple, a node record of :mod:`pegfold.tree`, made with no
  call; a level with an ``@[n]`` site places its links with
  ``place_links``.  A ``#t`` at its level sets the record's tag, and a
  trailing one beats it; an ``@Name`` there calls the production, puts the
  child in the record and restores the left register,
  committing a lazily built child at once and rolling back what the body
  logged if it fails.  A production that never logs
  (``analysis.compiled_facts``) leaves a built node or nothing in the
  register and nothing in the log, so a link that calls one, here or at a
  memo point, reads no log length and neither commits nor rolls back.  A
  *direct* constructor has nothing at its level but a trailing tag, so no
  record either.  A ``{@ }`` that finds a virtual id in the register logs
  its node instead (``Machine.emit_local_fold``).
* Every other constructor is lazy: its operators append entries to the
  machine's log, and a commit builds its node.

Only an attempt a rollback can find work after gets a savepoint
(``analysis.compiled_facts``): a choice alternative but the last, or an
option body, that can fail after changing the machine; a loop body that
can, or that can change it and succeed empty (an empty step is dropped); a
predicate body that can change it at all.  Where the attempt never logs,
the left register is all it can change, and its savepoint is that
register alone.  At an eager constructor's level the machine does not
change, so a savepoint there marks the record: its tag and how many links
it holds.  With tree operators erased, as in recognize mode, nothing gets
one.

With memoization enabled, ``@Name`` links at assigned memo points store
the materialized node as soon as the body succeeds (the node already in
the register if the body logged nothing else, or else the commit of its
sub-transaction), and replay it on later hits at the same position.  A
tree-operator-free production at a memo point looks itself up in its
prologue, returning at once on a hit, and stores its result as a plain
advance before it returns; the start of a parse is no different, and
counts as no call.  Only an ``@Name`` site may make a stored node final,
so link points keep their lookups at the call site.

A grammar is compiled once per ``(memo, build_ast, counting)`` setting, the
counting module only when a parse first needs it; the grammar keeps that
program for every session.  Grammars with equal productions
share one memo plan and compiled module (``_compiled``), analysed, written
and compiled once, and each program ``exec``s it into globals of its own,
which a parse binds on entry and clears on exit.
"""

from __future__ import annotations

import builtins
import functools
import keyword
import re
import sys
import threading
import weakref
from dataclasses import asdict, dataclass
from types import CodeType, FunctionType
from typing import Callable, NamedTuple

from .analysis import (
    MemoPlan,
    assign_memo_points,
    compiled_facts,
    eager_constructors,
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
    sequence,
)
from .grammar import Diagnostic, Grammar
from .machine import Machine, TxMark, place_links
from .memo import DEFAULT_WINDOW, FAILED, MemoTable
from .tree import Node, _first_read

__all__ = [
    "ParseSession",
    "ParseResult",
    "ParseError",
    "InvalidGrammarError",
    "NestingLimitExceeded",
    "StepLimitExceeded",
    "Stats",
]

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
    ``memo_lookups`` counts the work they would have done.  After a bare
    parse, ``backtrack_total`` and ``nodes_created`` come from a counting
    re-run (see :class:`ParseSession`).
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

    The parse leaves the root's record (:mod:`pegfold.tree`); ``root`` is
    the one view of it, made when first read, whose children make theirs
    as they are read.  ``stats`` is made when first read, so a parse whose
    statistics nobody reads never walks the tree, nor, unless it counted
    from the start, runs a second time for its counters (see
    :class:`ParseSession`).
    """

    __slots__ = ("_record", "_root", "consumed", "_run", "_stats")

    def __init__(self, record: tuple, consumed: int, run: _Run) -> None:
        self._record = record
        self._root: Node | None = None
        self.consumed = consumed
        self._run = run
        self._stats: Stats | None = None

    @property
    def root(self) -> Node:
        if self._root is None:
            made = Node._view(self._record)
            # Threads reading at once all get the root kept.  The lock is
            # taken by hand: a ``with`` block costs 0.1 us more a parse.
            _first_read.acquire()
            try:
                if self._root is None:
                    self._root = made
            finally:
                _first_read.release()
        return self._root

    @property
    def stats(self) -> Stats:
        stats = self._stats
        if stats is None:
            run = self._run.counted()
            size = len(run.data)
            table = run.table
            created = run.created
            reachable = _count_reachable(self._record)
            stats = self._stats = Stats(
                consumed=self.consumed,
                backtrack_total=run.backtrack,
                backtrack_ratio=run.backtrack / size if size else 0.0,
                memo_lookups=table.lookups if table is not None else 0,
                memo_hits=table.hits if table is not None else 0,
                nodes_created=created,
                nodes_in_result=reachable,
                nodes_unused=created - reachable,
            )
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
    guard (:class:`StepLimitExceeded`); the start counts as none.  A
    negative bound, or a window below 1, raises ``ValueError``, with
    memoization on or off.

    ``machine``, ``table`` and the counters ``farthest``, ``backtrack`` and
    ``calls`` describe the last parse.  The table's ring holds
    ``min(window, len(data) + 1)`` rows, at most one per position, so
    ``session.table.window`` reads the ring's size, not ``window``.  Without
    ``max_steps`` a parse runs the bare program, which counts nothing;
    reading a counter, or the result's ``stats``, first re-runs the parse
    once with the counting program, as a failed parse does to find its
    position.  With ``max_steps`` every parse counts from the start.
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
        if max_steps is not None and max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if window < 1:
            raise ValueError("window must be at least 1")
        counting = max_steps is not None
        self._program = grammar._programs.get((memo, build_ast, counting)) or program_for(
            grammar, memo=memo, build_ast=build_ast, counting=counting
        )
        self.plan = self._program.plan
        self.grammar = grammar
        self.data = data.encode("utf-8") if isinstance(data, str) else bytes(data)
        self.window = window
        self.max_steps = max_steps
        self._run = _NO_RUN

    # -- public API --------------------------------------------------------

    @property
    def machine(self) -> Machine | None:
        return self._run.machine

    @property
    def table(self) -> MemoTable | None:
        return self._run.table

    @property
    def farthest(self) -> int:
        return self._run.counted().farthest

    @property
    def backtrack(self) -> int:
        return self._run.counted().backtrack

    @property
    def calls(self) -> int:
        return self._run.counted().calls

    def parse(self, start: str | None = None) -> ParseResult:
        """Parses from offset 0; raises :class:`ParseError` if the start fails
        and :class:`NestingLimitExceeded` if the input nests deeper than
        the caller's recursion limit lets the parse follow (a frame per
        production call), which the parse leaves as it is.

        Consuming only a prefix still succeeds; ``result.consumed`` tells
        how far the parse got (command-line strictness is layered on top).
        """
        name = start if start is not None else self.grammar.start
        if name not in self.grammar._productions:
            raise KeyError(f"unknown start production {name!r}")
        program = self._program
        run = self._run = _Run(self.data, self.window, self.max_steps, name, self.grammar, program.recount)
        # The forward pass and commit recurse per nesting level, as deep as
        # the caller's recursion limit lets them.  A RecursionError unwinds
        # through the program's ``finally``, which releases its lock and
        # clears its globals.
        try:
            end = program.run(run, name)
            if end >= 0:
                return ParseResult(run.root, end, run)
            failure = ParseError
        except RecursionError:
            failure = NestingLimitExceeded
        if run.recount is not None:
            # The position takes a counting run.  It starts from this frame,
            # as the bare one did, so it meets the recursion limit where
            # that one did.
            program, run.recount = run.recount(self.grammar), None
            try:
                program.run(run, name)
            except RecursionError:
                pass
        raise failure(run.farthest)


def _count_reachable(root: tuple) -> int:
    """The distinct records in the tree of ``root``: a memo hit can put one
    record in two places."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        record = stack.pop()
        if id(record) in seen:
            continue
        seen.add(id(record))
        stack.extend(record[4])
    return len(seen)


class _Run:
    """One parse's run of a program: what ``Program.run`` reads (``data``,
    ``window`` and the step ``limit``) and leaves (the ``machine``, the
    memo ``table``, the ``root`` record of a parse that succeeded and
    ``created``, the nodes the machine had created when the run ended, the
    root's included) and, from a counting module, the counters
    ``farthest``, ``backtrack`` and ``calls``.

    After a bare run, ``recount`` returns the counting program of its
    setting for ``grammar``, and ``counted`` re-runs the parse of ``name``
    with it once, the first time a counter is read.  A run builds its own
    root, so the re-run counts every node the parse built.  It fills the
    counters and ``created`` and keeps nothing else: the machine, table and
    root stay the first run's.
    """

    __slots__ = (
        "data", "window", "limit", "name", "grammar", "recount",
        "machine", "table", "root", "created", "farthest", "backtrack", "calls",
    )

    def __init__(self, data: bytes, window: int, limit: int | None, name, grammar, recount) -> None:
        self.data, self.window, self.limit, self.name = data, window, limit, name
        self.grammar: Grammar | None = grammar
        self.recount: Callable[[Grammar], Program] | None = recount
        self.machine: Machine | None = None
        self.table: MemoTable | None = None
        self.root: tuple | None = None
        self.created = self.farthest = self.backtrack = self.calls = 0

    def counted(self) -> _Run:
        if self.recount is not None:
            program = self.recount(self.grammar)
            again = _Run(self.data, self.window, None, self.name, None, None)
            try:
                program.run(again, self.name)
            except RecursionError:
                # Read from deeper in the stack than the parse ran: re-run
                # on a thread of its own, whose stack starts empty.
                worker = threading.Thread(target=program.run, args=(again, self.name))
                worker.start()
                worker.join()
            self.farthest, self.backtrack, self.calls = again.farthest, again.backtrack, again.calls
            self.created = again.created
            self.recount = None
        return self


_NO_RUN = _Run(b"", DEFAULT_WINDOW, None, None, None, None)  # a session's before it parses


class Program(NamedTuple):
    """A grammar compiled for one setting.  ``run(record, name)`` parses
    ``record.data`` (a :class:`_Run`), one parse at a time, and leaves the
    machine, memo table, root and, in a counting program, the counters on
    the record.  ``source`` is the generated module and ``code`` its compiled
    form, shared by every program of a grammar with equal productions.
    ``recount(grammar)`` returns the grammar's counting program of the
    setting, compiled on its first call; a counting program has none.  It is
    made once per program, so a session costs no call to find what its parse
    may need, and it holds no grammar, so a grammar and its programs make no
    reference cycle and go with their last reference; the generated
    module's namespace is emptied as ``run`` goes, so it goes with them."""

    plan: MemoPlan | None
    run: Callable[[_Run, str], int]
    source: str
    code: CodeType
    recount: Callable[[Grammar], Program] | None


def program_for(
    grammar: Grammar, *, memo: bool, build_ast: bool, counting: bool = False
) -> Program:
    """The grammar's program for this setting, compiled on first use.  The
    bare program counts nothing; the ``counting`` one counts production
    calls against the step limit, the farthest failure, backtracked bytes
    and the nodes its constructors build.

    The first compile of a grammar validates it and raises
    :class:`InvalidGrammarError` on errors; a grammar that already has a
    program has passed.  The emitter recurses per nesting level of an
    expression, as do erasing tree operators and hashing the productions
    (the analyses do not), so a grammar nested deeper than the caller's
    recursion limit lets them follow raises it too, and keeps nothing.
    Two threads racing here may both compile; either program is correct.
    """
    key = (memo, build_ast, counting)
    program = grammar._programs.get(key)
    if program is not None:
        return program
    try:
        if not grammar._programs:
            problems = [d for d in validate(grammar) if d.severity == "error"]
            if problems:
                raise InvalidGrammarError(problems)
        plan, source, code = _compiled(tuple(grammar.productions.items()), memo, build_ast, counting)
    except RecursionError:
        message = "grammar nests too deeply for the recursion limit"
        raise InvalidGrammarError([Diagnostic("error", "nesting-limit", message)]) from None
    namespace = dict(_GLOBALS)
    exec(code, namespace)
    functions = {name: namespace[_mangle(name)] for name in grammar.productions}
    lock = threading.Lock()

    def run(record: _Run, name: str) -> int:
        start = functions[name]
        state = namespace
        machine = Machine()
        lock.acquire()  # by hand: a ``with`` block costs 0.1 us more a parse
        try:
            state["data"] = data = record.data
            state["size"] = size = len(data)
            state["machine"] = record.machine = machine
            # Positions run from 0 to len(data): a wider ring would hold
            # rows no position reaches and expire nothing more.
            window = min(record.window, size + 1)
            state["table"] = record.table = (
                MemoTable(plan.count, window) if plan is not None else None
            )
            if counting:
                state["limit"] = _NO_STEP_LIMIT if record.limit is None else record.limit
                state["farthest"] = state["backtrack"] = 0
                state["calls"] = -1  # the start counts its own call as none
            end = (_on_fresh_stack if size >= _FRESH_STACK_INPUT else _call)(start, 0)
            if end >= 0:
                root = machine.left
                if root is None:  # a token over what the parse consumed
                    root = ("token", 0, end, data, ())
                    machine.created += 1
                elif type(root) is tuple and not machine.log:
                    machine.first = []  # as a whole-log commit would
                else:
                    root = machine.commit(TxMark(0, None), data)
                record.root = root
            return end
        finally:
            record.created = machine.created
            if counting:
                record.farthest = state["farthest"]
                record.backtrack = state["backtrack"]
                record.calls = state["calls"]
            # Drop the input and the trees: the program outlives this parse.
            state["data"] = state["machine"] = state["table"] = None
            lock.release()

    # The generated functions hold the namespace as their globals while it
    # holds them; emptied when ``run`` goes, it and they go by reference
    # counting, not left to a collection.
    weakref.finalize(run, namespace.clear).atexit = False
    # What finds the counting program when a parse of the bare one first
    # needs it.
    recount = None if counting else functools.partial(
        program_for, memo=memo, build_ast=build_ast, counting=True
    )
    program = grammar._programs[key] = Program(plan, run, source, code, recount)
    return program


def generate(grammar: Grammar, plan: MemoPlan | None, counting: bool = False) -> str:
    """The module of ``grammar``'s functions, with the memo points of ``plan``
    (None: no memoization), bare or ``counting``.  Expects a grammar that
    validates without errors; the source depends on nothing else."""
    eager = eager_constructors(grammar)
    facts = compiled_facts(grammar, eager, plan.link_points if plan is not None else ())
    return _Emitter(grammar, plan, eager, facts, counting).module()


@functools.lru_cache(maxsize=64)
def _planned(
    productions: tuple[tuple[str, Expression], ...], memo: bool, build_ast: bool
) -> tuple[Grammar, MemoPlan | None]:
    """The grammar that runs in one setting, and its memo plan."""
    # The analyses see what actually runs: with tree building off, links
    # are gone, every production is a plain-advance candidate memo point
    # and nothing needs a savepoint.
    bodies = dict(productions)
    if not build_ast:
        bodies = {name: erase_tree_operators(body) for name, body in bodies.items()}
    running = Grammar(bodies)
    return running, assign_memo_points(running) if memo else None


@functools.lru_cache(maxsize=64)
def _compiled(
    productions: tuple[tuple[str, Expression], ...], memo: bool, build_ast: bool, counting: bool
) -> tuple[MemoPlan | None, str, CodeType]:
    """The memo plan, module source and code for a grammar's productions in
    one setting.  Equal productions give equal source, so grammars read from
    the same text share them, analysed, written and compiled once; their
    sessions read one ``MemoPlan``, which nothing changes, and the bare and
    counting modules of a setting share it too."""
    running, plan = _planned(productions, memo, build_ast)
    source = generate(running, plan, counting)
    return plan, source, compile(source, "<pegfold grammar>", "exec")


# What the generated functions find besides each other: the run state that
# ``run`` binds per parse, and what they build and store.
_GLOBALS: dict[str, object] = {
    "data": None,
    "size": 0,
    "machine": None,
    "table": None,
    "limit": _NO_STEP_LIMIT,
    "farthest": 0,
    "backtrack": 0,
    "calls": 0,
    "TxMark": TxMark,
    "FAILED": FAILED,
    "StepLimitExceeded": StepLimitExceeded,
    "place_links": place_links,
    "_compile": re.compile,
}

_RESERVED = frozenset(dir(builtins)) | frozenset(keyword.kwlist) | frozenset(_GLOBALS)


def _mangle(name: str) -> str:
    """A production's function name: the name itself where it is a plain
    identifier, else ``_P_`` and its text with every other character than
    an ASCII letter or digit written ``_HEX_``.

    The name may clash with no keyword, builtin or engine global, start with
    no underscore (the engine's own names do), and look like no local
    (a lowercase letter and digits).
    """
    if (
        name.isidentifier()
        and name.isascii()
        and name[0] != "_"
        and name not in _RESERVED
        and not ("a" <= name[0] <= "z" and (len(name) == 1 or name[1:].isdigit()))
    ):
        return name
    return "_P_" + "".join(
        ch if ch.isascii() and ch.isalnum() else f"_{ord(ch):X}_" for ch in name
    )


def _call(function: Callable[[int], int], pos: int) -> int:
    return function(pos)


# CPython 3.11 keeps Python frames in chunks of 16 KB, maps a chunk when a
# call does not fit in the current one and unmaps it as soon as the call
# returns.  A recursion that goes back and forth across a chunk's end pays
# a map, an unmap and a page fault each time, and where that end lies
# depends on how deep the caller's stack is.  This function's frame reserves
# 25 KB it never touches, more than a chunk holds, so calling it maps a
# chunk of 64 KB of its own, where the parse then has 39 KB to itself.
#
# That costs 9-19 us a parse (2 vCPUs, CPython 3.11.7).  Averaged over 16
# caller stack depths 1 KB apart, parses of the math, depth-3 math,
# JSON-like and A5 grammars, with trees and without, started to win it
# back somewhere between 87 bytes and 1 KB of input: at 512 bytes A5's
# grammar and depth-3 math with trees still ran 2-4% slower on a fresh
# chunk, and from 1 KB on no case did.  Input length stands in for
# nesting, which a parse only learns as it goes.
_on_fresh_stack = FunctionType(_call.__code__.replace(co_stacksize=3200), globals())
_FRESH_STACK_INPUT = 1024


@functools.lru_cache(maxsize=1024)
def _ranges(mask: int) -> tuple[tuple[int, int], ...]:
    """The runs of set bits of ``mask``, as inclusive ``(lo, hi)`` pairs."""
    out = []
    while mask:
        lo = (mask & -mask).bit_length() - 1
        run = mask >> lo
        width = (~run & (run + 1)).bit_length() - 1  # trailing ones
        out.append((lo, lo + width - 1))
        mask ^= ((1 << width) - 1) << lo
    return tuple(out)


def _lines(*lines: str | None) -> str:
    """The given lines of code, one per line, leaving out empty ones: the
    counters a bare module omits."""
    return "\n".join(line for line in lines if line)


def _scan_stop(body: Expression) -> CharClass | Terminal | None:
    """``X`` where a loop body is ``!X .``, or a choice whose first
    alternative is, and ``X`` a class or a literal: the loop can skip a
    run of bytes where ``X`` fails in one C call (``_Emitter.scan``)."""
    if isinstance(body, Choice):
        body = body.alternatives[0]
    if isinstance(body, Sequence) and len(body.items) == 2:
        head, dot = body.items
        if isinstance(head, Not) and isinstance(dot, AnyChar):
            if isinstance(head.body, (CharClass, Terminal)):
                return head.body
    return None


# How deep a function's body may nest before an expression moves into a
# helper function of its own: CPython allows 100 levels of indentation and
# 20 nested loops per function.
_MAX_INDENT = 24 * 4  # in spaces
_MAX_LOOPS = 12
_STEP = "    "
_NESTING = (Sequence, Choice, Option, ZeroOrMore, OneOrMore, And, Not, New, LeftFold, Link)


class _Function:
    """A generated function: a production's, or a helper nested in one.
    ``lines`` holds its body as indented text, a line or a few each."""

    __slots__ = ("name", "indent", "lines", "globals", "nonlocals", "helpers", "loops")

    def __init__(self, name: str, indent: str) -> None:
        self.name = name
        self.indent = indent  # of its body
        self.lines: list[str] = []
        self.globals: set[str] = set()
        self.nonlocals: set[str] = set()
        self.helpers: list[_Function] = []
        self.loops = 0

    def render(self, out: list[str]) -> None:
        i = self.indent
        out.append(f"{i[4:]}def {self.name}(p):")
        if self.globals:
            out.append(f"{i}global {', '.join(sorted(self.globals))}")
        if self.nonlocals:
            out.append(f"{i}nonlocal {', '.join(sorted(self.nonlocals))}")
        for helper in self.helpers:
            helper.render(out)
        out.extend(self.lines)


class _Record:
    """The locals that hold an eager constructor's record: ``t`` its tag,
    ``l`` its links (each a child, or an ``[index, child]`` list).
    ``indexed`` is whether its level has an ``@[n]`` site."""

    __slots__ = ("owner", "tag", "links", "indexed", "used")

    def __init__(self, owner: _Function, n: int) -> None:
        self.owner = owner
        self.tag, self.links = f"t{n}", f"l{n}"
        self.indexed = False
        self.used: set[str] = set()

    def use(self, var: str, fn: _Function, assigns: bool = False) -> str:
        self.used.add(var)
        if assigns and fn is not self.owner:
            fn.nonlocals.add(var)
        return var


class _Emitter:
    """Writes a grammar's module: one function per production.

    ``emit(e, pv, i, fn, rec, known)`` appends to ``fn`` the statements
    that run ``e`` from the position in variable ``pv`` at indentation
    ``i``, inside the record ``rec`` of an eager constructor if any, and
    returns ``(rv, fails)``: the variable holding the result, and whether
    it can fail.  A result is a position, or the complement of the position
    where the attempt died; one that can fail is in ``r``.  An expression
    writes ``r`` and fresh names only, never ``pv`` or a variable its
    caller holds.  ``known``, where given, is what a guard before the
    expression established about the byte at ``pv`` (see ``guard``); a
    byte test it decides is left out.
    """

    def __init__(self, grammar: Grammar, plan, eager, facts, counting) -> None:
        self.bodies = grammar.productions
        self.link_points = plan.link_points if plan is not None else {}
        self.nonterminal_points = plan.nonterminal_points if plan is not None else {}
        self.eager = eager
        self.facts = facts  # ``analysis.compiled_facts``
        self.counting = counting
        self.names = {name: _mangle(name) for name in self.bodies}
        self.constants: dict[str, str] = {}
        self.count = 0
        self.kinds = {
            Sequence: self.sequence,
            Terminal: self.terminal,
            Nonterminal: self.call,
            Choice: self.choice,
            CharClass: self.char_class,
            ZeroOrMore: self.star,
            OneOrMore: self.plus,
            Option: self.option,
            Tag: self.tag,
            Link: self.link,
            New: self.constructor,
            LeftFold: self.constructor,
            Not: self.predicate,
            And: self.predicate,
            AnyChar: self.any_char,
            Empty: self.empty,
        }

    def module(self) -> str:
        out: list[str] = []
        for name, body in self.bodies.items():
            self.count = 0
            fn = _Function(self.names[name], _STEP)
            if self.counting:
                fn.globals.add("calls")
                fn.lines.append(
                    f"{_STEP}calls += 1\n{_STEP}if calls > limit:\n"
                    f'{_STEP}    raise StepLimitExceeded(f"more than {{limit}} production calls")'
                )
            point = self.nonterminal_points.get(name)
            if point is not None:  # builds nothing: a hit is a plain advance
                fn.lines.append(
                    f"{_STEP}e = table.lookup({point}, p)\n{_STEP}if e is not None:\n"
                    f"{_STEP}    return p + e[1] if e[0] else ~p"
                )
            rv, fails = self.emit(body, "p", _STEP, fn, None)
            if point is not None:
                entry = f"(True, {rv} - p, None)"
                if fails:
                    entry += f" if {rv} >= 0 else FAILED"
                fn.lines.append(f"{_STEP}table.memoize({point}, p, {entry})")
            fn.lines.append(f"{_STEP}return {rv}")
            fn.render(out)
        constants = [f"{var} = {value}" for value, var in self.constants.items()]
        return "\n".join(constants + out) + "\n"

    def constant(self, value: str, prefix: str) -> str:
        """A module global, named with ``prefix``, that holds the value of the
        expression ``value``; equal expressions share one."""
        return self.constants.setdefault(value, f"{prefix}{len(self.constants)}")

    def fresh(self, letter: str) -> str:
        self.count += 1
        return f"{letter}{self.count}"

    def emit(self, e: Expression, pv: str, i: str, fn: _Function, rec, known=None) -> tuple[str, bool]:
        if (len(i) - len(fn.indent) > _MAX_INDENT or fn.loops > _MAX_LOOPS) and isinstance(
            e, _NESTING
        ):
            return self.helper(e, pv, i, fn, rec)
        return self.kinds[type(e)](e, pv, i, fn, rec, known)

    def helper(self, e: Expression, pv: str, i: str, fn: _Function, rec) -> tuple[str, bool]:
        """``e`` in a function nested in ``fn``, which reaches a record of
        ``fn`` through its closure."""
        helper = _Function(self.fresh("h"), fn.indent + _STEP)
        rv, fails = self.kinds[type(e)](e, "p", helper.indent, helper, rec, None)
        helper.lines.append(f"{helper.indent}return {rv}")
        fn.helpers.append(helper)
        result = "r" if fails else self.fresh("s")
        fn.lines.append(f"{i}{result} = {helper.name}({pv})")
        return result, fails

    # -- shared pieces -----------------------------------------------------

    def stable(self, pv: str, i: str, fn: _Function) -> str:
        """A variable holding ``pv``'s position that the code to come keeps."""
        if pv != "r":
            return pv
        s = self.fresh("s")
        fn.lines.append(f"{i}{s} = r")
        return s

    def reach(self, pv: str, i: str, fn: _Function) -> str:
        """Text that moves the farthest failure to ``pv``; none in a bare
        module."""
        if not self.counting:
            return ""
        fn.globals.add("farthest")
        return f"{i}if {pv} > farthest:\n{i}    farthest = {pv}"

    def die(self, pv: str, i: str, fn: _Function) -> str:
        """Text for an attempt that fails where it starts."""
        return _lines(self.reach(pv, i, fn), f"{i}r = ~{pv}")

    def backtrack(self, distance: str, i: str, fn: _Function) -> str:
        """Text that counts ``distance`` re-readable bytes; none in a bare
        module."""
        if not self.counting:
            return ""
        fn.globals.add("backtrack")
        return f"{i}backtrack += {distance}"

    def test(self, mask: int, value: str, bind: bool = True) -> tuple[str, str]:
        """A condition that the byte ``value`` is in ``mask``, and, with
        ``bind``, a variable holding the byte once it holds.  ``value`` may
        be 256, the end of input, which no mask holds."""
        ranges = _ranges(mask)
        var = first = value
        if not value.isidentifier() and (bind or len(ranges) > 1):
            var = self.fresh("c")
            first = f"({var} := {value})"
        if len(ranges) > 3:
            table = bytearray(257)
            for lo, hi in ranges:
                table[lo : hi + 1] = b"\1" * (hi + 1 - lo)
            return f"{self.constant(repr(bytes(table)), '_t')}[{first}]", var
        tests = []
        for lo, hi in ranges:
            if lo == hi:
                tests.append(f"{first} == {lo}")
            elif lo == 0:
                tests.append(f"{first} <= {hi}")
            else:
                tests.append(f"{lo} <= {first} <= {hi}")
            first = var
        return (tests[0] if len(tests) == 1 else f"({' or '.join(tests)})"), var

    def guard(self, mask: int, s: str, known) -> tuple[str | None, tuple]:
        """The condition that the byte at ``s`` is in ``mask`` (None: it
        holds whatever the byte), and what the code under it knows of that
        byte: ``(var, bytes)``, a variable holding it and a mask of the
        values it can have.  ``known`` is the same for the byte at ``s``,
        or None.

        ``known`` reaches an attempt only where the attempt starts together
        with the one a guard before it tested, behind items that can succeed
        empty.  A lead mask joins the masks of a sequence's items up to the
        first that cannot (``analysis.compiled_facts``), so the attempt's,
        ``mask``, lies inside that one's, all of which ``known`` holds: for
        a validated grammar ``mask & can`` is never empty."""
        if known is None:
            cond, var = self.test(mask, f"data[{s}]")
            return f"{s} < size and {cond}", (var, mask)
        var, can = known
        mask &= can
        assert mask, "a guard that no byte passes"
        if mask == can:
            return None, (var, mask)
        return self.test(mask, var)[0], (var, mask)

    def save(self, e: Expression, i: str, fn: _Function, rec) -> str:
        """A savepoint for the attempt ``e``, and the text that rolls back to
        it, with ``{0}`` for its indentation.  It saves the machine, or its
        left register alone where ``e`` never logs, or at an eager
        constructor's level, where the machine does not change, the record."""
        if rec is not None:
            tag, count = self.fresh("m"), self.fresh("n")
            fn.lines.append(
                f"{i}{tag} = {rec.use(rec.tag, fn)}\n{i}{count} = len({rec.use(rec.links, fn)})"
            )
            return f"{{0}}{rec.use(rec.tag, fn, True)} = {tag}\n{{0}}del {rec.links}[{count}:]"
        if self.facts.quiet(e):
            prior = self.fresh("q")
            fn.lines.append(f"{i}{prior} = machine.left")
            return f"{{0}}machine.left = {prior}"
        mark = self.fresh("m")
        fn.lines.append(f"{i}{mark} = machine.save()")
        return f"{{0}}machine.abort({mark})"

    def attempt(self, e: Expression, s: str, i: str, fn: _Function, rec, known, save: bool, tail: str = ""):
        """``e`` from ``s`` as an attempt the code goes on from when it
        fails: a choice alternative but the last, an option body or a loop
        step.  It runs under a savepoint if ``save``.  Where it fails, an
        ``if r < 0:`` block counts the backtrack, rolls back and ends with
        the line ``tail``, written where it has any of them to do.  Returns
        ``emit``'s result and the text that rolls back (see ``save``), or
        None."""
        undo = self.save(e, i, fn, rec) if save else None
        rv, fails = self.emit(e, s, i, fn, rec, known)
        if fails and (undo or tail or self.counting):
            j = i + _STEP
            count = self.backtrack(f"~r - {s}", j, fn)
            fn.lines.append(_lines(f"{i}if r < 0:", count, undo and undo.format(j), tail and j + tail))
        return rv, fails, undo

    # -- recognition ---------------------------------------------------------

    def empty(self, e, pv, i, fn, rec, known):
        return pv, False

    def byte(self, mask: int, width: int, pv, i, fn, known, rest=None):
        """A test of the byte at ``pv`` against ``mask``, advancing ``width``
        on success; ``rest``, if given, tests what follows it."""
        if known is None:
            first = f"{pv} < size and {self.test(mask, f'data[{pv}]', False)[0]}"
        else:
            var, can = known
            first = None if can & ~mask == 0 else self.test(mask & can, var)[0]
        test = " and ".join(c for c in (first, rest) if c)
        if not test:
            fn.lines.append(f"{i}r = {pv} + {width}")
            return "r", False
        fn.lines.append(
            f"{i}if {test}:\n{i}    r = {pv} + {width}\n{i}else:\n{self.die(pv, i + _STEP, fn)}"
        )
        return "r", True

    def terminal(self, e: Terminal, pv, i, fn, rec, known):
        text = e.text
        if len(text) == 1:
            return self.byte(1 << text[0], 1, pv, i, fn, known)
        if known is not None:
            rest = f"data.startswith({text[1:]!r}, {pv} + 1)"
            return self.byte(1 << text[0], len(text), pv, i, fn, known, rest)
        fn.lines.append(
            f"{i}if data.startswith({text!r}, {pv}):\n{i}    r = {pv} + {len(text)}\n"
            f"{i}else:\n{self.die(pv, i + _STEP, fn)}"
        )
        return "r", True

    def char_class(self, e: CharClass, pv, i, fn, rec, known):
        return self.byte(self.facts.lead(e), 1, pv, i, fn, known)

    def any_char(self, e, pv, i, fn, rec, known):
        if known is not None:
            return self.byte(self.facts.lead(e), 1, pv, i, fn, known)
        fn.lines.append(f"{i}if {pv} < size:\n{i}    r = {pv} + 1\n{i}else:\n{self.die(pv, i + _STEP, fn)}")
        return "r", True

    def call(self, e: Nonterminal, pv, i, fn, rec=None, known=None):
        """A production call: the callee counts it, and at a memo point looks
        itself up."""
        fn.lines.append(f"{i}r = {self.names[e.name]}({pv})")
        return "r", True

    def sequence(self, e: Sequence, pv, i, fn, rec, known):
        return self.items(e.items, pv, i, fn, rec, known)

    def items(self, items, pv, i, fn, rec, known):
        """One after another.  Each item after one that can fail runs under
        ``if r >= 0``, so a sequence nests one level however long it is."""
        lines = fn.lines
        guard = f"{i}if r >= 0:"
        level = i
        fails = False
        for item in items:
            rv, item_fails = self.emit(item, pv, level, fn, rec, known)
            if rv != pv or pv == "r":
                known = None  # the next item starts elsewhere
            pv = rv
            if item_fails:
                fails = True
                if not lines or lines[-1] is not guard:
                    lines.append(guard)
                level = i + _STEP
        if fails and pv != "r":
            lines.append(f"{level}r = {pv}")
            pv = "r"
        if lines and lines[-1] is guard:  # nothing followed it
            lines.pop()
        return pv, fails

    def choice(self, e: Choice, pv, i, fn, rec, known):
        """Tries only the alternatives that can start at the next byte.  A
        skipped one would fail where it starts, moving ``farthest`` there:
        that needs doing only for a skipped first alternative, since one
        tried and failed has moved it as far.  Of the others, a dirty one
        runs under a savepoint; the last needs none, since a failure there
        is the choice's own.  When the last is skipped, the choice fails
        where it starts, as that one would have."""
        add = fn.lines.append
        alternatives = e.alternatives
        s = self.stable(pv, i, fn)
        masks = [self.facts.lead(a) for a in alternatives]
        if known is None:
            for mask in masks:
                if mask is not None:
                    byte = self.fresh("c")
                    add(f"{i}{byte} = data[{s}] if {s} < size else 256")
                    known = (byte, (1 << 257) - 1)  # any byte, or the end
                    break
        j = i + _STEP
        last = len(alternatives) - 1
        for k, alternative in enumerate(alternatives):
            inner = j
            test, fits = None, known
            if masks[k] is not None:
                test, fits = self.guard(masks[k], s, known)
            if k == 0:
                if test is None:
                    inner = i
                else:
                    add(f"{i}if {test}:")
            elif k < last:
                add(f"{i}if r < 0:" if test is None else f"{i}if r < 0 and {test}:")
            elif test is None:
                add(f"{i}if r < 0:")
            else:
                add(f"{i}if r < 0:\n{j}if {test}:")
                inner = j + _STEP
            if k < last:
                save = self.facts.dirty(alternative, rec is not None)
                rv, fails, _ = self.attempt(alternative, s, inner, fn, rec, fits, save)
            else:
                rv, fails = self.emit(alternative, s, inner, fn, rec, fits)
            if rv != "r":
                add(f"{inner}r = {rv}")
            if test is not None:
                if k == 0:
                    add(f"{i}else:\n{self.die(s, j, fn)}")
                elif k == last:
                    add(f"{j}else:\n{j}    r = ~{s}")
        return "r", True

    def option(self, e: Option, pv, i, fn, rec, known):
        add = fn.lines.append
        body = e.body
        s = self.stable(pv, i, fn)
        mask = self.facts.lead(body)
        test, fits = None, known
        if mask is not None:
            test, fits = self.guard(mask, s, known)
        inner = i
        if test is not None:
            add(f"{i}if {test}:")
            inner = i + _STEP
        save = self.facts.dirty(body, rec is not None)
        rv, fails, _ = self.attempt(body, s, inner, fn, rec, fits, save, f"r = {s}")
        if not fails and test is None:
            return rv, False
        if rv != "r":
            add(f"{inner}r = {rv}")
        if test is not None:
            # As the body would have failed here.
            add(_lines(f"{i}else:", self.reach(s, inner, fn), f"{inner}r = {s}"))
        return "r", False

    def star(self, e: ZeroOrMore, pv, i, fn, rec, known):
        add = fn.lines.append
        body = e.body
        s = self.fresh("s")
        j = i + _STEP
        # Byte loops: an iteration of these bodies tests one byte or one
        # literal, and the one that fails moves the farthest failure to
        # where the loop stops.
        if isinstance(body, CharClass) or isinstance(body, Terminal) and len(body.text) == 1:
            test = self.test(self.facts.lead(body), f"data[{s}]", False)[0]
            loop = f"{i}{s} = {pv}\n{i}while {s} < size and {test}:\n{j}{s} += 1"
            add(_lines(loop, self.reach(s, i, fn)))
            return s, False
        if isinstance(body, Terminal):
            loop = f"{i}{s} = {pv}\n{i}while data.startswith({body.text!r}, {s}):\n{j}{s} += {len(body.text)}"
            add(_lines(loop, self.reach(s, i, fn)))
            return s, False
        mask = self.facts.lead(body)
        test, fits = (None, None) if mask is None else self.guard(mask, s, None)
        add(f"{i}{s} = {pv}\n{i}while True:" if test is None else f"{i}{s} = {pv}\n{i}while {test}:")
        # A scan loop: its body starts with a predicate, so it has no lead
        # mask and no guard, and each iteration first skips the run of
        # ``!stop .`` iterations in one call.  The counters do not change.
        stop = _scan_stop(body)
        if stop is not None:
            self.scan(stop, s, j, fn)
        # A savepoint for a failed iteration, or for an empty one, whose
        # entries are dropped too.
        facts = self.facts
        save = facts.builds(body) and (facts.dirty(body, rec is not None) or facts.nullable(body))
        fn.loops += 1
        rv, fails, undo = self.attempt(body, s, j, fn, rec, fits, save, "break")
        fn.loops -= 1
        k = j + _STEP
        add(f"{j}if {rv} == {s}:")  # an empty iteration: drop its entries, stop
        if undo:
            add(undo.format(k))
        add(f"{k}break\n{j}{s} = {rv}")
        if test is not None and self.counting:
            add(f"{i}else:\n{self.reach(s, j, fn)}")  # as the body would have failed here
        return s, False

    def scan(self, stop: CharClass | Terminal, s: str, i: str, fn: _Function) -> None:
        """Moves ``s`` past the longest run of bytes where ``stop`` does not
        match, in one C call, to where the loop's next iteration finds
        ``stop`` or the end of input.  The iterations it skips count no
        backtrack, since ``stop`` fails where it starts, and each moves the
        farthest failure to its start; the next one moves it past them all,
        since ``!stop`` or ``.`` fails where that one starts."""
        mask = self.facts.lead(stop)
        if isinstance(stop, Terminal) or not mask & (mask - 1):  # a literal or one byte
            text = stop.text if isinstance(stop, Terminal) else bytes([mask.bit_length() - 1])
            fn.lines.append(f"{i}{s} = data.find({text!r}, {s})\n{i}if {s} < 0:\n{i}    {s} = size")
            return
        runs = (f"\\x{lo:02x}" if lo == hi else f"\\x{lo:02x}-\\x{hi:02x}" for lo, hi in _ranges(mask))
        pattern = ("[^" + "".join(runs) + "]*").encode()
        match = self.constant(f"_compile({pattern!r}).match", "_m")
        fn.lines.append(f"{i}{s} = {match}(data, {s}).end()")

    def plus(self, e: OneOrMore, pv, i, fn, rec, known):
        return self.items((e.body, ZeroOrMore(e.body)), pv, i, fn, rec, known)

    def predicate(self, e: Not | And, pv, i, fn, rec, known):
        """``!e`` or ``&e``, which differ only in the results they write when
        the body passes and when it fails.  A predicate discards what its
        body did, so it needs a savepoint only when the body can change the
        machine.  At an eager constructor's level no body can."""
        add = fn.lines.append
        s = self.stable(pv, i, fn)
        undo = self.save(e.body, i, fn, None) if self.facts.builds(e.body) else None
        rv, fails = self.emit(e.body, s, i, fn, rec, known)
        if undo:
            add(undo.format(i))
        negated = isinstance(e, Not)
        if not fails:
            text = _lines(self.backtrack(f"{rv} - {s}", i, fn), self.die(s, i, fn) if negated else None)
            if text:
                add(text)
            return ("r", True) if negated else (s, False)
        j = i + _STEP
        passed = self.die(s, j, fn) if negated else f"{j}r = {s}"
        failed = f"{j}r = {s}" if negated else f"{j}r = ~{s}"
        passed_count, failed_count = self.backtrack(f"r - {s}", j, fn), self.backtrack(f"~r - {s}", j, fn)
        add(_lines(f"{i}if r >= 0:", passed_count, passed, f"{i}else:", failed_count, failed))
        return "r", True

    # -- tree building -------------------------------------------------------

    def tag(self, e: Tag, pv, i, fn, rec, known):
        if rec is not None:
            fn.lines.append(f"{i}{rec.use(rec.tag, fn, True)} = {e.name!r}")
        else:
            fn.lines.append(f"{i}machine.emit_tag({e.name!r})")
        return pv, False

    def constructor(self, e: New | LeftFold, pv, i, fn, rec, known):
        if id(e) in self.eager:
            return self.eager_constructor(e, pv, i, fn, known)
        add = fn.lines.append
        opener = "emit_fold" if isinstance(e, LeftFold) else "emit_new"
        add(f"{i}machine.{opener}({pv})")
        rv, fails = self.emit(e.body, pv, i, fn, None, known)
        if fails:
            add(f"{i}if r >= 0:\n{i}    machine.emit_capture(r)")
        else:
            add(f"{i}machine.emit_capture({rv})")
        return rv, fails

    def eager_constructor(self, e: New | LeftFold, pv, i, fn, known):
        """Its level writes a record, or nothing if it is direct, and it
        builds its node from that as it closes.  A ``{@ }`` that finds a
        virtual id in the register logs the node instead."""
        add = fn.lines.append
        fold = isinstance(e, LeftFold)
        items, tag = untagged(e.body)  # the node takes a trailing ``#t`` as it is built
        body = sequence(items) if tag is not None else e.body
        s = self.stable(pv, i, fn)
        rec = None
        if any(self.facts.builds(item) for item in items):
            self.count += 1
            rec = _Record(fn, self.count)
            at = len(fn.lines)
        rv, fails = self.emit(body, s, i, fn, rec, known)
        given = repr(tag)  # the record's tag, which a trailing one beats
        links = None
        if rec is not None:  # its variables, as far as the body uses them
            used = rec.used
            init = []
            if rec.tag in used:
                init.append(f"{i}{rec.tag} = None")
                if tag is None:
                    given = rec.tag
            if rec.links in used:
                init.append(f"{i}{rec.links} = []")
                links = rec.links
            fn.lines[at:at] = init
        if fails:
            add(f"{i}if r >= 0:")
            i += _STEP
        if fold:
            add(
                f"{i}k = machine.left\n{i}if type(k) is int:\n"
                f"{i}    machine.emit_local_fold({s}, {rv}, {given}, {links or '()'})\n{i}else:"
            )
            i += _STEP
            if links is None:
                children = "(k,) if k is not None else ()"
            elif rec.indexed:
                children = f"place_links(k, {links})"
            else:
                children = f"(k, *{links}) if k is not None else (*{links},)"
        elif links is None:
            children = "()"
        elif rec.indexed:
            children = f"place_links(None, {links})"
        else:
            children = f"(*{links},)"
        default = "'token'" if children == "()" else "('tree' if k else 'token')"
        node_tag = default if given == "None" else f"{given} or {default}" if tag is None else given
        if tag is None and children != "()":  # the default tag reads the children
            add(f"{i}k = {children}")
            children = "k"
        # The node's record (``tree``): a tag that is not empty and a span
        # in the input, as ``Node`` checks.
        add(
            f"{i}machine.left = ({node_tag}, {s}, {rv}, data, {children})"
            + (f"\n{i}machine.created += 1" if self.counting else "")
        )
        return rv, fails

    def link(self, e: Link, pv, i, fn, rec, known):
        """A lazy link keeps its parent in a local and puts it back in the
        register as it closes; one at a memo point or at an eager
        constructor's level commits its child (``commit_link``)."""
        body = e.body
        if rec is not None or isinstance(body, Nonterminal) and body.name in self.link_points:
            return self.commit_link(body, e.index, pv, i, fn, rec)
        add = fn.lines.append
        parent = self.fresh("q")
        add(f"{i}{parent} = machine.left")
        rv, fails = self.emit(body, pv, i, fn, None, known)
        close = f"machine.emit_link({parent}, machine.left, {e.index})"
        add(f"{i}if r >= 0:\n{i}    {close}" if fails else f"{i}{close}")
        add(f"{i}machine.left = {parent}")
        return rv, fails

    def commit_link(self, call: Nonterminal, index, pv, i, fn, rec):
        """``@Name`` that commits its child: at a memo point, or at an eager
        constructor's level.  It restores the register, committing a lazily
        built child at once, and puts the child in the record ``rec``, or
        links it into the parent if there is none.  On failure it rolls
        back what the body logged itself.  At a memo point it stores the
        child, and replays it on later hits.  A call of a production that
        never logs leaves a node or nothing in the register and nothing to
        roll back but the register."""
        add = fn.lines.append
        point = self.link_points.get(call.name)
        quiet = self.facts.quiet(call)
        s = self.stable(pv, i, fn)
        if rec is None:  # into the parent, ``{0}``, which is back in the register
            put = f"machine.emit_link({{0}}, k, {index})"
        else:
            links = rec.use(rec.links, fn)
            if index is None:
                put = f"{links}.append(k)"
            else:
                put = f"{links}.append([{index}, k])"
                rec.indexed = True
        prior = self.fresh("q")
        base = None if quiet else self.fresh("b")
        d = i
        if point is not None:
            entry = self.fresh("e")
            add(f"{i}{entry} = table.lookup({point}, {s})\n{i}if {entry} is None:")
            d = i + _STEP
        e1, e2, e3 = d + _STEP, d + 2 * _STEP, d + 3 * _STEP
        add(f"{d}{prior} = machine.left")
        abort = commit = ""
        if base is not None:
            add(f"{d}{base} = len(machine.log)")
            mark = f"TxMark({base}, {prior})"
            abort = f"{e1}if len(machine.log) != {base}:\n{e2}machine.abort({mark})\n"
            commit = (
                f"{e2}if type(k) is not tuple or len(machine.log) != {base}:\n"
                f"{e3}k = machine.commit({mark}, data)\n"
            )
        self.call(call, s, d, fn)
        add(
            f"{d}if r < 0:\n"
            + (f"{e1}table.memoize({point}, {s}, FAILED)\n" if point is not None else "")
            + abort
            + f"{e1}machine.left = {prior}\n"
            f"{d}else:\n"
            f"{e1}k = machine.left\n"
            + (
                # The body built nothing and leaves the node it started
                # with alone, so it logged nothing.
                f"{e1}if k is {prior}:\n"
                f"{e2}table.memoize({point}, {s}, (True, r - {s}, None))\n"
                f"{e1}else:\n"
                if point is not None
                else f"{e1}if k is not {prior}:\n"
            )
            + commit
            + f"{e2}machine.left = {prior}\n"
            + (
                f"{e2}table.memoize({point}, {s}, (True, r - {s}, k))\n"
                if point is not None
                else ""
            )
            + f"{e2}{put.format(prior)}"
        )
        if point is not None:
            j = i + _STEP
            add(
                f"{i}elif {entry}[0]:\n"
                f"{j}r = {s} + {entry}[1]\n"
                f"{j}k = {entry}[2]\n"
                f"{j}if k is not None:\n"
                f"{j}    {put.format('machine.left')}\n"
                f"{i}else:\n"
                f"{j}r = ~{s}"
            )
        return "r", True
