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
table.  A failed choice alternative, option body or repetition step, and
every predicate body, adds its re-readable distance to the backtrack
counter and leaves the position where it started; predicates restore it
even on success.  Each function opens with a prologue that counts its call
against the step limit.

Only an attempt that can start at the next byte runs: a choice dispatches
on that byte to the alternatives its lead mask (``analysis.lead_masks``)
admits, and an option or loop tests it first.  A skipped attempt would
have failed where it starts, so skipping it only moves the farthest
failure there.  A byte test that such a guard has already decided is left
out of the code under it.

Tree operators never influence recognition, and build nodes on one of
two paths:

* An eager constructor (``analysis.eager_constructors``) is local: only
  its own level changes its node.  It keeps its record in locals of the
  function, a tag, a list of links and whether any link is indexed, and
  builds its node from them as it closes.  A ``#t`` at its level sets the
  record's tag, and a trailing one beats it; an ``@Name`` there calls the
  production, puts the child in the record and restores the left
  register, committing a lazily built child at once and rolling back what
  the body logged if it fails.  A production that never logs
  (``analysis.never_logs``) leaves a built node or nothing in the register
  and nothing in the log, so a link that calls one, here or at a memo
  point, reads no log length and neither commits nor rolls back.  A
  *direct* constructor has nothing at its level but a trailing tag, so no
  record either.  A ``{@ }`` that finds a
  virtual id in the register logs its node instead
  (``Machine.emit_local_fold``).
* Every other constructor is lazy: its operators append entries to the
  machine's log, and a commit builds its node.

Only an attempt a rollback can find work after gets a savepoint
(``analysis.transactions``): a choice alternative but the last, or an
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

A grammar is compiled once per ``(memo, build_ast)`` setting; the grammar
keeps that program for every session.  Grammars with equal productions
share one memo plan and compiled module (``_compiled``), analysed, written
and compiled once, and each program ``exec``s it into globals of its own,
which a parse binds on entry and clears on exit.
"""

from __future__ import annotations

import builtins
import functools
import keyword
import sys
import threading
from dataclasses import asdict, dataclass
from types import CodeType, FunctionType
from typing import Callable, NamedTuple

from .analysis import (
    MemoPlan,
    assign_memo_points,
    eager_constructors,
    lead_masks,
    never_logs,
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
from .machine import Machine, TxMark, place_links
from .memo import DEFAULT_WINDOW, FAILED, MemoEntry, MemoTable
from .tree import Node, _set_children, _set_end, _set_source, _set_start, _set_tag

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
# A TxMark or MemoEntry without the named tuple's Python-level constructor,
# and a Node the engine knows to be valid, to fill through the slot setters.
_new_tuple = tuple.__new__
_new_node = object.__new__


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
    guard (:class:`StepLimitExceeded`); the start counts as none, and a
    negative bound raises ``ValueError``.
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
        and :class:`NestingLimitExceeded` if the input nests deeper than
        the caller's recursion limit lets the parse follow (a frame per
        production call), which the parse leaves as it is.

        Consuming only a prefix still succeeds; ``result.consumed`` tells
        how far the parse got (command-line strictness is layered on top).
        """
        name = start if start is not None else self.grammar.start
        if name not in self.grammar.productions:
            raise KeyError(f"unknown start production {name!r}")

        # The forward pass and commit recurse per nesting level, as deep as
        # the caller's recursion limit lets them.  A RecursionError unwinds
        # through the program's ``finally``, which releases its lock and
        # clears its globals.
        try:
            end = self._program.run(self, name)
            if end < 0:
                raise ParseError(self.farthest)
            machine = self.machine
            root = machine.left
            if root is None:  # a token over what the parse consumed
                root = _new_node(Node)
                _set_tag(root, "token")
                _set_start(root, 0)
                _set_end(root, end)
                _set_source(root, self.data)
                _set_children(root, ())
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
    table and counters on the session.  ``source`` is the generated module
    and ``code`` its compiled form, shared by every program of a grammar
    with equal productions."""

    plan: MemoPlan | None
    run: Callable[[ParseSession, str], int]
    source: str
    code: CodeType


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

    plan, source, code = _compiled(tuple(grammar.productions.items()), memo, build_ast)
    namespace = dict(_GLOBALS)
    exec(code, namespace)
    functions = {name: namespace[_mangle(name)] for name in grammar.productions}
    lock = threading.Lock()

    def run(session: ParseSession, name: str) -> int:
        with lock:
            start = functions[name]
            state = namespace
            try:
                state["data"] = data = session.data
                state["size"] = len(data)
                state["machine"] = session.machine = Machine()
                state["table"] = table = session.table = (
                    MemoTable(plan.count, session.window) if plan is not None else None
                )
                state["limit"] = _NO_STEP_LIMIT if session.max_steps is None else session.max_steps
                state["farthest"] = state["backtrack"] = 0
                state["calls"] = -1  # the start counts its own call as none
                enter = _on_fresh_stack if len(data) >= _FRESH_STACK_INPUT else _call
                return enter(start, 0)
            finally:
                session.farthest = state["farthest"]
                session.backtrack = state["backtrack"]
                session.calls = state["calls"]
                # Drop the input and the trees: the program outlives this parse.
                state["data"] = state["machine"] = state["table"] = None

    program = grammar._programs[(memo, build_ast)] = Program(plan, run, source, code)
    return program


def generate(grammar: Grammar, plan: MemoPlan | None) -> str:
    """The module of ``grammar``'s functions, with the memo points of ``plan``
    (None: no memoization).  Expects a grammar that validates without
    errors; the source depends on nothing else."""
    eager = eager_constructors(grammar)
    rollback = transactions(grammar, eager, plan.link_points if plan is not None else ())
    quiet = never_logs(grammar, eager)
    return _Emitter(grammar, plan, eager, rollback, quiet, lead_masks(grammar)).module()


@functools.lru_cache(maxsize=64)
def _compiled(
    productions: tuple[tuple[str, Expression], ...], memo: bool, build_ast: bool
) -> tuple[MemoPlan | None, str, CodeType]:
    """The memo plan, module source and code for a grammar's productions in
    one setting.  Equal productions give equal source, so grammars read from
    the same text share them, analysed, written and compiled once; their
    sessions read one ``MemoPlan``, which nothing changes."""
    # The analyses see what actually runs: with tree building off, links
    # are gone, every production is a plain-advance candidate memo point
    # and nothing needs a savepoint.
    bodies = dict(productions)
    if not build_ast:
        bodies = {name: erase_tree_operators(body) for name, body in bodies.items()}
    running = Grammar(bodies)
    plan = assign_memo_points(running) if memo else None
    source = generate(running, plan)
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
    "Node": Node,
    "TxMark": TxMark,
    "MemoEntry": MemoEntry,
    "FAILED": FAILED,
    "StepLimitExceeded": StepLimitExceeded,
    "place_links": place_links,
    "_new": _new_node,
    "_set_tag": _set_tag,
    "_set_start": _set_start,
    "_set_end": _set_end,
    "_set_source": _set_source,
    "_set_children": _set_children,
    "_new_tuple": _new_tuple,
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
    ``l`` its links (each a child, or ``(index, child)``), ``x`` whether
    any link is indexed."""

    __slots__ = ("owner", "tag", "links", "indexed", "used")

    def __init__(self, owner: _Function, n: int) -> None:
        self.owner = owner
        self.tag, self.links, self.indexed = f"t{n}", f"l{n}", f"x{n}"
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

    def __init__(self, grammar: Grammar, plan, eager, rollback, quiet, lead) -> None:
        self.bodies = grammar.productions
        self.link_points = plan.link_points if plan is not None else {}
        self.nonterminal_points = plan.nonterminal_points if plan is not None else {}
        self.eager = eager
        self.builds, self.dirty, self.nullable = rollback
        self.quiet = quiet
        self.lead = lead
        self.names = {name: _mangle(name) for name in self.bodies}
        self.tables: dict[bytes, str] = {}
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
            Not: self.not_,
            And: self.and_,
            AnyChar: self.any_char,
            Empty: self.empty,
        }

    def module(self) -> str:
        out: list[str] = []
        for name, body in self.bodies.items():
            self.count = 0
            fn = _Function(self.names[name], _STEP)
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
                entry = f"_new_tuple(MemoEntry, (True, {rv} - p, None))"
                if fails:
                    entry += f" if {rv} >= 0 else FAILED"
                fn.lines.append(f"{_STEP}table.memoize({point}, p, {entry})")
            fn.lines.append(f"{_STEP}return {rv}")
            fn.render(out)
        tables = [f"{var} = {table!r}" for table, var in self.tables.items()]
        return "\n".join(tables + out) + "\n"

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
        """Text that moves the farthest failure to ``pv``."""
        fn.globals.add("farthest")
        return f"{i}if {pv} > farthest:\n{i}    farthest = {pv}"

    def die(self, pv: str, i: str, fn: _Function) -> str:
        """Text for an attempt that fails where it starts."""
        return f"{self.reach(pv, i, fn)}\n{i}r = ~{pv}"

    def backtrack(self, s: str, i: str, fn: _Function) -> str:
        """Text that counts the re-readable distance of an attempt at ``s``
        that failed as ``r``."""
        fn.globals.add("backtrack")
        return f"{i}backtrack += ~r - {s}"

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
            name = self.tables.setdefault(bytes(table), f"_t{len(self.tables)}")
            return f"{name}[{first}]", var
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
        or None.  A mask of 0 says the condition never holds."""
        if known is None:
            cond, var = self.test(mask, f"data[{s}]")
            return f"{s} < size and {cond}", (var, mask)
        var, can = known
        mask &= can
        if mask == can or not mask:
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
        if self.quiet(e):
            prior = self.fresh("q")
            fn.lines.append(f"{i}{prior} = machine.left")
            return f"{{0}}machine.left = {prior}"
        mark = self.fresh("m")
        fn.lines.append(f"{i}{mark} = machine.save()")
        return f"{{0}}machine.abort({mark})"

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
            if not can & mask:
                fn.lines.append(self.die(pv, i, fn))
                return "r", True
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
        return self.byte(self.lead(e), 1, pv, i, fn, known)

    def any_char(self, e, pv, i, fn, rec, known):
        if known is not None:
            return self.byte(self.lead(e), 1, pv, i, fn, known)
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
        masks = [self.lead(a) for a in alternatives]
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
                if not fits[1]:  # never fits: fails where it starts
                    if k == 0:
                        add(self.die(s, i, fn))
                    elif k == last:
                        add(f"{i}if r < 0:\n{j}r = ~{s}")
                    continue
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
            save = k < last and self.dirty(alternative, rec is not None)
            undo = self.save(alternative, inner, fn, rec) if save else None
            rv, fails = self.emit(alternative, s, inner, fn, rec, fits)
            if rv != "r":
                add(f"{inner}r = {rv}")
            if k < last and fails:
                add(f"{inner}if r < 0:\n{self.backtrack(s, inner + _STEP, fn)}")
                if undo:
                    add(undo.format(inner + _STEP))
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
        mask = self.lead(body)
        test, fits = None, known
        if mask is not None:
            test, fits = self.guard(mask, s, known)
            if not fits[1]:  # the body cannot start here
                add(self.reach(s, i, fn))
                return s, False
        inner = i
        if test is not None:
            add(f"{i}if {test}:")
            inner = i + _STEP
        undo = self.save(body, inner, fn, rec) if self.dirty(body, rec is not None) else None
        rv, fails = self.emit(body, s, inner, fn, rec, fits)
        if not fails and test is None:
            return rv, False
        if rv != "r":
            add(f"{inner}r = {rv}")
        if fails:
            add(f"{inner}if r < 0:\n{self.backtrack(s, inner + _STEP, fn)}")
            if undo:
                add(undo.format(inner + _STEP))
            add(f"{inner}    r = {s}")
        if test is not None:
            # As the body would have failed here.
            add(f"{i}else:\n{self.reach(s, inner, fn)}\n{inner}r = {s}")
        return "r", False

    def star(self, e: ZeroOrMore, pv, i, fn, rec, known):
        add = fn.lines.append
        body = e.body
        s = self.fresh("s")
        j = i + _STEP
        # Byte loops: an iteration of these bodies tests one byte or one
        # literal, and a failed one moves nothing.
        if isinstance(body, CharClass) or isinstance(body, Terminal) and len(body.text) == 1:
            test = self.test(self.lead(body), f"data[{s}]", False)[0]
            add(f"{i}{s} = {pv}\n{i}while {s} < size and {test}:\n{j}{s} += 1")
            return s, False
        if isinstance(body, Terminal):
            add(f"{i}{s} = {pv}\n{i}while data.startswith({body.text!r}, {s}):\n{j}{s} += {len(body.text)}")
            return s, False
        mask = self.lead(body)
        test, fits = (None, None) if mask is None else self.guard(mask, s, None)
        add(f"{i}{s} = {pv}\n{i}while True:" if test is None else f"{i}{s} = {pv}\n{i}while {test}:")
        # A savepoint for a failed iteration, or for an empty one, whose
        # entries are dropped too.
        local = rec is not None
        save = self.builds(body) and (self.dirty(body, local) or self.nullable(body))
        undo = self.save(body, j, fn, rec) if save else None
        fn.loops += 1
        rv, fails = self.emit(body, s, j, fn, rec, fits)
        fn.loops -= 1
        k = j + _STEP
        if fails:
            add(f"{j}if r < 0:\n{self.backtrack(s, k, fn)}")
            if undo:
                add(undo.format(k))
            add(f"{k}break")
        add(f"{j}if {rv} == {s}:")  # an empty iteration: drop its entries, stop
        if undo:
            add(undo.format(k))
        add(f"{k}break\n{j}{s} = {rv}")
        if test is not None:
            add(f"{i}else:\n{self.reach(s, j, fn)}")  # as the body would have failed here
        return s, False

    def plus(self, e: OneOrMore, pv, i, fn, rec, known):
        return self.items((e.body, ZeroOrMore(e.body)), pv, i, fn, rec, known)

    # A predicate discards what its body did, so it needs a savepoint only
    # when the body can change the machine.  At an eager constructor's
    # level no body can.

    def not_(self, e: Not, pv, i, fn, rec, known):
        add = fn.lines.append
        s = self.stable(pv, i, fn)
        undo = self.save(e.body, i, fn, None) if self.builds(e.body) else None
        rv, fails = self.emit(e.body, s, i, fn, rec, known)
        if undo:
            add(undo.format(i))
        fn.globals.add("backtrack")
        if not fails:
            add(f"{i}backtrack += {rv} - {s}\n{self.die(s, i, fn)}")
            return "r", True
        j = i + _STEP
        add(
            f"{i}if r >= 0:\n{j}backtrack += r - {s}\n{self.die(s, j, fn)}\n"
            f"{i}else:\n{j}backtrack += ~r - {s}\n{j}r = {s}"
        )
        return "r", True

    def and_(self, e: And, pv, i, fn, rec, known):
        add = fn.lines.append
        s = self.stable(pv, i, fn)
        undo = self.save(e.body, i, fn, None) if self.builds(e.body) else None
        rv, fails = self.emit(e.body, s, i, fn, rec, known)
        if undo:
            add(undo.format(i))
        fn.globals.add("backtrack")
        if not fails:
            add(f"{i}backtrack += {rv} - {s}")
            return s, False
        j = i + _STEP
        add(
            f"{i}if r >= 0:\n{j}backtrack += r - {s}\n{j}r = {s}\n"
            f"{i}else:\n{j}backtrack += ~r - {s}\n{j}r = ~{s}"
        )
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
        body, tag = untagged(e.body)  # the node takes a trailing ``#t`` as it is built
        s = self.stable(pv, i, fn)
        rec = None
        if self.builds(body):
            self.count += 1
            rec = _Record(fn, self.count)
            at = len(fn.lines)
        rv, fails = self.emit(body, s, i, fn, rec, known)
        given = repr(tag)  # the record's tag, which a trailing one beats
        links = indexed = None
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
            if rec.indexed in used:
                init.append(f"{i}{rec.indexed} = False")
                indexed = rec.indexed
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
            else:
                children = f"(k, *{links}) if k is not None else tuple({links})"
                if indexed:
                    children = f"place_links(k, {links}) if {indexed} else {children}"
        elif links is None:
            children = "()"
        else:
            children = f"tuple({links})"
            if indexed:
                children = f"place_links(None, {links}) if {indexed} else {children}"
        default = "'token'" if children == "()" else "('tree' if k else 'token')"
        node_tag = default if given == "None" else f"{given} or {default}" if tag is None else given
        # Built through the slot descriptors, skipping ``Node.__init__``:
        # the tag is not empty and the span lies in the input.
        add(
            f"{i}k = {children}\n"
            f"{i}n = _new(Node)\n"
            f"{i}_set_tag(n, {node_tag})\n"
            f"{i}_set_start(n, {s})\n"
            f"{i}_set_end(n, {rv})\n"
            f"{i}_set_source(n, data)\n"
            f"{i}_set_children(n, k)\n"
            f"{i}machine.left = n\n"
            f"{i}machine.created += 1"
        )
        return rv, fails

    def link(self, e: Link, pv, i, fn, rec, known):
        if rec is not None:
            return self.record_link(e.body.name, e.index, pv, i, fn, rec)
        body = e.body
        if isinstance(body, Nonterminal) and body.name in self.link_points:
            return self.memo_link(body.name, e.index, pv, i, fn)
        add = fn.lines.append
        add(f"{i}machine.push_left()")
        rv, fails = self.emit(body, pv, i, fn, None, known)
        if fails:
            add(f"{i}if r < 0:\n{i}    machine.pop_left()\n{i}else:\n{i}    machine.emit_link({e.index})")
        else:
            add(f"{i}machine.emit_link({e.index})")
        return rv, fails

    def memo_link(self, name: str, index, pv, i, fn):
        """``@Name`` at a memo point: commit-on-success, store, replay on hit.
        A call of a production that never logs needs no savepoint but the
        register, which the link restores itself, and no commit."""
        add = fn.lines.append
        point = self.link_points[name]
        quiet = self.quiet(Nonterminal(name))
        s = self.stable(pv, i, fn)
        entry, mark = self.fresh("e"), self.fresh("q" if quiet else "m")
        j = i + _STEP
        add(
            f"{i}machine.push_left()\n"
            f"{i}{entry} = table.lookup({point}, {s})\n"
            f"{i}if {entry} is None:\n"
            f"{j}{mark} = machine.{'left' if quiet else 'save()'}"
        )
        self.call(Nonterminal(name), s, j, fn)
        advance = f"table.memoize({point}, {s}, _new_tuple(MemoEntry, (True, r - {s}, None)))"
        if quiet:
            prior, abort, commit = mark, "", ""
            advance = f"{j}    {advance}\n"
        else:
            prior = f"{mark}[1]"
            abort = f"{j}    machine.abort({mark})\n"
            # When the body built nothing, the bare advance is memoized, but
            # only if it logged nothing a stored entry would lose.
            advance = f"{j}    if len(machine.log) == {mark}[0]:\n{j}        {advance}\n"
            commit = (
                f"{j}    if type(k) is not Node or len(machine.log) != {mark}[0]:\n"
                f"{j}        k = machine.commit({mark}, data)\n"
            )
        add(
            f"{j}if r < 0:\n"
            f"{j}    table.memoize({point}, {s}, FAILED)\n"
            + abort
            + f"{j}    machine.pop_left()\n"
            f"{j}elif machine.left == {prior}:\n"
            + advance
            + f"{j}    machine.pop_left()\n"
            f"{j}else:\n"
            f"{j}    k = machine.left\n"
            + commit
            + f"{j}    table.memoize({point}, {s}, _new_tuple(MemoEntry, (True, r - {s}, k)))\n"
            f"{j}    machine.emit_link_node(k, {index})\n"
            f"{i}elif {entry}[0]:\n"
            f"{j}if {entry}[2] is not None:\n"
            f"{j}    machine.emit_link_node({entry}[2], {index})\n"
            f"{j}else:\n"
            f"{j}    machine.pop_left()\n"
            f"{j}r = {s} + {entry}[1]\n"
            f"{i}else:\n"
            f"{j}machine.pop_left()\n"
            f"{j}r = ~{s}"
        )
        return "r", True

    def record_link(self, name: str, index, pv, i, fn, rec):
        """``@Name`` at an eager constructor's level: puts the child in the
        record and restores the register, committing a lazily built child
        at once.  On failure it rolls back what the body logged itself.  At
        a memo point it stores the child, and replays it on later hits.  A
        call of a production that never logs leaves a node or nothing in
        the register and nothing to roll back but the register."""
        add = fn.lines.append
        point = self.link_points.get(name)
        if point is None and name in self.nonterminal_points:
            return self.call(Nonterminal(name), pv, i, fn)  # builds nothing
        quiet = self.quiet(Nonterminal(name))
        s = self.stable(pv, i, fn)
        links = rec.use(rec.links, fn)
        put = f"{links}.append(k)"
        if index is not None:
            put = f"{links}.append(({index}, k))\n{{0}}{rec.use(rec.indexed, fn, True)} = True"
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
            mark = f"_new_tuple(TxMark, ({base}, {prior}, len(machine.stack)))"
            abort = f"{e1}if len(machine.log) != {base}:\n{e2}machine.abort({mark})\n"
            commit = (
                f"{e2}if type(k) is not Node or len(machine.log) != {base}:\n"
                f"{e3}k = machine.commit({mark}, data)\n"
            )
        self.call(Nonterminal(name), s, d, fn)
        add(
            f"{d}if r < 0:\n"
            + (f"{e1}table.memoize({point}, {s}, FAILED)\n" if point is not None else "")
            + abort
            + f"{e1}machine.left = {prior}\n"
            f"{d}else:\n"
            f"{e1}k = machine.left\n"
            + (
                # The body built nothing, so it logged nothing.
                f"{e1}if k == {prior}:\n"
                f"{e2}table.memoize({point}, {s}, _new_tuple(MemoEntry, (True, r - {s}, None)))\n"
                f"{e1}else:\n"
                if point is not None
                else f"{e1}if k != {prior}:\n"
            )
            + commit
            + f"{e2}machine.left = {prior}\n"
            + (
                f"{e2}table.memoize({point}, {s}, _new_tuple(MemoEntry, (True, r - {s}, k)))\n"
                if point is not None
                else ""
            )
            + f"{e2}{put.format(e2)}"
        )
        if point is not None:
            j = i + _STEP
            add(
                f"{i}elif {entry}[0]:\n"
                f"{j}r = {s} + {entry}[1]\n"
                f"{j}k = {entry}[2]\n"
                f"{j}if k is not None:\n"
                f"{j}    {put.format(j + _STEP)}\n"
                f"{i}else:\n"
                f"{j}r = ~{s}"
            )
        return "r", True
