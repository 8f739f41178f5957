"""Static analyses over grammars: validation, memo points, eager constructors,
and the facts the emitter reads (savepoints, logging, lead masks).

``validate`` reports:

* ``undefined-nonterminal`` (error) -- a name with no production;
* ``left-recursion`` (error) -- a production that can re-enter itself
  without consuming input (rejected rather than rewritten, since
  rewriting would not preserve left-associative folds);
* ``nullable-repetition`` (warning) -- a repetition whose body can
  succeed on nothing (the engine stops such loops after one empty
  iteration);
* ``tag-outside-constructor`` (warning) -- a ``#tag`` that can execute
  while no node is under construction (it is a no-op at runtime).

``assign_memo_points`` picks the memoization points used by the packrat
engine.  Two kinds exist:

* link points: ``@Name`` where no evaluation of ``Name`` mutates the left
  node it started with, so the finished node can be stored and reused
  verbatim;
* nonterminal points: productions that reach no tree operator at all,
  stored as plain position advances.

A syntactic scan also drops every point used in a sequence item that a
later ``#tag`` in the same sequence follows.  It is kept as a selectivity
rule, not as a proven safety rule: the left-register facts carry the
safety argument, and with the scan removed the memo-transparency and
oracle suites still pass.  It stays because the points it drops do not
pay: without it the JSON-like benchmark grammar, which tags at the end of
each constructor, plans four points (Member, String, Value, S) that take
32,904 lookups for 0 hits on the json-doc workload and cut its parse
throughput from 0.27 to 0.17 MB/s.

``eager_constructors`` marks the constructors whose node nothing can
change once they close and nothing but their own level changes before:
the engine keeps such a node's tag and children in a record of its own
and builds the node as it closes.

Every analysis reads one fact table.  It gives each expression of a
grammar a word of bits, and each production the word of its body, which
every call of it reads.  A rule per expression kind fills an expression's
word from its subexpressions' words and, for a call, the callee's; one
loop (``_settle``) runs a rule bottom-up over each production body, the
productions taken callees first, and again over the callers of each
production whose word changed, which only a cycle of calls can bring
round: one least fixpoint for every bit, as Ford's well-formedness
analysis of PEGs (POPL 2004) computes its outcome facts.  Two rules fill
the words, one per group of bits:

* ``_fill``, at ``validate``, once per grammar (``_facts``), needs no
  setting.  Can the expression succeed empty, fail, succeed, succeed
  keeping the outer node?  Does it reach a tree operator, build outside
  predicates, hold a ``#tag``?  Can it *touch* the node in the register,
  tagging it or linking a child into it outside any ``{ }``/``{@ }``?  Can
  it *mutate* the outer node, touching it or folding it away while that
  node is still in the register?  Does it hold a ``{@ }``?
* ``_fill_setting``, once per compile (``compiled_facts``), reads the
  grammar that runs in one setting, its eager constructors and its
  memoized links.  It adds the expression's lead mask, and whether it is
  dirty and whether it logs, each run outside an eager constructor's level
  and at one.

The emitter reads the compiled table, and only of expressions it holds.

An expression *builds* when it can leave the machine, or the record of the
eager constructor it runs in, changed: it reaches a tree operator outside
a predicate, which drops what its body did.  It is *dirty* when it can
fail after having changed them: a sequence is dirty when an item is, or
when an earlier item builds and a later one can fail; a choice when its
last alternative is (the others run under savepoints when dirty); a lazy
constructor when its body can fail after it opened the node; a link when
its body is, unless it is a memoized ``@Name``, which takes its own
savepoint, or runs at an eager constructor's level, where it restores the
machine itself.  Options, loops, predicates and eager constructors never
fail with work left behind.  So only the attempts a rollback can find work
after need a savepoint.

An expression *logs* when it can append a log entry: it reaches a lazy
tree operator, a ``#t`` or ``@e`` that runs outside an eager constructor's
level, or a call of a *loud* production.  A production is loud when its
body logs or can mutate the node it starts with, since an eager ``{@ }``
that finds a virtual id in the register logs its node; one that is not
*never logs*, and every fold in it finds a node that an eager constructor
built.  Run outside an eager constructor's level, an expression changes
nothing of the machine but its left register, and is *quiet*, when it
neither logs nor holds a ``{@ }`` of its own, which might find a node
still being logged.

The *lead mask* of an expression is an int with bit ``b`` set when its
first consumed byte can be ``b`` (a FIRST set, as in Redziejowski,
"Applying Classical Concepts to Parsing Expression Grammar", 2009), or
``None`` when it can succeed empty or a ``&``/``!`` can run before that
byte.  Where the next byte is not in the mask, or the input has ended, the
expression fails where it starts, backtracking nothing.  Tree operators
leave masks alone, so erasing them keeps a body's mask.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Collection, Iterable, Mapping
from dataclasses import dataclass
from typing import NamedTuple

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
    subexpressions,
)
from .grammar import Diagnostic, Grammar

__all__ = [
    "validate",
    "MemoPlan",
    "assign_memo_points",
    "eager_constructors",
    "untagged",
    "compiled_facts",
]


# ---------------------------------------------------------------------------
# Walks and call edges.


def _walk(e: Expression) -> list[Expression]:
    """``e`` and all its subexpressions in evaluation order, not entering calls."""
    out = []
    stack = [e]
    while stack:
        x = stack.pop()
        out.append(x)
        stack.extend(reversed(subexpressions(x)))
    return out


def _runs(grammar: Grammar, flags: dict[int, int], passes: int, live=False) -> dict[str, list]:
    """Per production, the subexpressions of its body that can run, not entering calls.

    A sequence item runs only if every earlier item has the flag ``passes``.
    With ``live``, constructor bodies are skipped as well: what is left runs
    while the outer node is in the register.
    """
    runs = {}
    for name, body in grammar.productions.items():
        out = []
        todo = [body]
        while todo:
            x = todo.pop()
            out.append(x)
            if isinstance(x, Sequence):
                for item in x.items:
                    todo.append(item)
                    if not flags[id(item)] & passes:
                        break
            elif not (live and isinstance(x, (New, LeftFold))):
                todo.extend(subexpressions(x))
        runs[name] = out
    return runs


def _call_edges(runs: dict[str, list[Expression]]) -> dict[str, set[str]]:
    """Per production, the productions it calls among its ``runs`` subexpressions."""
    return {
        name: {x.name for x in xs if isinstance(x, Nonterminal) and x.name in runs}
        for name, xs in runs.items()
    }


def _spread(seeds: set[str], edges: Mapping[str, set[str]]) -> set[str]:
    """``seeds`` and every name reached from them through one or more ``edges``."""
    seen = set(seeds)
    todo = list(seeds)
    while todo:
        for name in edges.get(todo.pop(), ()):
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


def _callees_first(calls: Mapping[str, set[str]]) -> list[str]:
    """The productions in an order where each comes after the ones it calls,
    but where a cycle of calls forces otherwise: a depth-first postorder."""
    order: list[str] = []
    seen: set[str] = set()
    todo = [(name, False) for name in reversed(calls)]  # each with: are its callees done?
    while todo:
        name, done = todo.pop()
        if done:
            order.append(name)
        elif name not in seen:
            seen.add(name)
            todo.append((name, True))
            todo += [(callee, False) for callee in calls[name] if callee not in seen]
    return order


# ---------------------------------------------------------------------------
# The fact table.
#
# Every expression of a grammar has one word of bits: what its evaluation
# can do, as far as the analyses ask.  A production's word is its body's,
# read by each call of it.  ``_fill`` and ``_fill_setting`` hold the rules,
# one per expression kind; they run at every validate and compile, so they
# use plain isinstance tests, not a match statement, whose class patterns
# cost set-up time there.

# The bits of ``_fill``, which need no setting.
_EMPTY = 1  # it can succeed consuming nothing
_FAILS = 2  # it can fail
_SUCCEEDS = 4  # it can succeed; constructors, links and predicates always count
_KEEPS = 8  # it can succeed leaving the outer node in the register
_REACHES = 16  # it is or holds a tree operator, or calls a production that reaches one
_BUILDS = 32  # the same outside ``&``/``!``, which drop what their bodies did
_TAGGED = 64  # it is or holds a ``#tag``, not entering calls
_TOUCHES = 128  # it can tag or link into the node in the register, outside ``{ }``/``{@ }``
_MUTATES = 256  # it can touch or fold away the outer node while that is in the register
_FOLDS = 512  # it is or holds a ``{@ }``, not entering calls

# The bits of ``_fill_setting``, for one compiled setting.
_DIRTY = 1024  # it can fail after changing the machine or its eager record
_DIRTY_LOCAL = 2048  # the same, run at an eager constructor's level
_LOGS_OUT = 4096  # it can append a log entry, run outside an eager constructor's level
_LOGS_IN = 8192  # the same, run at an eager constructor's level
_LEAD = 14  # the lead mask takes the bits from here: byte ``b`` at ``_LEAD + b``
_ANY_BYTE = ((1 << 256) - 1) << _LEAD
_BLIND = 1 << _LEAD + 256  # a predicate can run before the first byte
_FIRST = _ANY_BYTE | _BLIND  # the lead mask's bits

_PASSES = _EMPTY | _SUCCEEDS | _KEEPS  # an option's; a sequence's when every item's
_TREE = _REACHES | _BUILDS | _TAGGED | _TOUCHES | _MUTATES | _FOLDS  # an option's from its body
_OWN = _TAGGED | _FOLDS  # what a call does not take from its callee
_CONSUMES = _FAILS | _SUCCEEDS | _KEEPS  # a byte test's
_DIRTIES = _DIRTY | _DIRTY_LOCAL
_LOGS = _LOGS_OUT | _LOGS_IN


def _fill(xs: Iterable[Expression], flags: dict[int, int], words: Mapping[str, int]) -> None:
    """Enters in ``flags`` the bits of ``_fill`` of each of ``xs``, which
    come after their subexpressions, from the subexpressions' entries and,
    for a call, the callee's word in ``words`` (none: a name without a
    production)."""
    for x in xs:
        if isinstance(x, (Sequence, Choice)):
            # A sequence has the flags of ``_PASSES`` that every item has, a
            # choice ``_FAILS`` if every alternative has it; each has every
            # other flag that some item or alternative has, but a sequence
            # mutates the outer node only from items that start with it in
            # the register.
            items = isinstance(x, Sequence)
            joint = _PASSES if items else _FAILS
            every, some = joint, 0
            for c in subexpressions(x):
                f = flags[id(c)]
                if items and not every & _KEEPS:
                    f &= ~_MUTATES
                every &= f
                some |= f
            f = every | some & ~joint
        elif isinstance(x, (Terminal, CharClass, AnyChar)):
            f = _CONSUMES
        elif isinstance(x, Nonterminal):
            # It builds where the callee reaches a tree operator, even inside
            # a predicate, and holds none of the callee's tags and folds.
            f = words.get(x.name, 0) & ~_OWN
            if f & _REACHES:
                f |= _BUILDS
        elif isinstance(x, (Option, ZeroOrMore)):
            f = _PASSES | flags[id(x.body)] & _TREE
        elif isinstance(x, OneOrMore):
            f = flags[id(x.body)]
        elif isinstance(x, (New, LeftFold, Link)):
            # It succeeds whatever its body does; a constructor leaves a
            # fresh node in the register, a link the outer one, into which it
            # links what its body built.
            body = flags[id(x.body)]
            f = body & (_EMPTY | _FAILS | _OWN) | _SUCCEEDS | _REACHES | _BUILDS
            if isinstance(x, Link):
                f |= _KEEPS
                if body & _REACHES:
                    f |= _TOUCHES | _MUTATES
            elif isinstance(x, LeftFold):
                f |= _MUTATES | _FOLDS
        elif isinstance(x, Tag):
            f = _PASSES | _TREE & ~_FOLDS
        elif isinstance(x, (And, Not)):
            body = flags[id(x.body)]
            f = _PASSES | body & _TREE & ~_BUILDS
            f |= body & _FAILS if isinstance(x, And) else _FAILS  # ``!e`` may always fail
        elif isinstance(x, Empty):
            f = _PASSES
        else:
            raise TypeError(f"unknown expression {x!r}")
        flags[id(x)] = f


def _fill_setting(
    xs: Iterable[Expression],
    flags: dict[int, int],
    words: Mapping[str, int],
    base: Mapping[int, int],
    eager: frozenset[int],
    memo_links: Collection[str],
) -> None:
    """Enters in ``flags`` the word of each of ``xs``, which come after their
    subexpressions: its word in ``base``, a ``_fill`` table, with the bits
    of ``_fill_setting`` and the lead mask, from the subexpressions' entries
    and, for a call, the callee's word in ``words``.  ``eager`` and
    ``memo_links`` are as for ``compiled_facts``."""
    for x in xs:
        f = base[id(x)]
        if isinstance(x, Sequence):
            # Its first byte is that of the items up to the first that
            # cannot succeed empty.
            built = 0
            lead = True
            for item in x.items:
                c = flags[id(item)]
                f |= c & (_DIRTIES | _LOGS)
                if built and c & _FAILS:
                    f |= _DIRTIES
                built |= c & _BUILDS
                if lead:
                    f |= c & _FIRST
                    lead = c & _EMPTY
        elif isinstance(x, Choice):
            for a in x.alternatives:
                f |= flags[id(a)] & (_LOGS | _FIRST)
            f |= flags[id(x.alternatives[-1])] & _DIRTIES
        elif isinstance(x, Terminal):
            f |= 1 << _LEAD + x.text[0]
        elif isinstance(x, Nonterminal):
            callee = words.get(x.name, 0)
            f |= callee & _FIRST
            if callee & _DIRTY:
                f |= _DIRTIES
            if callee & (_LOGS_OUT | _MUTATES):  # a loud production
                f |= _LOGS
        elif isinstance(x, (Option, ZeroOrMore)):
            f |= flags[id(x.body)] & (_LOGS | _FIRST)
        elif isinstance(x, OneOrMore):
            f |= flags[id(x.body)] & (_DIRTIES | _LOGS | _FIRST)
        elif isinstance(x, (New, LeftFold)):
            body = flags[id(x.body)]
            f |= body & _FIRST
            if id(x) not in eager:
                f |= _LOGS
                if body & _FAILS:
                    f |= _DIRTIES
            elif body & _LOGS_IN:
                f |= _LOGS
        elif isinstance(x, Link):
            body = flags[id(x.body)]
            f |= body & _FIRST | _LOGS_OUT
            if body & _LOGS_OUT:
                f |= _LOGS_IN
            # At an eager constructor's level a link restores the machine
            # itself; a memoized one takes its own savepoint.
            memoized = isinstance(x.body, Nonterminal) and x.body.name in memo_links
            if body & _DIRTY and not memoized:
                f |= _DIRTY
        elif isinstance(x, CharClass):
            for lo, hi in x.ranges:
                f |= (1 << _LEAD + hi + 1) - (1 << _LEAD + lo)
        elif isinstance(x, Tag):
            f |= _LOGS_OUT
        elif isinstance(x, (And, Not)):
            f |= _BLIND
            if flags[id(x.body)] & _LOGS_OUT:
                f |= _LOGS
        elif isinstance(x, AnyChar):
            f |= _ANY_BYTE
        flags[id(x)] = f


class _Facts(NamedTuple):
    """A grammar's fact table.

    ``walks``: each production body's ``_walk``.  ``order`` and ``callers``:
    the productions callees first, and each one's callers.  ``flags``: the
    word of every expression in the walks, by ``id``.  ``words``: each
    production's word, its body's.  ``_facts`` fills the bits of ``_fill``;
    ``compiled_facts`` all of them, which ``dirty``, ``quiet`` and ``lead``
    read.
    """

    walks: dict[str, list[Expression]]
    order: list[str]
    callers: dict[str, list[str]]
    flags: dict[int, int]
    words: dict[str, int]

    def builds(self, e: Expression) -> bool:
        """Can ``e`` change the machine, or the record of the eager
        constructor it runs in?"""
        return bool(self.flags[id(e)] & _BUILDS)

    def nullable(self, e: Expression) -> bool:
        """Can ``e`` succeed consuming nothing?"""
        return bool(self.flags[id(e)] & _EMPTY)

    def dirty(self, e: Expression, local: bool = False) -> bool:
        """Can ``e`` fail after changing what ``builds`` says, run at an eager
        constructor's level if ``local``?"""
        return bool(self.flags[id(e)] & (_DIRTY_LOCAL if local else _DIRTY))

    def quiet(self, e: Expression) -> bool:
        """Run outside an eager constructor's level, does ``e`` change
        nothing of the machine but its left register?"""
        return not self.flags[id(e)] & (_LOGS_OUT | _FOLDS)

    def lead(self, e: Expression) -> int | None:
        """``e``'s lead mask."""
        f = self.flags[id(e)]
        return None if f & (_EMPTY | _BLIND) else f >> _LEAD


def _settle(
    walks: dict[str, list[Expression]],
    order: list[str],
    callers: dict[str, list[str]],
    fill: Callable[[Iterable[Expression], dict[int, int], dict[str, int]], None],
) -> tuple[dict[int, int], dict[str, int]]:
    """The flags and words that the rule ``fill`` gives, from one bottom-up
    pass over each body's reversed walk, the productions taken in ``order``.
    A production whose word changes puts its callers back in the pass, which
    only a cycle of calls can bring round again: one least fixpoint for
    every bit."""
    flags: dict[int, int] = {}
    words = dict.fromkeys(walks, 0)
    pending = set(order)
    while pending:
        for name in [name for name in order if name in pending]:
            pending.discard(name)
            walk = walks[name]
            fill(reversed(walk), flags, words)
            f = flags[id(walk[0])]
            if f != words[name]:
                words[name] = f
                pending.update(callers[name])
    return flags, words


def _facts(grammar: Grammar) -> _Facts:
    """The grammar's table of ``_fill`` bits, computed on first use and kept
    with it."""
    if grammar._facts is None:
        walks = {name: _walk(body) for name, body in grammar.productions.items()}
        calls = _call_edges(walks)
        callers: dict[str, list[str]] = {name: [] for name in walks}
        for name, callees in calls.items():
            for callee in callees:
                callers[callee].append(name)
        order = _callees_first(calls)
        grammar._facts = _Facts(walks, order, callers, *_settle(walks, order, callers, _fill))
    return grammar._facts


def compiled_facts(
    grammar: Grammar, eager: frozenset[int], memo_links: Collection[str]
) -> _Facts:
    """The fact table of ``grammar`` as compiled with ``eager`` constructors
    and the ``@Name`` links memoized for each name in ``memo_links``: every
    bit, and the lead masks (see the module docstring).

    Expects a grammar that validates without errors.
    """
    facts = _facts(grammar)
    fill = functools.partial(_fill_setting, base=facts.flags, eager=eager, memo_links=memo_links)
    flags, words = _settle(facts.walks, facts.order, facts.callers, fill)
    return facts._replace(flags=flags, words=words)


# ---------------------------------------------------------------------------
# validate


def validate(grammar: Grammar) -> list[Diagnostic]:
    """Checks a grammar and returns diagnostics; no errors means runnable."""
    diagnostics: list[Diagnostic] = []

    def report(severity: str, code: str, message: str, name: str) -> None:
        line, col = grammar.location(name)
        diagnostics.append(Diagnostic(severity, code, message, name, line, col))

    productions = grammar.productions
    facts = _facts(grammar)
    nodes, flags = facts.walks, facts.flags
    for name, xs in nodes.items():
        refs = {x.name for x in xs if isinstance(x, Nonterminal)}
        for ref in sorted(refs - set(productions)):
            message = f"reference to undefined production {ref!r}"
            report("error", "undefined-nonterminal", message, name)
        for x in xs:
            if isinstance(x, (ZeroOrMore, OneOrMore)) and flags[id(x.body)] & _EMPTY:
                report(
                    "warning",
                    "nullable-repetition",
                    "repetition body can succeed without consuming; "
                    "the loop stops after one empty iteration",
                    name,
                )

    left_calls = _call_edges(_runs(grammar, flags, _EMPTY))
    for name in productions:
        if name in _spread(left_calls[name], left_calls):
            report(
                "error",
                "left-recursion",
                f"production {name!r} can call itself without consuming input",
                name,
            )

    # Tags that may run with no node under construction: live tags, taken
    # from the start symbol.  A production that does not run from it, nor
    # from an earlier such root, is checked on its own as a root.  A live
    # tag mutates the outer node.
    warned: set[str] = set()
    live = {}
    if any(word & _MUTATES for word in facts.words.values()):
        live = _runs(grammar, flags, _KEEPS, live=True)
    tagging = {name for name, xs in live.items() if any(isinstance(x, Tag) for x in xs)}
    if tagging:  # only a live tag can run with no node under construction
        calls = _call_edges(_runs(grammar, flags, _SUCCEEDS))
        live_calls = _call_edges(live)
        reached: set[str] = set()
        for root in (grammar.start, *productions):
            if root in reached:
                continue
            reached |= _spread({root}, calls)
            warned |= tagging & _spread({root}, live_calls)
    for name in productions:
        if name in warned:
            report(
                "warning",
                "tag-outside-constructor",
                "a #tag here can execute while no node is under "
                "construction; it does nothing at runtime",
                name,
            )

    order = {name: i for i, name in enumerate(productions)}
    diagnostics.sort(key=lambda d: (order.get(d.production or "", -1), d.severity, d.code))
    return diagnostics


# ---------------------------------------------------------------------------
# Memo points


@dataclass(frozen=True)
class MemoPlan:
    """Memoization points for a grammar.

    ``link_points`` maps the body name of each memoizable ``@Name`` link
    to its point id (every ``@Name`` occurrence shares the id, since the
    stored result depends only on the name and position).
    ``nonterminal_points`` maps tree-operator-free productions to ids.
    Ids are dense in ``0..count-1`` and stable for equal grammar text.
    """

    link_points: dict[str, int]
    nonterminal_points: dict[str, int]
    count: int


def assign_memo_points(grammar: Grammar) -> MemoPlan:
    """Chooses memo points; expects a grammar that validates without errors."""
    facts = _facts(grammar)
    flags = facts.flags
    nodes = [x for xs in facts.walks.values() for x in xs]

    # Candidate link points: @Name occurrences, in grammar order.
    link_names = dict.fromkeys(
        x.body.name
        for x in nodes
        if isinstance(x, Link)
        and isinstance(x.body, Nonterminal)
        and x.body.name in grammar.productions
    )

    # Selectivity rule (see the module docstring): a later #tag in the same
    # sequence drops every point used in an earlier element.
    disabled_links: set[str] = set()
    disabled_nts: set[str] = set()
    for e in nodes:
        if not isinstance(e, Sequence):
            continue
        tagged = [k for k, item in enumerate(e.items) if flags[id(item)] & _TAGGED]
        for item in e.items[: tagged[-1]] if tagged else ():
            for x in _walk(item):
                if isinstance(x, Link) and isinstance(x.body, Nonterminal):
                    disabled_links.add(x.body.name)
                if isinstance(x, Nonterminal):
                    disabled_nts.add(x.name)

    link_points: dict[str, int] = {}
    next_id = 0
    for name in link_names:
        if name not in disabled_links and not facts.words[name] & _MUTATES:
            link_points[name] = next_id
            next_id += 1

    nonterminal_points: dict[str, int] = {}
    for name in grammar.productions:
        if not facts.words[name] & _REACHES and name not in disabled_nts:
            nonterminal_points[name] = next_id
            next_id += 1

    return MemoPlan(link_points, nonterminal_points, next_id)


# ---------------------------------------------------------------------------
# Eager constructors


def eager_constructors(grammar: Grammar) -> frozenset[int]:
    """The ``id`` of each ``{ }``/``{@ }`` built from a local record as it closes.

    Such a constructor is *final*: nothing can change its node once it
    closes.  Up to the nearest enclosing ``@``, which restores the parent,
    the closed node stays in the left register.  It is not final if on the
    way there is a later sequence item that can touch the node in the
    register (run a ``#tag`` or a node-building ``@e`` outside a constructor
    body), an enclosing ``{ }``/``{@ }`` (its capture would target the
    node), an enclosing ``&``/``!`` (its work is thrown away), or an
    enclosing ``*``/``+`` whose body touches or can succeed empty; past the
    production root, if some call site of the production is not final.

    It is also *local*: everything that can change its node happens at its
    own level.  Its body, not entering link bodies, holds no ``{ }`` or
    ``{@ }``, no call of a production that reaches a tree operator, no
    predicate whose body reaches one, and no ``@e`` but links of production
    calls that cannot mutate the node they start with.  So a ``#tag`` at
    its level targets the node, a link there receives a finished child,
    and nothing else touches it.

    One pass down each body and a closure over call edges: linear in the
    grammar's size.  An expression used in several places is eager only if
    every use is.
    """
    facts = _facts(grammar)
    flags, words = facts.flags, facts.words
    if not any(f & _REACHES for f in words.values()):
        return frozenset()  # no tree operator at all

    # One pass down each body.  ``below``: a reason not to be final met
    # below the production root; ``open_``: no enclosing link, so the
    # root's call sites matter; ``owner``: the constructor at whose level
    # the expression runs, if any.
    constructors: list[tuple[int, bool, bool, str]] = []
    sites: list[tuple[str, bool, bool, str]] = []
    not_local: set[int] = set()  # constructors whose node more than their level changes
    for name, body in grammar.productions.items():
        todo: list[tuple[Expression, bool, bool, int | None]] = [(body, False, True, None)]
        while todo:
            x, below, open_, owner = todo.pop()
            if isinstance(x, Sequence):
                later = below
                for item in reversed(x.items):
                    todo.append((item, later, open_, owner))
                    later = later or bool(flags[id(item)] & _TOUCHES)
            elif isinstance(x, (New, LeftFold)):
                if owner is not None:
                    not_local.add(owner)
                constructors.append((id(x), below, open_, name))
                todo.append((x.body, True, open_, id(x)))
            elif isinstance(x, Nonterminal):
                if owner is not None and words.get(x.name, 0) & _REACHES:
                    not_local.add(owner)
                sites.append((x.name, below, open_, name))
            elif isinstance(x, Link):
                callee = x.body.name if isinstance(x.body, Nonterminal) else None
                if owner is not None and words.get(callee, _MUTATES) & _MUTATES:
                    not_local.add(owner)
                todo.append((x.body, False, False, None))
            elif isinstance(x, (ZeroOrMore, OneOrMore)):
                again = below or bool(flags[id(x.body)] & (_TOUCHES | _EMPTY))
                todo.append((x.body, again, open_, owner))
            elif isinstance(x, (And, Not)):
                if owner is not None and flags[id(x.body)] & _REACHES:
                    not_local.add(owner)
                todo.append((x.body, True, open_, None))
            else:
                todo.extend((c, below, open_, owner) for c in subexpressions(x))

    # A production is dirty when a call site is, directly or because its
    # own production is dirty and nothing between them stops the walk.
    seeds = {callee for callee, below, _, _ in sites if below}
    inherits: dict[str, set[str]] = {}
    for callee, below, open_, name in sites:
        if open_ and not below:
            inherits.setdefault(name, set()).add(callee)
    dirty = _spread(seeds, inherits)

    lazy = not_local | {
        key for key, below, open_, name in constructors if below or open_ and name in dirty
    }
    return frozenset(key for key, _, _, _ in constructors if key not in lazy)


def untagged(body: Expression) -> tuple[tuple[Expression, ...], str | None]:
    """The items of an eager constructor's ``body`` but a trailing ``#t``,
    and ``t`` or None.

    The eager node takes that tag as it is built, so the body runs without it.
    """
    items = body.items if isinstance(body, Sequence) else (body,)
    if isinstance(items[-1], Tag):
        return items[:-1], items[-1].name
    return items, None
