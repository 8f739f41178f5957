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

Every analysis reads one fact table.  It numbers each place an expression
has in a grammar's bodies once, and gives each number a word of bits, in a
list, and each production the word of its body, which every call of it
reads.  Equal expressions at two places have two numbers, which
``eager_constructors`` tells apart.  A rule per expression kind, chosen by
the kind's code from a table, fills a number's word from its
subexpressions' words and, for a call, the callee's; one
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
  node is still in the register?  Does it hold a ``{@ }``, or a call?
* ``_fill_setting``, once per compile (``compiled_facts``), reads the
  grammar that runs in one setting, its eager constructors and its
  memoized links.  It adds the expression's lead mask, and whether it is
  dirty and whether it logs, each run outside an eager constructor's level
  and at one.

The emitter reads the compiled table, and only of expressions it holds,
which it finds by identity.

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

An expression is *lexical* when it holds no call and no tree operator: all
it does is move the position, which a regular expression can do for it
(see :mod:`pegfold.interp`).

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
from collections.abc import Callable, Collection, Mapping
from dataclasses import dataclass
from typing import NamedTuple

from .expr import (
    KINDS,
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
    _FIELDS,
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
    "shape",
]

# Kind codes (``expr.KINDS``): the leaves, then the kinds with one body, then
# ``Sequence`` and ``Choice``.
_CALL, _TAG, _TERMINAL, _CLASS = Nonterminal.kind, Tag.kind, Terminal.kind, CharClass.kind
_UNARY, _SEQUENCE, _CHOICE = Option.kind, Sequence.kind, Choice.kind
_NEW, _FOLD, _LINK, _AND, _NOT = New.kind, LeftFold.kind, Link.kind, And.kind, Not.kind
_LOOPS = (ZeroOrMore.kind, OneOrMore.kind)


def _by_kind(rules: Mapping[type, int]) -> tuple[int, ...]:
    """A table indexed by kind, from the entries of ``rules`` by class; 0
    for the others."""
    return tuple(rules.get(cls, 0) for cls in KINDS)


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
# Every place an expression has in a grammar has a number (``_Facts``) and
# one word of bits: what its evaluation can do, as far as the analyses ask.
# A production's word is its body's, read by each call of it.  ``_fill`` and
# ``_fill_setting`` hold the rules, one per kind; they run at every validate
# and compile, so they read each number's kind from a list and the rules of
# the regular kinds from tables indexed by kind, and test no classes.

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
_CALLS = 1024  # it is or holds a call

# The bits of ``_fill_setting``, for one compiled setting.
_DIRTY = 2048  # it can fail after changing the machine or its eager record
_DIRTY_LOCAL = 4096  # the same, run at an eager constructor's level
_LOGS_OUT = 8192  # it can append a log entry, run outside an eager constructor's level
_LOGS_IN = 16384  # the same, run at an eager constructor's level
_LEAD = 15  # the lead mask takes the bits from here: byte ``b`` at ``_LEAD + b``
_ANY_BYTE = ((1 << 256) - 1) << _LEAD
_BLIND = 1 << _LEAD + 256  # a predicate can run before the first byte
_FIRST = _ANY_BYTE | _BLIND  # the lead mask's bits

_PASSES = _EMPTY | _SUCCEEDS | _KEEPS  # an option's; a sequence's when every item's
_TREE = _REACHES | _BUILDS | _TAGGED | _TOUCHES | _MUTATES | _FOLDS  # an option's from its body
_OWN = _TAGGED | _FOLDS  # what a call does not take from its callee
_CONSUMES = _FAILS | _SUCCEEDS | _KEEPS  # a byte test's
_DIRTIES = _DIRTY | _DIRTY_LOCAL
_LOGS = _LOGS_OUT | _LOGS_IN

# The rules of ``_fill`` for the leaves but calls, and for the kinds with one
# body: the bits an expression has, and those it takes from its body.  A
# constructor or link succeeds whatever its body does; a constructor leaves
# a fresh node in the register, a link the outer one, into which it links
# what its body built (and touches it, where the body reaches a tree
# operator).  A predicate drops what its body built, and ``!e`` may always
# fail.
_BUILT = _SUCCEEDS | _REACHES | _BUILDS
_ADDS = _by_kind({
    Empty: _PASSES, Terminal: _CONSUMES, CharClass: _CONSUMES, AnyChar: _CONSUMES,
    Tag: _PASSES | _TREE & ~_FOLDS,
    Option: _PASSES, ZeroOrMore: _PASSES, And: _PASSES, Not: _PASSES | _FAILS,
    New: _BUILT, LeftFold: _BUILT | _MUTATES | _FOLDS, Link: _BUILT | _KEEPS,
})  # fmt: skip
_TAKES = _by_kind({
    Option: _TREE | _CALLS, ZeroOrMore: _TREE | _CALLS, OneOrMore: -1,
    And: _TREE & ~_BUILDS | _FAILS | _CALLS, Not: _TREE & ~_BUILDS | _CALLS,
    New: _EMPTY | _FAILS | _OWN | _CALLS, LeftFold: _EMPTY | _FAILS | _OWN | _CALLS,
    Link: _EMPTY | _FAILS | _OWN | _CALLS,
})  # fmt: skip

# The same for ``_fill_setting``, whose other rules read more than the body.
_SETTING_ADDS = _by_kind(
    {AnyChar: _ANY_BYTE, Tag: _LOGS_OUT, And: _BLIND, Not: _BLIND, Link: _LOGS_OUT}
)
_SETTING_TAKES = _by_kind({
    Option: _LOGS | _FIRST, ZeroOrMore: _LOGS | _FIRST, OneOrMore: _DIRTIES | _LOGS | _FIRST,
    New: _FIRST, LeftFold: _FIRST, Link: _FIRST,
})  # fmt: skip


class _Facts(NamedTuple):
    """A grammar's fact table.

    ``exprs``: every place an expression has in a production body, by
    number.  Each body is numbered in turn, and the places in it in a
    breadth-first walk: the body first, then each one's subexpressions
    together, after those of the places numbered before it.  So a
    subexpression's number is greater than its parent's.  ``kinds``: each
    number's kind.  ``own``: each number's fields but its subexpressions
    (``expr._FIELDS``), which ``==`` compares too.  ``parts``: where each
    number's subexpressions start; a sequence's or a choice's end where
    those of the next number start.
    ``spans``: each production's numbers, ``(first, end)``, its body's
    first.  ``calls``: each production's calls, by number, and ``inner`` the
    numbers with subexpressions, in order.  ``order`` and
    ``callers``: the productions callees first, and each one's callers.
    ``flags``: every number's word.  ``words``: each production's word, its
    body's.  ``_facts`` fills the bits of ``_fill``; ``compiled_facts`` all
    of them, which ``dirty``, ``quiet``, ``lexical`` and ``lead`` read.

    The methods take an expression, as the emitter holds them, and find its
    number in ``number``, by identity, filled on first use.  An expression
    object at several places has one number there; its words are equal at
    all of them, since ``eager_constructors`` makes it eager only if every
    place is.
    """

    exprs: list[Expression]
    kinds: list[int]
    own: list
    parts: list[int]
    spans: dict[str, tuple[int, int]]
    calls: dict[str, list[int]]
    inner: dict[str, list[int]]
    order: list[str]
    callers: dict[str, list[str]]
    flags: list[int]
    words: dict[str, int]
    number: dict[int, int]

    def word(self, e: Expression) -> int:
        """``e``'s word."""
        number = self.number
        if not number:  # one update from a whole dict, as threads compiling at once may
            number.update({id(x): n for n, x in enumerate(self.exprs)})
        return self.flags[number[id(e)]]

    def builds(self, e: Expression) -> bool:
        """Can ``e`` change the machine, or the record of the eager
        constructor it runs in?"""
        return bool(self.word(e) & _BUILDS)

    def nullable(self, e: Expression) -> bool:
        """Can ``e`` succeed consuming nothing?"""
        return bool(self.word(e) & _EMPTY)

    def dirty(self, e: Expression, local: bool = False) -> bool:
        """Can ``e`` fail after changing what ``builds`` says, run at an eager
        constructor's level if ``local``?"""
        return bool(self.word(e) & (_DIRTY_LOCAL if local else _DIRTY))

    def quiet(self, e: Expression) -> bool:
        """Run outside an eager constructor's level, does ``e`` change
        nothing of the machine but its left register?"""
        return not self.word(e) & (_LOGS_OUT | _FOLDS)

    def fails(self, e: Expression) -> bool:
        """Can ``e`` fail?"""
        return bool(self.word(e) & _FAILS)

    def lexical(self, e: Expression) -> bool:
        """Does ``e`` hold no call and no tree operator?"""
        return not self.word(e) & (_CALLS | _REACHES)

    def lead(self, e: Expression) -> int | None:
        """``e``'s lead mask."""
        f = self.word(e)
        return None if f & (_EMPTY | _BLIND) else f >> _LEAD


def _fill(facts: _Facts, name: str, flags: list[int], words: Mapping[str, int]) -> None:
    """Enters in ``flags`` the bits of ``_fill`` of production ``name``'s
    calls, from the callee's word in ``words`` (none: a name without a
    production), then of its numbers with subexpressions, bottom-up, from
    the subexpressions' entries.  The other leaves' bits are constant, and
    ``_facts`` enters them first."""
    kinds, parts, exprs = facts.kinds, facts.parts, facts.exprs
    for n in facts.calls[name]:
        # It builds where the callee reaches a tree operator, even inside a
        # predicate, and holds none of the callee's tags and folds.
        f = words.get(exprs[n].name, 0) & ~_OWN | _CALLS
        if f & _REACHES:
            f |= _BUILDS
        flags[n] = f
    for n in reversed(facts.inner[name]):
        k = kinds[n]
        if k >= _SEQUENCE:
            # A sequence has the flags of ``_PASSES`` that every item has, a
            # choice ``_FAILS`` if every alternative has it; each has every
            # other flag that some item or alternative has, but a sequence
            # mutates the outer node only from items that start with it in
            # the register.
            items = k == _SEQUENCE
            joint = _PASSES if items else _FAILS
            every, some = joint, 0
            for f in flags[parts[n] : parts[n + 1]]:
                if items and not every & _KEEPS:
                    f &= ~_MUTATES
                every &= f
                some |= f
            f = every | some & ~joint
        else:
            body = flags[parts[n]]
            f = body & _TAKES[k] | _ADDS[k]
            if k == _LINK and body & _REACHES:
                f |= _TOUCHES | _MUTATES
        flags[n] = f


def _fill_setting(
    facts: _Facts,
    name: str,
    flags: list[int],
    words: Mapping[str, int],
    base: list[int],
    eager: frozenset[int],
    memo_links: Collection[str],
) -> None:
    """Enters in ``flags`` the word of each number of production ``name``,
    bottom-up: its word in ``base``, a ``_fill`` table, with the bits of
    ``_fill_setting`` and the lead mask, from the subexpressions' entries
    and, for a call, the callee's word in ``words``.  ``eager`` and
    ``memo_links`` are as for ``compiled_facts``."""
    kinds, parts, exprs = facts.kinds, facts.parts, facts.exprs
    first, end = facts.spans[name]
    for n in range(end - 1, first - 1, -1):
        k = kinds[n]
        f = base[n] | _SETTING_ADDS[k]
        if k == _SEQUENCE:
            # Its first byte is that of the items up to the first that
            # cannot succeed empty.
            built = 0
            lead = True
            for c in flags[parts[n] : parts[n + 1]]:
                f |= c & (_DIRTIES | _LOGS)
                if built and c & _FAILS:
                    f |= _DIRTIES
                built |= c & _BUILDS
                if lead:
                    f |= c & _FIRST
                    lead = c & _EMPTY
        elif k == _CHOICE:
            alternatives = flags[parts[n] : parts[n + 1]]
            for c in alternatives:
                f |= c & (_LOGS | _FIRST)
            f |= alternatives[-1] & _DIRTIES
        elif k >= _UNARY:
            body = flags[parts[n]]
            f |= body & _SETTING_TAKES[k]
            if k == _NEW or k == _FOLD:
                if id(exprs[n]) not in eager:
                    f |= _LOGS
                    if body & _FAILS:
                        f |= _DIRTIES
                elif body & _LOGS_IN:
                    f |= _LOGS
            elif k == _LINK:
                if body & _LOGS_OUT:
                    f |= _LOGS_IN
                # At an eager constructor's level a link restores the machine
                # itself; a memoized one takes its own savepoint.
                p = parts[n]
                memoized = kinds[p] == _CALL and exprs[p].name in memo_links
                if body & _DIRTY and not memoized:
                    f |= _DIRTY
            elif (k == _AND or k == _NOT) and body & _LOGS_OUT:
                f |= _LOGS
        elif k == _CALL:
            callee = words.get(exprs[n].name, 0)
            f |= callee & _FIRST
            if callee & _DIRTY:
                f |= _DIRTIES
            if callee & (_LOGS_OUT | _MUTATES):  # a loud production
                f |= _LOGS
        elif k == _TERMINAL:
            f |= 1 << _LEAD + exprs[n].text[0]
        elif k == _CLASS:
            for lo, hi in exprs[n].ranges:
                f |= (1 << _LEAD + hi + 1) - (1 << _LEAD + lo)
        flags[n] = f


def _settle(
    facts: _Facts, fill: Callable[[_Facts, str, list[int], dict[str, int]], None], flags: list[int]
) -> _Facts:
    """``facts`` with the flags and words that the rule ``fill`` gives,
    starting from ``flags``, from one bottom-up pass over each body's
    numbers, the productions taken in ``order``.  A production whose word
    changes puts its callers back in the pass, which only a cycle of calls
    can bring round again: one least fixpoint for every bit."""
    words = dict.fromkeys(facts.spans, 0)
    order, spans, callers = facts.order, facts.spans, facts.callers
    pending = set(order)
    while pending:
        for name in [name for name in order if name in pending]:
            pending.discard(name)
            fill(facts, name, flags, words)
            f = flags[spans[name][0]]
            if f != words[name]:
                words[name] = f
                pending.update(callers[name])
    return _Facts(*facts[:-3], flags, words, facts.number)


def _facts(grammar: Grammar) -> _Facts:
    """The grammar's table of ``_fill`` bits, computed on first use and kept
    with it."""
    if grammar._facts is None:
        productions = grammar.productions
        exprs: list[Expression] = []
        kinds: list[int] = []
        own: list = []
        parts: list[int] = []
        spans: dict[str, tuple[int, int]] = {}
        calls: dict[str, list[int]] = {}
        inner: dict[str, list[int]] = {}
        for name, body in productions.items():
            first = len(exprs)
            block = [body]
            sites, nodes = calls[name], inner[name] = [], []
            for n, x in enumerate(block, first):  # the block grows as it goes
                k = x.kind
                kinds.append(k)
                parts.append(first + len(block))
                own.append(_FIELDS[k](x))
                if k >= _SEQUENCE:
                    block += x.items if k == _SEQUENCE else x.alternatives
                    nodes.append(n)
                elif k >= _UNARY:
                    block.append(x.body)
                    nodes.append(n)
                elif k == _CALL:
                    sites.append(n)
            exprs += block
            spans[name] = (first, len(exprs))
        edges = {name: {exprs[n].name for n in ns} & productions.keys() for name, ns in calls.items()}
        callers: dict[str, list[str]] = {name: [] for name in spans}
        for name, callees in edges.items():
            for callee in callees:
                callers[callee].append(name)
        order = _callees_first(edges)
        facts = _Facts(exprs, kinds, own, parts, spans, calls, inner, order, callers, [], {}, {})
        grammar._facts = _settle(facts, _fill, [_ADDS[k] for k in kinds])
    return grammar._facts


def shape(grammar: Grammar) -> tuple:
    """The productions of ``grammar`` in a flat form, equal exactly where
    they are: their names and numbers, and each number's kind and own
    fields (``_Facts``).  It hashes and compares with no walk of the trees."""
    facts = _facts(grammar)
    return tuple(facts.spans.items()), tuple(facts.kinds), tuple(facts.own)


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
    return _settle(facts, fill, [0] * len(facts.exprs))


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
    exprs, kinds, parts, flags = facts.exprs, facts.kinds, facts.parts, facts.flags

    if any(exprs[n].name not in productions for ns in facts.calls.values() for n in ns):
        for name, ns in facts.calls.items():
            for ref in sorted({exprs[n].name for n in ns} - productions.keys()):
                message = f"reference to undefined production {ref!r}"
                report("error", "undefined-nonterminal", message, name)

    # Where each number can run, not entering calls, as three cuts, each a
    # bit of ``reach``: from the start of its production's body, past every
    # earlier item of an enclosing sequence that can succeed empty
    # (``_EMPTY``), that can succeed (``_SUCCEEDS``), or that can succeed
    # with the outer node in the register, outside constructor bodies
    # (``_KEEPS``: it runs while the node it started with is in the
    # register; a tag that does is *live*).  One walk down each body's
    # numbers with subexpressions.  A live tag mutates the node it finds, so
    # where no production can mutate its outer node, the empty-pass cut
    # alone is needed.
    cuts = _PASSES if any(word & _MUTATES for word in facts.words.values()) else _EMPTY
    reach = [0] * len(exprs)
    for name, (first, end) in facts.spans.items():
        reach[first] = cuts
        for n in facts.inner[name]:
            k = kinds[n]
            p = parts[n]
            if k in _LOOPS and flags[p] & _EMPTY:
                report(
                    "warning",
                    "nullable-repetition",
                    "repetition body can succeed without consuming; "
                    "the loop stops after one empty iteration",
                    name,
                )
            r = reach[n]
            if not r:
                continue
            if k == _SEQUENCE:
                for c in range(p, parts[n + 1]):
                    reach[c] = r
                    r &= flags[c]
            elif k == _CHOICE:
                reach[p : parts[n + 1]] = [r] * (parts[n + 1] - p)
            else:
                reach[p] = r & ~_KEEPS if k == _NEW or k == _FOLD else r

    def calls(cut: int) -> dict[str, set[str]]:
        """Per production, the productions it calls where ``reach`` has ``cut``."""
        return {
            name: {exprs[n].name for n in ns if reach[n] & cut and exprs[n].name in productions}
            for name, ns in facts.calls.items()
        }

    left_calls = calls(_EMPTY)
    for name in productions:
        if left_calls[name] and name in _spread(left_calls[name], left_calls):
            report(
                "error",
                "left-recursion",
                f"production {name!r} can call itself without consuming input",
                name,
            )

    tagging = {  # the productions with a live tag
        name
        for name, (first, end) in facts.spans.items()
        if cuts & _KEEPS and any(kinds[n] == _TAG and reach[n] & _KEEPS for n in range(first, end))
    }

    # Tags that may run with no node under construction: live tags, taken
    # from the start symbol.  A production that does not run from it, nor
    # from an earlier such root, is checked on its own as a root.  A live
    # tag mutates the outer node.
    warned: set[str] = set()
    if tagging:  # only a live tag can run with no node under construction
        runs, live_calls = calls(_SUCCEEDS), calls(_KEEPS)
        reached: set[str] = set()
        for root in (grammar.start, *productions):
            if root in reached:
                continue
            reached |= _spread({root}, runs)
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
    exprs, kinds, parts, flags = facts.exprs, facts.kinds, facts.parts, facts.flags
    productions = grammar.productions

    # Candidate link points: @Name occurrences, in grammar order.
    link_names = dict.fromkeys(
        x.body.name
        for body in productions.values()
        for x in _walk(body)
        if x.kind == _LINK and x.body.kind == _CALL and x.body.name in productions
    )

    # Selectivity rule (see the module docstring): a later #tag in the same
    # sequence drops every point used in an earlier element.
    disabled_links: set[str] = set()
    disabled_nts: set[str] = set()
    for n, k in enumerate(kinds):
        if k != _SEQUENCE:
            continue
        tagged = [c for c in range(parts[n], parts[n + 1]) if flags[c] & _TAGGED]
        for c in range(parts[n], tagged[-1]) if tagged else ():
            for x in _walk(exprs[c]):
                if x.kind == _LINK and x.body.kind == _CALL:
                    disabled_links.add(x.body.name)
                if x.kind == _CALL:
                    disabled_nts.add(x.name)

    link_points: dict[str, int] = {}
    next_id = 0
    for name in link_names:
        if name not in disabled_links and not facts.words[name] & _MUTATES:
            link_points[name] = next_id
            next_id += 1

    nonterminal_points: dict[str, int] = {}
    for name in productions:
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
    grammar's size.  An expression object used in several places is eager
    only if every use is.
    """
    facts = _facts(grammar)
    exprs, kinds, parts, flags, words = facts.exprs, facts.kinds, facts.parts, facts.flags, facts.words
    if not any(f & _REACHES for f in words.values()):
        return frozenset()  # no tree operator at all

    # One pass down each body, each number's state set by its parent's:
    # ``below``, a reason not to be final met below the production root;
    # ``open_``, no enclosing link, so the root's call sites matter;
    # ``owner``, the constructor at whose level it runs, if any (-1: none).
    constructors: list[tuple[int, bool, bool, str]] = []
    sites: list[tuple[str, bool, bool, str]] = []
    not_local: set[int] = set()  # constructors whose node more than their level changes
    state: list[tuple[bool, bool, int]] = [(False, True, -1)] * len(exprs)
    for name, (first, end) in facts.spans.items():
        for n in range(first, end):
            below, open_, owner = state[n]
            k = kinds[n]
            p = parts[n]
            if k == _SEQUENCE:
                later = below
                for c in range(parts[n + 1] - 1, p - 1, -1):
                    state[c] = (later, open_, owner)
                    later = later or bool(flags[c] & _TOUCHES)
            elif k == _NEW or k == _FOLD:
                if owner >= 0:
                    not_local.add(owner)
                constructors.append((n, below, open_, name))
                state[p] = (True, open_, n)
            elif k == _CALL:
                callee = exprs[n].name
                if owner >= 0 and words.get(callee, 0) & _REACHES:
                    not_local.add(owner)
                sites.append((callee, below, open_, name))
            elif k == _LINK:
                callee = exprs[p].name if kinds[p] == _CALL else None
                if owner >= 0 and words.get(callee, _MUTATES) & _MUTATES:
                    not_local.add(owner)
                state[p] = (False, False, -1)
            elif k in _LOOPS:
                again = below or bool(flags[p] & (_TOUCHES | _EMPTY))
                state[p] = (again, open_, owner)
            elif k == _AND or k == _NOT:
                if owner >= 0 and flags[p] & _REACHES:
                    not_local.add(owner)
                state[p] = (True, open_, -1)
            elif k == _CHOICE:
                state[p : parts[n + 1]] = [state[n]] * (parts[n + 1] - p)
            elif k >= _UNARY:
                state[p] = state[n]

    # A production is dirty when a call site is, directly or because its
    # own production is dirty and nothing between them stops the walk.
    seeds = {callee for callee, below, _, _ in sites if below}
    inherits: dict[str, set[str]] = {}
    for callee, below, open_, name in sites:
        if open_ and not below:
            inherits.setdefault(name, set()).add(callee)
    dirty = _spread(seeds, inherits)

    lazy = not_local | {
        n for n, below, open_, name in constructors if below or open_ and name in dirty
    }
    return frozenset(id(exprs[n]) for n, _, _, _ in constructors) - {id(exprs[n]) for n in lazy}


def untagged(body: Expression) -> tuple[tuple[Expression, ...], str | None]:
    """The items of an eager constructor's ``body`` but a trailing ``#t``,
    and ``t`` or None.

    The eager node takes that tag as it is built, so the body runs without it.
    """
    items = body.items if isinstance(body, Sequence) else (body,)
    if isinstance(items[-1], Tag):
        return items[:-1], items[-1].name
    return items, None
