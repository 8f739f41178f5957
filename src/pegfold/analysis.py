"""Static analyses over grammars: validation, memo points, eager constructors,
transactions, lead masks.

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

``never_logs`` says which expressions, run outside an eager constructor's
level, can change nothing of the machine but its left register: they
append no log entry.

``transactions`` says which attempts a rollback can find work after, so
the engine opens a savepoint only around those.  An expression *builds*
when it can leave the machine, or the record of the eager constructor it
runs in, changed: it reaches a tree operator outside a predicate, which
drops what its body did.  It is *dirty* when it can fail after having
changed them, a per-production least fixpoint: a sequence is dirty when
an item is, or when an earlier item builds and a later one can fail; a
choice when its last alternative is (the others run under savepoints when
dirty); a lazy constructor when its body can fail after it opened the
node; a link when its body is, unless it is a memoized ``@Name``, which
takes its own savepoint, or runs at an eager constructor's level, where
it restores the machine itself.  Options, loops, predicates and eager
constructors never fail with work left behind.

``lead_masks`` gives each expression a *lead mask*, an int with bit ``b``
set when its first consumed byte can be ``b`` (a FIRST set, as in
Redziejowski, "Applying Classical Concepts to Parsing Expression Grammar",
2009), or ``None`` when it can succeed empty or a ``&``/``!`` can run
before that byte.  Where the next byte is not in the mask, or the input
has ended, the expression fails where it starts, backtracking nothing.
Tree operators leave masks alone, so erasing them keeps a body's mask.

Every analysis reads one fact table, computed once per grammar and kept
with it (``_facts``).  It gives each expression a word of flags: can it
succeed empty, fail, succeed, succeed keeping the outer node, reach a tree
operator, build outside predicates, hold a ``#tag``.  One rule per
expression kind (``_fill``) fills it in one bottom-up pass over each
production body, the productions taken callees first; the pass repeats
for the productions whose callees' words changed, to one least fixpoint
for every flag, as Ford's well-formedness analysis of PEGs (POPL 2004)
computes its outcome facts.  The facts that depend on the eager
constructors or the memoized links are least fixpoints of their own
(``_least_fixpoint``) or closures over call edges (``_spread``).
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable, Mapping
from dataclasses import dataclass
from typing import NamedTuple, TypeVar

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
    sequence,
    subexpressions,
)
from .grammar import Diagnostic, Grammar

__all__ = [
    "validate",
    "MemoPlan",
    "assign_memo_points",
    "eager_constructors",
    "untagged",
    "never_logs",
    "Transactions",
    "transactions",
    "lead_masks",
]

_T = TypeVar("_T")


# ---------------------------------------------------------------------------
# Walks and the fixpoints they feed.


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

    A sequence item runs only if every earlier item has the flag ``passes``
    (with ``passes`` 0, every item runs).  With ``live``, constructor bodies
    are skipped as well (see ``_facts``).
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
                    if passes and not flags[id(item)] & passes:
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


def _least_fixpoint(
    per_production: Mapping[str, _T], holds: Callable[[_T, dict[str, bool]], bool]
) -> dict[str, bool]:
    """Least fixpoint of ``holds(per_production[name], facts)`` per production.

    ``holds`` must be monotone in ``facts`` and read a name without a
    production as false.
    """
    facts = {name: False for name in per_production}
    changed = True
    while changed:
        changed = False
        for name, value in per_production.items():
            if not facts[name] and holds(value, facts):
                facts[name] = True
                changed = True
    return facts


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
# Every expression of a grammar has one flag word: what its evaluation can
# do, as far as the analyses ask.  A production's word is its body's, read
# by each call of it.  ``_fill`` holds the one rule per expression kind; the
# analyses run at every compile, so it uses plain isinstance tests, not a
# match statement, whose class patterns cost set-up time there.

_EMPTY = 1  # it can succeed consuming nothing
_FAILS = 2  # it can fail
_SUCCEEDS = 4  # it can succeed; constructors, links and predicates always count
_KEEPS = 8  # it can succeed leaving the outer node in the register
_REACHES = 16  # it is or holds a tree operator, or calls a production that reaches one
_BUILDS = 32  # the same outside ``&``/``!``, which drop what their bodies did
_TAGGED = 64  # it is or holds a ``#tag``, not entering calls

_PASSES = _EMPTY | _SUCCEEDS | _KEEPS  # an option's; a sequence's when every item's
_TREE = _REACHES | _BUILDS | _TAGGED
_CONSUMES = _FAILS | _SUCCEEDS | _KEEPS  # a byte test's


def _fill(xs: Iterable[Expression], flags: dict[int, int], words: Mapping[str, int]) -> None:
    """Enters in ``flags`` the flags of each of ``xs``, which come after their
    subexpressions, from the subexpressions' entries and, for a call, the
    callee's word in ``words`` (none: a name without a production)."""
    for x in xs:
        if isinstance(x, (Sequence, Choice)):
            # A sequence has the flags of ``_PASSES`` that every item has, a
            # choice ``_FAILS`` if every alternative has it; each has every
            # other flag that some item or alternative has.
            joint = _PASSES if isinstance(x, Sequence) else _FAILS
            every, some = joint, 0
            for c in subexpressions(x):
                f = flags[id(c)]
                every &= f
                some |= f
            f = every | some & ~joint
        elif isinstance(x, (Terminal, CharClass, AnyChar)):
            f = _CONSUMES
        elif isinstance(x, Nonterminal):
            # It builds where the callee reaches a tree operator, even inside
            # a predicate, and holds none of the callee's tags.
            f = words.get(x.name, 0) & ~_TAGGED
            if f & _REACHES:
                f |= _BUILDS
        elif isinstance(x, (Option, ZeroOrMore)):
            f = _PASSES | flags[id(x.body)] & _TREE
        elif isinstance(x, OneOrMore):
            f = flags[id(x.body)]
        elif isinstance(x, (New, LeftFold, Link)):
            # It succeeds whatever its body does; a constructor leaves a
            # fresh node in the register, a link the outer one.
            f = flags[id(x.body)] & (_EMPTY | _FAILS | _TAGGED) | _SUCCEEDS | _REACHES | _BUILDS
            if isinstance(x, Link):
                f |= _KEEPS
        elif isinstance(x, Tag):
            f = _PASSES | _TREE
        elif isinstance(x, (And, Not)):
            body = flags[id(x.body)]
            f = _PASSES | body & (_REACHES | _TAGGED)
            f |= body & _FAILS if isinstance(x, And) else _FAILS  # ``!e`` may always fail
        elif isinstance(x, Empty):
            f = _PASSES
        else:
            raise TypeError(f"unknown expression {x!r}")
        flags[id(x)] = f


class _Facts(NamedTuple):
    """What the analyses share, computed once per grammar (``_facts``).

    ``walks``: each production body's ``_walk``.  ``flags``: the flag word
    of every expression in them, by ``id``.  ``words``: each production's
    word, its body's.  ``live``: per production, the subexpressions that
    run while the outer node is in the register.  ``mutates``: can the
    production mutate the outer node?
    """

    walks: dict[str, list[Expression]]
    flags: dict[int, int]
    words: dict[str, int]
    live: dict[str, list[Expression]]
    mutates: dict[str, bool]

    def of(self, e: Expression) -> int:
        """``e``'s flags: its entry, or, for an expression not in the table
        (one made after the analysis, whose ``id`` a later one may reuse),
        the rule over its subexpressions' entries, kept nowhere."""
        f = self.flags.get(id(e))
        if f is None:
            own = {id(x): self.flags[id(x)] for x in subexpressions(e)}
            _fill((e,), own, self.words)
            f = own[id(e)]
        return f


# ---------------------------------------------------------------------------
# Left-register facts.
#
# The outer node is whatever node (or no node) is in the left register when
# an expression starts.  A production is memo-safe when no evaluation can
# mutate it: tagging it, folding it away, or linking a child into it.  Any
# of those would smuggle a context dependency into a stored result (and,
# transactionally, a reference that cannot be replayed inside the stored
# region).  ``{ }`` and ``{@ }`` leave a fresh node in the register, so only
# the live subexpressions -- those that run while the outer node is still
# there -- can mutate it.


def _mutates_outer(x: Expression, mutates: dict[str, bool], flags: dict[int, int]) -> bool:
    """Does the live subexpression ``x`` tag, fold away or link into the outer node?"""
    if isinstance(x, Nonterminal):
        return mutates.get(x.name, False)
    if isinstance(x, Link):
        return bool(flags[id(x.body)] & _REACHES)
    return isinstance(x, (Tag, LeftFold))


def _facts(grammar: Grammar) -> _Facts:
    """The grammar's ``_Facts``, computed on first use and kept with it.

    The flags come from one bottom-up pass over each body's reversed
    ``_walk``, the productions taken callees first.  A production whose
    word changes puts its callers back in the pass, which only a cycle of
    calls can bring round again: one least fixpoint for every flag.
    """
    if grammar._facts is None:
        productions = grammar.productions
        walks = {name: _walk(body) for name, body in productions.items()}
        calls = _call_edges(walks)
        callers: dict[str, list[str]] = {name: [] for name in productions}
        for name, callees in calls.items():
            for callee in callees:
                callers[callee].append(name)
        order = _callees_first(calls)
        flags: dict[int, int] = {}
        words = dict.fromkeys(productions, 0)
        pending = set(order)
        while pending:
            for name in [name for name in order if name in pending]:
                pending.discard(name)
                _fill(reversed(walks[name]), flags, words)
                f = flags[id(productions[name])]
                if f != words[name]:
                    words[name] = f
                    pending.update(callers[name])
        live = _runs(grammar, flags, _KEEPS, live=True)
        mutates = _least_fixpoint(
            live, lambda xs, known: any(_mutates_outer(x, known, flags) for x in xs)
        )
        grammar._facts = _Facts(walks, flags, words, live, mutates)
    return grammar._facts


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
    nodes, flags, live = facts.walks, facts.flags, facts.live
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
    # from an earlier such root, is checked on its own as a root.
    warned: set[str] = set()
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
        if name not in disabled_links and not facts.mutates[name]:
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
    way there is a later sequence item that can run a ``#tag`` or a
    node-building ``@e`` outside a constructor body (``touches``), an
    enclosing ``{ }``/``{@ }`` (its capture would target the node), an
    enclosing ``&``/``!`` (its work is thrown away), or an enclosing
    ``*``/``+`` whose body touches or can succeed empty; past the
    production root, if some call site of the production is not final.

    It is also *local*: everything that can change its node happens at its
    own level.  Its body, not entering link bodies, holds no ``{ }`` or
    ``{@ }``, no call of a production that reaches a tree operator, no
    predicate whose body reaches one, and no ``@e`` but links of production
    calls that cannot mutate the node they start with.  So a ``#tag`` at
    its level targets the node, a link there receives a finished child,
    and nothing else touches it.

    One pass down each body and two closures over call edges: linear in
    the grammar's size.  An expression used in several places is eager
    only if every use is.
    """
    facts = _facts(grammar)
    flags, words, mutates = facts.flags, facts.words, facts.mutates
    if not any(f & _REACHES for f in words.values()):
        return frozenset()  # no tree operator at all

    # Productions that touch the node in the register: the reverse closure,
    # over calls made outside constructor bodies, of those that tag or link
    # there themselves.  A link whose body builds nothing touches nothing.
    direct: set[str] = set()
    callers: dict[str, set[str]] = {}
    for name, xs in _runs(grammar, flags, 0, live=True).items():
        for x in xs:
            if isinstance(x, Tag) or isinstance(x, Link) and flags[id(x.body)] & _REACHES:
                direct.add(name)
            elif isinstance(x, Nonterminal):
                callers.setdefault(x.name, set()).add(name)
    touching = _spread(direct, callers)

    touched: dict[int, bool] = {}

    def touches(x: Expression) -> bool:
        key = id(x)
        known = touched.get(key)
        if known is None:
            if isinstance(x, Tag):
                known = True
            elif isinstance(x, Link):
                known = bool(flags[id(x.body)] & _REACHES)
            elif isinstance(x, Nonterminal):
                known = x.name in touching
            elif isinstance(x, (New, LeftFold)):
                known = False
            else:
                known = any(touches(c) for c in subexpressions(x))
            touched[key] = known
        return known

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
                    later = later or touches(item)
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
                if owner is not None and not (
                    isinstance(x.body, Nonterminal) and not mutates.get(x.body.name, True)
                ):
                    not_local.add(owner)
                todo.append((x.body, False, False, None))
            elif isinstance(x, (ZeroOrMore, OneOrMore)):
                again = below or touches(x.body) or bool(flags[id(x.body)] & _EMPTY)
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


def untagged(body: Expression) -> tuple[Expression, str | None]:
    """An eager constructor's ``body`` without a trailing ``#t``, and ``t`` or None.

    The eager node takes that tag as it is built, so the body runs without it.
    """
    items = body.items if isinstance(body, Sequence) else (body,)
    if isinstance(items[-1], Tag):
        return sequence(items[:-1]), items[-1].name
    return body, None


def never_logs(grammar: Grammar, eager: frozenset[int]) -> Callable[[Expression], bool]:
    """Whether an expression, run outside an eager constructor's level, never
    logs (see the module docstring), with ``eager`` constructors.

    Such an expression reaches no lazy tree operator: every ``{ }`` and
    ``{@ }`` it runs is eager, every ``#t`` and ``@e`` runs at an eager
    constructor's level, and every production it calls never logs.  An
    eager ``{@ }`` that finds a virtual id in the register logs its node,
    so a production must also leave the node it starts with alone: a fold
    in it then finds a node that an eager constructor built.  An expression
    must hold no ``{@ }`` of its own.

    Expects a grammar that validates without errors.
    """
    mutates = _facts(grammar).mutates

    def logs_itself(e: Expression, folds: bool) -> tuple[bool, set[str]]:
        """Does ``e`` log at its own levels (an eager ``{@ }`` only if not
        ``folds``), and else which productions does it call?"""
        calls: set[str] = set()
        todo = [(e, False)]  # each with: does it run at an eager constructor's level?
        while todo:
            x, level = todo.pop()
            if isinstance(x, (New, LeftFold)):
                if id(x) not in eager or not folds and isinstance(x, LeftFold):
                    return True, calls
                todo.append((x.body, True))
            elif isinstance(x, (Tag, Link)):
                if not level:
                    return True, calls
                if isinstance(x, Link):
                    todo.append((x.body, False))
            elif isinstance(x, Nonterminal):
                calls.add(x.name)
            elif isinstance(x, (And, Not)):
                todo.append((x.body, False))
            else:
                todo.extend((c, level) for c in subexpressions(x))
        return False, calls

    direct: set[str] = set()
    callers: dict[str, set[str]] = {}
    for name, body in grammar.productions.items():
        logs, calls = logs_itself(body, True)
        if logs or mutates[name]:
            direct.add(name)
        for callee in calls:
            callers.setdefault(callee, set()).add(name)
    loud = _spread(direct, callers)

    def quiet(e: Expression) -> bool:
        if isinstance(e, Nonterminal):
            return e.name not in loud
        logs, calls = logs_itself(e, False)
        return not logs and loud.isdisjoint(calls)

    return quiet


# ---------------------------------------------------------------------------
# Transactions


class Transactions(NamedTuple):
    """Which attempts need a savepoint (see the module docstring).

    ``builds(e)``: can ``e`` change the machine, or the record of the eager
    constructor it runs in?  ``dirty(e, local)``: can it fail after
    changing them, running at an eager constructor's level if ``local``?
    ``nullable(e)``: can it succeed consuming nothing?
    """

    builds: Callable[[Expression], bool]
    dirty: Callable[[Expression, bool], bool]
    nullable: Callable[[Expression], bool]


def transactions(
    grammar: Grammar, eager: frozenset[int], memo_links: Collection[str]
) -> Transactions:
    """Savepoint facts for ``grammar`` as compiled with ``eager`` constructors
    and the ``@Name`` links memoized for each name in ``memo_links``.

    Expects a grammar that validates without errors.
    """
    facts = _facts(grammar)
    flags, of = facts.flags, facts.of

    def builds(e: Expression) -> bool:
        return bool(of(e) & _BUILDS)

    def can_be_empty(e: Expression) -> bool:
        return bool(of(e) & _EMPTY)

    if not any(f & _REACHES for f in facts.words.values()):
        # no tree operator: nothing changes the machine
        return Transactions(builds, lambda e, local=False: False, can_be_empty)

    def dirty_in(e: Expression, dirty: dict[str, bool], local: bool = False) -> bool:
        if isinstance(e, Sequence):
            built = False
            for item in e.items:
                f = flags[id(item)]
                if dirty_in(item, dirty, local) or built and f & _FAILS:
                    return True
                built = built or f & _BUILDS
            return False
        if isinstance(e, Nonterminal):
            return dirty.get(e.name, False)
        if isinstance(e, Choice):
            return dirty_in(e.alternatives[-1], dirty, local)
        if isinstance(e, (New, LeftFold)):
            return id(e) not in eager and bool(flags[id(e.body)] & _FAILS)
        if isinstance(e, Link):
            # At an eager constructor's level a link restores the machine
            # itself; a memoized one takes its own savepoint.
            memoized = isinstance(e.body, Nonterminal) and e.body.name in memo_links
            return not (local or memoized) and dirty_in(e.body, dirty)
        if isinstance(e, OneOrMore):
            return dirty_in(e.body, dirty, local)
        return False  # cannot fail, cannot build, or rolls back itself

    dirty = _least_fixpoint(grammar.productions, dirty_in)
    return Transactions(builds, lambda e, local=False: dirty_in(e, dirty, local), can_be_empty)


# ---------------------------------------------------------------------------
# Lead masks

_ANY_BYTE = (1 << 256) - 1
_BLIND = 1 << 256  # a predicate can run before the first byte


def _first(e: Expression, production: Callable[[str], int], flags: dict[int, int]) -> int:
    """The bytes ``e``'s first consumed byte can be, with ``_BLIND``.  Whether
    it can consume none is the table's ``_EMPTY``, which ``flags`` holds for
    every subexpression ``e`` has."""
    # Plain isinstance tests, the commonest kinds first: this runs at every
    # compile, where a match statement's class patterns cost set-up time.
    if isinstance(e, Sequence):
        mask = 0
        for item in e.items:
            mask |= _first(item, production, flags)
            if not flags[id(item)] & _EMPTY:
                break
        return mask
    if isinstance(e, Terminal):
        return 1 << e.text[0]
    if isinstance(e, Nonterminal):
        return production(e.name)
    if isinstance(e, Choice):
        mask = 0
        for a in e.alternatives:
            mask |= _first(a, production, flags)
        return mask
    if isinstance(e, (OneOrMore, New, LeftFold, Link, Option, ZeroOrMore)):
        return _first(e.body, production, flags)
    if isinstance(e, CharClass):
        mask = 0
        for lo, hi in e.ranges:
            mask |= (1 << hi + 1) - (1 << lo)
        return mask
    if isinstance(e, (Empty, Tag)):
        return 0
    if isinstance(e, (And, Not)):
        return _BLIND
    if isinstance(e, AnyChar):
        return _ANY_BYTE
    raise TypeError(f"unknown expression {e!r}")


def lead_masks(grammar: Grammar) -> Callable[[Expression], int | None]:
    """The lead mask of expressions over ``grammar`` (see the module docstring).

    Expects a grammar that validates without errors.  Each production's
    mask is computed on first use and kept: left recursion is refused, so
    the calls a mask depends on form no cycle.
    """
    facts = _facts(grammar)
    masks: dict[str, int] = {}

    def production(name: str) -> int:
        mask = masks.get(name)
        if mask is None:
            masks[name] = 0  # read back only through left recursion
            mask = masks[name] = _first(grammar.productions[name], production, facts.flags)
        return mask

    def lead(e: Expression) -> int | None:
        if facts.of(e) & _EMPTY:
            return None
        mask = _first(e, production, facts.flags)
        return None if mask & _BLIND else mask

    return lead
