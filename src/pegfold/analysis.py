"""Static analyses over grammars: validation and memo-point assignment.

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

* link points: ``@Name`` where every evaluation of ``Name`` keeps its
  node effects confined to nodes it creates itself, so the finished node
  can be stored and reused verbatim;
* nonterminal points: productions that reach no tree operator at all,
  stored as plain position advances.

Points are dropped conservatively whenever a later ``#tag`` in the same
sequence could retroactively touch what was stored.
"""

from __future__ import annotations

from dataclasses import dataclass

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

__all__ = ["validate", "MemoPlan", "assign_memo_points"]


# ---------------------------------------------------------------------------
# Basic facts: referenced names, nullability, reachable tree operators.


def _referenced_names(e: Expression, acc: set[str]) -> None:
    if isinstance(e, Nonterminal):
        acc.add(e.name)
    for child in subexpressions(e):
        _referenced_names(child, acc)


def _nullability(grammar: Grammar) -> dict[str, bool]:
    """Least fixpoint of "can succeed consuming nothing" per production."""
    nullable = {name: False for name in grammar.productions}
    changed = True
    while changed:
        changed = False
        for name, body in grammar.productions.items():
            if not nullable[name] and _expr_nullable(body, nullable):
                nullable[name] = True
                changed = True
    return nullable


def _left_calls(e: Expression, nullable: dict[str, bool], acc: set[str]) -> bool:
    """Collects nonterminals callable before any consumption; returns nullability of ``e``."""
    match e:
        case Empty() | Tag():
            return True
        case Terminal() | CharClass() | AnyChar():
            return False
        case Nonterminal(name):
            acc.add(name)
            return nullable.get(name, False)
        case Sequence(items):
            for item in items:
                if not _left_calls(item, nullable, acc):
                    return False
            return True
        case Choice(alternatives):
            result = False
            for alt in alternatives:
                if _left_calls(alt, nullable, acc):
                    result = True
            return result
        case Option(body) | ZeroOrMore(body):
            _left_calls(body, nullable, acc)
            return True
        case And(body) | Not(body):
            _left_calls(body, nullable, acc)
            return True
        case OneOrMore(body) | New(body) | LeftFold(body) | Link(body):
            return _left_calls(body, nullable, acc)
    raise TypeError(f"unknown expression {e!r}")


def _has_tree_op(e: Expression) -> bool:
    if isinstance(e, (New, LeftFold, Link, Tag)):
        return True
    return any(_has_tree_op(c) for c in subexpressions(e))


def _tree_op_reach(grammar: Grammar) -> dict[str, bool]:
    """Per production: does it (or anything it reaches) contain a tree operator."""
    direct = {name: _has_tree_op(body) for name, body in grammar.productions.items()}
    calls: dict[str, set[str]] = {}
    for name, body in grammar.productions.items():
        refs: set[str] = set()
        _referenced_names(body, refs)
        calls[name] = refs
    reach = dict(direct)
    changed = True
    while changed:
        changed = False
        for name in grammar.productions:
            if not reach[name] and any(reach.get(r, False) for r in calls[name]):
                reach[name] = True
                changed = True
    return reach


def _expr_reaches_tree_op(e: Expression, reach: dict[str, bool]) -> bool:
    if isinstance(e, (New, LeftFold, Link, Tag)):
        return True
    if isinstance(e, Nonterminal):
        return reach.get(e.name, False)
    return any(_expr_reaches_tree_op(c, reach) for c in subexpressions(e))


# ---------------------------------------------------------------------------
# Left-register abstract interpretation.
#
# The left register is abstracted to a set over {OUTER, FRESH}: OUTER is
# whatever node (or no node) existed before the analyzed region started,
# FRESH is a node created inside it.  A production is memo-safe when no
# evaluation can mutate OUTER state: tagging OUTER, folding OUTER away,
# or linking a child into an OUTER parent.  Any of those would smuggle a
# context dependency into a stored result (and, transactionally, a
# reference that cannot be replayed inside the stored region).

_OUTER = "O"
_FRESH = "F"
_SET_OUTER = frozenset((_OUTER,))
_SET_FRESH = frozenset((_FRESH,))
_SET_NONE: frozenset[str] = frozenset()


@dataclass(frozen=True)
class _Effect:
    out: frozenset[str]
    bad: bool
    warns: frozenset[str]


_BOTTOM = _Effect(_SET_NONE, False, frozenset())


def _join(a: _Effect, b: _Effect) -> _Effect:
    return _Effect(a.out | b.out, a.bad or b.bad, a.warns | b.warns)


class _LeftRegisterAnalysis:
    """Fixpoint evaluator for the abstraction above."""

    def __init__(self, grammar: Grammar, tree_reach: dict[str, bool]):
        self.grammar = grammar
        self.tree_reach = tree_reach
        self.stable: dict[tuple[str, frozenset[str]], _Effect] = {}
        self.touched: set[str] = set()

    def production(self, name: str, incoming: frozenset[str]) -> _Effect:
        """Stable effect of evaluating production ``name`` from ``incoming``."""
        key = (name, incoming)
        while True:
            current: dict[tuple[str, frozenset[str]], _Effect] = {}
            self._eval_production(name, incoming, current, set())
            changed = False
            for k, v in current.items():
                if self.stable.get(k, _BOTTOM) != v:
                    self.stable[k] = v
                    changed = True
            if not changed:
                return self.stable.get(key, _BOTTOM)

    def _eval_production(
        self,
        name: str,
        incoming: frozenset[str],
        current: dict[tuple[str, frozenset[str]], _Effect],
        in_progress: set[tuple[str, frozenset[str]]],
    ) -> _Effect:
        key = (name, incoming)
        if key in current:
            return current[key]
        if key in in_progress:
            return self.stable.get(key, _BOTTOM)
        body = self.grammar.productions.get(name)
        if body is None:
            return _BOTTOM
        self.touched.add(name)
        in_progress.add(key)
        result = self._eval(body, incoming, name, current, in_progress)
        in_progress.discard(key)
        current[key] = result
        return result

    def _eval(
        self,
        e: Expression,
        S: frozenset[str],
        prod: str,
        current: dict,
        in_progress: set,
    ) -> _Effect:
        if not S:
            return _BOTTOM
        match e:
            case Empty() | Terminal() | CharClass() | AnyChar():
                return _Effect(S, False, frozenset())
            case Tag():
                if _OUTER in S:
                    return _Effect(S, True, frozenset((prod,)))
                return _Effect(S, False, frozenset())
            case Nonterminal(name):
                return self._eval_production(name, S, current, in_progress)
            case Sequence(items):
                eff = _Effect(S, False, frozenset())
                for item in items:
                    step = self._eval(item, eff.out, prod, current, in_progress)
                    eff = _Effect(step.out, eff.bad or step.bad, eff.warns | step.warns)
                return eff
            case Choice(alternatives):
                eff = _BOTTOM
                for alt in alternatives:
                    eff = _join(eff, self._eval(alt, S, prod, current, in_progress))
                return eff
            case Option(body):
                eff = self._eval(body, S, prod, current, in_progress)
                return _Effect(eff.out | S, eff.bad, eff.warns)
            case OneOrMore(body):
                first = self._eval(body, S, prod, current, in_progress)
                rest = self._star(body, first.out, prod, current, in_progress)
                return _Effect(rest.out, first.bad or rest.bad, first.warns | rest.warns)
            case ZeroOrMore(body):
                return self._star(body, S, prod, current, in_progress)
            case And(body) | Not(body):
                eff = self._eval(body, S, prod, current, in_progress)
                return _Effect(S, eff.bad, eff.warns)
            case New(body):
                eff = self._eval(body, _SET_FRESH, prod, current, in_progress)
                return _Effect(_SET_FRESH, eff.bad, eff.warns)
            case LeftFold(body):
                eff = self._eval(body, _SET_FRESH, prod, current, in_progress)
                return _Effect(_SET_FRESH, eff.bad or _OUTER in S, eff.warns)
            case Link(body):
                eff = self._eval(body, S, prod, current, in_progress)
                bad = eff.bad
                if _OUTER in S and _expr_reaches_tree_op(body, self.tree_reach):
                    bad = True
                return _Effect(S, bad, eff.warns)
        raise TypeError(f"unknown expression {e!r}")

    def _star(
        self,
        body: Expression,
        S: frozenset[str],
        prod: str,
        current: dict,
        in_progress: set,
    ) -> _Effect:
        states = S
        bad = False
        warns: frozenset[str] = frozenset()
        while True:
            eff = self._eval(body, states, prod, current, in_progress)
            bad = bad or eff.bad
            warns = warns | eff.warns
            merged = states | eff.out
            if merged == states:
                return _Effect(states, bad, warns)
            states = merged


# ---------------------------------------------------------------------------
# validate


def validate(grammar: Grammar) -> list[Diagnostic]:
    """Checks a grammar and returns diagnostics; no errors means runnable."""
    diagnostics: list[Diagnostic] = []

    defined = set(grammar.productions)
    for name, body in grammar.productions.items():
        refs: set[str] = set()
        _referenced_names(body, refs)
        for ref in sorted(refs - defined):
            line, col = grammar.location(name)
            diagnostics.append(
                Diagnostic(
                    "error",
                    "undefined-nonterminal",
                    f"reference to undefined production {ref!r}",
                    name,
                    line,
                    col,
                )
            )

    nullable = _nullability(grammar)

    edges: dict[str, set[str]] = {}
    for name, body in grammar.productions.items():
        acc: set[str] = set()
        _left_calls(body, nullable, acc)
        edges[name] = acc & defined
    for name in grammar.productions:
        seen: set[str] = set()
        frontier = set(edges[name])
        while frontier:
            if name in frontier:
                line, col = grammar.location(name)
                diagnostics.append(
                    Diagnostic(
                        "error",
                        "left-recursion",
                        f"production {name!r} can call itself without consuming input",
                        name,
                        line,
                        col,
                    )
                )
                break
            seen |= frontier
            frontier = set().union(*(edges[f] for f in frontier)) - seen

    def scan_repetitions(name: str, e: Expression) -> None:
        match e:
            case ZeroOrMore(body) | OneOrMore(body):
                if _expr_nullable(body, nullable):
                    line, col = grammar.location(name)
                    diagnostics.append(
                        Diagnostic(
                            "warning",
                            "nullable-repetition",
                            "repetition body can succeed without consuming; "
                            "the loop stops after one empty iteration",
                            name,
                            line,
                            col,
                        )
                    )
        for child in subexpressions(e):
            scan_repetitions(name, child)

    for name, body in grammar.productions.items():
        scan_repetitions(name, body)

    # Tags that may run with no node under construction.  Analyzed from
    # the start symbol; productions unreachable from it are checked on
    # their own, as if each were a start symbol.
    tree_reach = _tree_op_reach(grammar)
    analysis = _LeftRegisterAnalysis(grammar, tree_reach)
    warned = set(analysis.production(grammar.start, _SET_OUTER).warns)
    for name in grammar.productions:
        if name not in analysis.touched:
            warned |= analysis.production(name, _SET_OUTER).warns
    for name in grammar.productions:
        if name in warned:
            line, col = grammar.location(name)
            diagnostics.append(
                Diagnostic(
                    "warning",
                    "tag-outside-constructor",
                    "a #tag here can execute while no node is under "
                    "construction; it does nothing at runtime",
                    name,
                    line,
                    col,
                )
            )

    order = {name: i for i, name in enumerate(grammar.productions)}
    diagnostics.sort(key=lambda d: (order.get(d.production or "", -1), d.severity, d.code))
    return diagnostics


def _expr_nullable(e: Expression, nullable: dict[str, bool]) -> bool:
    match e:
        case Empty() | Tag() | Option() | ZeroOrMore() | And() | Not():
            return True
        case Terminal() | CharClass() | AnyChar():
            return False
        case Nonterminal(name):
            return nullable.get(name, False)
        case Sequence(items):
            return all(_expr_nullable(i, nullable) for i in items)
        case Choice(alternatives):
            return any(_expr_nullable(a, nullable) for a in alternatives)
        case OneOrMore(body) | New(body) | LeftFold(body) | Link(body):
            return _expr_nullable(body, nullable)
    raise TypeError(f"unknown expression {e!r}")


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
    tree_reach = _tree_op_reach(grammar)
    analysis = _LeftRegisterAnalysis(grammar, tree_reach)

    # Candidate link points: @Name occurrences, in grammar order.
    link_names: list[str] = []

    def collect_links(e: Expression) -> None:
        if isinstance(e, Link) and isinstance(e.body, Nonterminal):
            if e.body.name not in link_names and e.body.name in grammar.productions:
                link_names.append(e.body.name)
        for child in subexpressions(e):
            collect_links(child)

    for body in grammar.productions.values():
        collect_links(body)

    # A later #tag in the same sequence disables every point stored in an
    # earlier element: conservative guard against retroactive mutation of
    # a stored result through the left register.
    disabled_links: set[str] = set()
    disabled_nts: set[str] = set()

    def scan_tag_after(e: Expression) -> None:
        if isinstance(e, Sequence):
            tag_after = [False] * len(e.items)
            seen_tag = False
            for i in range(len(e.items) - 1, -1, -1):
                tag_after[i] = seen_tag
                if _contains_tag(e.items[i]):
                    seen_tag = True
            for i, item in enumerate(e.items):
                if tag_after[i]:
                    _collect_point_uses(item, disabled_links, disabled_nts)
        for child in subexpressions(e):
            scan_tag_after(child)

    for body in grammar.productions.values():
        scan_tag_after(body)

    link_points: dict[str, int] = {}
    next_id = 0
    for name in link_names:
        if name in disabled_links:
            continue
        if analysis.production(name, _SET_OUTER).bad:
            continue
        link_points[name] = next_id
        next_id += 1

    nonterminal_points: dict[str, int] = {}
    for name in grammar.productions:
        if not tree_reach[name] and name not in disabled_nts:
            nonterminal_points[name] = next_id
            next_id += 1

    return MemoPlan(link_points, nonterminal_points, next_id)


def _contains_tag(e: Expression) -> bool:
    if isinstance(e, Tag):
        return True
    return any(_contains_tag(c) for c in subexpressions(e))


def _collect_point_uses(e: Expression, links: set[str], nts: set[str]) -> None:
    if isinstance(e, Link) and isinstance(e.body, Nonterminal):
        links.add(e.body.name)
    if isinstance(e, Nonterminal):
        nts.add(e.name)
    for child in subexpressions(e):
        _collect_point_uses(child, links, nts)
