"""Expression trees for the grammar language.

An expression is an immutable tree built from the recognition operators
(literals, character classes, sequence, prioritized choice, repetition,
predicates) and the tree-building operators:

* ``New`` -- ``{ e }``, capture the matched substring as a fresh node;
* ``LeftFold`` -- ``{@ e }``, start a fresh node that adopts the current
  left node as its first child;
* ``Link`` -- ``@e`` / ``@[n]e``, attach the node built by ``e`` to the
  current left node (optionally at child index ``n``);
* ``Tag`` -- ``#name``, set (or override) the tag of the current left node.

Matching is byte oriented: literals are UTF-8 byte strings, character
classes are sets of inclusive byte ranges, and ``.`` matches one byte.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Expression",
    "Empty",
    "Terminal",
    "CharClass",
    "AnyChar",
    "Nonterminal",
    "Sequence",
    "Choice",
    "Option",
    "ZeroOrMore",
    "OneOrMore",
    "And",
    "Not",
    "New",
    "LeftFold",
    "Link",
    "Tag",
    "EMPTY",
    "ANY",
    "sequence",
    "choice",
    "subexpressions",
    "erase_tree_operators",
    "format_expression",
]


class Expression:
    """Base class for all expression variants."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Empty(Expression):
    """Matches the empty string; always succeeds."""


@dataclass(frozen=True, slots=True)
class Terminal(Expression):
    """Matches an exact, non-empty byte sequence."""

    text: bytes

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("terminal byte sequence must be non-empty")


@dataclass(frozen=True, slots=True)
class CharClass(Expression):
    """Matches one byte inside any of the inclusive ``(lo, hi)`` ranges."""

    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.ranges:
            raise ValueError("character class must contain at least one range")
        for lo, hi in self.ranges:
            if not (0 <= lo <= hi <= 0xFF):
                raise ValueError(f"invalid byte range {lo}-{hi}")


@dataclass(frozen=True, slots=True)
class AnyChar(Expression):
    """Matches any single byte."""


@dataclass(frozen=True, slots=True)
class Nonterminal(Expression):
    """Applies the production named ``name``."""

    name: str


@dataclass(frozen=True, slots=True)
class Sequence(Expression):
    """Matches ``items`` one after another; fails if any part fails."""

    items: tuple[Expression, ...]

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise ValueError("sequence needs at least two items")


@dataclass(frozen=True, slots=True)
class Choice(Expression):
    """Prioritized choice: tries ``alternatives`` in order, first hit wins."""

    alternatives: tuple[Expression, ...]

    def __post_init__(self) -> None:
        if len(self.alternatives) < 2:
            raise ValueError("choice needs at least two alternatives")


@dataclass(frozen=True, slots=True)
class Option(Expression):
    """``e?`` -- matches ``body`` or nothing."""

    body: Expression


@dataclass(frozen=True, slots=True)
class ZeroOrMore(Expression):
    """``e*`` -- greedily repeats ``body`` until it no longer matches."""

    body: Expression


@dataclass(frozen=True, slots=True)
class OneOrMore(Expression):
    """``e+`` -- like ``e*`` but requires at least one match."""

    body: Expression


@dataclass(frozen=True, slots=True)
class And(Expression):
    """``&e`` -- succeeds iff ``body`` matches; consumes nothing."""

    body: Expression


@dataclass(frozen=True, slots=True)
class Not(Expression):
    """``!e`` -- succeeds iff ``body`` fails; consumes nothing."""

    body: Expression


@dataclass(frozen=True, slots=True)
class New(Expression):
    """``{ e }`` -- builds a fresh node spanning the substring matched by ``body``."""

    body: Expression


@dataclass(frozen=True, slots=True)
class LeftFold(Expression):
    """``{@ e }`` -- builds a fresh node whose first child is the current left node."""

    body: Expression


@dataclass(frozen=True, slots=True)
class Link(Expression):
    """``@e`` / ``@[n]e`` -- attaches the node built by ``body`` to the left node."""

    body: Expression
    index: int | None = None

    def __post_init__(self) -> None:
        if self.index is not None and self.index < 0:
            raise ValueError("link index must be non-negative")


@dataclass(frozen=True, slots=True)
class Tag(Expression):
    """``#name`` -- sets (or overrides) the tag of the current left node."""

    name: str


EMPTY = Empty()
ANY = AnyChar()


def sequence(items: list[Expression] | tuple[Expression, ...]) -> Expression:
    """Builds a sequence, collapsing empty and singleton item lists."""
    items = tuple(items)
    if not items:
        return EMPTY
    if len(items) == 1:
        return items[0]
    return Sequence(items)


def choice(alternatives: list[Expression] | tuple[Expression, ...]) -> Expression:
    """Builds a prioritized choice, collapsing a singleton to its alternative."""
    alternatives = tuple(alternatives)
    if not alternatives:
        raise ValueError("choice needs at least one alternative")
    if len(alternatives) == 1:
        return alternatives[0]
    return Choice(alternatives)


_UNARY = (Option, ZeroOrMore, OneOrMore, And, Not, New, LeftFold, Link)


def subexpressions(e: Expression) -> tuple[Expression, ...]:
    """Direct children of ``e`` in evaluation order."""
    # isinstance tests: a ``match`` over these classes costs four times as much.
    if isinstance(e, _UNARY):
        return (e.body,)
    if isinstance(e, Sequence):
        return e.items
    if isinstance(e, Choice):
        return e.alternatives
    return ()


def erase_tree_operators(e: Expression) -> Expression:
    """Strips every tree-building operator, leaving pure recognition.

    ``{e}``, ``{@ e}`` and ``@e`` reduce to their bodies, ``#t`` to the
    empty expression.  Recognition behavior is unchanged: the erased
    grammar consumes exactly the same input.
    """
    match e:
        case New(body) | LeftFold(body) | Link(body):
            return erase_tree_operators(body)
        case Tag():
            return EMPTY
        case Sequence(items):
            return sequence([x for i in items if not isinstance(x := erase_tree_operators(i), Empty)])
        case Choice(alternatives):
            return Choice(tuple(erase_tree_operators(a) for a in alternatives))
        case Option(body):
            return Option(erase_tree_operators(body))
        case ZeroOrMore(body):
            return ZeroOrMore(erase_tree_operators(body))
        case OneOrMore(body):
            return OneOrMore(erase_tree_operators(body))
        case And(body):
            return And(erase_tree_operators(body))
        case Not(body):
            return Not(erase_tree_operators(body))
        case _:
            return e


# Formatting.  Precedence levels mirror the reader: choice 1, sequence 2,
# prefix 3, suffix 4, primary 5.

_NAMED_ESCAPES = {0x0A: "\\n", 0x0D: "\\r", 0x09: "\\t"}


def _quote_byte(b: int, specials: str) -> str:
    if chr(b) in specials:
        return "\\" + chr(b)
    if b in _NAMED_ESCAPES:
        return _NAMED_ESCAPES[b]
    if 0x20 <= b < 0x7F:
        return chr(b)
    return f"\\x{b:02X}"


def quote_literal(text: bytes) -> str:
    """Renders a byte string as a single-quoted grammar literal."""
    return "'" + "".join(_quote_byte(b, "'\\") for b in text) + "'"


def format_char_class(ranges: tuple[tuple[int, int], ...]) -> str:
    parts = []
    for lo, hi in ranges:
        if lo == hi:
            parts.append(_quote_byte(lo, "]\\-"))
        else:
            parts.append(_quote_byte(lo, "]\\-") + "-" + _quote_byte(hi, "]\\-"))
    return "[" + "".join(parts) + "]"


def format_expression(e: Expression) -> str:
    """Renders ``e`` in grammar-file syntax; ``parse`` of the result round-trips.

    It writes with an explicit stack, so any depth the reader accepts prints."""
    out: list[str] = []
    todo: list = [(e, 1)]  # text, or an expression to write at least at a precedence
    while todo:
        x = todo.pop()
        if isinstance(x, str):
            out.append(x)
            continue
        x, min_prec = x
        prec, parts = _format(x)
        if prec < min_prec:
            parts = ["( ", *parts, " )"]
        todo.extend(reversed(parts))
    return "".join(out)


def _format(e: Expression) -> tuple[int, list]:
    """``e``'s precedence, and its text as pieces: text, or a subexpression
    with the least precedence it needs there."""
    match e:
        case Empty():
            return 5, ["''"]
        case Terminal(text):
            return 5, [quote_literal(text)]
        case CharClass(ranges):
            return 5, [format_char_class(ranges)]
        case AnyChar():
            return 5, ["."]
        case Nonterminal(name):
            return 5, [name]
        case Tag(name):
            return 5, ["#" + name]
        case New(body):
            return 5, ["{ ", (body, 1), " }"]
        case LeftFold(body):
            return 5, ["{@ ", (body, 1), " }"]
        case Sequence(items):  # each item, a space before all but the first
            return 2, [part for i in items for part in (" ", (i, 3))][1:]
        case Choice(alternatives):
            return 1, [part for a in alternatives for part in (" / ", (a, 2))][1:]
        case Option(body):
            return 4, [(body, 4), "?"]
        case ZeroOrMore(body):
            return 4, [(body, 4), "*"]
        case OneOrMore(body):
            return 4, [(body, 4), "+"]
        case And(body):
            return 3, ["&", (body, 4)]
        case Not(body):
            return 3, ["!", (body, 4)]
        case Link(body, index):
            prefix = "@" if index is None else f"@[{index}]"
            if index is None and isinstance(body, CharClass):
                # "@[...]" would read back as an indexed link
                return 3, [prefix + "( ", (body, 1), " )"]
            return 3, [prefix, (body, 4)]
    raise TypeError(f"unknown expression {e!r}")
