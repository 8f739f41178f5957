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
    "desugar",
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

    def membership_table(self) -> bytearray:
        """256-entry byte membership table, indexed by byte value."""
        table = bytearray(256)
        for lo, hi in self.ranges:
            for b in range(lo, hi + 1):
                table[b] = 1
        return table


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


def subexpressions(e: Expression) -> tuple[Expression, ...]:
    """Direct children of ``e`` in evaluation order."""
    match e:
        case Sequence(items):
            return items
        case Choice(alternatives):
            return alternatives
        case Option(body) | ZeroOrMore(body) | OneOrMore(body) | And(body) | Not(body):
            return (body,)
        case New(body) | LeftFold(body) | Link(body):
            return (body,)
        case _:
            return ()


def desugar(e: Expression, *, expand_char_classes: bool = False) -> Expression:
    """Rewrites ``e`` into a smaller core of operators.

    ``e?`` becomes a choice with the empty expression, ``e+`` becomes
    ``e e*``, and ``&e`` becomes ``!!e``.  ``e*`` stays a native loop.
    The engine compiles the sugared forms directly; this rewrite is the
    reference form that tests compare it against.
    Character classes stay native too unless ``expand_char_classes`` is
    set, in which case each class becomes a choice over its member
    bytes (useful only as a slow reference form for equivalence tests).
    """
    match e:
        case Option(body):
            return Choice((desugar(body, expand_char_classes=expand_char_classes), EMPTY))
        case OneOrMore(body):
            b = desugar(body, expand_char_classes=expand_char_classes)
            return Sequence((b, ZeroOrMore(b)))
        case And(body):
            return Not(Not(desugar(body, expand_char_classes=expand_char_classes)))
        case CharClass(ranges) if expand_char_classes:
            members = [Terminal(bytes([b])) for lo, hi in ranges for b in range(lo, hi + 1)]
            return choice(members)
        case ZeroOrMore(body):
            return ZeroOrMore(desugar(body, expand_char_classes=expand_char_classes))
        case Not(body):
            return Not(desugar(body, expand_char_classes=expand_char_classes))
        case Sequence(items):
            return Sequence(tuple(desugar(i, expand_char_classes=expand_char_classes) for i in items))
        case Choice(alternatives):
            return Choice(tuple(desugar(a, expand_char_classes=expand_char_classes) for a in alternatives))
        case New(body):
            return New(desugar(body, expand_char_classes=expand_char_classes))
        case LeftFold(body):
            return LeftFold(desugar(body, expand_char_classes=expand_char_classes))
        case Link(body, index):
            return Link(desugar(body, expand_char_classes=expand_char_classes), index)
        case _:
            return e


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
    """Renders ``e`` in grammar-file syntax; ``parse`` of the result round-trips."""
    return _format(e, 1)


def _format(e: Expression, min_prec: int) -> str:
    text, prec = _format_prec(e)
    if prec < min_prec:
        return "( " + text + " )"
    return text


def _format_prec(e: Expression) -> tuple[str, int]:
    match e:
        case Empty():
            return "''", 5
        case Terminal(text):
            return quote_literal(text), 5
        case CharClass(ranges):
            return format_char_class(ranges), 5
        case AnyChar():
            return ".", 5
        case Nonterminal(name):
            return name, 5
        case Tag(name):
            return "#" + name, 5
        case New(body):
            return "{ " + _format(body, 1) + " }", 5
        case LeftFold(body):
            return "{@ " + _format(body, 1) + " }", 5
        case Sequence(items):
            return " ".join(_format(i, 3) for i in items), 2
        case Choice(alternatives):
            return " / ".join(_format(a, 2) for a in alternatives), 1
        case Option(body):
            return _format(body, 4) + "?", 4
        case ZeroOrMore(body):
            return _format(body, 4) + "*", 4
        case OneOrMore(body):
            return _format(body, 4) + "+", 4
        case And(body):
            return "&" + _format(body, 4), 3
        case Not(body):
            return "!" + _format(body, 4), 3
        case Link(body, index):
            prefix = "@" if index is None else f"@[{index}]"
            if index is None and isinstance(body, CharClass):
                # "@[...]" would read back as an indexed link
                return prefix + "( " + _format(body, 1) + " )", 3
            return prefix + _format(body, 4), 3
    raise TypeError(f"unknown expression {e!r}")
