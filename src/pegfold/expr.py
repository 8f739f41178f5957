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

The classes are plain slotted classes; assigning a field raises
``FrozenInstanceError``.  Each has a ``kind``, a small int that tables are
indexed by: the leaves first, then the classes with one ``body``, then
``Sequence`` and ``Choice`` (``KINDS``).  An expression computes its
structural hash once, as it is built, from its children's hashes, and
``==`` compares two trees with an explicit stack, stopping at the first
pair whose hash, class or fields differ, so both work at any depth.  Equal
expressions are not merged into one object: the analyses tell the places
of a grammar apart (see :mod:`pegfold.analysis`).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from operator import attrgetter

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
    "KINDS",
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

    __slots__ = ("_hash",)
    __match_args__: tuple[str, ...] = ()
    kind: int  # the class's index in ``KINDS``

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expression):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            k = a.kind
            if a._hash != b._hash or type(a) is not type(b) or _FIELDS[k](a) != _FIELDS[k](b):
                return False
            todo += zip(_PARTS[k](a), _PARTS[k](b))
        return True

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


class Empty(Expression):
    """Matches the empty string; always succeeds."""

    __slots__ = ()

    def __init__(self) -> None:
        _set_hash(self, hash((Empty,)))


class Terminal(Expression):
    """Matches an exact, non-empty byte sequence."""

    __slots__ = ("text",)
    __match_args__ = ("text",)

    def __init__(self, text: bytes) -> None:
        if not text:
            raise ValueError("terminal byte sequence must be non-empty")
        _set_text(self, text)
        _set_hash(self, hash((Terminal, text)))


class CharClass(Expression):
    """Matches one byte inside any of the inclusive ``(lo, hi)`` ranges."""

    __slots__ = ("ranges",)
    __match_args__ = ("ranges",)

    def __init__(self, ranges: tuple[tuple[int, int], ...]) -> None:
        if not ranges:
            raise ValueError("character class must contain at least one range")
        for lo, hi in ranges:
            if not (0 <= lo <= hi <= 0xFF):
                raise ValueError(f"invalid byte range {lo}-{hi}")
        _set_ranges(self, ranges)
        _set_hash(self, hash((CharClass, ranges)))


class AnyChar(Expression):
    """Matches any single byte."""

    __slots__ = ()

    def __init__(self) -> None:
        _set_hash(self, hash((AnyChar,)))


class _Named(Expression):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        _set_name(self, name)
        _set_hash(self, hash((type(self), name)))


class Nonterminal(_Named):
    """Applies the production named ``name``."""

    __slots__ = ()


class Tag(_Named):
    """``#name`` -- sets (or overrides) the tag of the current left node."""

    __slots__ = ()


class _Unary(Expression):
    __slots__ = ("body",)
    __match_args__ = ("body",)

    def __init__(self, body: Expression) -> None:
        _set_body(self, body)
        _set_hash(self, hash((type(self), body._hash)))


class Option(_Unary):
    """``e?`` -- matches ``body`` or nothing."""

    __slots__ = ()


class ZeroOrMore(_Unary):
    """``e*`` -- greedily repeats ``body`` until it no longer matches."""

    __slots__ = ()


class OneOrMore(_Unary):
    """``e+`` -- like ``e*`` but requires at least one match."""

    __slots__ = ()


class And(_Unary):
    """``&e`` -- succeeds iff ``body`` matches; consumes nothing."""

    __slots__ = ()


class Not(_Unary):
    """``!e`` -- succeeds iff ``body`` fails; consumes nothing."""

    __slots__ = ()


class New(_Unary):
    """``{ e }`` -- builds a fresh node spanning the substring matched by ``body``."""

    __slots__ = ()


class LeftFold(_Unary):
    """``{@ e }`` -- builds a fresh node whose first child is the current left node."""

    __slots__ = ()


class Link(_Unary):
    """``@e`` / ``@[n]e`` -- attaches the node built by ``body`` to the left node."""

    __slots__ = ("index",)
    __match_args__ = ("body", "index")

    def __init__(self, body: Expression, index: int | None = None) -> None:
        if index is not None and index < 0:
            raise ValueError("link index must be non-negative")
        _set_body(self, body)
        _set_index(self, index)
        _set_hash(self, hash((Link, body._hash, index)))


class Sequence(Expression):
    """Matches ``items`` one after another; fails if any part fails."""

    __slots__ = ("items",)
    __match_args__ = ("items",)

    def __init__(self, items: tuple[Expression, ...]) -> None:
        if len(items) < 2:
            raise ValueError("sequence needs at least two items")
        _set_items(self, items)
        _set_hash(self, hash((Sequence, items)))  # each item's hash is kept


class Choice(Expression):
    """Prioritized choice: tries ``alternatives`` in order, first hit wins."""

    __slots__ = ("alternatives",)
    __match_args__ = ("alternatives",)

    def __init__(self, alternatives: tuple[Expression, ...]) -> None:
        if len(alternatives) < 2:
            raise ValueError("choice needs at least two alternatives")
        _set_alternatives(self, alternatives)
        _set_hash(self, hash((Choice, alternatives)))


# ``__setattr__`` refuses every assignment, so ``__init__`` writes the slots
# through their descriptors.
_set_hash, _set_text, _set_ranges, _set_name = (
    Expression._hash.__set__, Terminal.text.__set__, CharClass.ranges.__set__, _Named.name.__set__
)  # fmt: skip
_set_body, _set_index, _set_items, _set_alternatives = (
    _Unary.body.__set__, Link.index.__set__, Sequence.items.__set__, Choice.alternatives.__set__
)  # fmt: skip

# The classes in the order of their kinds: leaves, one body, several.
KINDS = (Empty, Terminal, CharClass, AnyChar, Nonterminal, Tag, Option, ZeroOrMore, OneOrMore,
         And, Not, New, LeftFold, Link, Sequence, Choice)  # fmt: skip
for _kind, _class in enumerate(KINDS):
    _class.kind = _kind
_UNARY, _LINK, _SEVERAL = Option.kind, Link.kind, Sequence.kind

# Per kind: the subexpressions, and the other fields (``None`` where there
# are none): a leaf's text, ranges or name, a link's index, the number of
# items or alternatives.  ``==`` compares these and ``analysis.shape``
# keeps them, so the two agree on what makes expressions equal.
_PARTS = ((lambda e: (),) * _UNARY + (lambda e: (e.body,),) * (_SEVERAL - _UNARY)
          + (attrgetter("items"), attrgetter("alternatives")))  # fmt: skip
_NONE = (lambda e: None,)
_FIELDS = (_NONE + (attrgetter("text"), attrgetter("ranges")) + _NONE + (attrgetter("name"),) * 2
           + _NONE * (_LINK - _UNARY) + (attrgetter("index"),)
           + (lambda e: len(e.items), lambda e: len(e.alternatives)))  # fmt: skip

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
    return _PARTS[e.kind](e)


def erase_tree_operators(e: Expression) -> Expression:
    """Strips every tree-building operator, leaving pure recognition.

    ``{e}``, ``{@ e}`` and ``@e`` reduce to their bodies, ``#t`` to the
    empty expression.  Recognition behavior is unchanged: the erased
    grammar consumes exactly the same input.
    """
    if isinstance(e, (New, LeftFold, Link)):
        return erase_tree_operators(e.body)
    if isinstance(e, Tag):
        return EMPTY
    if isinstance(e, Sequence):
        return sequence([x for i in e.items if not isinstance(x := erase_tree_operators(i), Empty)])
    if isinstance(e, Choice):
        return Choice(tuple(erase_tree_operators(a) for a in e.alternatives))
    if isinstance(e, _Unary):  # a repetition or a predicate
        return type(e)(erase_tree_operators(e.body))
    return e


# Formatting.  Precedence levels mirror the reader: choice 1, sequence 2,
# prefix 3, suffix 4, primary 5.

_NAMED_ESCAPES = {0x0A: "\\n", 0x0D: "\\r", 0x09: "\\t"}
_SUFFIXES = {Option: "?", ZeroOrMore: "*", OneOrMore: "+"}


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
        case Option(body) | ZeroOrMore(body) | OneOrMore(body):
            return 4, [(body, 4), _SUFFIXES[type(e)]]
        case And(body) | Not(body):
            return 3, ["&" if isinstance(e, And) else "!", (body, 4)]
        case Link(body, index):
            prefix = "@" if index is None else f"@[{index}]"
            if index is None and isinstance(body, CharClass):
                # "@[...]" would read back as an indexed link
                return 3, [prefix + "( ", (body, 1), " )"]
            return 3, [prefix, (body, 4)]
    raise TypeError(f"unknown expression {e!r}")
