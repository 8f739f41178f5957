"""Syntax tree nodes and their textual notation.

A node is ``#tag`` plus a byte span over the parsed input and an ordered
tuple of children.  Leaves render with their matched substring, inner
nodes with their children only::

    #Add[#Int['1'] #Int['2']]

``serialize`` produces that notation bit-exactly (quotes and backslashes
escaped, non-printable bytes as ``\\xHH``), rendering each distinct leaf
once per call.  ``parse_notation`` is its structural inverse with
synthesized spans.  It reads the text with one compiled token pattern:
blanks, then ``#tag[`` (a tag is letters, digits and ``_``, as ``\\w``
matches them), a quoted leaf, ``]`` or the end.  In quoted text ``\\'``,
``\\\\`` and ``\\xHH`` stand for a quote, a backslash and the byte HH, and
any other character for its UTF-8 bytes; a lone surrogate, which has none,
is an error.  ``to_json_dict`` gives a tree's JSON-ready dict form, and
``to_json`` writes the JSON text of that form straight from the tree.
Nodes compare by identity; use :func:`equals` for structural comparison.

A generated parser builds each of its nodes with one call: it fills a
private slot record (``_NodeSlots``) and seals it with
``__class__ = Node``, which skips the checks of ``Node.__init__`` but
keeps the rest of the contract.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from json.encoder import encode_basestring_ascii as _json_str  # a str as json.dumps writes it
from typing import Any

__all__ = [
    "Node",
    "NotationError",
    "serialize",
    "parse_notation",
    "equals",
    "to_json_dict",
    "to_json",
]


class _NodeSlots:
    """A node's fields without ``Node``'s refusing ``__setattr__``, for the
    engine to fill and seal (see the module docstring); ``Node`` adds no
    slot to them."""

    __slots__ = ("tag", "start", "end", "source", "children", "__weakref__")

    tag: str
    start: int
    end: int
    source: bytes
    children: tuple[Node, ...]


class Node(_NodeSlots):
    """Immutable tree node: tag, byte span over ``source``, children.

    A slotted class with no per-node ``__dict__``; assigning or deleting a
    field raises :class:`dataclasses.FrozenInstanceError`.  Nodes compare
    and hash by identity.
    """

    __slots__ = ()

    def __init__(
        self, tag: str, start: int, end: int, source: bytes, children: tuple[Node, ...] = ()
    ) -> None:
        if not tag:
            raise ValueError("node tag must be non-empty")
        if not (0 <= start <= end <= len(source)):
            raise ValueError(f"bad span {start}..{end} for {len(source)}-byte source")
        _set_tag(self, tag)
        _set_start(self, start)
        _set_end(self, end)
        _set_source(self, source)
        _set_children(self, children)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Node, (self.tag, self.start, self.end, self.source, self.children)

    @property
    def text(self) -> bytes:
        """The matched substring, byte-exact."""
        return self.source[self.start : self.end]

    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:
        return f"<Node {serialize(self)}>"


# __setattr__ refuses every write, so __init__ stores through the slot
# descriptors.
_set_tag = _NodeSlots.tag.__set__
_set_start = _NodeSlots.start.__set__
_set_end = _NodeSlots.end.__set__
_set_source = _NodeSlots.source.__set__
_set_children = _NodeSlots.children.__set__


class NotationError(ValueError):
    """Raised by :func:`parse_notation` on malformed notation text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


# Printable ASCII other than the quote and the backslash stands for itself.
_PLAIN = re.compile(rb"[\x20-\x26\x28-\x5B\x5D-\x7E]*")


def _quote(data: bytes) -> str:
    if _PLAIN.fullmatch(data):
        return "'" + data.decode("ascii") + "'"
    out = []
    for b in data:
        if b == 0x27:
            out.append("\\'")
        elif b == 0x5C:
            out.append("\\\\")
        elif 0x20 <= b < 0x7F:
            out.append(chr(b))
        else:
            out.append(f"\\x{b:02X}")
    return "'" + "".join(out) + "'"


def serialize(node: Node) -> str:
    """Renders ``node`` in textual notation.

    Leaves carry their matched substring, inner nodes their children only.
    An explicit stack replaces recursion, so a tree of any depth prints.
    """
    parts: list[str] = []
    append = parts.append
    # Per tag, built once per call: its ``#tag[`` string, and each distinct
    # leaf text under it rendered whole.
    rendered: dict[str, tuple[str, dict[bytes, str]]] = {}
    stack = [iter((node,))]  # per open level, its children not yet written
    while stack:
        for node in stack[-1]:
            tag = node.tag
            known = rendered.get(tag)
            if known is None:
                known = rendered[tag] = (f"#{tag}[", {})
            children = node.children
            if children:
                append(known[0])
                stack.append(iter(children))
                break
            text = node.source[node.start : node.end]
            leaves = known[1]
            leaf = leaves.get(text)
            if leaf is None:
                leaf = leaves[text] = known[0] + _quote(text) + "]"
            append(leaf)
            append(" ")
        else:
            stack.pop()
            parts[-1] = "]"  # the last separator closes the level
            append(" ")
    del parts[-2:]  # the outermost level is no node
    return "".join(parts)


def equals(a: Node, b: Node) -> bool:
    """Structural equality: tags, leaf substrings and child shape; spans ignored.

    An explicit stack replaces recursion, so trees of any depth compare.
    """
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a.tag != b.tag or len(a.children) != len(b.children):
            return False
        if not a.children:
            if a.text != b.text:
                return False
        else:
            stack.extend(zip(a.children, b.children))
    return True


def to_json_dict(node: Node) -> dict[str, Any]:
    """JSON-ready form: tag, span, and leaf text or children.

    An explicit stack replaces recursion, so a tree of any depth converts.
    """
    out: list[dict[str, Any]] = []
    stack = [(iter((node,)), out)]  # per open level, its children not yet converted
    while stack:
        nodes, into = stack[-1]
        for node in nodes:
            children = node.children
            if children:
                dicts: list[dict[str, Any]] = []
                into.append(
                    {"tag": node.tag, "start": node.start, "end": node.end, "children": dicts}
                )
                stack.append((iter(children), dicts))
                break
            start, end = node.start, node.end
            text = node.source[start:end].decode("utf-8", errors="backslashreplace")
            into.append({"tag": node.tag, "start": start, "end": end, "text": text})
        else:
            stack.pop()
    return out[0]


def to_json(node: Node) -> str:
    """``json.dumps(to_json_dict(node))``, written straight from the tree.

    No dict is built.  Each tag's ``{"tag": …, "start": `` text is written
    once per call, and leaf text is the ``backslashreplace`` decoding of its
    bytes, quoted as ``json.dumps`` quotes a string.  An explicit stack
    replaces recursion, so a tree of any depth writes.
    """
    parts: list[str] = []
    append = parts.append
    heads: dict[str, str] = {}
    stack = [iter((node,))]  # per open level, its children not yet written
    while stack:
        for node in stack[-1]:
            tag = node.tag
            head = heads.get(tag)
            if head is None:
                head = heads[tag] = f'{{"tag": {_json_str(tag)}, "start": '
            children = node.children
            start, end = node.start, node.end
            if children:
                append(f'{head}{start}, "end": {end}, "children": [')
                stack.append(iter(children))
                break
            text = node.source[start:end].decode("utf-8", "backslashreplace")
            append(f'{head}{start}, "end": {end}, "text": {_json_str(text)}}}')
            append(", ")
        else:
            stack.pop()
            parts[-1] = "]}"  # the last separator closes the level
            append(", ")
    del parts[-2:]  # the outermost level is no node
    return "".join(parts)


# One token of the notation after any blanks: ``#tag[``, a quoted leaf
# (``text`` as written; without its closing quote, it stops where an escape
# goes wrong or the text ends), ``]`` or the end of the text.  The empty
# alternative matches where none of them follows the blanks, which is where
# the text goes wrong.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:"
    r"(?P<open>#(?P<tag>\w+)\[)"
    r"|(?P<leaf>'(?P<text>[^'\\]*(?:\\(?:['\\]|x[0-9A-Fa-f]{2})[^'\\]*)*)'?)"
    r"|(?P<close>\])"
    r"|(?P<end>\Z)"
    r"|)"
)
_ESCAPE = re.compile(rb"\\x(..)|\\(.)", re.S)  # in a leaf's text, encoded
# What may follow each kind of token, for the message of a text that breaks off.
_EXPECTED = {"": "'#tag['", "open": "a quoted leaf or '#tag['", "leaf": "']'", "close": "'#tag[' or ']'"}


def _unescape(escape: re.Match) -> bytes:
    return bytes([int(escape[1], 16)]) if escape[1] else escape[2]


def parse_notation(text: str) -> Node:
    """Parses textual notation back into a node shape.

    Tags, leaf substrings and structure are recovered exactly; spans are
    synthesized (leaves span their own substring, inner nodes are empty),
    so compare results with :func:`equals`, not by span.  Any other text
    raises :class:`NotationError` at the offset where it goes wrong.

    The text is read one ``_TOKEN`` at a time, with an explicit stack of the
    inner nodes still open in place of recursion, so any depth reads.
    """
    open_: list[tuple[str, list[Node]]] = []  # (tag, children read so far)
    node = None  # the last node read whole, or a leaf before its ``]``
    last = ""  # the kind of the token before
    pos = 0
    while True:
        token = _TOKEN.match(text, pos)
        kind = token.lastgroup
        if kind == "open" and last != "leaf" and (open_ or not last):
            open_.append((token["tag"], []))
        elif kind == "leaf" and last == "open":
            if token.end() == token.end("text"):
                raise NotationError("bad escape or unterminated quoted text", token.end())
            try:
                data = token["text"].encode("utf-8")
            except UnicodeEncodeError as error:  # a lone surrogate has no UTF-8 form
                at = token.start("text") + error.start
                raise NotationError("lone surrogate in quoted text", at) from None
            if b"\\" in data:
                data = _ESCAPE.sub(_unescape, data)
            node = Node(open_.pop()[0], 0, len(data), data)
        elif kind == "close" and (last == "leaf" or last == "close" and open_):
            if last == "close":  # a node with children ends here
                tag, children = open_.pop()
                node = Node(tag, 0, 0, b"", tuple(children))
            if open_:
                open_[-1][1].append(node)
        elif kind == "end" and last == "close" and not open_:
            return node
        else:
            expected = "the end of the text" if last == "close" and not open_ else _EXPECTED[last]
            raise NotationError(f"expected {expected}", token.start(kind) if kind else token.end())
        last, pos = kind, token.end()
