"""Syntax tree nodes and their textual notation.

A node is ``#tag`` plus a byte span over the parsed input and an ordered
tuple of children.  Leaves render with their matched substring, inner
nodes with their children only::

    #Add[#Int['1'] #Int['2']]

``serialize`` produces that notation bit-exactly (quotes and backslashes
escaped, non-printable bytes as ``\\xHH``), rendering each distinct leaf
once per call; ``parse_notation`` is its structural inverse with
synthesized spans.  ``to_json_dict`` gives a tree's JSON-ready dict form,
and ``to_json`` writes the JSON text of that form straight from the tree.
Nodes compare by identity; use :func:`equals` for structural comparison.
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


class Node:
    """Immutable tree node: tag, byte span over ``source``, children.

    A slotted class with no per-node ``__dict__``; assigning or deleting a
    field raises :class:`dataclasses.FrozenInstanceError`.  Nodes compare
    and hash by identity.
    """

    __slots__ = ("tag", "start", "end", "source", "children", "__weakref__")

    tag: str
    start: int
    end: int
    source: bytes
    children: tuple[Node, ...]

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


# __setattr__ refuses every write, so __init__, and the engine where it
# builds a node it knows to be valid, store through the slot descriptors.
_set_tag = Node.tag.__set__
_set_start = Node.start.__set__
_set_end = Node.end.__set__
_set_source = Node.source.__set__
_set_children = Node.children.__set__


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


def serialize(node: Node, include_inner_text: bool = False) -> str:
    """Renders ``node`` in textual notation.

    Leaves always carry their matched substring; substrings of inner
    nodes are omitted unless ``include_inner_text`` is set (a debug view
    that is not meant to be re-parsed).  An explicit stack replaces
    recursion, so a tree of any depth prints.
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
                if include_inner_text:
                    append(_quote(node.text) + " ")
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


class _NotationReader:
    """Recursive-descent reader for the textual notation."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> NotationError:
        return NotationError(message, self.pos)

    def skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def expect(self, ch: str) -> None:
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def read_tag(self) -> str:
        self.expect("#")
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        tag = self.text[start : self.pos]
        if not tag:
            raise self.error("expected tag name after '#'")
        self.expect("[")
        self.skip_space()
        return tag

    def read_node(self) -> Node:
        """One node and its subtree.  An explicit stack of the inner nodes
        still open replaces recursion, so any depth reads."""
        open_: list[tuple[str, list[Node]]] = []  # (tag, children read so far)
        while True:
            tag = self.read_tag()
            if self.pos < len(self.text) and self.text[self.pos] == "'":
                text = self.read_quoted()
                self.skip_space()
                self.expect("]")
                node = Node(tag, 0, len(text), text, ())
            elif self.pos < len(self.text) and self.text[self.pos] == "#":
                open_.append((tag, []))
                continue
            else:
                raise self.error("node needs a quoted substring or at least one child")
            # Close every inner node that ends here; go on with the next sibling.
            while True:
                if not open_:
                    return node
                tag, children = open_[-1]
                children.append(node)
                self.skip_space()
                if self.pos < len(self.text) and self.text[self.pos] == "#":
                    break
                self.expect("]")
                open_.pop()
                node = Node(tag, 0, 0, b"", tuple(children))

    def read_quoted(self) -> bytes:
        self.expect("'")
        out = bytearray()
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated quoted text")
            ch = self.text[self.pos]
            if ch == "'":
                self.pos += 1
                return bytes(out)
            if ch == "\\":
                self.pos += 1
                if self.pos >= len(self.text):
                    raise self.error("dangling escape")
                esc = self.text[self.pos]
                if esc == "'":
                    out.append(0x27)
                elif esc == "\\":
                    out.append(0x5C)
                elif esc == "x":
                    hexpart = self.text[self.pos + 1 : self.pos + 3]
                    if len(hexpart) != 2 or any(c not in "0123456789abcdefABCDEF" for c in hexpart):
                        raise self.error("bad \\xHH escape")
                    out.append(int(hexpart, 16))
                    self.pos += 2
                else:
                    raise self.error(f"unknown escape \\{esc}")
                self.pos += 1
            else:
                out.extend(ch.encode("utf-8"))
                self.pos += 1


def parse_notation(text: str) -> Node:
    """Parses textual notation back into a node shape.

    Tags, leaf substrings and structure are recovered exactly; spans are
    synthesized (leaves span their own substring, inner nodes are empty),
    so compare results with :func:`equals`, not by span.
    """
    reader = _NotationReader(text)
    reader.skip_space()
    node = reader.read_node()
    reader.skip_space()
    if reader.pos != len(text):
        raise reader.error("trailing text after node")
    return node
