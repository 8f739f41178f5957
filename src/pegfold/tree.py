"""Syntax tree nodes and their textual notation.

A node is ``#tag`` plus a byte span over the parsed input and an ordered
tuple of children.  Leaves render with their matched substring, inner
nodes with their children only::

    #Add[#Int['1'] #Int['2']]

``serialize`` produces that notation bit-exactly (quotes and backslashes
escaped, non-printable bytes as ``\\xHH``).  ``parse_notation`` is its
structural inverse with synthesized spans.  It reads the text with one
compiled token pattern: blanks, then ``#tag[`` (a tag is letters, digits
and ``_``, as ``\\w`` matches them), a quoted leaf, ``]`` or the end.  In
quoted text ``\\'``, ``\\\\`` and ``\\xHH`` stand for a quote, a backslash
and the byte HH, and any other character for its UTF-8 bytes; a lone
surrogate, which has none, is an error.  ``to_json_dict`` gives a tree's
JSON-ready dict form, and ``to_json`` writes the JSON text of that form
straight from the tree.  Nodes compare by identity; use :func:`equals` for
structural comparison.

Each writer is one generator that hands its text on in chunks, one per
``_CHUNK_LEVELS`` inner nodes; ``serialize`` and ``to_json`` join the
chunks, and ``pegfold parse`` prints each as it comes, so the command holds
the tree and one chunk, never the whole text.  The writers keep each tag's
heads, and its short leaves as written, from one call to the next in
tables of bounded size, so a small tree costs a lookup per node: a leaf the
tables keep is quoted at most once per process, and any other once per
call.

Inside the engine a node is a record, a plain tuple ``(tag, start, end,
source, children)`` whose ``children`` is a tuple of records: a generated
parser builds one with no call.  A :class:`Node` is an immutable view over
one record, which makes the views of its children when they are first read
and keeps them; a parse result makes the view of its root when that is
first read.  The writers and :func:`equals` walk the records, so printing
a parsed tree makes no node but its root, while a walk through the nodes
makes one view per node it reaches.  A record that a memo hit put at two
places in a tree is read through a view at each, two distinct nodes.  A
node built with ``Node(…)`` makes its record from its children's, so built
and parsed nodes mix.  It takes only what the writers carry and the
notation reads back: a tag of letters, digits and ``_``, and a ``bytes``
source.
"""

from __future__ import annotations

import re
import threading
from dataclasses import FrozenInstanceError
from json.encoder import encode_basestring_ascii as _json_str  # a str as json.dumps writes it
from typing import Any, Iterator

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

    A slotted view over one record (see the module docstring) with no
    per-node ``__dict__``; assigning or deleting a field raises
    :class:`dataclasses.FrozenInstanceError`.  Nodes compare and hash by
    identity.
    """

    __slots__ = ("_record", "_children", "__weakref__")

    def __init__(
        self, tag: str, start: int, end: int, source: bytes, children: tuple[Node, ...] = ()
    ) -> None:
        # What the writers can carry: a tag the notation reads back, and bytes.
        if not (isinstance(tag, str) and _TAG.fullmatch(tag)):
            raise ValueError(f"node tag must be letters, digits and '_', not {tag!r}")
        if not isinstance(source, bytes):
            raise TypeError(f"node source must be bytes, not {type(source).__name__}")
        if not (0 <= start <= end <= len(source)):
            raise ValueError(f"bad span {start}..{end} for {len(source)}-byte source")
        children = tuple(children)
        _set_record(self, (tag, start, end, source, tuple([kid._record for kid in children])))
        _set_children(self, children)

    @staticmethod
    def _view(record: tuple) -> Node:
        """The view over an engine-built ``record``; its children's views
        wait for the first read of ``children``."""
        node = _new(Node)
        _set_record(node, record)
        _set_children(node, None)
        return node

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # The tree as a flat preorder list, so that pickling and copying
        # follow no recursion per tree level.
        entries = []
        stack = [self._record]
        while stack:
            tag, start, end, source, kids = stack.pop()
            entries.append((tag, start, end, source, len(kids)))
            stack.extend(reversed(kids))
        return _from_preorder, (entries,)

    def __copy__(self) -> Node:
        return Node._view(self._record)  # a record never changes, so the copy shares it

    tag = property(lambda self: self._record[0])
    start = property(lambda self: self._record[1])
    end = property(lambda self: self._record[2])
    source = property(lambda self: self._record[3])

    @property
    def children(self) -> tuple[Node, ...]:
        if self._children is None:
            made = tuple(map(Node._view, self._record[4]))
            with _first_read:  # threads reading at once all get the tuple kept
                if self._children is None:
                    _set_children(self, made)
        return self._children

    @property
    def text(self) -> bytes:
        """The matched substring, byte-exact."""
        _, start, end, source, _ = self._record
        return source[start:end]

    def is_leaf(self) -> bool:
        return not self._record[4]

    def __repr__(self) -> str:
        return f"<Node {serialize(self)}>"


# __setattr__ refuses every write, so the constructors store through the
# slot descriptors.  A lazy field (a view's children, a result's root) is
# checked again and stored under ``_first_read``, so that threads reading it
# at once all get the one value it keeps.
_first_read = threading.Lock()
_new = object.__new__
_set_record = Node._record.__set__
_set_children = Node._children.__set__


def _from_preorder(entries: list[tuple[str, int, int, bytes, int]]) -> Node:
    """The view over the tree whose records ``Node.__reduce__`` listed in
    preorder, each with its number of children."""
    # Built in reverse preorder, so a record finds its children on top of
    # ``done``, its first child topmost.
    done: list[tuple] = []
    for tag, start, end, source, count in reversed(entries):
        kids = ()
        if count:
            kids = tuple(reversed(done[-count:]))
            del done[-count:]
        done.append((tag, start, end, source, kids))
    return Node._view(done[0])


class NotationError(ValueError):
    """Raised by :func:`parse_notation` on malformed notation text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


# The writers hand on their text in chunks, one each time this many inner
# nodes have opened since the last, so that a caller printing them holds the
# tree and one chunk.  A chunk ends where a node opens: the separator before
# it is final there (a level's last one becomes its closing bracket).  A
# check at every leaf as well would split a long run of leaves in one level
# too, at about twice the time; such a run goes out in one chunk.
_CHUNK_LEVELS = 256

# The writers keep, from one call to the next, each tag's ``#tag[`` and JSON
# heads and, for the notation, its short leaves as written, so a small tree
# costs a lookup per node.  The tables are filled as the walks go, at most
# ``_TAGS`` tags and ``_LEAVES`` leaves of at most ``_LEAF_BYTES`` bytes per
# tag: 0.91 MB when every tag has 16 characters and every leaf 16 bytes
# that all need escapes.  What they have no room for, a call keeps in a
# dict of its own, so it writes each such leaf once.  Entries are added
# under ``_growing``, which keeps the bounds when threads write at once.
_TAGS = 64
_LEAVES = 64
_LEAF_BYTES = 16
_NOTATION: dict[str, tuple[str, dict[bytes, str]]] = {}  # tag: (``#tag[``, leaves)
_JSON_HEADS: dict[str, str] = {}
_growing = threading.Lock()
_TAG = re.compile(r"\w+")  # a tag, as the notation reads it

# Printable ASCII other than the quote and the backslash stands for itself.
_PLAIN = re.compile(rb"[\x20-\x26\x28-\x5B\x5D-\x7E]*")
_BYTES = [chr(b) if 0x20 <= b < 0x7F else f"\\x{b:02X}" for b in range(256)]  # each byte as quoted
_BYTES[0x27], _BYTES[0x5C] = "\\'", "\\\\"


def _quote(data: bytes) -> str:
    # ``isalnum`` is true of ASCII letters and digits only, the common leaf,
    # and costs less than the pattern.
    if data.isalnum() or _PLAIN.fullmatch(data):
        return "'" + data.decode("ascii") + "'"
    return "'" + "".join([_BYTES[b] for b in data]) + "'"


def serialize(node: Node) -> str:
    """Renders ``node`` in textual notation.

    Leaves carry their matched substring, inner nodes their children only.
    An explicit stack replaces recursion, so a tree of any depth prints.
    """
    return "".join(_notation_chunks(node))


def _notation_chunks(node: Node) -> Iterator[str]:
    """``serialize(node)`` in chunks, one per ``_CHUNK_LEVELS`` inner nodes."""
    parts: list[str] = []
    append = parts.append
    table = _NOTATION
    spill: dict = {}  # what the table has no room for, for this call
    stack = [iter((node._record,))]  # per open level, its children not yet written
    countdown = _CHUNK_LEVELS
    while stack:
        for tag, start, end, source, children in stack[-1]:
            known = table.get(tag)
            if known is None:
                known = spill.get(tag) or _kept(table, tag, (f"#{tag}[", {}), spill)
            if children:
                countdown -= 1
                if not countdown:  # every part so far is final: hand them on
                    yield "".join(parts)
                    parts.clear()
                    countdown = _CHUNK_LEVELS
                append(known[0])
                stack.append(iter(children))
                break
            text = source[start:end]
            append(known[1].get(text) or _leaf(known, text, spill))
            append(" ")
        else:
            stack.pop()
            parts[-1] = "]"  # the last separator closes the level
            append(" ")
    del parts[-2:]  # the outermost level is no node
    yield "".join(parts)


def _kept(table: dict, tag: str, value, spill: dict):
    """``value`` for ``tag``, kept in the writer's ``table`` while it has room,
    else in ``spill``, the call's own."""
    with _growing:
        if len(table) < _TAGS:
            return table.setdefault(tag, value)
    spill[tag] = value
    return value


def _leaf(known: tuple[str, dict[bytes, str]], text: bytes, spill: dict) -> str:
    """The leaf ``text`` under the tag of ``known``, written: kept in the
    tag's leaves while it is short and they have room, else in ``spill``."""
    head, leaves = known
    leaf = spill.get((head, text))
    if leaf is None:
        leaf = head + _quote(text) + "]"
        with _growing:
            if len(text) <= _LEAF_BYTES and len(leaves) < _LEAVES:
                return leaves.setdefault(text, leaf)
        spill[head, text] = leaf
    return leaf


def equals(a: Node, b: Node) -> bool:
    """Structural equality: tags, leaf substrings and child shape; spans ignored.

    An explicit stack replaces recursion, so trees of any depth compare.
    """
    stack = [(a._record, b._record)]
    while stack:
        a, b = stack.pop()
        if a[0] != b[0] or len(a[4]) != len(b[4]):
            return False
        if not a[4]:
            if a[3][a[1] : a[2]] != b[3][b[1] : b[2]]:
                return False
        else:
            stack.extend(zip(a[4], b[4]))
    return True


def to_json_dict(node: Node) -> dict[str, Any]:
    """JSON-ready form: tag, span, and leaf text or children.

    An explicit stack replaces recursion, so a tree of any depth converts.
    """
    out: list[dict[str, Any]] = []
    stack = [(iter((node._record,)), out)]  # per open level, its children not yet converted
    while stack:
        records, into = stack[-1]
        for tag, start, end, source, children in records:
            if children:
                dicts: list[dict[str, Any]] = []
                into.append({"tag": tag, "start": start, "end": end, "children": dicts})
                stack.append((iter(children), dicts))
                break
            text = source[start:end].decode("utf-8", errors="backslashreplace")
            into.append({"tag": tag, "start": start, "end": end, "text": text})
        else:
            stack.pop()
    return out[0]


def to_json(node: Node) -> str:
    """``json.dumps(to_json_dict(node))``, written straight from the tree.

    No dict is built.  Each tag's ``{"tag": …, "start": `` text is made once
    and kept for later calls, and leaf text is the ``backslashreplace``
    decoding of its bytes, quoted as ``json.dumps`` quotes a string.  An
    explicit stack replaces recursion, so a tree of any depth writes.
    """
    return "".join(_json_chunks(node))


def _json_chunks(node: Node) -> Iterator[str]:
    """``to_json(node)`` in chunks, one per ``_CHUNK_LEVELS`` inner nodes."""
    parts: list[str] = []
    append = parts.append
    heads = _JSON_HEADS
    spill: dict[str, str] = {}  # what the table has no room for, for this call
    stack = [iter((node._record,))]  # per open level, its children not yet written
    countdown = _CHUNK_LEVELS
    while stack:
        for tag, start, end, source, children in stack[-1]:
            head = heads.get(tag)
            if head is None:
                head = spill.get(tag) or _kept(heads, tag, f'{{"tag": {_json_str(tag)}, "start": ', spill)
            if children:
                countdown -= 1
                if not countdown:  # every part so far is final: hand them on
                    yield "".join(parts)
                    parts.clear()
                    countdown = _CHUNK_LEVELS
                append(f'{head}{start}, "end": {end}, "children": [')
                stack.append(iter(children))
                break
            text = source[start:end].decode("utf-8", "backslashreplace")
            append(f'{head}{start}, "end": {end}, "text": {_json_str(text)}}}')
            append(", ")
        else:
            stack.pop()
            parts[-1] = "]}"  # the last separator closes the level
            append(", ")
    del parts[-2:]  # the outermost level is no node
    yield "".join(parts)


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
    inner nodes still open in place of recursion, so any depth reads.  It
    builds records, and the one view of the root.
    """
    open_: list[tuple[str, list[tuple]]] = []  # (tag, child records read so far)
    node = None  # the record of the last node read whole, or a leaf before its ``]``
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
            node = (open_.pop()[0], 0, len(data), data, ())
        elif kind == "close" and (last == "leaf" or last == "close" and open_):
            if last == "close":  # a node with children ends here
                tag, children = open_.pop()
                node = (tag, 0, 0, b"", tuple(children))
            if open_:
                open_[-1][1].append(node)
        elif kind == "end" and last == "close" and not open_:
            return Node._view(node)
        else:
            expected = "the end of the text" if last == "close" and not open_ else _EXPECTED[last]
            raise NotationError(f"expected {expected}", token.start(kind) if kind else token.end())
        last, pos = kind, token.end()
