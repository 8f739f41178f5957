"""The transactional node-construction machine.

Node mutations are never applied while parsing.  They are appended to a
log; backtracking truncates the log (``abort``) and a ``commit`` replays
the surviving entries into real :class:`~pegfold.tree.Node` objects.
Register effects that the parser must observe immediately (the left
node reference and the parent stack) are applied eagerly and restored
from transaction marks.

Five entry kinds exist.  ``NEW``/``FOLD`` introduce a virtual node id,
``CAPTURE`` sets its end offset, ``TAG`` overrides its tag, ``LINK``
attaches a child (at the append position or a given index; later writes
to the same index win).  A fold entry additionally records the node that
becomes the new node's first child.

Already-materialized nodes are immutable: any logged mutation targeting
one is an engine bug and raises :class:`InternalParserError`.  Link
entries may reference materialized nodes as children only.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .tree import Node

__all__ = [
    "Machine",
    "TxMark",
    "InternalParserError",
]

# NodeRef: None (no node), int (virtual id, not yet materialized), Node.
NodeRef = Union[None, int, Node]

_NEW, _CAPTURE, _TAG, _LINK, _FOLD = range(5)
_OPNAMES = ("NEW", "CAPTURE", "TAG", "LINK", "FOLD")


class InternalParserError(Exception):
    """An engine invariant broke; never caused by user grammars or input."""


class TxMark(NamedTuple):
    """Snapshot of the machine registers at a transaction start."""

    log_index: int
    left: NodeRef
    stack_depth: int


class Machine:
    """One parse session's construction state.  Not thread-safe."""

    __slots__ = ("log", "stack", "left", "next_vid", "created", "attached")

    def __init__(self) -> None:
        self.log: list[tuple] = []
        self.stack: list[NodeRef] = []
        self.left: NodeRef = None
        self.next_vid = 0
        self.created = 0
        # attached[x] = parents that pending node x was folded or linked
        # into (a node can gain several fold parents when a refused cyclic
        # connection hands it back).  Consulted to refuse connections that
        # would close a cycle; edges roll back with their log entries.
        self.attached: dict[int, list[int]] = {}

    # -- transactions ------------------------------------------------------

    def save(self) -> TxMark:
        return TxMark(len(self.log), self.left, len(self.stack))

    def abort(self, mark: TxMark) -> None:
        """Discards entries and register changes made since ``mark``."""
        log = self.log
        for i in range(mark.log_index, len(log)):
            entry = log[i]
            op = entry[0]
            if (op == _LINK or op == _FOLD) and isinstance(entry[2], int):
                self._detach(entry[2], entry[1])
        del log[mark.log_index :]
        del self.stack[mark.stack_depth :]
        self.left = mark.left

    def _attach(self, child: int, parent: int) -> None:
        self.attached.setdefault(child, []).append(parent)

    def _detach(self, child: int, parent: int) -> None:
        parents = self.attached.get(child)
        if parents is not None:
            parents.remove(parent)
            if not parents:
                del self.attached[child]

    # -- emit family (register effects eager, node mutations logged) -------

    def emit_new(self, pos: int) -> None:
        vid = self.next_vid
        self.next_vid = vid + 1
        self.log.append((_NEW, vid, pos))
        self.left = vid

    def emit_fold(self, pos: int) -> None:
        vid = self.next_vid
        self.next_vid = vid + 1
        prior = self.left
        self.log.append((_FOLD, vid, prior, pos))
        if isinstance(prior, int):
            self._attach(prior, vid)
        self.left = vid

    def emit_capture(self, pos: int) -> None:
        left = self.left
        if left is None:
            raise InternalParserError("capture with no node under construction")
        if isinstance(left, Node):
            raise InternalParserError("capture targets a materialized node")
        self.log.append((_CAPTURE, left, pos))

    def emit_tag(self, name: str) -> None:
        left = self.left
        if left is None:
            return  # no node under construction; tagging does nothing
        if isinstance(left, Node):
            raise InternalParserError("tag targets a materialized node")
        self.log.append((_TAG, left, name))

    def push_left(self) -> None:
        self.stack.append(self.left)

    def pop_left(self) -> None:
        self.left = self.stack.pop()

    def emit_link(self, index: int | None) -> None:
        """Closes ``@e``: links the node built by the body into the parent.

        Erroneous connections are ignored: when the body built nothing
        (left unchanged), when there is no parent to attach to, and when
        the attachment would make the parent a descendant of itself
        (possible when the body folded the parent away).
        """
        child = self.left
        parent = self.stack.pop()
        if child != parent and parent is not None:
            if isinstance(parent, Node):
                raise InternalParserError("link targets a materialized parent")
            if not (isinstance(child, int) and self._encloses(child, parent)):
                self.log.append((_LINK, parent, child, index))
                if isinstance(child, int):
                    self._attach(child, parent)
        self.left = parent

    def _encloses(self, node: int, candidate: int) -> bool:
        """True when ``candidate`` is already inside ``node``.

        Walks upward from ``candidate`` through the pending-attachment
        edges; reaching ``node`` means ``node`` transitively contains it.
        """
        attached = self.attached
        stack = [candidate]
        seen: set[int] = set()
        while stack:
            cursor = stack.pop()
            if cursor == node:
                return True
            if cursor in seen:
                continue
            seen.add(cursor)
            parents = attached.get(cursor)
            if parents:
                stack.extend(parents)
        return False

    def emit_link_node(self, node: Node, index: int | None) -> None:
        """Links an already-materialized node (a memoized result)."""
        parent = self.stack.pop()
        if parent is not None:
            if isinstance(parent, Node):
                raise InternalParserError("link targets a materialized parent")
            self.log.append((_LINK, parent, node, index))
        self.left = parent

    # -- commit ------------------------------------------------------------

    def commit(self, mark: TxMark, source: bytes) -> Node:
        """Replays entries made since ``mark`` and materializes the left node.

        Entry order is replay order: later tags override earlier ones,
        indexed links overwrite the same slot, unfilled index gaps are
        dropped.  Virtual ids referenced but not introduced in the range
        (and not materialized already) are engine bugs.
        """
        base = mark.log_index
        recs: dict[int, list] = {}  # vid -> [tag, start, end, children]
        for entry in self.log[base:]:
            op = entry[0]
            if op == _NEW:
                recs[entry[1]] = [None, entry[2], None, []]
            elif op == _CAPTURE:
                rec = recs.get(entry[1])
                if rec is None:
                    raise InternalParserError("capture of a node outside the transaction")
                rec[2] = entry[2]
            elif op == _TAG:
                rec = recs.get(entry[1])
                if rec is None:
                    raise InternalParserError("tag of a node outside the transaction")
                rec[0] = entry[2]
            elif op == _LINK:
                rec = recs.get(entry[1])
                if rec is None:
                    raise InternalParserError("link into a node outside the transaction")
                children = rec[3]
                child, index = entry[2], entry[3]
                if index is None:
                    children.append(child)
                else:
                    if len(children) <= index:
                        children.extend([_GAP] * (index + 1 - len(children)))
                    children[index] = child
            else:  # _FOLD: the span opens at the fold point, after the first child
                first = entry[2]
                recs[entry[1]] = [None, entry[3], None, [] if first is None else [first]]
        del self.log[base:]

        built: dict[int, Node] = {}

        def build(vid: int, active: set[int]) -> Node:
            node = built.get(vid)
            if node is not None:
                return node
            if vid in active:
                raise InternalParserError("cyclic link structure")
            active.add(vid)
            tag, start, end, children = recs[vid]
            resolved = []
            for child in children:
                if child is _GAP:
                    continue
                if isinstance(child, Node):
                    resolved.append(child)
                elif child in recs:
                    resolved.append(build(child, active))
                else:
                    raise InternalParserError("link references a node outside the transaction")
            active.discard(vid)
            if end is None:
                end = start  # never captured: a fold stole the register first
            if tag is None:
                tag = "tree" if resolved else "token"
            node = Node(tag, start, end, source, tuple(resolved))
            built[vid] = node
            self.created += 1
            return node

        for vid in recs:
            build(vid, set())

        left = self.left
        if isinstance(left, Node):
            root = left
        elif isinstance(left, int):
            root = built.get(left)
            if root is None:
                raise InternalParserError("left register does not resolve inside the transaction")
        else:
            raise InternalParserError("commit with no node under construction")
        self.left = root
        return root

    # -- diagnostics ---------------------------------------------------------

    def dump_log(self) -> list[str]:
        """The pending entries as text lines, for debugging."""

        def ref(r: NodeRef) -> str:
            if isinstance(r, Node):
                return f"<{r.tag}>"
            return "-" if r is None else f"v{r}"

        lines = []
        for entry in self.log:
            op = entry[0]
            if op == _NEW:
                lines.append(f"NEW v{entry[1]} @{entry[2]}")
            elif op == _CAPTURE:
                lines.append(f"CAPTURE v{entry[1]} @{entry[2]}")
            elif op == _TAG:
                lines.append(f"TAG v{entry[1]} #{entry[2]}")
            elif op == _LINK:
                at = "" if entry[3] is None else f" [{entry[3]}]"
                lines.append(f"LINK v{entry[1]} <- {ref(entry[2])}{at}")
            else:
                lines.append(f"FOLD v{entry[1]} <- {ref(entry[2])} @{entry[3]}")
        return lines


class _Gap:
    __slots__ = ()

    def __repr__(self) -> str:
        return "<gap>"


_GAP = _Gap()
