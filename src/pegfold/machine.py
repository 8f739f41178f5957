"""The transactional node-construction machine.

The machine serves the lazy constructors, those that something outside
their own level can still change (see :mod:`pegfold.interp`; eager ones
build their nodes from records of their own and only put them in the left
register).  Their node mutations are never applied while parsing.  They
are appended to a log; backtracking truncates the log (``abort``) and a
``commit`` replays the surviving entries into node records, the plain
tuples of :mod:`pegfold.tree`.
The one register effect that the parser must observe immediately, the
left node reference, is applied eagerly and restored from transaction
marks.  An abort is therefore a plain truncation: the log and the left
register go back to the mark, and nothing else needs undoing.  A link
keeps its parent itself, in a local of the generated code, and puts it
back in the register when its body is done.

Five entry kinds exist.  ``NEW``/``FOLD`` introduce a virtual node id,
``CAPTURE`` sets its end offset, ``TAG`` overrides its tag, ``LINK``
attaches a child, appended or at a given index.  A fold entry additionally
records the node that becomes the new node's first child.  A commit keeps
each node's links in link order and places them with ``place_links``, as
an eager constructor does with its record: by index, a later link to an
index winning, at a cost that follows the number of links.  Node
references compare by identity, here and in the generated code: two
records can be equal and still be two nodes.

A link whose body folded the parent away would make the parent a
descendant of itself; such a link is refused.  The engine can only build
that cycle through a fold chain: within a link body the left register
holds the parent or a node the body's folds derived from it, and nested
links attach only into nodes derived from their own start, so the parent
is never linked under anything.  The check therefore walks the child's
first-child chain (``Machine.first``) and refuses the link when it meets
the parent.  The walk ends at the parent or at a constructor, so it
visits only folds made in that body.

A link that commits its child, at a memo point or at an eager
constructor's level, restores the left register itself, and commits, or
on failure aborts, what its body logged from the log length it started
at.  An eager ``{@ }`` whose left register holds a virtual id when it
closes cannot build its node, since its first child is not built yet:
``emit_local_fold`` logs its ``FOLD``, links, tag and capture together.

A commit from mark 0, or a parse that ends with a node in the register
and an empty log, leaves no virtual id referenced anywhere, so ``first``
is reset and freed before the caller goes on to print the tree.

Already-materialized nodes are immutable: any logged mutation targeting
one is an engine bug and raises :class:`InternalParserError`.  Link
entries may reference materialized nodes as children only.
"""

from __future__ import annotations

from typing import NamedTuple, Union

__all__ = [
    "Machine",
    "TxMark",
    "InternalParserError",
]

# NodeRef: None (no node), int (virtual id, not yet materialized), or a
# node record (``tree``'s ``(tag, start, end, source, children)`` tuple).
NodeRef = Union[None, int, tuple]

_NEW, _CAPTURE, _TAG, _LINK, _FOLD = range(5)


class InternalParserError(Exception):
    """An engine invariant broke; never caused by user grammars or input."""


class TxMark(NamedTuple):
    """Snapshot of the machine registers at a transaction start."""

    log_index: int
    left: NodeRef


class Machine:
    """One parse session's construction state.  Not thread-safe."""

    __slots__ = ("log", "left", "first", "created")

    def __init__(self) -> None:
        self.log: list[tuple] = []
        self.left: NodeRef = None
        # first[vid] = the node fold ``vid`` adopted, None for a
        # constructor; ``len(first)`` is the next virtual id.  Entries of
        # aborted nodes stay behind, harmless because an id is reused only
        # after a whole-log commit has reset the list.
        self.first: list[NodeRef] = []
        self.created = 0

    # -- transactions ------------------------------------------------------

    def save(self) -> TxMark:
        return TxMark(len(self.log), self.left)

    def abort(self, mark: TxMark) -> None:
        """Discards entries and register changes made since ``mark``."""
        del self.log[mark.log_index :]
        self.left = mark.left

    # -- emit family (register effects eager, node mutations logged) -------

    def emit_new(self, pos: int) -> None:
        """Opens a constructor."""
        vid = len(self.first)
        self.first.append(None)
        self.log.append((_NEW, vid, pos))
        self.left = vid

    def emit_fold(self, pos: int) -> None:
        """Opens a fold of the left node."""
        vid = len(self.first)
        prior = self.left
        self.first.append(prior)
        self.log.append((_FOLD, vid, prior, pos))
        self.left = vid

    def emit_capture(self, pos: int) -> None:
        left = self.left
        if left is None:
            raise InternalParserError("capture with no node under construction")
        if type(left) is tuple:
            raise InternalParserError("capture targets a materialized node")
        self.log.append((_CAPTURE, left, pos))

    def emit_local_fold(self, start: int, end: int, tag: str | None, links: list) -> None:
        """Logs a local ``{@ }`` (see the module docstring) that closed at
        ``end`` while the register held a virtual id.

        Its ``FOLD``, ``LINK`` and ``TAG`` entries and its capture are
        logged together: nothing at its level logged anything meanwhile.
        """
        self.emit_fold(start)
        vid = self.left
        log = self.log
        for link in links:
            if type(link) is list:
                log.append((_LINK, vid, link[1], link[0]))
            else:
                log.append((_LINK, vid, link, None))
        if tag is not None:
            log.append((_TAG, vid, tag))
        log.append((_CAPTURE, vid, end))

    def emit_tag(self, name: str) -> None:
        left = self.left
        if left is None:
            return  # no node under construction; tagging does nothing
        if type(left) is tuple:
            raise InternalParserError("tag targets a materialized node")
        self.log.append((_TAG, left, name))

    def emit_link(self, parent: NodeRef, child: NodeRef, index: int | None) -> None:
        """Closes ``@e``: links ``child``, the node its body built, into
        ``parent``, the node in the register when it opened.

        Erroneous connections are ignored: when the body built nothing
        (``child`` is ``parent``), when there is no parent to attach to, and
        when the attachment would make the parent a descendant of itself
        (the body folded the parent away: it lies on the child's
        first-child chain).
        """
        if child is not parent and parent is not None:
            if type(parent) is tuple:
                raise InternalParserError("link targets a materialized parent")
            first = self.first
            cursor = child
            while type(cursor) is int and cursor is not parent:
                cursor = first[cursor]
            if cursor is not parent:
                self.log.append((_LINK, parent, child, index))

    # -- commit ------------------------------------------------------------

    def commit(self, mark: TxMark, source: bytes) -> tuple:
        """Replays entries made since ``mark`` and materializes the left node
        as a record.

        Entry order is replay order: later tags override earlier ones, and
        each node's links are placed by ``place_links``.  Virtual ids
        referenced but not introduced in the range (and not materialized
        already) are engine bugs.
        """
        base = mark.log_index
        recs: dict[int, list] = {}  # vid -> [tag, start, end, first, links]
        for entry in self.log[base:]:
            op = entry[0]
            if op == _NEW:
                recs[entry[1]] = [None, entry[2], None, None, []]
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
                rec[4].append(entry[2] if entry[3] is None else [entry[3], entry[2]])
            else:  # _FOLD: the span opens at the fold point, after the first child
                recs[entry[1]] = [None, entry[3], None, entry[2], []]
        del self.log[base:]

        built: dict[int, object] = {}  # vid -> its record, or _BUILDING while in progress

        def build(vid: int) -> tuple:
            node = built.get(vid)
            if node is not None:
                if node is _BUILDING:
                    raise InternalParserError("cyclic link structure")
                return node
            built[vid] = _BUILDING
            tag, start, end, first, links = recs[vid]
            resolved = []
            for child in place_links(first, links):
                if type(child) is tuple:
                    resolved.append(child)
                elif child in recs:
                    resolved.append(build(child))
                else:
                    raise InternalParserError("link references a node outside the transaction")
            if end is None:
                end = start  # never captured: a fold stole the register first
            if tag is None:
                tag = "tree" if resolved else "token"
            node = built[vid] = (tag, start, end, source, tuple(resolved))
            return node

        for vid in recs:
            build(vid)
        # Break build's self-reference: recs and built then go on return, so
        # the peak memory of a parse does not depend on when the collector runs.
        del build
        self.created += len(recs)

        left = self.left
        if type(left) is tuple:
            root = left
        elif type(left) is int:
            root = built.get(left)
            if root is None:
                raise InternalParserError("left register does not resolve inside the transaction")
        else:
            raise InternalParserError("commit with no node under construction")
        if base == 0:
            # Nothing refers to a virtual id any more: the log is empty and
            # the left register holds a node.
            self.first = []
        self.left = root
        return root


def place_links(first: NodeRef, links: list) -> tuple:
    """A node's children in index order: ``first``, a fold's first child, at
    index 0, and ``links`` in link order, each a child appended or an
    ``[index, child]`` list, not a tuple as a child record is, put at its
    index.  A later link to an index wins; an append goes one past the
    highest index placed so far, so an index that nothing filled leaves no
    child."""
    if first is None:
        slots, end = {}, 0
    else:
        slots, end = {0: first}, 1
    for link in links:
        if type(link) is list:
            index, child = link
            slots[index] = child
            if index >= end:
                end = index + 1
        else:
            slots[end] = link
            end += 1
    return tuple([slots[index] for index in sorted(slots)])


_BUILDING = object()  # a node whose children commit is building
