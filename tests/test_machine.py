"""Transactional machine: save/abort/commit, replay, audit.

A commit materializes node records, the plain ``(tag, start, end, source,
children)`` tuples of ``pegfold.tree``; ``view`` shows one as a ``Node``."""

import random

import pytest

from pegfold import machine
from pegfold.machine import InternalParserError, Machine, TxMark
from pegfold.tree import Node, serialize

SRC = b"12+34"
TAG, START, END, CHILDREN = 0, 1, 2, 4  # a record's fields
view = Node._view


def record(tag, start, end, children=()):
    """A materialized node's record over ``SRC``."""
    return (tag, start, end, SRC, children)


def close_link(m, parent, index=None):
    """What a lazy ``@e`` runs as its body succeeds: links the node in the
    register into ``parent``, the node that was there when it opened, and
    puts ``parent`` back in the register."""
    m.emit_link(parent, m.left, index)
    m.left = parent


def dump_log(m):
    """The machine's pending entries as text lines."""

    def ref(r):
        if type(r) is tuple:
            return f"<{r[TAG]}>"
        return "-" if r is None else f"v{r}"

    lines = []
    for entry in m.log:
        op = entry[0]
        if op == machine._NEW:
            lines.append(f"NEW v{entry[1]} @{entry[2]}")
        elif op == machine._CAPTURE:
            lines.append(f"CAPTURE v{entry[1]} @{entry[2]}")
        elif op == machine._TAG:
            lines.append(f"TAG v{entry[1]} #{entry[2]}")
        elif op == machine._LINK:
            at = "" if entry[3] is None else f" [{entry[3]}]"
            lines.append(f"LINK v{entry[1]} <- {ref(entry[2])}{at}")
        else:
            lines.append(f"FOLD v{entry[1]} <- {ref(entry[2])} @{entry[3]}")
    return lines


def test_fresh_machine_mark():
    m = Machine()
    assert m.save() == TxMark(0, None)


def test_mark_counts_entries():
    m = Machine()
    m.emit_new(0)
    m.emit_tag("Int")
    m.emit_capture(2)
    assert m.save().log_index == 3


def test_repeated_saves_equal_without_entries():
    m = Machine()
    m.emit_new(0)
    assert m.save() == m.save()


def test_abort_full_rollback():
    m = Machine()
    mark = m.save()
    m.emit_new(0)
    m.emit_capture(2)
    m.abort(mark)
    assert m.log == [] and m.left is None


def test_abort_with_no_new_entries_is_noop():
    m = Machine()
    m.emit_new(0)
    before = list(m.log)
    mark = m.save()
    m.abort(mark)
    assert m.log == before and m.left == 0


def test_nested_abort_keeps_outer_entries():
    m = Machine()
    m.emit_new(0)
    outer = m.save()
    m.emit_tag("Keep")
    inner = m.save()
    m.emit_tag("Drop")
    m.emit_capture(1)
    m.abort(inner)
    assert dump_log(m) == ["NEW v0 @0", "TAG v0 #Keep"]
    m.abort(outer)
    assert dump_log(m) == ["NEW v0 @0"]


def test_abort_restores_left():
    m = Machine()
    m.emit_new(0)
    mark = m.save()
    m.emit_new(1)
    assert m.left == 1
    m.abort(mark)
    assert m.left == 0 and dump_log(m) == ["NEW v0 @0"]


def test_commit_tag_capture():
    m = Machine()
    mark = m.save()
    m.emit_new(0)
    m.emit_tag("Int")
    m.emit_capture(2)
    node = m.commit(mark, SRC)
    assert serialize(view(node)) == "#Int['12']"
    assert node[START] == 0 and node[END] == 2
    assert m.left is node
    assert m.log == []


def test_commit_default_tags():
    m = Machine()
    mark = m.save()
    m.emit_new(0)
    m.emit_capture(2)
    assert m.commit(mark, SRC)[TAG] == "token"

    m2 = Machine()
    mark2 = m2.save()
    m2.emit_new(0)
    parent = m2.left
    m2.emit_new(0)
    m2.emit_capture(2)
    close_link(m2, parent)
    m2.emit_capture(5)
    assert m2.commit(mark2, SRC)[TAG] == "tree"


def test_duplicate_tagging_overrides():
    m = Machine()
    mark = m.save()
    m.emit_new(0)
    m.emit_tag("Int")
    m.emit_tag("Long")
    m.emit_capture(2)
    assert m.commit(mark, SRC)[TAG] == "Long"


def test_indexed_links_override_and_reorder():
    m = Machine()
    mark = m.save()
    m.emit_new(0)  # v0 parent

    def child(start, end, idx):
        parent = m.left
        m.emit_new(start)
        m.emit_capture(end)
        close_link(m, parent, idx)

    child(0, 2, 1)   # "12" at index 1
    child(3, 5, 0)   # "34" at index 0
    m.emit_capture(5)
    node = m.commit(mark, SRC)
    assert serialize(view(node)) == "#tree[#token['34'] #token['12']]"


def test_index_gap_dropped_when_unfilled():
    m = Machine()
    mark = m.save()
    m.emit_new(0)
    parent = m.left
    m.emit_new(0)
    m.emit_capture(2)
    close_link(m, parent, 2)  # children 0 and 1 never filled
    m.emit_capture(2)
    node = m.commit(mark, SRC)
    assert [c.text for c in view(node).children] == [b"12"]


def test_fold_adopts_prior_left_as_first_child():
    m = Machine()
    mark = m.save()
    m.emit_new(0)
    m.emit_tag("Int")
    m.emit_capture(2)
    m.emit_fold(2)
    m.emit_tag("Add")
    parent = m.left
    m.emit_new(3)
    m.emit_tag("Int")
    m.emit_capture(5)
    close_link(m, parent)
    m.emit_capture(5)
    node = m.commit(mark, SRC)
    assert serialize(view(node)) == "#Add[#Int['12'] #Int['34']]"
    # span of the fold node opens at the fold point by default
    assert node[START] == 2 and node[END] == 5


def test_fold_without_prior_left_has_no_first_child():
    m = Machine()
    mark = m.save()
    m.emit_fold(0)
    m.emit_capture(2)
    node = m.commit(mark, SRC)
    assert node[CHILDREN] == () and node[TAG] == "token"


def test_link_suppressed_without_parent():
    m = Machine()
    parent = m.left        # nothing
    m.emit_new(0)
    m.emit_capture(2)
    close_link(m, parent)
    assert m.left is None
    assert not any(line.startswith("LINK") for line in dump_log(m))


def test_link_suppressed_when_body_built_nothing():
    m = Machine()
    m.emit_new(0)
    close_link(m, m.left)  # left unchanged: erroneous self-connection, ignored
    assert m.left == 0
    assert not any(line.startswith("LINK") for line in dump_log(m))


def test_node_can_gain_two_fold_parents_after_refused_cycle():
    # x is adopted by fold N, the cyclic link N->x is refused handing x
    # back, and a second fold adopts x again: x sits under both parents,
    # and each fold's first-child chain still leads to x.
    m = Machine()
    m.emit_new(0)        # x = v0
    m.emit_capture(1)
    parent = m.left
    m.emit_fold(1)       # N = v1 adopts x
    m.emit_capture(2)
    close_link(m, parent)  # refused: N already contains x
    assert m.left == 0
    m.emit_fold(2)       # N2 = v2 adopts x again
    m.emit_capture(3)
    root = m.commit(TxMark(0, None), SRC)
    assert serialize(view(root)) == "#tree[#token['1']]"
    assert m.created == 3  # x, the orphaned N, and N2


def test_link_refused_when_it_would_close_a_cycle():
    m = Machine()
    m.emit_new(0)          # v0
    parent = m.left
    m.emit_fold(1)         # v1 adopts v0
    m.emit_capture(2)
    close_link(m, parent, 0)  # v1 into v0 would make v0 its own descendant
    assert m.left == 0
    assert not any(line.startswith("LINK") for line in dump_log(m))
    mark = TxMark(0, None)
    m.emit_capture(2)
    root = m.commit(mark, SRC)  # replays cleanly, no cycle
    assert root[CHILDREN] == ()


def test_link_refused_when_parent_is_two_folds_deep():
    m = Machine()
    m.emit_new(0)          # v0
    parent = m.left
    m.emit_fold(1)         # v1 adopts v0
    m.emit_fold(1)         # v2 adopts v1
    m.emit_capture(2)
    close_link(m, parent)  # v0 sits two folds down inside v2
    assert m.left == 0
    assert not any(line.startswith("LINK") for line in dump_log(m))
    m.emit_capture(2)
    assert m.commit(TxMark(0, None), SRC)[CHILDREN] == ()


def test_link_accepted_when_a_constructor_breaks_the_fold_chain():
    m = Machine()
    m.emit_new(0)          # v0
    m.emit_capture(5)
    parent = m.left
    m.emit_fold(0)         # v1 adopts v0, then is dropped by the constructor
    m.emit_new(0)          # v2
    m.emit_capture(2)
    m.emit_fold(2)         # v3 adopts v2: its chain ends at v2, not v0
    m.emit_capture(3)
    close_link(m, parent)
    assert dump_log(m)[-1] == "LINK v0 <- v3"
    root = m.commit(TxMark(0, None), SRC)
    assert serialize(view(root)) == "#tree[#tree[#token['12']]]"


def test_link_accepted_after_aborting_a_refused_cycle():
    m = Machine()
    m.emit_new(0)          # v0
    mark = m.save()
    parent = m.left
    m.emit_fold(1)         # v1 adopts v0
    m.emit_capture(2)
    close_link(m, parent)  # refused
    m.abort(mark)          # v1's chain entry stays behind, unused
    parent = m.left
    m.emit_new(0)          # v2
    m.emit_capture(2)
    close_link(m, parent)
    assert dump_log(m) == ["NEW v0 @0", "NEW v2 @0", "CAPTURE v2 @2", "LINK v0 <- v2"]
    m.emit_capture(5)
    assert serialize(view(m.commit(TxMark(0, None), SRC))) == "#tree[#token['12']]"


def test_commit_replays_only_since_mark():
    m = Machine()
    m.emit_new(0)
    parent = m.left
    mark = m.save()
    m.emit_new(1)
    m.emit_tag("Inner")
    m.emit_capture(2)
    node = m.commit(mark, SRC)
    assert serialize(view(node)) == "#Inner['2']"
    # the outer NEW is still pending
    assert dump_log(m) == ["NEW v0 @0"]
    close_link(m, parent)  # the committed node links as a materialized child
    assert m.left == 0
    assert dump_log(m) == ["NEW v0 @0", "LINK v0 <- <Inner>"]


def test_commit_is_pure_over_the_entry_range():
    def run():
        m = Machine()
        mark = m.save()
        m.emit_new(0)
        parent = m.left
        m.emit_new(0)
        m.emit_tag("A")
        m.emit_capture(2)
        close_link(m, parent)
        m.emit_tag("B")
        m.emit_capture(5)
        return serialize(view(m.commit(mark, SRC)))

    assert run() == run() == "#B[#A['12']]"


def test_materialized_node_is_never_a_mutation_target():
    m = Machine()
    m.left = record("done", 0, 1)
    with pytest.raises(InternalParserError):
        m.emit_tag("X")
    with pytest.raises(InternalParserError):
        m.emit_capture(1)
    m2 = Machine()
    parent = m2.left = record("done", 0, 1)
    m2.emit_new(1)
    m2.emit_capture(2)
    with pytest.raises(InternalParserError):
        m2.emit_link(parent, m2.left, None)
    with pytest.raises(InternalParserError):  # a materialized child too
        m2.emit_link(parent, record("memo", 1, 2), 0)


def test_materialized_children_allowed_in_links():
    m = Machine()
    done = record("memo", 0, 2)
    mark = m.save()
    m.emit_new(0)
    m.emit_link(m.left, done, None)
    assert m.left == 0  # a link leaves the register to its caller
    m.emit_capture(5)
    node = m.commit(mark, SRC)
    assert node[CHILDREN][0] is done and len(node[CHILDREN]) == 1


def test_dangling_vid_is_an_internal_error():
    m = Machine()
    m.emit_new(0)
    mark = m.save()
    m.emit_tag("X")  # targets v0, which is outside the committed range
    m.left = 0
    with pytest.raises(InternalParserError):
        m.commit(mark, SRC)


def test_commit_refuses_a_link_cycle():
    # emit_link refuses the cycles the engine can build; commit's guard
    # catches any other log in which two nodes contain each other.
    m = Machine()
    m.log = [
        (machine._NEW, 0, 0),
        (machine._NEW, 1, 0),
        (machine._LINK, 0, 1, None),
        (machine._LINK, 1, 0, None),
    ]
    m.first = [None, None]
    m.left = 0
    assert dump_log(m) == ["NEW v0 @0", "NEW v1 @0", "LINK v0 <- v1", "LINK v1 <- v0"]
    with pytest.raises(InternalParserError, match="cyclic link structure"):
        m.commit(TxMark(0, None), SRC)


def test_whole_log_commit_resets_the_first_child_list():
    m = Machine()
    m.emit_new(0)
    parent = m.left
    mark = m.save()
    m.emit_new(1)
    m.emit_capture(2)
    m.commit(mark, SRC)  # the log still holds v0
    assert m.first == [None, None]
    close_link(m, parent)
    m.emit_capture(5)
    root = m.commit(TxMark(0, None), SRC)
    assert m.first == [] and m.log == [] and m.left is root
    m.emit_new(0)
    assert m.left == 0  # virtual ids start again at v0


def test_orphan_records_still_materialize():
    m = Machine()
    mark = m.save()
    m.emit_new(0)
    m.emit_capture(1)
    m.emit_new(1)  # replaces left; first node is orphaned
    m.emit_capture(2)
    m.commit(mark, SRC)
    assert m.created == 2


# -- local folds over a virtual id ------------------------------------------------


def test_a_local_fold_over_a_virtual_id_logs_its_links_tag_and_capture():
    m = Machine()
    m.emit_new(0)
    m.emit_capture(2)  # v0: a lazily built first child
    one, two = record("d", 3, 4), record("d", 4, 5)
    m.emit_local_fold(2, 5, "Add", [one, [0, two]])
    assert dump_log(m)[2:] == [
        "FOLD v1 <- v0 @2",
        "LINK v1 <- <d>",
        "LINK v1 <- <d> [0]",
        "TAG v1 #Add",
        "CAPTURE v1 @5",
    ]
    root = m.commit(TxMark(0, None), SRC)
    # the indexed link replaced the first child, as a commit replays it
    assert serialize(view(root)) == "#Add[#d['4'] #d['3']]"
    assert (root[START], root[END]) == (2, 5)


def test_place_links_puts_indexed_links_and_drops_gaps():
    first, a, b, c = (record("d", i, i + 1) for i in range(4))
    assert machine.place_links(first, [a, b]) == (first, a, b)
    assert machine.place_links(None, [[3, a], [1, b], [3, c]]) == (b, c)
    assert machine.place_links(first, [a, [0, b]]) == (b, a)


def gap_list_placement(first, links):
    """The reference rule: a list grown with gaps up to each index, an
    indexed link written into its slot, an append at the end, and the gaps
    left out."""
    gap = object()
    children = [] if first is None else [first]
    for link in links:
        if type(link) is list:
            index, child = link
            if len(children) <= index:
                children.extend([gap] * (index + 1 - len(children)))
            children[index] = child
        else:
            children.append(link)
    return tuple(child for child in children if child is not gap)


def test_place_links_follows_the_gap_list_rule():
    rng = random.Random(16)
    nodes = [record("d", i, i + 1) for i in range(5)]
    seen = {"first overwritten": 0, "append after an index": 0, "overwrite": 0}
    for _ in range(3000):
        first = rng.choice((None, nodes[0]))
        links = [
            rng.choice(nodes) if rng.random() < 0.4 else [rng.randint(0, 5), rng.choice(nodes)]
            for _ in range(rng.randint(0, 7))
        ]
        assert machine.place_links(first, links) == gap_list_placement(first, links)
        indexes = [link[0] for link in links if type(link) is list]
        seen["first overwritten"] += first is not None and 0 in indexes
        seen["overwrite"] += len(set(indexes)) < len(indexes)
        seen["append after an index"] += any(
            type(a) is list and type(b) is not list for a, b in zip(links, links[1:])
        )
    assert min(seen.values()) > 100, seen


def test_dump_log_format():
    m = Machine()
    m.emit_new(0)
    parent = m.left
    m.emit_new(1)
    m.emit_tag("Int")
    m.emit_capture(2)
    close_link(m, parent, 3)
    assert dump_log(m) == [
        "NEW v0 @0",
        "NEW v1 @1",
        "TAG v1 #Int",
        "CAPTURE v1 @2",
        "LINK v0 <- v1 [3]",
    ]
