"""Node model, textual notation, structural equality, JSON shape."""

import copy
import dataclasses
import gc
import json
import pickle
import random
import weakref

import pytest

from pegfold.grammar import parse_grammar
from pegfold.interp import ParseSession
from pegfold.tree import Node, NotationError, equals, parse_notation, serialize, to_json_dict

MATH = """Expr = Sum
Sum = Product {@ ( '+' #add / '-' #sub ) @Product }*
Product = Value {@ ( '*' #mul / '/' #div) @Value }*
Value = { [0-9]+ #Integer } / '(' Expr ')'
"""


def leaf(tag, text):
    data = text.encode() if isinstance(text, str) else text
    return Node(tag, 0, len(data), data, ())


def test_leaf_serialization():
    assert serialize(leaf("Int", "12")) == "#Int['12']"


def test_tree_serialization_children_space_separated():
    src = b"1+2"
    one = Node("Int", 0, 1, src)
    two = Node("Int", 2, 3, src)
    add = Node("Add", 0, 3, src, (one, two))
    assert serialize(add) == "#Add[#Int['1'] #Int['2']]"


def test_inner_text_omitted_by_default_but_printable():
    src = b"1+2"
    add = Node("Add", 0, 3, src, (Node("Int", 0, 1, src), Node("Int", 2, 3, src)))
    assert "1+2" not in serialize(add)
    assert serialize(add, include_inner_text=True) == "#Add['1+2' #Int['1'] #Int['2']]"


def test_empty_leaf():
    assert serialize(Node("token", 1, 1, b"ab")) == "#token['']"


def test_quote_and_backslash_escaped():
    assert serialize(leaf("s", b"don't\\stop")) == "#s['don\\'t\\\\stop']"


def test_nonprintable_bytes_hex_escaped():
    assert serialize(leaf("s", b"a\nb\x00\xff")) == "#s['a\\x0Ab\\x00\\xFF']"


def reference_quote(data):
    """The quoting rule, one byte at a time."""
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


def test_quoting_matches_the_per_byte_rule():
    for b in range(256):
        data = bytes([b])
        assert serialize(leaf("s", data)) == f"#s[{reference_quote(data)}]", b
    rng = random.Random(7)
    for _ in range(2000):
        alphabet = rng.choice([range(256), range(0x20, 0x7F)])
        data = bytes(rng.choice(alphabet) for _ in range(rng.randrange(12)))
        assert serialize(leaf("s", data)) == f"#s[{reference_quote(data)}]", data


def test_span_must_fit_source():
    with pytest.raises(ValueError):
        Node("t", 0, 5, b"ab")
    with pytest.raises(ValueError):
        Node("t", 3, 2, b"abcd")
    with pytest.raises(ValueError):
        Node("", 0, 1, b"a")


def test_text_property_is_byte_exact():
    n = Node("x", 1, 3, b"abcd")
    assert n.text == b"bc"


def test_parse_notation_leaf():
    n = parse_notation("#Int['12']")
    assert n.tag == "Int" and n.text == b"12" and n.is_leaf()


def test_parse_notation_structure():
    n = parse_notation("#Pair[#Pair[#Term['A'] #Term['B']] #Term['C']]")
    assert n.tag == "Pair"
    assert [c.tag for c in n.children] == ["Pair", "Term"]
    assert n.children[0].children[0].text == b"A"


def test_parse_notation_rejects_empty_brackets():
    with pytest.raises(NotationError):
        parse_notation("#t[]")


@pytest.mark.parametrize(
    "bad",
    ["", "#", "#t", "#t[", "#t['x'", "#t['x'] trailing", "#t[#u['a'] 'x']", "#t['\\q']"],
)
def test_parse_notation_rejects_malformed(bad):
    with pytest.raises(NotationError):
        parse_notation(bad)


def test_notation_error_carries_position():
    with pytest.raises(NotationError) as info:
        parse_notation("#t['a' junk]")
    assert info.value.position == 7


def test_equals_identity_and_order():
    a = parse_notation("#Add[#Int['1'] #Int['2']]")
    b = parse_notation("#Add[#Int['2'] #Int['1']]")
    assert equals(a, a)
    assert not equals(a, b)


def test_equals_ignores_spans():
    x = Node("Int", 0, 2, b"12")
    y = Node("Int", 3, 5, b"...12", ())
    assert equals(x, y)


def flat_sum(last=b"1", terms=30_000):
    """The tree of ``1+1+...+last``: a left spine ``terms`` deep, past the
    recursion limit."""
    data = b"1+" * (terms - 1) + last
    return ParseSession(parse_grammar(MATH), data).parse().root


def test_equals_compares_trees_deeper_than_the_recursion_limit():
    tree = flat_sum()
    assert equals(tree, flat_sum())
    assert not equals(tree, flat_sum(last=b"2"))


def test_parse_notation_reads_trees_deeper_than_the_recursion_limit():
    text = serialize(flat_sum())
    assert text.startswith("#add[" * 29_999 + "#Integer['1'] #Integer['1']]")
    tree = parse_notation(text)
    assert equals(tree, flat_sum())
    assert serialize(tree) == text


def test_nodes_compare_by_identity():
    x = leaf("Int", "1")
    y = leaf("Int", "1")
    assert x != y and equals(x, y)
    assert x == x and hash(x) == hash(x)
    assert hash(x) != hash(y) and len({x, y}) == 2


@pytest.mark.parametrize("name", ["tag", "start", "end", "source", "children"])
def test_node_fields_are_read_only(name):
    node = Node("Add", 0, 1, b"1", (leaf("Int", "1"),))
    before = getattr(node, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(node, name, before)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(node, name)
    assert getattr(node, name) is before


def test_node_has_no_instance_dict_but_takes_weak_references():
    node = leaf("Int", "1")
    assert not hasattr(node, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.extra = 1
    ref = weakref.ref(node)
    assert ref() is node
    del node
    gc.collect()
    assert ref() is None


def test_node_copies_and_pickles_by_value():
    src = b"1+2"
    add = Node("Add", 0, 3, src, (Node("Int", 0, 1, src), Node("Int", 2, 3, src)))
    for twin in (copy.copy(add), copy.deepcopy(add), pickle.loads(pickle.dumps(add))):
        assert twin is not add and equals(twin, add)
        assert (twin.tag, twin.start, twin.end, twin.source) == ("Add", 0, 3, src)


def _random_node(rng, depth):
    tag = rng.choice(["A", "B", "tok", "tree2"])
    if depth == 0 or rng.random() < 0.4:
        text = bytes(rng.randrange(256) for _ in range(rng.randrange(6)))
        return Node(tag, 0, len(text), text, ())
    kids = tuple(_random_node(rng, depth - 1) for _ in range(rng.randint(1, 3)))
    return Node(tag, 0, 0, b"", kids)


def test_notation_round_trip_random_nodes():
    rng = random.Random(2024)
    for _ in range(300):
        node = _random_node(rng, 3)
        text = serialize(node)
        back = parse_notation(text)
        assert equals(node, back)
        assert serialize(back) == text  # fixed point


def test_json_shape():
    src = b"1+2"
    add = Node("Add", 0, 3, src, (Node("Int", 0, 1, src), Node("Int", 2, 3, src)))
    d = to_json_dict(add)
    assert json.loads(json.dumps(d)) == {
        "tag": "Add",
        "start": 0,
        "end": 3,
        "children": [
            {"tag": "Int", "start": 0, "end": 1, "text": "1"},
            {"tag": "Int", "start": 2, "end": 3, "text": "2"},
        ],
    }
