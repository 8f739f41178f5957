"""Node model, textual notation, structural equality, JSON shape."""

import copy
import dataclasses
import gc
import json
import pickle
import random
import sys
import threading
import weakref

import pytest
from corpus import ENGINE_STEPS, benchmark_grammars, make_corpus

import pegfold
import pegfold.cli
import pegfold.tree
from pegfold.grammar import parse_grammar
from pegfold.interp import ParseError, ParseResult, ParseSession, StepLimitExceeded
from pegfold.machine import Machine
from pegfold.tree import (
    Node,
    NotationError,
    equals,
    parse_notation,
    serialize,
    to_json,
    to_json_dict,
)

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


def test_inner_text_omitted():
    src = b"1+2"
    add = Node("Add", 0, 3, src, (Node("Int", 0, 1, src), Node("Int", 2, 3, src)))
    assert "1+2" not in serialize(add)
    with pytest.raises(TypeError):  # the inner-text view is gone
        serialize(add, include_inner_text=True)


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


# What a notation mutation inserts: the notation's punctuation, escapes whole
# and broken, blanks, non-ASCII letters and a lone surrogate.
NOTATION_PIECES = (
    "#", "[", "]", "'", "\\", "\\x", "\\x4F", "\\xg", " ", "\t", "\n", "é", "Ж", "λ", "\ud800",
)  # fmt: skip


def notation_texts():
    """Serialized trees: of small inputs of the math and JSON-like benchmark
    grammars, and of corpus seeds 100-102."""
    workloads = benchmark_grammars()
    small = workloads.many_small(workloads.DEFAULT_SEEDS["many-small"])
    math = parse_grammar(small.grammar)
    texts = {serialize(ParseSession(math, data).parse().root) for data in small.inputs[:20]}
    doc = workloads.json_doc(workloads.DEFAULT_SEEDS["json-doc"])
    values = ParseSession(parse_grammar(doc.grammar), doc.inputs[0]).parse().root.children
    texts.update(text for text in map(serialize, values[:60]) if len(text) <= 400)
    for seed in range(100, 103):
        for _, grammar, data in make_corpus(seed, 60):
            try:
                texts.add(serialize(ParseSession(grammar, data, max_steps=ENGINE_STEPS).parse().root))
            except (ParseError, StepLimitExceeded):
                pass
    return sorted(texts)


def mutate_notation(text, rng):
    """``text`` after one to three edits: one or two ``NOTATION_PIECES``
    inserted, one to three characters deleted, or one replaced by a piece.
    Half of them land just after a quote, a bracket or a backslash."""
    for _ in range(rng.randint(1, 3)):
        sites = [at + 1 for at, ch in enumerate(text) if ch in "'[\\"]
        at = rng.choice(sites) if sites and rng.random() < 0.5 else rng.randint(0, len(text))
        roll = rng.random()
        if roll < 0.5:
            text = text[:at] + "".join(rng.choices(NOTATION_PIECES, k=rng.randint(1, 2))) + text[at:]
        elif roll < 0.75:
            text = text[:at] + text[at + rng.randint(1, 3) :]
        else:
            text = text[:at] + rng.choice(NOTATION_PIECES) + text[at + 1 :]
    return text


def test_mutated_notation_reads_back_or_fails_with_a_notation_error():
    rng = random.Random(19)
    texts = notation_texts()
    read = 0
    for _ in range(2000):
        text = mutate_notation(rng.choice(texts), rng)
        try:
            node = parse_notation(text)
        except NotationError as error:
            assert 0 <= error.position <= len(text), text
            continue
        assert equals(parse_notation(serialize(node)), node), text
        read += 1
    assert 100 < read < 1900  # both outcomes are exercised


@pytest.mark.parametrize(
    "text, position",
    [("#t['\ud800']", 4), ("#t[#u['ab\udfffc']]", 9), ("#t['\\x41\ud800']", 8)],
)
def test_a_lone_surrogate_in_quoted_text_is_a_notation_error(text, position):
    with pytest.raises(NotationError) as info:
        parse_notation(text)
    assert info.value.position == position


def test_notation_escapes_read_as_bytes():
    assert parse_notation("#t['\\'\\\\\\x00\\xfFé\\x41']").text == b"'\\\x00\xff\xc3\xa9A"
    assert parse_notation(" \t#_٣[\n#b['']\r]\n").tag == "_٣"


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


def spans(root):
    """Each node's span, in preorder."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append((node.start, node.end))
        stack.extend(reversed(node.children))
    return out


def test_trees_deeper_than_the_recursion_limit_pickle_and_copy():
    tree = flat_sum()
    for twin in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)):
        assert twin is not tree and equals(twin, tree)
        assert spans(twin) == spans(tree)


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


# -- serialize renders each distinct leaf once --------------------------------


def under(*children, tag="P"):
    return Node(tag, 0, 0, b"", children)


@pytest.mark.parametrize(
    "tree, text",
    [
        (under(leaf("A", "x"), leaf("B", "x"), leaf("A", "x")), "#P[#A['x'] #B['x'] #A['x']]"),
        (under(leaf("A", "x"), leaf("A", "y"), leaf("A", "x")), "#P[#A['x'] #A['y'] #A['x']]"),
        (
            under(leaf("A", b"it's"), leaf("A", b"\\\x00\xff"), leaf("A", b"it's")),
            "#P[#A['it\\'s'] #A['\\\\\\x00\\xFF'] #A['it\\'s']]",
        ),
        # equal texts from two source buffers, at different offsets
        (under(Node("A", 0, 1, b"xy"), Node("A", 1, 2, b"yx")), "#P[#A['x'] #A['x']]"),
        (under(under(leaf("A", "x"), tag="Q"), leaf("Q", "x")), "#P[#Q[#A['x']] #Q['x']]"),
        (leaf("A", "x"), "#A['x']"),
    ],
)
def test_serialize_repeated_and_distinct_leaves(tree, text):
    assert serialize(tree) == text


def test_serialize_quotes_each_distinct_leaf_once(monkeypatch):
    workloads = benchmark_grammars()
    workload = workloads.math_wide(workloads.DEFAULT_SEEDS["math-wide"])
    root = ParseSession(parse_grammar(workload.grammar), workload.inputs[0]).parse().root
    quoted = []

    def counting(data):
        quoted.append(data)
        return quote(data)

    quote = pegfold.tree._quote
    expected = serialize(root)
    monkeypatch.setattr(pegfold.tree, "_quote", counting)
    assert serialize(root) == expected
    # every leaf is an #Integer of one digit
    assert sorted(quoted) == [str(d).encode() for d in range(10)]
    assert workload.check(0, expected)


# -- to_json writes what json.dumps writes -----------------------------------


def reference_dumps(value) -> str:
    """``json.dumps(value)`` for dicts, lists, strings and ints nested to any
    depth: one value at a time from an explicit stack, each scalar through
    ``json.dumps`` itself."""
    parts = []
    todo = [value]  # values to write, and text to write as it is, the next one last
    while todo:
        value = todo.pop()
        if isinstance(value, dict):
            todo.append(("}",))
            for n, (key, item) in enumerate(reversed(value.items())):
                todo.append(item)
                todo.append((("" if n == len(value) - 1 else ", ") + json.dumps(key) + ": ",))
            todo.append(("{",))
        elif isinstance(value, list):
            todo.append(("]",))
            for n, item in enumerate(reversed(value)):
                todo.append(item)
                if n != len(value) - 1:
                    todo.append((", ",))
            todo.append(("[",))
        elif isinstance(value, tuple):
            parts.append(value[0])
        else:
            parts.append(json.dumps(value))
    return "".join(parts)


def corpus_trees():
    for _, grammar, data in make_corpus(100, 300):
        try:
            yield ParseSession(grammar, data, max_steps=ENGINE_STEPS).parse().root
        except (ParseError, StepLimitExceeded):
            pass


def test_to_json_writes_what_json_dumps_writes_over_the_corpus():
    count = 0
    for root in corpus_trees():
        expected = json.dumps(to_json_dict(root))
        assert to_json(root) == expected
        assert reference_dumps(to_json_dict(root)) == expected
        count += 1
    assert count > 100


def engine_trees():
    """Trees of the math, JSON-like and corpus grammars, a token root among
    them; the corpus has lazy constructors, which a commit builds."""
    yield ParseSession(parse_grammar(MATH), b"(1+2)*3-4/(5+6)").parse().root
    json_like = parse_grammar(benchmark_grammars().JSON_LIKE)
    data = b'{"a": [1, -2.5e3, true], "b": "x\\"y", "c": null}'
    yield ParseSession(json_like, data).parse().root
    yield ParseSession(parse_grammar("S = 'a'+"), b"aaa").parse().root
    yield from corpus_trees()


def test_engine_built_nodes_keep_the_node_contract(monkeypatch):
    commits = []
    commit = Machine.commit
    monkeypatch.setattr(
        Machine, "commit", lambda self, *args: commits.append(1) or commit(self, *args)
    )
    roots = nodes = 0
    for root in engine_trees():
        roots += 1
        stack = [root]
        while stack:
            node = stack.pop()
            nodes += 1
            assert type(node) is Node  # no unsealed slot record escapes
            with pytest.raises(dataclasses.FrozenInstanceError):
                node.tag = "X"
            with pytest.raises(dataclasses.FrozenInstanceError):
                del node.children
            assert weakref.ref(node)() is node
            twin = pickle.loads(pickle.dumps(node))
            assert twin is not node and equals(twin, node)
            stack.extend(node.children)
    assert roots > 100 and nodes > 200 and commits


@pytest.mark.parametrize(
    "text",
    [
        b"don't",
        b"back\\slash",
        b"nul\x00 and \x1f",
        b"caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x99\x82",  # non-ASCII UTF-8
        b"\xff\xfe\xc3 cut \xe2\x82",  # invalid UTF-8
        b'"quoted"\t\n',
        b"",
    ],
)
def test_to_json_leaf_text_as_json_dumps_writes_it(text):
    src = b"<" + text + b">"
    node = Node("Leaf", 1, 1 + len(text), src)
    assert to_json(node) == json.dumps(to_json_dict(node))
    tree = Node("Pair", 0, len(src), src, (node, Node("Leaf", 0, 1, src)))
    assert to_json(tree) == json.dumps(to_json_dict(tree))


def test_to_json_tags_as_json_dumps_writes_them():
    src = b"ab"
    for tag in ("t\u00e9g", 'q"x', "w\\y", "\u2603"):
        tree = Node(tag, 0, 2, src, (Node(tag, 0, 1, src), Node("b", 1, 2, src)))
        assert to_json(tree) == json.dumps(to_json_dict(tree))


def test_to_json_writes_a_tree_deeper_than_the_recursion_limit():
    tree = flat_sum()
    text = to_json(tree)
    assert text == reference_dumps(to_json_dict(tree))
    assert text.count('"tag": "add"') == 29_999


# -- views over engine records ------------------------------------------------


def test_printing_a_parse_makes_one_node(monkeypatch, tmp_path, capsys):
    # The writers walk the records, so only the root's view is made.
    views = []

    def counting(record):
        views.append(record)
        return view(record)

    view = Node._view
    monkeypatch.setattr(Node, "_view", staticmethod(counting))
    grammar_path = tmp_path / "math.peg"
    grammar_path.write_text(MATH)
    input_path = tmp_path / "input.txt"
    input_path.write_bytes(b"(1+2)*3-4/(5+6)")
    for form in ("sexpr", "json"):
        views.clear()
        argv = ["parse", str(grammar_path), str(input_path), "--format", form]
        assert pegfold.cli.run(argv) == 0
        assert len(views) == 1, form
    assert capsys.readouterr().out.count("#Integer") == 6
    views.clear()
    text = serialize(ParseSession(parse_grammar(MATH), b"(1+2)*3-4/(5+6)").parse().root)
    assert len(views) == 1 and text.count("#Integer") == 6
    views.clear()
    parse_notation(text)
    assert len(views) == 1


def test_views_mix_with_built_nodes():
    result = ParseSession(parse_grammar(MATH), b"1+2*3").parse()
    root = result.root
    assert result.root is root and root.children[0] is root.children[0]
    assert root.children[1].children[1].text == b"3" and not root.is_leaf()
    # Each record carries its own source: the built node's is empty.
    mixed = Node("X", 0, 0, b"", (root,))
    assert mixed.children[0] is root
    text = "#X[#add[#Integer['1'] #mul[#Integer['2'] #Integer['3']]]]"
    assert serialize(mixed) == text
    assert to_json(mixed) == json.dumps(to_json_dict(mixed))
    assert to_json_dict(mixed)["children"][0] == to_json_dict(root)
    assert equals(mixed, parse_notation(text)) and not equals(mixed, root)
    twin = pickle.loads(pickle.dumps(mixed))
    assert serialize(twin) == text and twin.children[0].source == b"1+2*3"


def test_views_of_a_deep_fold_chain_walk_with_an_explicit_stack():
    root = flat_sum()
    nodes = leaves = 0
    stack = [root]
    while stack:
        node = stack.pop()
        nodes += 1
        leaves += node.is_leaf()
        stack.extend(node.children)
    assert (nodes, leaves) == (59_999, 30_000)
    spine = root
    while spine.children:
        spine = spine.children[0]
    assert spine.text == b"1" and spine.start == 0


def test_threads_reading_fresh_views_share_one_value():
    # A view makes its children, and a result its root, on first read;
    # threads that read one at once must all get the value it keeps.
    result = ParseSession(parse_grammar(MATH), b"+".join([b"(1+2)*3"] * 400)).parse()
    views = []
    stack = [result.root]
    while stack:  # each inner view, its children not yet read
        node = stack.pop()
        if not node.is_leaf():
            views.append(node)
            stack.extend(Node._view(child) for child in node._record[4])
    results = [ParseResult(result._record, result.consumed, result._run) for _ in range(10_000)]
    seen = [[] for _ in range(4)]
    barrier = threading.Barrier(len(seen))

    def read(into):
        barrier.wait(timeout=10)
        into.extend(view.children for view in views)
        into.extend(fresh.root for fresh in results)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=read, args=(into,)) for into in seen]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert all(len(into) == len(views) + len(results) > 11_000 for into in seen)
    for got in zip(*seen):
        assert all(value is got[0] for value in got)
