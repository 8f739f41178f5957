"""Seeded inputs for the pegfold benchmark, and output checks that do not use pegfold.

Each workload turns a seed into a grammar and input bytes; the engine sees
only those bytes.  Every check compares an output with a reference computed
without the engine: Python arithmetic for math, the generator's own object
for JSON, and the known input length for the backtracking grammar.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

# The README math grammar.
MATH = """Expr = Sum
Sum = Product {@ ( '+' #add / '-' #sub ) @Product }*
Product = Value {@ ( '*' #mul / '/' #div ) @Value }*
Value = { [0-9]+ #Integer } / '(' Expr ')'
"""

# JSON-like grammar in the trailing-tag idiom: each constructor ends with its
# tag.  Object and Array open their node before reading the bracket, so a
# failed Value alternative rolls back a logged NEW entry.
JSON_LIKE = r"""Doc    = S Value S
Value  = Object / Array / String / Number / Lit
Object = { '{' S (@Member S (',' S @Member S)*)? '}' #Object }
Member = { @String S ':' S @Value #Member }
Array  = { '[' S (@Value S (',' S @Value S)*)? ']' #Array }
String = '"' { (!["\\] . / '\\' .)* #String } '"'
Number = { '-'? [0-9]+ ('.' [0-9]+)? ([eE] [+\-]? [0-9]+)? #Number }
Lit    = { ('true' / 'false' / 'null') #Lit }
S      = [ \t\r\n]*
"""

# The PATHOLOGICAL grammar of acceptance test A5: without memoization every
# failed T or U alternative re-reads the chain it already matched.
_CHAIN = "'" + "b" * 64 + "'"
PATHOLOGICAL = (
    f"R = T '?' / {_CHAIN} R / {_CHAIN}\n"
    f"T = U '!' / {_CHAIN} T / {_CHAIN}\n"
    f"U = {_CHAIN} U / {_CHAIN}\n"
)


@dataclass
class Workload:
    """Generated inputs plus what the benchmark runs on them.

    ``cli_flags`` is set for workloads whose operation is one
    ``pegfold parse`` of ``inputs[0]``; otherwise an operation is one input
    through ``ParseSession(grammar, data).parse()`` and ``serialize``.
    ``check(i, output)`` tells whether the output of input ``i`` is right.
    ``session_options`` are the engine options the operation uses, so the
    recognize and memo-off variants differ from it in one setting only.
    """

    name: str
    grammar: str
    inputs: list[bytes]
    check: Callable[[int, str], bool]
    cli_flags: list[str] | None = None
    session_options: dict = field(default_factory=dict)


# Input sizes.  A byte budget rather than a term or value count keeps an
# operation's latency alike across seeds.  32 KB of math make about 1,000
# terms and 25,000 nodes; a 95 KB input takes 1.8 s per operation on a
# 2-vCPU host running CPython 3.11, too few rounds per run.  The JSON values
# fill 110 KB on their own, about 120 KB once nested in the array.
MATH_WIDE_BYTES = 32_000
MANY_SMALL_COUNT = 12_000
JSON_DOC_BYTES = 110_000


# -- math -------------------------------------------------------------------


def _random_expression(rng: random.Random, depth: int) -> str:
    """The generator of acceptance test A2: digits, + - *, some parentheses."""
    if depth == 0 or rng.random() < 0.3:
        return str(rng.randint(0, 9))
    left = _random_expression(rng, depth - 1)
    right = _random_expression(rng, depth - 1)
    text = left + rng.choice("+-*") + right
    if rng.random() < 0.3:
        return "(" + text + ")"
    return text


_TOKEN = re.compile(r"#(\w+)\[|'((?:[^'\\]|\\.)*)'|\]|\s+")
_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}


def evaluate_notation(text: str) -> Fraction:
    """Evaluates a serialized math tree without recursion (trees run deep).

    Raises ``ValueError`` on anything but ``#Integer['n']`` leaves and binary
    ``add``/``sub``/``mul``/``div`` nodes.
    """
    stack: list[list] = [["root", None, []]]  # [tag, leaf text, child values]
    pos = 0
    for match in _TOKEN.finditer(text):
        if match.start() != pos:
            raise ValueError(f"unexpected text at {pos}")
        pos = match.end()
        token = match.group(0)
        if match.group(1) is not None:
            stack.append([match.group(1), None, []])
        elif match.group(2) is not None:
            stack[-1][1] = match.group(2)
        elif token == "]":
            if len(stack) < 2:
                raise ValueError("unbalanced ']'")
            tag, leaf, values = stack.pop()
            if tag == "Integer" and leaf is not None and not values:
                value = Fraction(int(leaf))
            elif tag in _OPS and leaf is None and len(values) == 2:
                value = _OPS[tag](*values)
            else:
                raise ValueError(f"unexpected node #{tag}")
            stack[-1][2].append(value)
    if pos != len(text) or len(stack) != 1 or len(stack[0][2]) != 1:
        raise ValueError("not exactly one tree")
    return stack[0][2][0]


def _math_check(expected: list[int]) -> Callable[[int, str], bool]:
    def check(i: int, output: str) -> bool:
        try:
            return evaluate_notation(output) == expected[i]
        except (ValueError, ZeroDivisionError):
            return False

    return check


def math_wide(seed: int) -> Workload:
    """Depth-6 expressions joined by '+' until the input reaches ``MATH_WIDE_BYTES``."""
    rng = random.Random(seed)
    terms: list[str] = []
    length = -1
    while length < MATH_WIDE_BYTES:
        terms.append(_random_expression(rng, 6))
        length += len(terms[-1]) + 1
    # '+' and '-' share a level and associate left, so the whole is the sum
    # of its terms; each term is short enough for Python's own evaluator.
    expected = sum(eval(term) for term in terms)  # digits and + - * ( ) only
    return Workload(
        "math-wide",
        MATH,
        ["+".join(terms).encode()],
        _math_check([expected]),
        cli_flags=[],
    )


def many_small(seed: int) -> Workload:
    """``MANY_SMALL_COUNT`` distinct small expressions of depth at most 3."""
    rng = random.Random(seed)
    seen: set[str] = set()
    texts: list[str] = []
    while len(texts) < MANY_SMALL_COUNT:
        text = _random_expression(rng, 3)
        if text not in seen:
            seen.add(text)
            texts.append(text)
    expected = [eval(text) for text in texts]  # digits and + - * ( ) only
    return Workload("many-small", MATH, [t.encode() for t in texts], _math_check(expected))


# -- JSON ---------------------------------------------------------------------

_STRING_BYTES = 'abcxyz 0189"\\/\té'


def _random_value(rng: random.Random, depth: int):
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        kind = rng.randrange(6)
        if kind == 0:
            return rng.randint(-(10**6), 10**6)
        if kind == 1:
            return rng.uniform(-1e6, 1e6)
        if kind in (2, 3):
            return "".join(rng.choice(_STRING_BYTES) for _ in range(rng.randint(0, 14)))
        return rng.choice([True, False, None])
    if roll < 0.6:
        return [_random_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    return {
        f"k{rng.randint(0, 999)}": _random_value(rng, depth - 1) for _ in range(rng.randint(0, 4))
    }


_LITERALS = {"true": True, "false": False, "null": None}


def rebuild_json_value(node: dict):
    """The value a ``to_json_dict`` tree of ``JSON_LIKE`` describes."""
    tag = node["tag"]
    children = node.get("children", [])
    if tag == "Array":
        return [rebuild_json_value(child) for child in children]
    if tag == "Object":
        members = {}
        for member in children:
            if member["tag"] != "Member" or len(member.get("children", [])) != 2:
                raise ValueError("malformed member")
            key, value = member["children"]
            if key["tag"] != "String":
                raise ValueError("member key is not a string")
            members[rebuild_json_value(key)] = rebuild_json_value(value)
        return members
    if children:
        raise ValueError(f"#{tag} has children")
    text = node["text"]
    if tag == "String":
        return json.loads('"' + text + '"')  # undo the escapes only
    if tag == "Number":
        return float(text) if any(c in text for c in ".eE") else int(text)
    if tag == "Lit":
        return _LITERALS[text]
    raise ValueError(f"unexpected node #{tag}")


def json_doc(seed: int) -> Workload:
    """Random values of depth 6 in one array, serialized with
    ``json.dumps(indent=1)``: as many values as fill ``JSON_DOC_BYTES`` on
    their own.  Single values vary a lot in size, hence the byte budget.
    """
    rng = random.Random(seed)
    values: list = []
    budget = JSON_DOC_BYTES
    while budget > 0:
        values.append(_random_value(rng, 6))
        budget -= len(json.dumps(values[-1], indent=1)) + 2
    text = json.dumps(values, indent=1)

    def check(i: int, output: str) -> bool:
        # Re-serializing the rebuilt value must give back the generated
        # text, which also tells True from 1 and 1.0 from 1.
        try:
            payload = json.loads(output)
            if payload["consumed"] != len(text):
                return False
            return json.dumps(rebuild_json_value(payload["ast"]), indent=1) == text
        except (ValueError, KeyError, TypeError):
            return False

    return Workload(
        "json-doc", JSON_LIKE, [text.encode()], check, cli_flags=["--format", "json"]
    )


# -- backtracking ---------------------------------------------------------------


def backtrack_memo(seed: int) -> Workload:
    """``b`` repeated 9,216 to 9,472 times, a multiple of the 64-byte chain.

    The range is narrow because set-up dominates this operation, so its
    MB/s scales with the input length.
    """
    size = 64 * random.Random(seed).randint(144, 148)
    expected = "#token['" + "b" * size + "']\n"
    window = size + 16  # covers the input, as in acceptance test A5
    return Workload(
        "backtrack-memo",
        PATHOLOGICAL,
        [b"b" * size],
        lambda i, output: output == expected,  # the token spans all `size` bytes
        cli_flags=["--strict", "--window", str(window)],
        session_options={"window": window},
    )


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "math-wide": math_wide,
    "json-doc": json_doc,
    "backtrack-memo": backtrack_memo,
    "many-small": many_small,
}

DEFAULT_SEEDS = {"math-wide": 1, "json-doc": 2, "backtrack-memo": 3, "many-small": 4}
