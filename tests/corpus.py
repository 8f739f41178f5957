"""Seeded random grammars and inputs for differential testing.

Grammars are built as expression objects, printed to file syntax, and
re-parsed (so every corpus run also exercises the writer/reader round
trip).  Back-references are always guarded by a preceding literal, which
rules out left recursion by construction; a validation check retries the
rare rejects.  Inputs mix grammar-guided samples, mutations of them, and
plain noise, capped at 64 bytes.

``python tests/corpus.py`` prints ``digest()``, one SHA-256 over the
engine's outcomes on a fixed corpus, which a change that must keep the
engine's behaviour can compare before and after.  ``python tests/corpus.py
--modules`` prints ``module_digest()``, two SHA-256s over the generated
modules and the ``validate`` diagnostics of the same grammars and the
benchmark's, which a change that must keep the generated code can compare.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import random
import sys
from pathlib import Path

if __name__ == "__main__":  # run as a script: read the package from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pegfold.analysis import validate
from pegfold.expr import (
    ANY,
    EMPTY,
    And,
    AnyChar,
    CharClass,
    Choice,
    Expression,
    LeftFold,
    Link,
    New,
    Not,
    Nonterminal,
    OneOrMore,
    Option,
    Sequence,
    Tag,
    Terminal,
    ZeroOrMore,
)
from pegfold.grammar import Grammar, format_grammar, parse_grammar
from pegfold.interp import ParseError, ParseSession, StepLimitExceeded, program_for
from pegfold.tree import serialize, to_json

from oracle import OracleInterpreter, OracleStepLimit

LITERALS = [b"a", b"b", b"c", b"ab", b"ba", b",", b"(", b")", b"x"]
CLASSES = [
    ((0x61, 0x63),),            # [a-c]
    ((0x61, 0x7A),),            # [a-z]
    ((0x30, 0x39), (0x61, 0x62)),  # [0-9ab]
]
TAGS = ["A", "B", "Val", "Item", "Pair"]
NOISE = b"abcx,()"
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

ENGINE_STEPS = 400_000
ORACLE_STEPS = 120_000


class _Generator:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def grammar(self) -> tuple[str, Grammar]:
        rng = self.rng
        for _ in range(50):
            count = rng.randint(1, 8)
            names = [f"P{i}" for i in range(count)]
            productions = {
                names[i]: self.expr(i, names, rng.randint(2, 4)) for i in range(count)
            }
            built = Grammar(productions)
            text = format_grammar(built)
            grammar = parse_grammar(text)
            assert grammar == built, "writer/reader round trip broke"
            if not any(d.severity == "error" for d in validate(grammar)):
                return text, grammar
        raise AssertionError("could not generate a valid grammar in 50 tries")

    def expr(self, i: int, names: list[str], depth: int) -> Expression:
        rng = self.rng
        if depth <= 0:
            return self.leaf(i, names)
        roll = rng.random()
        if roll < 0.22:
            return self.leaf(i, names)
        if roll < 0.34:
            return Sequence(
                tuple(self.expr(i, names, depth - 1) for _ in range(rng.randint(2, 3)))
            )
        if roll < 0.46:
            return Choice(
                tuple(self.expr(i, names, depth - 1) for _ in range(rng.randint(2, 3)))
            )
        if roll < 0.52:
            return New(self.expr(i, names, depth - 1))
        if roll < 0.58:
            return LeftFold(self.expr(i, names, depth - 1))
        if roll < 0.66:
            index = rng.choice([None, None, None, 0, 1, 2])
            return Link(self.expr(i, names, depth - 1), index)
        if roll < 0.72:
            return Sequence((self.expr(i, names, depth - 1), Tag(rng.choice(TAGS))))
        if roll < 0.79:
            return Option(self.expr(i, names, depth - 1))
        if roll < 0.86:
            return ZeroOrMore(self.expr(i, names, depth - 1))
        if roll < 0.90:
            return OneOrMore(self.expr(i, names, depth - 1))
        if roll < 0.95:
            return And(self.expr(i, names, depth - 1))
        return Not(self.expr(i, names, depth - 1))

    def leaf(self, i: int, names: list[str]) -> Expression:
        rng = self.rng
        roll = rng.random()
        if roll < 0.40:
            return Terminal(rng.choice(LITERALS))
        if roll < 0.55:
            return CharClass(rng.choice(CLASSES))
        if roll < 0.60:
            return ANY
        if roll < 0.65:
            return Tag(rng.choice(TAGS))
        if roll < 0.68:
            return EMPTY
        j = rng.randrange(len(names))
        target = Nonterminal(names[j])
        if j <= i:
            # guarded back-reference: consume first, so no left recursion
            return Sequence((Terminal(rng.choice(LITERALS)), target))
        return target

    # -- inputs ----------------------------------------------------------

    def sample_input(self, grammar: Grammar) -> bytes:
        out = bytearray()
        self._walk(grammar.productions[grammar.start], grammar, out, 0)
        return bytes(out[:64])

    def _walk(self, e: Expression, g: Grammar, out: bytearray, depth: int) -> None:
        if len(out) > 80 or depth > 14:
            return
        rng = self.rng
        match e:
            case Terminal(text):
                out.extend(text)
            case CharClass(ranges):
                lo, hi = rng.choice(ranges)
                out.append(rng.randint(lo, hi))
            case AnyChar():
                out.append(rng.choice(NOISE))
            case Nonterminal(name):
                self._walk(g.productions[name], g, out, depth + 1)
            case Sequence(items):
                for item in items:
                    self._walk(item, g, out, depth)
            case Choice(alternatives):
                self._walk(rng.choice(alternatives), g, out, depth)
            case Option(body):
                if rng.random() < 0.5:
                    self._walk(body, g, out, depth)
            case ZeroOrMore(body):
                for _ in range(rng.randint(0, 3)):
                    self._walk(body, g, out, depth)
            case OneOrMore(body):
                for _ in range(rng.randint(1, 3)):
                    self._walk(body, g, out, depth)
            case New(body) | LeftFold(body) | Link(body):
                self._walk(body, g, out, depth)
            case _:
                pass  # predicates, tags, empty: no text

    def an_input(self, grammar: Grammar) -> bytes:
        rng = self.rng
        roll = rng.random()
        if roll < 0.55:
            return self.sample_input(grammar)
        if roll < 0.80:
            data = bytearray(self.sample_input(grammar))
            for _ in range(rng.randint(1, 3)):
                mutation = rng.random()
                if mutation < 0.4 and data:
                    data[rng.randrange(len(data))] = rng.choice(NOISE)
                elif mutation < 0.7 and data:
                    del data[rng.randrange(len(data)) :]
                else:
                    data.extend(rng.choice(NOISE) for _ in range(rng.randint(1, 4)))
            return bytes(data[:64])
        return bytes(rng.choice(NOISE) for _ in range(rng.randint(0, 24)))


def make_corpus(seed: int, pairs: int) -> list[tuple[str, Grammar, bytes]]:
    """Deterministic list of (grammar text, grammar, input) triples."""
    rng = random.Random(seed)
    gen = _Generator(rng)
    out: list[tuple[str, Grammar, bytes]] = []
    while len(out) < pairs:
        text, grammar = gen.grammar()
        for _ in range(min(3, pairs - len(out))):
            out.append((text, grammar, gen.an_input(grammar)))
    return out


# -- outcome helpers ------------------------------------------------------


def engine_outcome(grammar: Grammar, data: bytes, *, memo: bool, window: int = 256):
    """('ok', consumed, serialized) / ('fail',) / None when the step budget ran out."""
    session = ParseSession(
        grammar, data, memo=memo, window=window, max_steps=ENGINE_STEPS
    )
    try:
        result = session.parse()
    except ParseError:
        return ("fail",)
    except StepLimitExceeded:
        return None
    return ("ok", result.consumed, serialize(result.root))


def oracle_outcome(grammar: Grammar, data: bytes):
    interpreter = OracleInterpreter(grammar, data, max_steps=ORACLE_STEPS)
    try:
        parsed = interpreter.parse()
    except OracleStepLimit:
        return None
    if parsed is None:
        return ("fail",)
    root, consumed = parsed
    return ("ok", consumed, serialize(root))


# -- corpus digest ------------------------------------------------------------

DIGEST_SEEDS = range(100, 130)
DIGEST_PAIRS = 200
# (memo, window) settings, each run with and without tree building.
DIGEST_SETTINGS = ((False, 256), (True, 1), (True, 256))


def session_outcome(grammar: Grammar, data: bytes, *, memo: bool, window: int, build_ast: bool):
    """One parse and the counters it leaves: the result (``consumed``, the
    tree as JSON, with every node's span, and the nodes reachable from the
    root; the failure position; or the step limit), then ``backtrack``,
    ``calls``, ``farthest``, memo lookups and hits, and the nodes created."""
    session = ParseSession(
        grammar, data, memo=memo, window=window, build_ast=build_ast, max_steps=ENGINE_STEPS
    )
    try:
        result = session.parse()
    except ParseError as error:
        outcome: tuple = ("fail", error.position)
    except StepLimitExceeded:
        outcome = ("steps",)
    else:
        outcome = ("ok", result.consumed, to_json(result.root), result.stats.nodes_in_result)
    table = session.table
    return outcome + (
        session.backtrack,
        session.calls,
        session.farthest,
        table.lookups if table is not None else 0,
        table.hits if table is not None else 0,
        session.machine.created,
    )


def digest(seeds=DIGEST_SEEDS, pairs: int = DIGEST_PAIRS) -> tuple[str, int]:
    """The SHA-256 of every ``session_outcome`` over ``make_corpus(seed,
    pairs)`` for each seed, in every ``DIGEST_SETTINGS`` setting with trees
    and without, and how many outcomes it covers."""
    sha = hashlib.sha256()
    count = 0
    for seed in seeds:
        for _, grammar, data in make_corpus(seed, pairs):
            for memo, window in DIGEST_SETTINGS:
                for build_ast in (True, False):
                    outcome = session_outcome(
                        grammar, data, memo=memo, window=window, build_ast=build_ast
                    )
                    sha.update(repr(outcome).encode())
                    sha.update(b"\n")
                    count += 1
    return sha.hexdigest(), count


def benchmark_grammars():
    """The benchmark's ``workloads`` module, read from ``bench/`` (``MATH``,
    ``JSON_LIKE`` and ``PATHOLOGICAL`` are its grammar texts)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def digest_texts(seeds=DIGEST_SEEDS, pairs: int = DIGEST_PAIRS) -> list[str]:
    """The grammar texts of ``make_corpus(seed, pairs)`` for each seed, then
    the benchmark's three, each once, in that order."""
    workloads = benchmark_grammars()
    texts = [text for seed in seeds for text, _, _ in make_corpus(seed, pairs)]
    texts += [workloads.MATH, workloads.JSON_LIKE, workloads.PATHOLOGICAL]
    return list(dict.fromkeys(texts))


def module_digest(seeds=DIGEST_SEEDS, pairs: int = DIGEST_PAIRS) -> tuple[str, str, int]:
    """The SHA-256 of the source of every generated module of each
    ``digest_texts`` grammar, bare and counting, with memo on and off and
    trees on and off; the SHA-256 of their ``validate`` diagnostics; and how
    many modules the first covers."""
    modules, diagnostics = hashlib.sha256(), hashlib.sha256()
    count = 0
    for text in digest_texts(seeds, pairs):
        grammar = parse_grammar(text)
        diagnostics.update(repr(validate(grammar)).encode() + b"\n")
        for memo in (False, True):
            for build_ast in (True, False):
                for counting in (False, True):
                    program = program_for(grammar, memo=memo, build_ast=build_ast, counting=counting)
                    modules.update(program.source.encode() + b"\0")
                    count += 1
    return modules.hexdigest(), diagnostics.hexdigest(), count


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Digests over the seeded corpus.")
    parser.add_argument(
        "--modules",
        action="store_true",
        help="hash the generated modules and validate diagnostics instead of the outcomes",
    )
    if parser.parse_args().modules:
        module_hash, diagnostic_hash, modules = module_digest()
        print(f"{module_hash}  {modules} modules")
        print(f"{diagnostic_hash}  diagnostics")
    else:
        hexdigest, outcomes = digest()
        print(f"{hexdigest}  {outcomes} outcomes")
