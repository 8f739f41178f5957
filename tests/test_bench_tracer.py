"""The benchmark's layer tracer still attaches to the engine.

``bench/tracing.py`` wraps engine functions and reads machine and session
attributes by name; this checks it records spans and counts against the
current engine and restores every function it replaced.
"""

import importlib.util
import types
from pathlib import Path

import pegfold.cli
from pegfold.grammar import parse_grammar
from pegfold.interp import ParseSession
from pegfold.machine import Machine
from pegfold.tree import serialize

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

MATH = """Expr = Sum
Sum = Product {@ ( '+' #add / '-' #sub ) @Product }*
Product = Value {@ ( '*' #mul / '/' #div) @Value }*
Value = { [0-9]+ #Integer } / '(' Expr ')'
"""

# The trailing tags keep these constructors lazy, so their parse still
# reaches a commit with log entries; the math grammar's nodes are all
# built where their constructors close.
LAZY = "List = { @Item (',' @Item)* } #List\nItem = { [0-9]+ } #Item\n"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_records_engine_layers_and_restores_them(tmp_path, capsys):
    grammar_path = tmp_path / "math.peg"
    grammar_path.write_text(MATH)
    input_path = tmp_path / "input.txt"
    input_path.write_bytes(b"(1+2)*3-4/5")
    original_commit = Machine.commit

    tracer = load_tracer()(types.SimpleNamespace(parse_grammar=parse_grammar, serialize=serialize))
    tracer.install()
    try:
        ParseSession(parse_grammar(MATH), b"1+2*3").parse()
        ParseSession(parse_grammar(LAZY), b"1,2,3").parse()
        assert pegfold.cli.run(["parse", str(grammar_path), str(input_path)]) == 0
    finally:
        tracer.remove()
    capsys.readouterr()

    names = {span[0] for span in tracer.spans}
    assert {"machine.commit", "interp.parse"} <= names
    counts = tracer.counts[""]
    assert counts["machine.commits"] > 0
    assert counts["machine.log_entries"] > 0
    assert Machine.commit is original_commit
