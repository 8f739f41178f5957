"""Counts the generated lines one parse executes, per production.

    python tests/lines.py GRAMMAR INPUT [--recognize] [--no-memo]

parses the bytes of the file INPUT with the grammar in the file GRAMMAR,
with tree building unless ``--recognize`` and with memoization unless
``--no-memo``, under ``sys.settrace``.  It prints one line per production,
``name count``, in grammar order, where ``count`` is the line events of the
module the parse runs, the bare one, raised in the production's function and
in the helpers nested in it; a production that runs inline at its call
sites (a lexical one that is no memo point, see ``pegfold.interp``) counts
under its callers, so the JSON-like grammar's ``S`` reads 0 with trees
built.  Then it prints the total, and the parse's ``farthest``,
``backtrack`` and ``calls`` counters.  The counters are read once the trace
is off, so the counting module's run that fills them is not counted, nor is
the one a failed parse makes to find its position.  The counts depend on the
generated code alone, so a change that must cut the work per byte can quote
them before and after.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

if __name__ == "__main__":  # run as a script: read the package from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pegfold.grammar import parse_grammar
from pegfold.interp import ParseError, ParseSession, _mangle, program_for


def count_lines(grammar_text: str, data: bytes, *, build_ast: bool, memo: bool):
    """The line events per production of one parse, and its session."""
    grammar = parse_grammar(grammar_text)
    names = {_mangle(name): name for name in grammar.productions}
    session = ParseSession(grammar, data, build_ast=build_ast, memo=memo)
    counts: Counter[str] = Counter()
    # The code objects of the module the parse runs: its functions and the
    # helpers nested in them.
    codes = set()
    todo = [program_for(grammar, memo=memo, build_ast=build_ast).code]
    while todo:
        code = todo.pop()
        codes.add(code)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))

    def local(frame, event, arg):
        if event == "line":
            # A helper's qualified name starts with its production's.
            counts[names[frame.f_code.co_qualname.partition(".")[0]]] += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code in codes else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        session.parse()
    except ParseError:
        pass
    finally:
        sys.settrace(previous)
    return {name: counts[name] for name in grammar.productions}, session


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("grammar")
    parser.add_argument("input")
    parser.add_argument("--recognize", action="store_true", help="parse without building trees")
    parser.add_argument("--no-memo", action="store_true", help="parse without memoization")
    args = parser.parse_args(argv)
    counts, session = count_lines(
        Path(args.grammar).read_text(),
        Path(args.input).read_bytes(),
        build_ast=not args.recognize,
        memo=not args.no_memo,
    )
    for name, count in counts.items():
        print(f"{name} {count}")
    print(f"total {sum(counts.values())}")
    print(f"farthest {session.farthest}")
    print(f"backtrack {session.backtrack}")
    print(f"calls {session.calls}")


if __name__ == "__main__":
    main()
