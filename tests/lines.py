"""Counts the generated lines one parse executes, per production.

    python tests/lines.py GRAMMAR INPUT [--recognize] [--no-memo] [--counting] [--calls]

parses the bytes of the file INPUT with the grammar in the file GRAMMAR,
with tree building unless ``--recognize`` and with memoization unless
``--no-memo``, under ``sys.settrace``.  It prints one line per production,
``name count``, in grammar order, where ``count`` is the line events of the
module the parse runs, raised in the production's function and in the
helpers nested in it.  That module is the bare one, or with ``--counting``
the counting one, which the parse then runs from the start.  In the bare
module a production that runs inline at its call sites (one that calls no
production and is no memo point, see ``pegfold.interp``) counts under its
callers, so the JSON-like grammar's ``S``, ``String``, ``Number`` and
``Lit`` read 0 with trees built.  Then it prints the total, and the parse's
``farthest``, ``backtrack`` and ``calls`` counters.  After a bare parse the
counters are read once the trace is off, so the counting module's run that
fills them is not counted, nor is the one a failed parse makes to find its
position.

With ``--calls`` it then prints, from ``sys.setprofile`` over the same
parse, ``productions N``, the calls of production functions, the start's
included, and one line ``c NAME N`` per builtin the module calls, by
qualified name (``Pattern.match``, ``Match.end``, ``bytes.find``,
``bytes.translate``, ...), in name order: those its functions call, and
those a stop mask makes as the first run of its byte set builds it.  The
counts depend on the generated code alone, so a change that must cut the
work per byte can quote them before and after.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

if __name__ == "__main__":  # run as a script: read the package from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pegfold.grammar import parse_grammar
from pegfold.interp import ParseError, ParseSession, _mangle, _Mask, program_for


def count_lines(
    grammar_text: str, data: bytes, *, build_ast: bool, memo: bool, counting: bool = False, profile=None
):
    """The line events per production of one parse, and its session.  With
    ``profile``, a ``Counter``, it counts there the calls ``--calls``
    prints, each by the name of its line."""
    grammar = parse_grammar(grammar_text)
    names = {_mangle(name): name for name in grammar.productions}
    steps = {"max_steps": sys.maxsize} if counting else {}  # a step limit runs the counting module
    session = ParseSession(grammar, data, build_ast=build_ast, memo=memo, **steps)
    counts: Counter[str] = Counter()
    # The code objects of the module the parse runs: its functions and the
    # helpers nested in them.
    module = program_for(grammar, memo=memo, build_ast=build_ast, counting=counting).code
    productions = {c for c in module.co_consts if hasattr(c, "co_code")}
    codes = set()
    todo = [module]
    while todo:
        code = todo.pop()
        codes.add(code)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    callers = codes | {_Mask.find.__code__}

    def local(frame, event, arg):
        if event == "line":
            # A helper's qualified name starts with its production's.
            counts[names[frame.f_code.co_qualname.partition(".")[0]]] += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code in codes else None

    def called(frame, event, arg):
        if event == "call":
            if frame.f_code in productions:
                profile["productions"] += 1
        elif event == "c_call" and frame.f_code in callers:
            profile["c " + arg.__qualname__] += 1

    previous, previous_profile = sys.gettrace(), sys.getprofile()
    sys.settrace(calls)
    if profile is not None:
        sys.setprofile(called)
    try:
        session.parse()
    except ParseError:
        pass
    finally:
        sys.setprofile(previous_profile)
        sys.settrace(previous)
    return {name: counts[name] for name in grammar.productions}, session


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("grammar")
    parser.add_argument("input")
    parser.add_argument("--recognize", action="store_true", help="parse without building trees")
    parser.add_argument("--no-memo", action="store_true", help="parse without memoization")
    parser.add_argument("--counting", action="store_true", help="count the counting module's lines")
    parser.add_argument("--calls", action="store_true", help="count production and builtin calls too")
    args = parser.parse_args(argv)
    profile: Counter[str] = Counter()
    counts, session = count_lines(
        Path(args.grammar).read_text(),
        Path(args.input).read_bytes(),
        build_ast=not args.recognize,
        memo=not args.no_memo,
        counting=args.counting,
        profile=profile if args.calls else None,
    )
    for name, count in counts.items():
        print(f"{name} {count}")
    print(f"total {sum(counts.values())}")
    print(f"farthest {session.farthest}")
    print(f"backtrack {session.backtrack}")
    print(f"calls {session.calls}")
    if args.calls:
        print(f"productions {profile['productions']}")
        for name, count in sorted(profile.items()):
            if name.startswith("c "):
                print(f"{name} {count}")


if __name__ == "__main__":
    main()
