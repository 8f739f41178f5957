"""Command-line interface.

Three commands over a grammar file:

* ``pegfold check GRAMMAR`` -- diagnostics plus a memo-point summary;
* ``pegfold parse GRAMMAR INPUT`` -- parse and print the tree (textual
  notation or JSON, each written straight from the tree by one iterative
  writer, so a tree of any depth prints), optionally with engine
  statistics;
* ``pegfold bench GRAMMAR INPUT`` -- best-of-N wall times for pure
  recognition and full tree construction, the two parsed in turn.

``INPUT`` may be ``-`` for standard input.  Exit codes: 0 success,
1 grammar errors / unknown ``--start`` production / parse failure /
input nested too deeply for the recursion limit, 2 I/O trouble.

A parse takes a Python frame per production call.  The library leaves the
recursion limit to its caller; ``parse`` and ``bench`` own their process,
so they raise it to ``RECURSION_LIMIT`` while they run and put it back
after.  With the math grammar of the README (CPython 3.11.7) both follow
4,996 nested parentheses, against 247 for a library parse at Python's
default limit of 1,000.  The memoized recognition pass of ``bench`` makes
every production a memo point, which each production looks up in its own
frame, so it follows as deep as ``parse``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .analysis import assign_memo_points, validate
from .grammar import Grammar, GrammarSyntaxError, parse_grammar
from .interp import InvalidGrammarError, ParseError, ParseSession, Stats, program_for
from .memo import DEFAULT_WINDOW
from .tree import serialize, to_json
from .tree import to_json_dict  # unused here; bench/tracing.py wraps it by this name

__all__ = ["main", "cmd_check", "cmd_parse", "cmd_bench"]

OK, FAILURE, IO_ERROR = 0, 1, 2
RECURSION_LIMIT = 20000  # Python frames a parse or bench command may nest


def _read_grammar(path: str) -> Grammar | int:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read grammar: {exc}", file=sys.stderr)
        return IO_ERROR
    except UnicodeDecodeError as exc:
        print(f"error: grammar file is not valid UTF-8: {exc}", file=sys.stderr)
        return IO_ERROR
    try:
        return parse_grammar(text)
    except GrammarSyntaxError as exc:
        for diagnostic in exc.diagnostics:
            print(diagnostic, file=sys.stderr)
        return FAILURE


def _read_input(path: str) -> bytes | int:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return IO_ERROR


def _checked_grammar(args: argparse.Namespace, build_ast: bool) -> Grammar | int:
    """Reads and compiles the grammar; errors print before any input is read."""
    grammar = _read_grammar(args.grammar)
    if isinstance(grammar, int):
        return grammar
    if args.start is not None and args.start not in grammar.productions:
        print(f"error: unknown start production {args.start!r}", file=sys.stderr)
        return FAILURE
    try:
        program_for(grammar, memo=args.memo, build_ast=build_ast)
    except InvalidGrammarError as exc:
        for diagnostic in exc.diagnostics:
            print(diagnostic, file=sys.stderr)
        return FAILURE
    return grammar


def cmd_check(args: argparse.Namespace) -> int:
    grammar = _read_grammar(args.grammar)
    if isinstance(grammar, int):
        return grammar
    diagnostics = validate(grammar)
    for diagnostic in diagnostics:
        print(diagnostic)
    if any(d.severity == "error" for d in diagnostics):
        return FAILURE
    plan = assign_memo_points(grammar)
    print(f"{len(grammar.productions)} productions, {plan.count} memo points")
    return OK


def _format_stats(stats: Stats) -> str:
    lines = []
    for key, value in stats.as_dict().items():
        if isinstance(value, float):
            lines.append(f"{key}: {value:.6g}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines)


def cmd_parse(args: argparse.Namespace) -> int:
    grammar = _checked_grammar(args, build_ast=True)
    if isinstance(grammar, int):
        return grammar
    data = _read_input(args.input)
    if isinstance(data, int):
        return data
    session = ParseSession(grammar, data, memo=args.memo, window=args.window)
    try:
        result = session.parse(args.start)
    except ParseError as exc:
        print(f"error: {exc.reason} at byte offset {exc.position}", file=sys.stderr)
        return FAILURE
    if args.strict and result.consumed < len(data):
        print(
            f"error: {len(data) - result.consumed} trailing bytes left "
            f"unconsumed at offset {result.consumed}",
            file=sys.stderr,
        )
        return FAILURE
    if args.format == "json":
        # json.dumps of {"ast": …, "consumed": …, "stats": …}, the tree
        # written straight from its nodes.
        stats = f', "stats": {json.dumps(result.stats.as_dict())}' if args.stats else ""
        print(f'{{"ast": {to_json(result.root)}, "consumed": {result.consumed}{stats}}}')
    else:
        print(serialize(result.root))
        if args.stats:
            print(_format_stats(result.stats))
    return OK


def cmd_bench(args: argparse.Namespace) -> int:
    grammar = _checked_grammar(args, build_ast=args.mode != "recognize")
    if isinstance(grammar, int):
        return grammar
    data = _read_input(args.input)
    if isinstance(data, int):
        return data
    modes = ("recognize", "ast") if args.mode == "both" else (args.mode,)
    sessions = {
        mode: ParseSession(
            grammar, data, memo=args.memo, window=args.window, build_ast=(mode == "ast")
        )
        for mode in modes
    }
    # The modes take turns parse by parse, so a slow spell of the host
    # falls on both; each keeps its best time.
    times = dict.fromkeys(modes, float("inf"))
    try:
        for _ in range(args.iterations):
            for mode, session in sessions.items():
                began = time.perf_counter()
                session.parse(args.start)
                times[mode] = min(times[mode], time.perf_counter() - began)
    except ParseError as exc:
        print(f"error: {exc.reason} at byte offset {exc.position}", file=sys.stderr)
        return FAILURE
    for mode in modes:
        print(f"{mode}_best_s: {times[mode]:.6f}")
    if len(times) == 2 and times["recognize"] > 0:
        print(f"ast_recognize_ratio: {times['ast'] / times['recognize']:.3f}")
    return OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pegfold",
        description="Parse inputs with tree-building PEG grammars.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="validate a grammar and report memo points")
    check.add_argument("grammar", help="grammar file (.peg)")

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("grammar", help="grammar file (.peg)")
        sub.add_argument("input", help="input file, or - for standard input")
        sub.add_argument("--start", help="start production (default: first in the file)")
        sub.add_argument("--no-memo", dest="memo", action="store_false", help="disable memoization")
        sub.add_argument(
            "--window",
            type=int,
            default=DEFAULT_WINDOW,
            help=f"memoization window in byte positions (default {DEFAULT_WINDOW})",
        )

    parse_cmd = commands.add_parser("parse", help="parse input and print the tree")
    common(parse_cmd)
    parse_cmd.add_argument(
        "--format", choices=("sexpr", "json"), default="sexpr", help="output format"
    )
    parse_cmd.add_argument("--stats", action="store_true", help="append engine statistics")
    parse_cmd.add_argument(
        "--strict", action="store_true", help="fail if trailing input is left unconsumed"
    )

    bench = commands.add_parser("bench", help="time recognition vs tree construction")
    common(bench)
    bench.add_argument("--iterations", type=int, default=5, help="repetitions per mode (best wins)")
    bench.add_argument(
        "--mode", choices=("recognize", "ast", "both"), default="both", help="which mode to time"
    )

    return parser


def run(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "check":
        return cmd_check(args)
    if args.window < 1:
        raise SystemExit("error: --window must be at least 1")
    if args.command == "bench" and args.iterations < 1:
        raise SystemExit("error: --iterations must be at least 1")
    # A parse recurses per nesting level of its input.  The library leaves
    # the recursion limit to its caller; a command lets its parse go deeper
    # for as long as it runs.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, RECURSION_LIMIT))
    try:
        if args.command == "parse":
            return cmd_parse(args)
        return cmd_bench(args)
    finally:
        sys.setrecursionlimit(limit)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
