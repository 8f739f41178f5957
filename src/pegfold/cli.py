"""Command-line interface.

Three commands over a grammar file:

* ``pegfold check GRAMMAR`` -- diagnostics plus a memo-point summary;
* ``pegfold parse GRAMMAR INPUT`` -- parse and print the tree (textual
  notation or JSON, each written straight from the tree by one iterative
  writer, so a tree of any depth prints), optionally with engine
  statistics.  The writer hands its text on in chunks of a few hundred
  inner nodes, each printed as it comes, so the command holds the tree and
  one chunk, never the whole text;
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

A process that runs commands one after another (``run`` called again and
again, as a test suite or ``bench/run.py`` does) pays a command's fixed
costs once.  It keeps one argument parser, built on the first command, and
the last grammar text it read with the ``Grammar`` built from it, whose
compiled programs stay on it.  Every command still reads the grammar file;
a text equal to the last one, read under the same recursion limit, gets
that ``Grammar`` back, so it is not parsed, validated or compiled again,
and any other text is read anew and takes the slot.  A read that fails
keeps nothing.  A fresh ``pegfold`` process builds the parser and reads
the grammar once either way and gains nothing from this.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .analysis import assign_memo_points, validate
from .grammar import Grammar, GrammarSyntaxError, parse_grammar
from .interp import InvalidGrammarError, ParseError, ParseResult, ParseSession, Stats, program_for
from .memo import DEFAULT_WINDOW
from .tree import _json_chunks, _notation_chunks
# Not called here: the command prints through the chunk writers, so the
# wraps bench/tracing.py puts on these two names record nothing (ROADMAP
# item 11).  They stay importable from here for it.
from .tree import serialize, to_json_dict

__all__ = ["main", "cmd_check", "cmd_parse", "cmd_bench"]

OK, FAILURE, IO_ERROR = 0, 1, 2
RECURSION_LIMIT = 20000  # Python frames a parse or bench command may nest


# The last grammar text read, the recursion limit it was read under, and the
# Grammar built from it (see the module docstring).  One slot: a process
# that alternates between grammars reads each anew.  Commands racing in two
# threads may both read a text; either Grammar is correct.
_last_grammar: tuple[str, int, Grammar] | None = None


def _read_grammar(path: str) -> Grammar | int:
    global _last_grammar
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read grammar: {exc}", file=sys.stderr)
        return IO_ERROR
    except UnicodeDecodeError as exc:
        print(f"error: grammar file is not valid UTF-8: {exc}", file=sys.stderr)
        return IO_ERROR
    # How deep a text nests before its read fails depends on the recursion
    # limit, which ``parse`` and ``bench`` raise and ``check`` does not.
    limit = sys.getrecursionlimit()
    last = _last_grammar
    if last is not None and last[0] == text and last[1] == limit:
        return last[2]
    try:
        grammar = parse_grammar(text)
    except GrammarSyntaxError as exc:
        for diagnostic in exc.diagnostics:
            print(diagnostic, file=sys.stderr)
        return FAILURE
    _last_grammar = (text, limit, grammar)
    return grammar


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
    _write_result(args, result, sys.stdout)
    return OK


def _write_result(args: argparse.Namespace, result: ParseResult, out) -> None:
    """Writes the tree of ``result``, and its statistics if asked, to ``out``.
    The tree goes out chunk by chunk as it is written, so the command holds
    the tree and one chunk, never the whole text."""
    if args.format == "json":
        # json.dumps of {"ast": …, "consumed": …, "stats": …}, the tree
        # written straight from its nodes.
        out.write('{"ast": ')
        out.writelines(_json_chunks(result.root))
        stats = f', "stats": {json.dumps(result.stats.as_dict())}' if args.stats else ""
        out.write(f', "consumed": {result.consumed}{stats}}}\n')
    else:
        out.writelines(_notation_chunks(result.root))
        out.write("\n")
        if args.stats:
            out.write(_format_stats(result.stats) + "\n")


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


@functools.cache  # ``parse_args`` leaves the parser as it was
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
