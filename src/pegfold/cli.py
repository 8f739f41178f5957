"""Command-line interface.

Three commands over a grammar file:

* ``pegfold check GRAMMAR`` -- diagnostics plus a memo-point summary;
* ``pegfold parse GRAMMAR INPUT`` -- parse and print the tree (textual
  notation or JSON), optionally with engine statistics;
* ``pegfold bench GRAMMAR INPUT`` -- best-of-N wall times for pure
  recognition and full tree construction.

``INPUT`` may be ``-`` for standard input.  Exit codes: 0 success,
1 grammar errors / parse failure, 2 I/O trouble.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from .analysis import assign_memo_points, validate
from .grammar import Grammar, GrammarSyntaxError, parse_grammar
from .interp import InvalidGrammarError, ParseError, ParseSession, Stats, program_for
from .memo import DEFAULT_WINDOW
from .tree import serialize, to_json_dict

__all__ = ["main", "CliConfig", "cmd_check", "cmd_parse", "cmd_bench"]

OK, FAILURE, IO_ERROR = 0, 1, 2


@dataclass
class CliConfig:
    command: str
    grammar_path: str
    input_path: str | None = None
    start: str | None = None
    format: str = "sexpr"
    memo: bool = True
    window: int = DEFAULT_WINDOW
    strict: bool = False
    stats: bool = False
    iterations: int = 5
    mode: str = "both"


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


def _checked_grammar(config: CliConfig) -> Grammar | int:
    """Reads and compiles the grammar; errors print before any input is read."""
    grammar = _read_grammar(config.grammar_path)
    if isinstance(grammar, int):
        return grammar
    try:
        program_for(grammar, memo=config.memo, build_ast=config.mode != "recognize")
    except InvalidGrammarError as exc:
        for diagnostic in exc.diagnostics:
            print(diagnostic, file=sys.stderr)
        return FAILURE
    return grammar


def cmd_check(config: CliConfig) -> int:
    grammar = _read_grammar(config.grammar_path)
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


def cmd_parse(config: CliConfig) -> int:
    grammar = _checked_grammar(config)
    if isinstance(grammar, int):
        return grammar
    data = _read_input(config.input_path or "-")
    if isinstance(data, int):
        return data
    session = ParseSession(grammar, data, memo=config.memo, window=config.window)
    try:
        result = session.parse(config.start)
    except ParseError as exc:
        print(f"error: parse failed at byte offset {exc.position}", file=sys.stderr)
        return FAILURE
    if config.strict and result.consumed < len(data):
        print(
            f"error: {len(data) - result.consumed} trailing bytes left "
            f"unconsumed at offset {result.consumed}",
            file=sys.stderr,
        )
        return FAILURE
    if config.format == "json":
        payload: dict = {"ast": to_json_dict(result.root), "consumed": result.consumed}
        if config.stats:
            payload["stats"] = result.stats.as_dict()
        print(json.dumps(payload))
    else:
        print(serialize(result.root))
        if config.stats:
            print(_format_stats(result.stats))
    return OK


def _best_time(session: ParseSession, start: str | None, iterations: int) -> float:
    best = None
    for _ in range(iterations):
        began = time.perf_counter()
        session.parse(start)
        elapsed = time.perf_counter() - began
        if best is None or elapsed < best:
            best = elapsed
    return best


def cmd_bench(config: CliConfig) -> int:
    grammar = _checked_grammar(config)
    if isinstance(grammar, int):
        return grammar
    data = _read_input(config.input_path or "-")
    if isinstance(data, int):
        return data
    modes = ("recognize", "ast") if config.mode == "both" else (config.mode,)
    times: dict[str, float] = {}
    for mode in modes:
        session = ParseSession(
            grammar,
            data,
            memo=config.memo,
            window=config.window,
            build_ast=(mode == "ast"),
        )
        try:
            times[mode] = _best_time(session, config.start, config.iterations)
        except ParseError as exc:
            print(f"error: parse failed at byte offset {exc.position}", file=sys.stderr)
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


def config_from_args(argv: list[str]) -> CliConfig:
    args = _build_parser().parse_args(argv)
    config = CliConfig(command=args.command, grammar_path=args.grammar)
    if args.command != "check":
        config.input_path = args.input
        config.start = args.start
        config.memo = args.memo
        config.window = args.window
        if config.window < 1:
            raise SystemExit("error: --window must be at least 1")
    if args.command == "parse":
        config.format = args.format
        config.stats = args.stats
        config.strict = args.strict
    if args.command == "bench":
        config.iterations = args.iterations
        config.mode = args.mode
        if config.iterations < 1:
            raise SystemExit("error: --iterations must be at least 1")
    return config


def run(argv: list[str]) -> int:
    config = config_from_args(argv)
    if config.command == "check":
        return cmd_check(config)
    if config.command == "parse":
        return cmd_parse(config)
    return cmd_bench(config)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
