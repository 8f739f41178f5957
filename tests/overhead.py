"""Counts what one small parse, or one ``pegfold parse`` command, pays
besides its bytes.

    python tests/overhead.py GRAMMAR INPUT
    python tests/overhead.py --command GRAMMAR INPUT [OPTION ...]

The first form parses the bytes of the file INPUT with the grammar in the
file GRAMMAR the way a library user and the many-small workload of
``bench/run.py`` do, ``serialize(ParseSession(grammar, data).parse().root)``,
and splits that operation into four steps: ``session`` (building the
``ParseSession``), ``parse``, ``root`` (the first read of ``result.root``)
and ``serialize``.

With ``--command`` the operation is one in-process
``pegfold.cli.run(["parse", GRAMMAR, INPUT, OPTION ...])`` (the options of
``pegfold parse``, such as ``--window 9296`` for the covering window of
the backtrack-memo workload), its standard output an
``io.StringIO``, as the other workloads of ``bench/run.py`` run it, after a
first command that builds the argument parser and reads the grammar.  Its
six steps, run under the recursion limit the command sets, are what
``cmd_parse`` does in turn: ``args`` (the parser's
``parse_args``), ``grammar`` (reading the grammar file), ``program``
(finding the compiled program), ``input`` (reading the input file),
``parse`` (building the ``ParseSession`` and parsing) and ``write``
(writing the tree, and the statistics if asked).  The whole operation, ``command``,
also pays for what joins the steps: the dispatch, the recursion limit and
the redirected output.

After a header line it prints one line per step and one for the whole
operation, as ``name us calls blocks peak``:

* ``us``: the median, over rounds, of the step's mean time in microseconds,
  its call through a function included;
* ``calls``: the calls the step makes of functions outside the generated
  module (``<pegfold grammar>``), Python functions and builtins, from
  ``sys.setprofile``;
* ``blocks``: the memory blocks the step leaves allocated, its result held,
  from ``tracemalloc``, which counts what the interpreter's free lists keep
  as allocated;
* ``peak``: the step's peak traced allocation in bytes, above what was
  allocated before it.

A last line, ``garbage N``, gives the objects one whole operation leaves to
the cyclic collector rather than to reference counting: what a
``gc.collect()`` finds after it, the collector held off meanwhile.

Every figure but ``us`` is taken after a first, untraced run, so caches
that run fills do not count, and the calls on a run of their own, since the
profile's frames are allocations.  These figures depend on the program
alone, so a change that must cut the fixed cost of a parse or a command
quotes them before and after.  The times move with the host; compare them
only within one run of this script, or across alternating runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

if __name__ == "__main__":  # run as a script: read the package from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pegfold.cli
from pegfold.grammar import parse_grammar
from pegfold.interp import ParseSession, program_for
from pegfold.tree import serialize

ROUNDS = 15
PER_ROUND = 400  # steps timed together in one round
STEPS = ("session", "parse", "root", "serialize")
COMMAND_STEPS = ("args", "grammar", "program", "input", "parse", "write")
_GENERATED = "<pegfold grammar>"  # the file name of every generated module


def steps(grammar, data: bytes):
    """The four steps, each a function of the previous one's result, and
    the whole operation last."""
    return {
        "session": lambda _: ParseSession(grammar, data),
        "parse": lambda session: session.parse(),
        "root": lambda result: result.root,
        "serialize": lambda root: serialize(root),
        "operation": lambda _: serialize(ParseSession(grammar, data).parse().root),
    }


class Command:
    """What the steps of one command hand on: each fills one slot of it.
    ``out`` stands for the command's standard output."""

    __slots__ = ("args", "grammar", "data", "result", "out")

    def __init__(self) -> None:
        self.out = io.StringIO()


def command_steps(argv: list[str]):
    """The six steps of ``pegfold.cli.run(argv)``, for an ``argv`` that
    starts with ``parse``, each a function of a :class:`Command` that it
    fills and returns, and the whole command last."""
    cli = pegfold.cli

    def args(command):
        command.args = cli._build_parser().parse_args(argv)
        return command

    def grammar(command):
        command.grammar = cli._read_grammar(command.args.grammar)
        return command

    def program(command):
        program_for(command.grammar, memo=command.args.memo, build_ast=True)
        return command

    def read(command):
        command.data = cli._read_input(command.args.input)
        return command

    def parse(command):
        args = command.args
        session = ParseSession(command.grammar, command.data, memo=args.memo, window=args.window)
        command.result = session.parse(args.start)
        return command

    def write(command):
        cli._write_result(command.args, command.result, command.out)
        return command

    def whole(command):
        with contextlib.redirect_stdout(command.out):
            if cli.run(argv) != 0:
                raise SystemExit(f"pegfold {' '.join(argv)} failed")
        return command

    named = dict(zip(COMMAND_STEPS, (args, grammar, program, read, parse, write)))
    return named | {"command": whole}


def timings(named, start) -> dict[str, float]:
    """The median over ``ROUNDS`` of each step's mean µs, and the whole
    operation's, the last of ``named``.  Each round makes ``PER_ROUND`` of
    every step's inputs first, from ``start()`` for the first step, so a
    step is timed on fresh ones."""
    clock = time.perf_counter
    *chain, (last, whole) = named.items()
    rounds: dict[str, list[float]] = {name: [] for name in named}
    for _ in range(ROUNDS):
        values = [start() for _ in range(PER_ROUND)]
        for name, step in chain:
            # Each step reads the previous step's results; the root's first
            # read needs a result that has not been read.
            began = clock()
            values = [step(value) for value in values]
            rounds[name].append((clock() - began) / PER_ROUND * 1e6)
        values = [start() for _ in range(PER_ROUND)]
        began = clock()
        for value in values:
            whole(value)
        rounds[last].append((clock() - began) / PER_ROUND * 1e6)
    return {name: statistics.median(values) for name, values in rounds.items()}


def called(step, value) -> tuple[object, int]:
    """``step(value)``, and the calls it makes."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "c_call" or event == "call" and frame.f_code.co_filename != _GENERATED:
            calls += 1

    sys.setprofile(profile)
    try:
        value = step(value)
    finally:
        sys.setprofile(None)
    # Neither the step's own function nor the call that ends the profile
    # is a call of the step.
    return value, calls - 2


def allocated(step, value) -> tuple[object, int, int]:
    """``step(value)``, and the blocks it leaves allocated and its peak."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        value = step(value)
        peak = tracemalloc.get_traced_memory()[1] - held
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # The first snapshot's own lists are still allocated at the second, and
    # so are the figures this function took.
    ignore = [tracemalloc.Filter(False, tracemalloc.__file__), tracemalloc.Filter(False, __file__)]
    after, before = after.filter_traces(ignore), before.filter_traces(ignore)
    return value, sum(stat.count_diff for stat in after.compare_to(before, "filename")), peak


def measured(named, start) -> dict[str, list[int]]:
    """Each step's calls, blocks and peak, and the whole operation's, the
    last of ``named``: the chain of steps runs once untraced, once under
    ``tracemalloc`` and once under the profile, whose frames would count as
    allocations, and so does the whole operation, on a value of its own
    from ``start()``."""
    out: dict[str, list[int]] = {}
    last = list(named)[-1]
    for measure in (None, allocated, called):
        value = start()
        for name, step in named.items():
            if name == last:
                value = start()
            if measure is None:
                value = step(value)
            else:
                value, *figures = measure(step, value)
                out.setdefault(name, []).extend(figures)
    return out


def counts(grammar, data: bytes) -> dict[str, list[int]]:
    """:func:`measured` for the library operation on ``data``."""
    return measured(steps(grammar, data), lambda: None)


def garbage(whole, start) -> int:
    """The objects one ``whole(start())`` leaves to the cyclic collector."""
    value = start()
    gc.collect()
    gc.disable()
    try:
        whole(value)
        return gc.collect()
    finally:
        gc.enable()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--command", action="store_true", help="split one in-process pegfold parse")
    parser.add_argument("grammar")
    parser.add_argument("input")
    parser.add_argument(
        "options", nargs=argparse.REMAINDER, help="with --command: options of pegfold parse"
    )
    args = parser.parse_args(argv)
    if args.options and not args.command:
        parser.error("options go with --command only")
    if args.command:
        # The steps read the grammar under the recursion limit the command
        # sets, so that they find the grammar the command kept.
        sys.setrecursionlimit(max(sys.getrecursionlimit(), pegfold.cli.RECURSION_LIMIT))
        named, start = command_steps(["parse", args.grammar, args.input, *args.options]), Command
    else:
        grammar = parse_grammar(Path(args.grammar).read_text(encoding="utf-8"))
        named, start = steps(grammar, Path(args.input).read_bytes()), lambda: None
    *_, whole = named.values()
    whole(start())  # builds the parser, reads and compiles the grammar
    work = measured(named, start)
    left = garbage(whole, start)
    times = timings(named, start)
    print("step us calls blocks peak")
    for name in named:
        blocks, peak, calls = work[name]
        print(f"{name} {times[name]:.2f} {calls} {blocks} {peak}")
    print(f"garbage {left}")


if __name__ == "__main__":
    main()
