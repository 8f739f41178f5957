"""Counts the memory one parse and its printed tree take.

    python tests/peak.py GRAMMAR INPUT [--format json] [--no-memo]

parses the bytes of the file INPUT with the grammar in the file GRAMMAR
under ``tracemalloc`` and prints four figures in bytes, one per line as
``name bytes``:

* ``kept``: what ``ParseSession.parse`` leaves allocated while its result
  is held, the tree and the session's last run;
* ``parse_peak``: the peak of that parse, above what was allocated before it;
* ``writer_peak``: the peak of one ``pegfold parse`` from the moment its
  parse returns, with standard output a sink that counts characters and
  keeps none, as a pipe or a file is, above what the command held then (its
  grammar, input and tree): what writing the tree costs;
* ``operation_peak``: the peak of one ``pegfold parse`` with standard output
  captured in an ``io.StringIO``, as ``bench/run.py`` measures its
  ``peak_mem_mb``.

Each figure is taken on the second of two runs of its step, after a full
collection, so caches the first run fills do not count.  The figures depend
on the program's allocations alone, so a change that must cut memory can
quote them before and after.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import sys
import tracemalloc
from pathlib import Path

if __name__ == "__main__":  # run as a script: read the package from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pegfold.cli
from pegfold.grammar import parse_grammar
from pegfold.interp import ParseSession


class CountingSink(io.TextIOBase):
    """A text stream that counts the characters written to it and keeps none."""

    def __init__(self) -> None:
        self.written = 0

    def write(self, text: str) -> int:
        self.written += len(text)
        return len(text)


def traced(step) -> tuple[int, int, int]:
    """Runs ``step()`` twice and traces the second run.  Returns the bytes
    it left allocated and its peak, above what was allocated before it, and
    its peak after its last parse returned, above what was allocated then.
    The first run's result stays alive meanwhile: what
    the traced run freed of it would go to the interpreter's free lists,
    and what it took from them again would not be traced.  (``pegfold
    parse`` frees its tree as it ends, as between the benchmark's
    operations.)"""
    first = step()
    marks: list[tuple[int, int]] = []  # (allocated, peak so far) as each parse returned
    parse = ParseSession.parse

    def marked(session, *args, **kwargs):
        result = parse(session, *args, **kwargs)
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return result

    gc.collect()
    tracemalloc.start()
    ParseSession.parse = marked
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step()
        now, after = tracemalloc.get_traced_memory()
    finally:
        ParseSession.parse = parse
        tracemalloc.stop()
    del first
    peak = max([after] + [high for _, high in marks])
    return now - before, peak - before, after - marks[-1][0]


def run_cli(argv: list[str], stdout) -> None:
    """``pegfold parse`` with ``argv``, its standard output ``stdout``."""
    with contextlib.redirect_stdout(stdout):
        code = pegfold.cli.run(["parse", *argv])
    if code != 0:
        raise SystemExit(f"pegfold parse exited {code}")


def writer_peak(argv: list[str]) -> tuple[int, int]:
    """The ``writer_peak`` of ``pegfold parse`` with ``argv`` (see the module
    docstring), and the characters it wrote."""
    sinks: list[CountingSink] = []

    def step() -> None:
        sinks.append(CountingSink())
        run_cli(argv, sinks[-1])

    return traced(step)[2], sinks[-1].written


def measure(grammar_path: str, input_path: str, flags: list[str], *, memo: bool) -> dict[str, int]:
    """The four figures of the module docstring."""
    data = Path(input_path).read_bytes()
    grammar = parse_grammar(Path(grammar_path).read_text(encoding="utf-8"))
    session = ParseSession(grammar, data, memo=memo)
    kept, parse_peak, _ = traced(lambda: session.parse())
    argv = [grammar_path, input_path, *flags]
    return {
        "kept": kept,
        "parse_peak": parse_peak,
        "writer_peak": writer_peak(argv)[0],
        "operation_peak": traced(lambda: run_cli(argv, io.StringIO()))[1],
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("grammar")
    parser.add_argument("input")
    parser.add_argument("--format", choices=("sexpr", "json"), default="sexpr")
    parser.add_argument("--no-memo", action="store_true", help="parse without memoization")
    args = parser.parse_args(argv)
    flags = ["--format", args.format] + (["--no-memo"] if args.no_memo else [])
    for name, value in measure(args.grammar, args.input, flags, memo=not args.no_memo).items():
        print(f"{name} {value}")


if __name__ == "__main__":
    main()
