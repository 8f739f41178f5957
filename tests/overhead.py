"""Counts what one small parse pays besides its bytes.

    python tests/overhead.py GRAMMAR INPUT

parses the bytes of the file INPUT with the grammar in the file GRAMMAR
the way a library user and the many-small workload of ``bench/run.py`` do,
``serialize(ParseSession(grammar, data).parse().root)``, and splits that
operation into four steps: ``session`` (building the ``ParseSession``),
``parse``, ``root`` (the first read of ``result.root``) and ``serialize``.
After a header line it prints one line per step and one for the whole
operation, as ``name us calls blocks peak``:

* ``us``: the median, over rounds, of the step's mean time in microseconds,
  its call through a lambda included;
* ``calls``: the calls the step makes of functions outside the generated
  module (``<pegfold grammar>``), Python functions and builtins, from
  ``sys.setprofile``;
* ``blocks``: the memory blocks the step leaves allocated, its result held,
  from ``tracemalloc``, which counts what the interpreter's free lists keep
  as allocated;
* ``peak``: the step's peak traced allocation in bytes, above what was
  allocated before it.

Every figure but ``us`` is taken after a first, untraced run, so caches
that run fills do not count, and the calls on a run of their own, since the
profile's frames are allocations.  These figures depend on the program
alone, so a change that must cut the fixed cost of a parse quotes them
before and after.  The times move with the host; compare them only within
one run of this script, or across alternating runs.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

if __name__ == "__main__":  # run as a script: read the package from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pegfold.grammar import parse_grammar
from pegfold.interp import ParseSession
from pegfold.tree import serialize

ROUNDS = 15
PER_ROUND = 400  # steps timed together in one round
STEPS = ("session", "parse", "root", "serialize")
_GENERATED = "<pegfold grammar>"  # the file name of every generated module


def steps(grammar, data: bytes):
    """The four steps, each a function of the previous one's result."""
    return {
        "session": lambda _: ParseSession(grammar, data),
        "parse": lambda session: session.parse(),
        "root": lambda result: result.root,
        "serialize": lambda root: serialize(root),
    }


def timings(grammar, data: bytes) -> dict[str, float]:
    """The median over ``ROUNDS`` of each step's mean µs, and the whole
    operation's.  Each round makes ``PER_ROUND`` of every step's inputs
    first, so a step is timed on fresh ones."""
    clock = time.perf_counter
    rounds: dict[str, list[float]] = {name: [] for name in (*STEPS, "operation")}
    for _ in range(ROUNDS):
        values = [None] * PER_ROUND
        for name, step in steps(grammar, data).items():
            # Each step reads the previous step's results; the root's first
            # read needs a result that has not been read.
            began = clock()
            values = [step(value) for value in values]
            rounds[name].append((clock() - began) / PER_ROUND * 1e6)
        began = clock()
        for _ in range(PER_ROUND):
            serialize(ParseSession(grammar, data).parse().root)
        rounds["operation"].append((clock() - began) / PER_ROUND * 1e6)
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


def counts(grammar, data: bytes) -> dict[str, list[int]]:
    """Each step's calls, blocks and peak, and the whole operation's: the
    chain of steps runs once untraced, once under ``tracemalloc`` and once
    under the profile, whose frames would count as allocations."""
    out: dict[str, list[int]] = {}
    named = steps(grammar, data)
    named["operation"] = lambda _: serialize(ParseSession(grammar, data).parse().root)
    for measure in (None, allocated, called):
        value = None
        for name, step in named.items():
            if name == "operation":
                value = None
            if measure is None:
                value = step(value)
            else:
                value, *figures = measure(step, value)
                out.setdefault(name, []).extend(figures)
    return out


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("grammar")
    parser.add_argument("input")
    args = parser.parse_args(argv)
    grammar = parse_grammar(Path(args.grammar).read_text(encoding="utf-8"))
    data = Path(args.input).read_bytes()
    serialize(ParseSession(grammar, data).parse().root)  # compiles the grammar
    work = counts(grammar, data)
    times = timings(grammar, data)
    print("step us calls blocks peak")
    for name in (*STEPS, "operation"):
        blocks, peak, calls = work[name]
        print(f"{name} {times[name]:.2f} {calls} {blocks} {peak}")


if __name__ == "__main__":
    main()
