"""The pegfold benchmark: seeded workloads, end-to-end metrics, per-layer trace.

    python3 bench/run.py                       # every workload, untraced
    python3 bench/run.py --workload math-wide --seed 1 --trace 0
    python3 bench/run.py --workload json-doc --trace 1

Each workload measures for ``run_seconds`` from BENCHMARK.json, so two
commits are measured alike; ``--seconds``, if given, must equal it.

One process, one thread.  ``--trace 0`` measures the end-to-end metrics with
no instrumentation; ``--trace 1`` records spans around each layer's entry
points (see ``tracing.py``) and derives per-layer self times and counts.
Every output is checked against a reference that is not pegfold (see
``workloads.py``); the first failed operation ends the measuring.
Human-readable lines come first; the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans,
environment and metrics are also written to ``bench/results/``.  Exit code 0
means the run completed and every output was correct.

Times are reported at the speed of a reference host.  A shared host changes
speed by 15-40% over seconds to minutes, which repetition does not average
out, so each timed region is bracketed by a fixed pure-Python calibration
loop and its time is scaled by ``CALIBRATION_REFERENCE_S`` over the loop's
mean time around it.  No pegfold code runs in the loop, so the scaled
figures still compare two commits; the raw figures are printed too.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PER_ROUND = 3  # set-ups timed in each round; the run's median is reported
SAMPLE_SECONDS = 0.25  # work per timed region: short operations are repeated
CHUNK = 10  # many-small: sessions per alternation of recognize and AST parses
VARIANT_INPUTS = 200  # many-small: inputs reparsed for the recognize/AST timings
TRACE_INPUTS = 300  # many-small: inputs per traced round
PEAK_INPUTS = 200  # many-small: inputs whose median peak allocation is reported
MIN_ROUNDS = 3
CALIBRATION_LOOPS = 17_000
# Seconds the calibration loop takes on the reference host; see measure().
CALIBRATION_REFERENCE_S = 0.019


def _percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))  # ceil
    return ordered[int(rank) - 1]


class _Node:
    __slots__ = ("text", "children")

    def __init__(self, text: str):
        self.text = text
        self.children: list[_Node] = []


def _calibrate() -> float:
    """Seconds for a fixed pure-Python loop that runs no pegfold code.

    Like the parser it builds a tree of small objects, so its time follows
    the host's speed for that kind of work.  Of the loops tried, this one's
    time moved most nearly in proportion to the parser's as the host's speed
    changed; loops without a growing heap over-reacted.
    """
    began = time.perf_counter()
    stack = [_Node("")]
    for i in range(CALIBRATION_LOOPS):
        node = _Node(str(i & 0xFF))
        stack[-1].children.append(node)
        if i % 5 == 0:
            stack.append(node)
        elif i % 7 == 0 and len(stack) > 1:
            stack.pop()
    del stack
    return time.perf_counter() - began


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


class Bench:
    """One workload, its input files, and the operations the metrics time."""

    def __init__(self, workload, workdir: Path):
        import pegfold
        import pegfold.cli

        self.w = workload
        self.cli = pegfold.cli
        self.ParseSession = pegfold.ParseSession
        # The benchmark's own calls into the grammar and tree layers go
        # through this namespace, so the tracer can wrap them.
        self.api = types.SimpleNamespace(
            parse_grammar=pegfold.parse_grammar, serialize=pegfold.serialize
        )
        self.grammar_path = workdir / "grammar.peg"
        self.grammar_path.write_text(workload.grammar, encoding="utf-8")
        self.input_path = workdir / "input.bin"
        self.input_path.write_bytes(workload.inputs[0])
        self.grammar = self.api.parse_grammar(workload.grammar)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    def session(self, data: bytes, **options):
        return self.ParseSession(self.grammar, data, **{**self.w.session_options, **options})

    def setup(self):
        """Grammar text to a constructed ``ParseSession``: what ``setup_s`` times."""
        grammar = self.api.parse_grammar(self.w.grammar)
        return self.ParseSession(grammar, self.w.inputs[0], **self.w.session_options)

    def run_once(self, i: int) -> str:
        """The user-facing operation on input ``i``; returns its output text."""
        if self.w.cli_flags is None:
            root = self.ParseSession(self.grammar, self.w.inputs[i]).parse().root
            return self.api.serialize(root)
        buffer = io.StringIO()
        argv = ["parse", str(self.grammar_path), str(self.input_path), *self.w.cli_flags]
        with contextlib.redirect_stdout(buffer):
            code = self.cli.run(argv)
        if code != 0:
            raise RuntimeError(f"pegfold parse exited {code}")
        return buffer.getvalue()

    def operation(self, indices: list[int]) -> tuple[list[float], int, int]:
        """Runs the user-facing operation on each input; checks every output.

        Returns the per-input latencies, the input bytes and the output bytes.
        """
        latencies = []
        in_bytes = out_bytes = 0
        clock = time.perf_counter
        for i in indices:
            self.attempted += 1
            try:
                began = clock()
                output = self.run_once(i)
                elapsed = clock() - began
            except Exception as exc:  # counted as a failed operation
                self.fail(f"input {i}: {exc!r}")
                continue
            if not self.w.check(i, output):
                self.fail(f"input {i}: output check failed")
                continue
            latencies.append(elapsed)
            in_bytes += len(self.w.inputs[i])
            out_bytes += len(output.encode("utf-8"))
        return latencies, in_bytes, out_bytes

    def timed_parses(self, sessions: list) -> float:
        """Total ``parse()`` time over prebuilt sessions; checks the consumed length."""
        total = 0.0
        clock = time.perf_counter
        for session in sessions:
            self.attempted += 1
            try:
                began = clock()
                result = session.parse()
                total += clock() - began
            except Exception as exc:  # counted as a failed operation
                self.fail(f"parse: {exc!r}")
                continue
            if result.consumed != len(session.data):
                self.fail(f"parse consumed {result.consumed} of {len(session.data)} bytes")
            del result
        return total

    def memo_transparency(self, indices: list[int]) -> None:
        """Memo-on and memo-off parses must serialize to the same text."""
        for i in indices:
            self.attempted += 1
            data = self.w.inputs[i]
            try:
                on = self.api.serialize(self.session(data).parse().root)
                off = self.api.serialize(self.session(data, memo=False).parse().root)
            except Exception as exc:  # counted as a failed operation
                self.fail(f"input {i}: {exc!r}")
                continue
            if on != off:
                self.fail(f"input {i}: memo-on and memo-off trees differ")

    def peak_memory(self, indices: list[int]) -> float:
        """Median over ``indices`` of one operation's peak traced allocation, in bytes.

        Only allocations made during the operation count, so the
        interpreter, the imports and the input already read are left out.
        """
        peaks = []
        gc.collect()
        tracemalloc.start()
        try:
            for i in indices:
                self.attempted += 1
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                try:
                    self.run_once(i)
                except Exception as exc:  # counted as a failed operation
                    self.fail(f"input {i}: {exc!r}")
                    continue
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        return statistics.median(peaks) if peaks else float("nan")


def _freeze_harness() -> None:
    """Moves every object alive now out of the collector's reach.

    The benchmark's own inputs, references and prebuilt sessions would
    otherwise be traversed by every full collection the parser triggers, a
    cost that varies from run to run and that a user's process does not
    have.  The collector stays on for everything made afterwards.
    """
    gc.collect()
    gc.freeze()


def measure(bench: Bench, seconds: float) -> tuple[dict[str, float], dict[str, float]]:
    """End-to-end metrics, no instrumentation.

    Rounds repeat until ``seconds`` are spent; each round times a few
    set-ups, the operation, and recognize and AST parses in alternation,
    so every metric samples the whole run, and the median round is
    reported.
    Returns the metrics named in BENCHMARK.json and informational ones;
    both are empty if an operation failed, since its count is the result.
    """
    warm, _, _ = bench.operation([0])  # warm-up, untimed
    variant = [0] if bench.w.cli_flags is not None else list(range(VARIANT_INPUTS))
    ast = [bench.session(bench.w.inputs[i]) for i in variant]
    recognize = [bench.session(bench.w.inputs[i], build_ast=False) for i in variant]
    variant_bytes = sum(len(bench.w.inputs[i]) for i in variant)
    # One untimed pass each sizes the repeats.
    ast_total = bench.timed_parses(ast)
    recognize_total = bench.timed_parses(recognize)
    if bench.failed:
        return {}, {}
    per_sample = max(1, int(SAMPLE_SECONDS / warm[0]))
    repeat = max(1, int(2 * SAMPLE_SECONDS / (ast_total + recognize_total)))
    _freeze_harness()

    setup: list[float] = []
    latencies: list[float] = []
    rounds: list[dict[str, float]] = []
    cursor = 1
    began = time.perf_counter()
    deadline = began + seconds
    while True:
        # Stop at the deadline, and once MIN_ROUNDS are in, before a round
        # that would overrun it, so a run measures for about `seconds`.
        now = time.perf_counter()
        if now >= deadline or (
            len(rounds) >= MIN_ROUNDS and now + (now - began) / len(rounds) > deadline
        ):
            break
        if bench.w.cli_flags is not None:
            indices = [0] * per_sample
        else:
            indices = list(range(cursor, min(cursor + per_sample, len(bench.w.inputs))))
            cursor += len(indices)
            if not indices:
                break  # many-small ran out of distinct inputs
        # A calibration before and after every timed region gives the host's
        # speed while that region ran; collecting first puts the heap in the
        # same state for every calibration.
        calibration: list[float] = []

        def checkpoint() -> None:
            gc.collect()
            calibration.append(_calibrate())

        checkpoint()
        setup_s = []
        for _ in range(SETUP_PER_ROUND):
            gc.collect()
            start = time.perf_counter()
            bench.setup()
            setup_s.append(time.perf_counter() - start)
        checkpoint()
        times, in_bytes, _ = bench.operation(indices)
        checkpoint()
        # Alternating in small chunks exposes both to the same host speed.
        recognize_s = ast_s = 0.0
        for _ in range(repeat):
            for k in range(0, len(variant), CHUNK):
                recognize_s += bench.timed_parses(recognize[k : k + CHUNK])
                ast_s += bench.timed_parses(ast[k : k + CHUNK])
        checkpoint()
        if bench.failed:
            break
        # Host speed in each region, relative to the reference host.
        speed = [
            2 * CALIBRATION_REFERENCE_S / (calibration[k] + calibration[k + 1]) for k in range(3)
        ]
        setup.extend(t * speed[0] for t in setup_s)
        latencies.extend(times)
        rounds.append(
            {
                "parse_mb_s": in_bytes / (sum(times) * speed[1]) / 1e6,
                "inputs_per_s": len(times) / (sum(times) * speed[1]),
                "input_p50_us": statistics.median(times) * speed[1] * 1e6,
                "recognize_mb_s": repeat * variant_bytes / (recognize_s * speed[2]) / 1e6,
                # Interleaved in one region: the host's speed cancels.
                "ast_recognize_ratio": ast_s / recognize_s,
                "raw_parse_mb_s": in_bytes / sum(times) / 1e6,
                "raw_recognize_mb_s": repeat * variant_bytes / recognize_s / 1e6,
                "host_speed": speed[1],
            }
        )
    del ast, recognize
    gc.collect()
    bench.memo_transparency(variant[:20])
    single = bench.w.cli_flags is not None
    peak = bench.peak_memory([0] if single else list(range(1, PEAK_INPUTS + 1)))
    if bench.failed:
        return {}, {}

    def median_round(key: str) -> float:
        return statistics.median(r[key] for r in rounds)

    metrics = {
        "parse_mb_s": median_round("parse_mb_s"),
        "recognize_mb_s": median_round("recognize_mb_s"),
        "ast_recognize_ratio": median_round("ast_recognize_ratio"),
        "setup_s": statistics.median(setup),
        "inputs_per_s": median_round("inputs_per_s"),
        "input_p50_us": median_round("input_p50_us"),
        "peak_mem_mb": peak / 1e6,
    }
    extra = {
        "rounds": len(rounds),
        "host_speed": median_round("host_speed"),
        "raw_parse_mb_s": median_round("raw_parse_mb_s"),
        "raw_recognize_mb_s": median_round("raw_recognize_mb_s"),
        "raw_input_p50_us": statistics.median(latencies) * 1e6,
        # The tail follows the host's slow spells more than the program.
        "raw_input_p99_us": _percentile(latencies, 0.99) * 1e6,
        "samples": len(latencies),
    }
    return metrics, extra


def measure_layers(bench: Bench, seconds: float) -> tuple[dict[str, float], list]:
    """Per-layer metrics from alternating untraced and traced rounds."""
    from tracing import Tracer

    tracer = Tracer(bench.api)
    _freeze_harness()
    indices = [0] if bench.w.cli_flags is not None else list(range(1, TRACE_INPUTS + 1))
    data = [bench.w.inputs[i] for i in indices]

    def scoped(name, fn):
        tracer.scope = name
        index = tracer.open(name)
        try:
            return fn()
        finally:
            tracer.close(index)
            tracer.scope = ""

    def run_round(traced: bool) -> dict:
        first = len(tracer.spans)
        tracer.counts.clear()
        gc.collect()
        if traced:
            tracer.install()
        try:
            began = time.perf_counter()
            session = scoped("setup", bench.setup)
            _, _, out_bytes = scoped("op", lambda: bench.operation(indices))
            wall = time.perf_counter() - began
            gc.collect()
            scoped("ast_off", lambda: bench.timed_parses([bench.session(d, memo=False) for d in data]))
            gc.collect()
            scoped(
                "recognize_off",
                lambda: bench.timed_parses(
                    [bench.session(d, memo=False, build_ast=False) for d in data]
                ),
            )
        finally:
            tracer.remove()
        if not traced:
            return {"wall": wall}
        counts = dict(tracer.counts["op"])
        counts["analysis.memo_points"] = session.plan.count if session.plan else 0
        counts["tree.output_bytes"] = out_bytes
        forward_off = tracer.durations(first, "interp.parse", "ast_off") - tracer.durations(
            first, "machine.commit", "ast_off"
        )
        return {
            "wall": wall,
            "self": tracer.self_times(first, {"setup", "op"}),
            "counts": counts,
            "net": tracer.durations(first, "interp.parse", "op")
            - tracer.durations(first, "interp.parse", "ast_off"),
            "emit": forward_off - tracer.durations(first, "interp.parse", "recognize_off"),
        }

    run_round(False)  # warm-up, untimed
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        untraced.append(run_round(False)["wall"])
        traced.append(run_round(True))
        if bench.failed:
            return {}, tracer.spans

    counts = traced[0]["counts"]
    for other in traced[1:]:
        bench.attempted += 1
        if other["counts"] != counts:
            bench.fail("counts differ between traced rounds of one run")

    def median_self(name: str) -> float:
        return statistics.median(r["self"].get(name, 0.0) for r in traced)

    created = counts.get("machine.nodes_created", 0)
    lookups = counts.get("memo.lookups", 0)
    metrics = {
        "grammar.read_s": median_self("grammar.read"),
        "analysis.validate_s": median_self("analysis.validate"),
        "analysis.plan_s": median_self("analysis.plan"),
        "analysis.memo_points": counts["analysis.memo_points"],
        "interp.compile_s": median_self("interp.init"),
        "interp.forward_s": median_self("interp.parse"),
        "interp.calls": counts.get("interp.calls", 0),
        "interp.backtrack_bytes": counts.get("interp.backtrack_bytes", 0),
        "machine.commit_s": median_self("machine.commit"),
        "machine.commits": counts.get("machine.commits", 0),
        "machine.log_entries": counts.get("machine.log_entries", 0),
        "machine.nodes_created": created,
        "machine.node_yield": counts.get("machine.nodes_in_result", 0) / created if created else 0.0,
        "machine.emit_s": statistics.median(r["emit"] for r in traced),
        "memo.lookups": lookups,
        "memo.hits": counts.get("memo.hits", 0),
        "memo.hit_ratio": counts.get("memo.hits", 0) / lookups if lookups else 0.0,
        "memo.net_s": statistics.median(r["net"] for r in traced),
        "tree.serialize_s": median_self("tree.serialize"),
        "tree.json_s": median_self("tree.json"),
        "tree.output_bytes": counts["tree.output_bytes"],
        "cli.self_s": median_self("cli.run"),
        "trace.overhead_s": statistics.median(r["wall"] for r in traced)
        - statistics.median(untraced),
    }
    return metrics, tracer.spans


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    env = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": os.getloadavg(),
        "commit": _git_commit(),
    }
    workload = WORKLOADS[name](seed)
    env["input_bytes"] = sum(len(d) for d in workload.inputs)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=BENCH))
    spans: list = []
    extra: dict = {}
    try:
        bench = Bench(workload, workdir)
        try:
            if trace:
                metrics, spans = measure_layers(bench, seconds)
            else:
                metrics, extra = measure(bench, seconds)
        except Exception as exc:  # reported as a failed operation, not a crash
            bench.attempted += 1
            bench.fail(f"{exc!r}")
            metrics = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    record = {"env": env, **result, "extra": extra, "failures": bench.failures, "spans": spans}
    path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, separators=(",", ":")))
    return {**record, "path": path}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, help="input generator seed (default: per workload)")
    parser.add_argument("--seconds", type=float, help="must equal run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pegfold" / "__init__.py").is_file():
        print(f"error: no pegfold sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    from workloads import DEFAULT_SEEDS, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds must equal run_seconds in BENCHMARK.json ({seconds})")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of: all, {', '.join(WORKLOADS)}")
    status = 0
    for name in names:
        seed = args.seed if args.seed is not None else DEFAULT_SEEDS[name]
        outcome = run_workload(name, seed, seconds, bool(args.trace))
        print("env: " + json.dumps(outcome["env"]))
        for metric, value in outcome["metrics"].items():
            print(f"{name} {metric}: {value:.6g} {units[metric]}")
        for metric, value in outcome["extra"].items():
            print(f"{name} {metric}: {value:.6g} (informational)")
        ratio = outcome["failed"] / outcome["attempted"]
        verdict = "PASS" if outcome["correct"] else "FAIL"
        print(
            f"{name} output check: {verdict} ({outcome['failed']} failed of "
            f"{outcome['attempted']} attempted, failed_ratio {ratio:.6g})"
        )
        for failure in outcome["failures"]:
            print(f"  {failure}")
        print(f"{name} spans and results: {outcome['path'].relative_to(ROOT)}")
        metrics = {m: {"value": v, "unit": units[m]} for m, v in outcome["metrics"].items()}
        print(json.dumps({k: outcome[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics}))
        if not outcome["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
