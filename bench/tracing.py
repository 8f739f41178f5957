"""Spans around calls into pegfold's layers, recorded from outside the package.

``Tracer.install`` replaces each layer's public function at the place its
caller looks it up (a module global or a class attribute) with a wrapper
that records a span, and ``Tracer.remove`` puts the originals back.  The
engine itself is not modified, so an untraced run executes exactly the
code users run.

A span is ``[name, start, end, parent]``, with ``parent`` the index of the
enclosing span or -1.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from collections import defaultdict

import pegfold.cli
import pegfold.interp
from pegfold.interp import ParseSession
from pegfold.machine import Machine


class Tracer:
    """Spans and counts of one run, and the patches that record them."""

    def __init__(self, bench_api) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        # Per-scope counts read where the work happens: session counters
        # after each parse, log length at each commit.
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.scope = ""
        self._saved: list[tuple[object, str, object]] = []
        # (owner, attribute, span name): where each layer's entry point is
        # looked up.  ParseSession.__init__ reaches validate and
        # assign_memo_points through pegfold.interp's globals; cli.run
        # reaches them, parse_grammar, serialize and to_json_dict through
        # pegfold.cli's globals.  The benchmark's own calls go through
        # ``bench_api``.
        self.sites = [
            (bench_api, "parse_grammar", "grammar.read"),
            (bench_api, "serialize", "tree.serialize"),
            (pegfold.cli, "parse_grammar", "grammar.read"),
            (pegfold.cli, "validate", "analysis.validate"),
            (pegfold.cli, "serialize", "tree.serialize"),
            (pegfold.cli, "to_json_dict", "tree.json"),
            (pegfold.cli, "run", "cli.run"),
            (pegfold.interp, "validate", "analysis.validate"),
            (pegfold.interp, "assign_memo_points", "analysis.plan"),
            (ParseSession, "__init__", "interp.init"),
            (ParseSession, "parse", "interp.parse"),
            (Machine, "commit", "machine.commit"),
        ]

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.stack.pop()
        self.spans[index][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "machine.commit":

            def traced_commit(machine, mark, source):
                counts = tracer.counts[tracer.scope]
                counts["machine.commits"] += 1
                counts["machine.log_entries"] += len(machine.log) - mark.log_index
                index = tracer.open(name)
                try:
                    return fn(machine, mark, source)
                finally:
                    tracer.close(index)

            return traced_commit

        if name == "interp.parse":

            def traced_parse(session, *args, **kwargs):
                index = tracer.open(name)
                try:
                    result = fn(session, *args, **kwargs)
                finally:
                    tracer.close(index)
                counts = tracer.counts[tracer.scope]
                stats = result.stats
                counts["interp.calls"] += session.calls
                counts["interp.backtrack_bytes"] += stats.backtrack_total
                counts["memo.lookups"] += stats.memo_lookups
                counts["memo.hits"] += stats.memo_hits
                counts["machine.nodes_created"] += stats.nodes_created
                counts["machine.nodes_in_result"] += stats.nodes_in_result
                return result

            return traced_parse

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    def install(self) -> None:
        for owner, attribute, name in self.sites:
            original = getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))

    def remove(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # -- derivation ----------------------------------------------------------

    def _outermost(self, first: int) -> dict[int, str]:
        """Name of the outermost span around each span from ``first`` on."""
        roots: dict[int, str] = {}
        for index in range(first, len(self.spans)):
            name, _, _, parent = self.spans[index]
            roots[index] = roots[parent] if parent >= first else name
        return roots

    def self_times(self, first: int, scopes: set[str]) -> dict[str, float]:
        """Self time per span name, over spans from ``first`` on whose
        outermost span is named in ``scopes``.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        spans = self.spans
        totals: dict[str, float] = defaultdict(float)
        for index, root in self._outermost(first).items():
            if root not in scopes:
                continue
            name, start, end, parent = spans[index]
            totals[name] += end - start
            if parent >= first:
                totals[spans[parent][0]] -= end - start
        return totals

    def durations(self, first: int, name: str, scope: str) -> float:
        """Summed duration of ``name`` spans under the outermost span ``scope``."""
        spans = self.spans
        return sum(
            spans[index][2] - spans[index][1]
            for index, root in self._outermost(first).items()
            if root == scope and spans[index][0] == name
        )
