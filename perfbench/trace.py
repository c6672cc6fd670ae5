"""Timing of the public calls the benchmark makes into the engine.

A ``Recorder`` times every call wrapped in ``span`` and sums its
duration and counts into the per-layer totals of the current round.
With tracing on it also keeps one span record per call in memory
(name, start, end, parent, workload, run id, counts) and writes them
as JSONL when the run ends; with tracing off it keeps no record, so the
untraced runs that give the end-to-end numbers pay only for the clock
reads.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self, workload, run_id, traced):
        self.workload = workload
        self.run_id = run_id
        self.traced = traced
        self.spans = []
        self.totals = {}
        self.calls = 0
        self._stack = []

    def new_round(self):
        """Start fresh per-layer totals and return the finished ones."""
        old, self.totals = self.totals, {}
        return old

    def add(self, metric, value):
        self.totals[metric] = self.totals.get(metric, 0) + value

    @contextmanager
    def span(self, metric):
        """Time the body and add its duration to ``metric`` (a
        per-layer time such as ``dist.superstep.pagerank_s``). The body
        puts counts, keyed by their per-layer metric names, into the
        yielded dict; they are added to the totals and kept with the
        span."""
        sid = self.calls
        self.calls += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        counts = {}
        t0 = time.perf_counter()
        try:
            yield counts
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.add(metric, t1 - t0)
            for k, v in counts.items():
                self.add(k, v)
            if self.traced:
                self.spans.append({
                    "id": sid, "name": metric, "start": t0, "end": t1,
                    "parent": parent,
                    "workload": self.workload, "run_id": self.run_id,
                    "counts": counts})

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
