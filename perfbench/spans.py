"""In-memory span recorder for the traced run, and what is derived from it.

A span is (name, start, end, parent index, job id), recorded by the
benchmark around its own calls into moodkit.  Nothing inside moodkit is
instrumented.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np


class _NoSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Used for the untraced passes: a span costs one no-op context."""

    active = False
    _span = _NoSpan()

    def span(self, name: str):
        return self._span

    def count(self, name: str, n: int = 1):
        pass


NULL_TRACER = NullTracer()


class Tracer:
    active = True

    def __init__(self):
        # (name, start, end, parent, job).  A span's slot is reserved when it
        # opens and filled with a tuple of atoms when it closes.  The garbage
        # collector stops tracking such tuples, so a long trace does not slow
        # down full collections, whose time counts in whichever span they
        # happen to start in.
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.job = -1

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        job = self.job
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, job)

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def durations(self, name: str) -> dict[int, float]:
        """Summed duration of the spans called ``name``, per job id."""
        out: dict[int, float] = {}
        for n, start, end, _, job in self.spans:
            if n == name:
                out[job] = out.get(job, 0.0) + end - start
        return out

    def child_coverage(self, root: str) -> list[float]:
        """Share of each ``root`` span covered by its direct children."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [covered[i] / (end - start)
                for i, (name, start, end, _, _) in enumerate(self.spans)
                if name == root and end > start]

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans, "counts": self.counts}, fh)


def exponent(sizes: list[float], times: list[float]) -> float:
    """Log-log slope of time against size (numpy.polyfit, degree 1)."""
    pairs = [(s, t) for s, t in zip(sizes, times) if s > 0 and t > 0]
    if len({s for s, _ in pairs}) < 2:
        return 0.0
    xs = np.log([s for s, _ in pairs])
    ys = np.log([t for _, t in pairs])
    return float(np.polyfit(xs, ys, 1)[0])


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile, q in (0, 100).

    A weighted mean of every order statistic, with weights from the
    Beta((n+1)p, (n+1)(1-p)) distribution, p = q/100.  Unlike a single
    order statistic it does not jump between neighbouring jobs of very
    different size when the machine's speed wavers.
    """
    from scipy.special import betainc
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    p = q / 100.0
    edges = betainc((n + 1) * p, (n + 1) * (1 - p), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))
