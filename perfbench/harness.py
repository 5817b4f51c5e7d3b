"""Measurement helpers of the benchmark: percentiles, spans, result checks.

Nothing here imports lcpsearch, so the helpers can be checked on their own
(see ``test_harness.py``).
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np


def percentile(values, pct: float):
    """Nearest-rank percentile: the smallest sample with at least ``pct`` % at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[rank - 1]


def median(values):
    """Middle sample (mean of the two middle ones for an even count)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def slice_summary(lat, secs: float) -> tuple[float, float, float]:
    """(qps, p50, p95) of one slice of the window: its latencies and length."""
    return len(lat) / secs, percentile(lat, 50), percentile(lat, 95)


def slice_medians(summaries) -> tuple[float, float, float]:
    """Median over slices of each of (qps, p50, p95), as :func:`slice_summary` gives them.

    A burst of load from other processes that falls into one slice stays out
    of the reported figures.
    """
    return tuple(median(column) for column in zip(*summaries))


def timed(fn, *args):
    """Call ``fn(*args)`` once; returns (result, seconds)."""
    t0 = time.perf_counter_ns()
    out = fn(*args)
    return out, (time.perf_counter_ns() - t0) / 1e9


class Tracer:
    """In-memory span recorder.

    A span is ``[span_id, parent_id, request_id, name, start_ns, end_ns, attrs]``
    with ``perf_counter_ns`` clocks.  Spans nest through a stack, and a child
    inherits its parent's request id.  Nothing is written until
    :meth:`records` is called at the end of the run.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[list] = []

    @contextmanager
    def span(self, name: str, request: int | None = None, **attrs):
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = parent[2]
        rec = [len(self.spans), parent[0] if parent else None, request, name, 0, 0, attrs]
        self.spans.append(rec)
        self._stack.append(rec)
        rec[4] = time.perf_counter_ns()
        try:
            yield rec[6]
        finally:
            rec[5] = time.perf_counter_ns()
            self._stack.pop()

    def durations_ns(self, name: str, **match) -> list[int]:
        """Durations of the spans called ``name`` whose attributes include ``match``."""
        return [
            s[5] - s[4]
            for s in self.spans
            if s[3] == name and all(s[6].get(k) == v for k, v in match.items())
        ]

    def records(self):
        """Yield every span as a dict, with its self time."""
        own = self_times_ns(self.spans)
        for s in self.spans:
            yield {
                "id": s[0],
                "parent": s[1],
                "request": s[2],
                "name": s[3],
                "start_ns": s[4],
                "end_ns": s[5],
                "self_ns": own[s[0]],
                **s[6],
            }


def self_times_ns(spans) -> list[int]:
    """Per span: its duration minus the part of its interval its children cover.

    ``spans`` are records as kept by :class:`Tracer`, indexed by span id.
    Overlapping children are merged, so shared time is subtracted once.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[4], s[5]))
    out = []
    for s in spans:
        start, end = s[4], s[5]
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s[0], ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def expected_prefix(oracle_pairs, min_lcp: int):
    """The oracle's hits sharing at least ``min_lcp`` symbols with the query.

    The oracle ranks by (lcp desc, index asc), so these are its first
    ``min(k, m)`` pairs, where ``m`` counts dataset rows with lcp >= ``min_lcp``.
    A strict trie result (``min_lcp`` = matched depth) and a TAL result
    (``min_lcp`` = bucket depth) must equal exactly this list.
    """
    return [p for p in oracle_pairs if p[1] >= min_lcp]


def lcp_profile(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """LCP of ``q`` against every row of ``rows``."""
    return np.logical_and.accumulate(rows == q, axis=1).sum(axis=1)
