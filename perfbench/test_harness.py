"""Self-test of the benchmark's own helpers at a tiny size.

    python3 perfbench/test_harness.py      (or: python3 -m pytest perfbench/test_harness.py)

Checks the nearest-rank percentile, span self-time arithmetic and the
oracle-prefix rule that strict and TAL results are compared with.  Needs
numpy but not lcpsearch.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    Tracer,
    expected_prefix,
    lcp_profile,
    median,
    percentile,
    self_times_ns,
    slice_medians,
    slice_summary,
)


def test_percentile_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([7], 50) == 7
    assert percentile([3, 1, 2], 50) == 2  # unsorted input
    assert percentile([10, 20, 30, 40], 95) == 40  # ceil(3.8) = 4th
    assert percentile([10, 20, 30, 40], 25) == 10


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


def test_slice_medians_ignore_one_slow_slice():
    fast = slice_summary([100, 100, 100, 200], 1.0)
    slow = slice_summary([400, 400], 1.0)
    assert slow == (2.0, 400, 400)
    assert slice_medians([fast, slow, fast]) == (4.0, 100, 200)


def test_self_time_subtracts_child_coverage_once():
    # [id, parent, request, name, start, end, attrs]
    spans = [
        [0, None, 1, "request", 0, 100, {}],
        [1, 0, 1, "call", 10, 40, {}],
        [2, 0, 1, "to_bytes", 50, 60, {}],
        [3, 1, 1, "inner", 15, 25, {}],
        [4, None, 2, "overlap", 0, 50, {}],
        [5, 4, 2, "a", 10, 30, {}],
        [6, 4, 2, "b", 20, 40, {}],  # overlaps a on [20, 30)
    ]
    assert self_times_ns(spans) == [60, 20, 10, 10, 20, 20, 20]


def test_tracer_nests_and_inherits_request():
    tr = Tracer()
    with tr.span("request", request=7):
        with tr.span("call", mode="strict"):
            pass
    rec = list(tr.records())
    assert [r["name"] for r in rec] == ["request", "call"]
    assert rec[1]["parent"] == 0 and rec[1]["request"] == 7 and rec[1]["mode"] == "strict"
    assert rec[0]["self_ns"] == (rec[0]["end_ns"] - rec[0]["start_ns"]) - (rec[1]["end_ns"] - rec[1]["start_ns"])
    assert tr.durations_ns("call", mode="complete") == []
    assert len(tr.durations_ns("call", mode="strict")) == 1


def test_oracle_prefix_for_strict_and_tal():
    rows = np.array([[0, 1, 2], [0, 1, 0], [0, 2, 2], [1, 1, 2], [0, 1, 2]], dtype=np.uint16)
    q = np.array([0, 1, 1], dtype=np.uint16)
    profile = lcp_profile(rows, q)
    assert profile.tolist() == [2, 2, 1, 0, 2]
    # exhaustive top-4 by (lcp desc, index asc), as the oracle ranks
    order = sorted(range(len(rows)), key=lambda i: (-profile[i], i))[:4]
    pairs = [(i, int(profile[i])) for i in order]
    assert pairs == [(0, 2), (1, 2), (4, 2), (2, 1)]
    # strict: deepest match is 2, subtree holds 3 rows, so min(k=4, 3) pairs
    assert expected_prefix(pairs, 2) == [(0, 2), (1, 2), (4, 2)]
    # TAL with a 1-symbol bucket: the four rows starting with 0
    assert expected_prefix(pairs, 1) == pairs
    # an empty bucket expects nothing
    assert expected_prefix(pairs, 3) == []


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for fn in tests:
        fn()
    print(f"{len(tests)} helper checks passed")
