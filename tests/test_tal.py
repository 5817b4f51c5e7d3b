"""Bucketed range-scan engine and the work/energy model."""

import math
import tracemalloc

import numpy as np
import pytest

from lcpsearch import (
    Dataset,
    InvalidInputError,
    QueryCache,
    WorkReport,
    build,
    build_tal,
    generate_dataset,
    generate_queries,
    landauer_gap,
    landauer_limit,
    memoized_query,
    oracle_top_k,
    work_reduction,
)
from lcpsearch import trie
from lcpsearch.core import validate_query


def _prefix_codes(items, sigma, depth):
    """Bucket number of each row: its first ``depth`` symbols read in base sigma."""
    weights = sigma ** np.arange(depth - 1, -1, -1, dtype=np.int64)
    return items[:, :depth].astype(np.int64) @ weights


def test_bucket_depth_for_256_buckets_binary_alphabet():
    ds = generate_dataset(512, 16, 2, seed=1)
    engine = build_tal(ds, 256)
    assert engine.bucket_depth == 8
    assert engine.bucket_count == 256
    assert len(engine.bucket_sizes()) == 256


def test_single_bucket_is_degenerate_full_scan():
    ds = generate_dataset(64, 8, 2, seed=2)
    engine = build_tal(ds, 1)
    assert engine.bucket_depth == 0
    assert engine.bucket_range(ds.items[0]) == (0, 64)


def test_rounding_up_to_alphabet_power():
    ds = generate_dataset(64, 8, 4, seed=3)
    engine = build_tal(ds, 5)
    assert engine.bucket_depth == 2
    assert engine.bucket_count == 16


def test_bucket_count_beyond_length_rejected():
    ds = generate_dataset(16, 3, 2, seed=4)
    with pytest.raises(InvalidInputError):
        build_tal(ds, 9)  # needs depth 4 > L=3
    build_tal(ds, 8)


def test_partition_property():
    # bucket sizes are the counts of each prefix code among the dataset rows
    for sigma, buckets in ((2, 16), (3, 9), (4, 64), (300, 300)):
        ds = generate_dataset(500, 10, sigma, seed=5, distribution="clustered")
        engine = build_tal(ds, buckets)
        assert engine.bucket_count == buckets
        codes = _prefix_codes(ds.items, sigma, engine.bucket_depth)
        sizes = engine.bucket_sizes()
        assert np.array_equal(sizes, np.bincount(codes, minlength=buckets)), sigma
        assert int(sizes.sum()) == 500


def test_sorted_items_are_permutation_of_dataset():
    ds = generate_dataset(200, 6, 4, seed=6)
    engine = build_tal(ds, 16)
    order = engine.index.order
    assert np.array_equal(np.sort(order), np.arange(200))
    assert np.array_equal(engine.index.rows, ds.items[order])


def test_bucket_range_of_every_prefix_is_the_rows_sharing_it():
    # 300 rows leave some buckets empty; an empty bucket's range is empty and
    # sits where the prefix would be inserted
    rng = np.random.default_rng(7)
    seen_empty = 0
    for sigma, buckets in ((2, 32), (3, 27), (1024, 1024)):
        ds = generate_dataset(300, 8, sigma, seed=7)
        engine = build_tal(ds, buckets)
        depth = engine.bucket_depth
        order = engine.index.order
        codes = _prefix_codes(ds.items[order], sigma, depth)
        for code in range(buckets):
            q = rng.integers(0, sigma, size=8)
            for j in range(depth):
                q[j] = code // sigma ** (depth - 1 - j) % sigma
            inside = np.flatnonzero(_profile(ds, q)[order] >= depth)
            lo, hi = engine.bucket_range(q)
            assert np.array_equal(inside, np.arange(lo, hi)), (sigma, code)
            assert (lo, hi) == (int((codes < code).sum()), int((codes <= code).sum()))
            seen_empty += lo == hi
    assert seen_empty > 0


def test_b1_equals_oracle():
    ds = generate_dataset(250, 9, 3, seed=8)
    engine = build_tal(ds, 1)
    for i, q in enumerate(generate_queries(ds, 60, seed=9, prefix_len=4)):
        k = (1, 4, 30)[i % 3]
        res, _ = engine.query(q, k)
        assert res.pairs() == oracle_top_k(ds, q, k).pairs()


def test_empty_dataset_engine():
    ds = Dataset.from_rows(np.zeros((0, 6), dtype=np.uint16), 2)
    engine = build_tal(ds, 4)
    res, report = engine.query([0, 1, 0, 1, 0, 1], 3)
    assert res.pairs() == []
    assert report.items_scanned == 0


def test_empty_bucket_returns_nothing_and_scans_nothing():
    rows = np.zeros((8, 6), dtype=np.uint16)  # all items share prefix 0...
    ds = Dataset.from_rows(rows, 2)
    engine = build_tal(ds, 4)
    q = np.array([1, 1, 0, 0, 0, 0], dtype=np.uint16)
    res, report = engine.query(q, 5)
    assert res.pairs() == []
    assert report.items_scanned == 0
    assert report.energy_work_units == 0.0


def test_scan_bound_never_exceeds_bucket():
    ds = generate_dataset(1000, 10, 2, seed=10)
    engine = build_tal(ds, 16)
    for q in generate_queries(ds, 50, seed=11):
        lo, hi = engine.bucket_range(q)
        _, report = engine.query(q, 3)
        assert report.items_scanned == hi - lo


def test_max_bucket_occupancy_near_uniform_expectation():
    ds = generate_dataset(1 << 20, 12, 2, seed=22)
    engine = build_tal(ds, 256)
    assert engine.bucket_depth == 8
    sizes = engine.bucket_sizes()
    expected = ds.n / 256
    assert sizes.max() <= 2 * expected
    assert sizes.min() >= expected / 2


def test_work_report_combine_is_associative():
    def mk(sym, items):
        return WorkReport(c_sym=0.125, symbols_compared=sym, items_scanned=items, queries=1)

    a, b, c = mk(3, 10), mk(5, 2), mk(1, 7)
    left = a.combine(b).combine(c)
    right = a.combine(b.combine(c))
    assert left == right
    assert left.energy_work_units == pytest.approx(19 + 9 * 0.125)
    with pytest.raises(ValueError):
        a.combine(WorkReport(c_sym=0.5))


def test_mean_scan_fraction_matches_expected_occupancy():
    ds = generate_dataset(1 << 16, 12, 2, seed=12)
    engine = build_tal(ds, 256)
    queries = generate_queries(ds, 1000, seed=13)
    total = 0
    for q in queries:
        _, report = engine.query(q, 5)
        total += report.items_scanned
    frac = total / (1000 * ds.n)
    assert 1 / (3 * 256) <= frac <= 3 / 256


def test_strict_trie_agreement_when_descent_reaches_bucket_depth():
    ds = generate_dataset(600, 10, 2, seed=14)
    index = build(ds)
    engine = build_tal(ds, 16)  # depth 4
    agree = 0
    for q in generate_queries(ds, 120, seed=15, prefix_len=6):
        node, depth = index.descend(q)
        if depth < engine.bucket_depth:
            continue
        strict = index.query(q, 8, "strict")
        res, _ = engine.query(q, 8)
        top = [(i, v) for i, v in res.pairs() if v == depth]
        assert top == strict.pairs()
        agree += 1
    assert agree > 20


def test_work_model_linearity():
    # doubling the scanned range doubles items_scanned exactly
    rows = np.zeros((32, 8), dtype=np.uint16)
    rows[16:, 0] = 1
    ds1 = Dataset.from_rows(rows[:16], 2)
    ds2 = Dataset.from_rows(np.vstack([rows[:16], rows[:16]]), 2)
    q = np.zeros(8, dtype=np.uint16)
    _, r1 = build_tal(ds1, 2).query(q, 3)
    _, r2 = build_tal(ds2, 2).query(q, 3)
    assert r2.items_scanned == 2 * r1.items_scanned


def test_reduction_identity_and_zero_flag():
    ds = generate_dataset(100, 8, 2, seed=16)
    engine = build_tal(ds, 1)
    work = engine.new_work_report()
    for q in generate_queries(ds, 10, seed=17):
        engine.query(q, 3, work=work)
    red = work_reduction(work, work)
    assert red.ratio == pytest.approx(1.0)
    empty = engine.new_work_report()
    red0 = work_reduction(work, empty)
    assert math.isinf(red0.ratio) and red0.tal_work_zero


def test_reduction_grows_with_bucket_count():
    ds = generate_dataset(1 << 15, 16, 2, seed=18)
    queries = generate_queries(ds, 100, seed=19)
    totals = {}
    for b in (1, 4, 16, 64):
        engine = build_tal(ds, b)
        work = engine.new_work_report()
        for q in queries:
            engine.query(q, 5, work=work)
        totals[b] = work
    reductions = [work_reduction(totals[1], totals[b]).ratio for b in (4, 16, 64)]
    assert reductions == sorted(reductions)
    for b, r in zip((4, 16, 64), reductions):
        assert b / 2 <= r <= 2 * b


def _profile(ds, q):
    """LCP of ``q`` against every dataset row, computed independently here."""
    return np.logical_and.accumulate(ds.items == np.asarray(q), axis=1).sum(axis=1)


def _grid_rows(rng, n, length, sigma):
    """Rows with duplicates and shared prefixes: copies of a small pool, half re-drawn."""
    pool = rng.integers(0, sigma, size=(max(1, n // 4), length))
    rows = pool[rng.integers(0, len(pool), size=n)]
    cut = rng.integers(0, length + 1, size=(n, 1))
    redraw = (np.arange(length) >= cut) & (rng.random((n, 1)) < 0.5)
    return np.where(redraw, rng.integers(0, sigma, size=(n, length)), rows)


def _check_trie_grid():
    """Strict and complete trie queries against the oracle and the descent counters.

    With D the deepest LCP of the query with any row, a node-by-node
    descent compares min(D + 1, L) symbols and visits D + 1 nodes, plus in
    complete mode one ancestor per depth down to the LCP of the last hit.
    """
    rng = np.random.default_rng(2025)
    for sigma in (2, 3, 4, 16, 300):
        for length in range(1, 20):
            n = 0 if length == 3 else int(rng.integers(1, 100))
            ds = Dataset.from_rows(_grid_rows(rng, n, length, sigma), sigma)
            index = build(ds)
            for _ in range(4):
                if n and rng.random() < 0.6:
                    q = ds.items[rng.integers(0, n)].copy()
                    c = int(rng.integers(0, length + 1))
                    q[c:] = rng.integers(0, sigma, size=length - c)
                else:
                    q = rng.integers(0, sigma, size=length)
                k = int(rng.choice([1, 4, n + 5]))
                lcps = _profile(ds, q)
                top = int(lcps.max()) if n else 0
                want = oracle_top_k(ds, q, k).pairs()
                for mode, hits in (
                    ("strict", want[: min(k, int((lcps == top).sum()))]),
                    ("complete", want),
                ):
                    work = index.new_work_report()
                    res = index.query(q, k, mode, work=work)
                    assert res.pairs() == hits, (sigma, length, mode, q.tolist(), k)
                    assert res.matched_depth == top
                    assert work.symbols_compared == (min(top + 1, length) if n else 0)
                    last = hits[-1][1] if hits else top
                    assert work.nodes_visited == top + 1 + (top - last)


@pytest.mark.parametrize("needle_bytes", [trie.NEEDLE_CHUNK_BYTES, 2])
def test_randomized_grid_matches_oracle_and_work_model(monkeypatch, needle_bytes):
    # 2 bytes searches one depth at a time, as the longest sequences do
    monkeypatch.setattr(trie, "NEEDLE_CHUNK_BYTES", needle_bytes)
    rng = np.random.default_rng(2024)
    seen = {"empty": 0, "k_beyond_bucket": 0, "duplicate_hits": 0}
    for sigma in (2, 3, 4, 16, 300):
        for length in (1, 2, 5, 11, 19):
            n = int(rng.integers(1, 160))
            ds = Dataset.from_rows(_grid_rows(rng, n, length, sigma), sigma)
            for b in sorted({1, 2, sigma, min(sigma**length, 500)}):
                engine = build_tal(ds, b)
                for _ in range(6):
                    if rng.random() < 0.6:
                        q = ds.items[rng.integers(0, n)].copy()
                        c = int(rng.integers(0, length + 1))
                        q[c:] = rng.integers(0, sigma, size=length - c)
                    else:
                        q = rng.integers(0, sigma, size=length)
                    k = int(rng.choice([1, 4, n + 5]))
                    res, report = engine.query(q, k)
                    lcps = _profile(ds, q)
                    bucket = lcps[lcps >= engine.bucket_depth]
                    want = oracle_top_k(ds, q, k).pairs()[: min(k, bucket.size)]
                    assert res.pairs() == want, (sigma, length, b, q.tolist(), k)
                    assert report.items_scanned == bucket.size
                    assert report.symbols_compared == int(np.minimum(bucket + 1, length).sum())
                    seen["empty"] += bucket.size == 0
                    seen["k_beyond_bucket"] += 0 < bucket.size < k
                    seen["duplicate_hits"] += int((lcps == length).sum()) > 1
    assert all(count > 0 for count in seen.values()), seen
    _check_trie_grid()


def _profile_tiers(lcps, d0):
    """The tiers of sorted-row LCPs ``lcps`` down to ``d0``, from their values alone."""
    tiers = []
    for t in sorted(set(lcps[lcps >= d0].tolist()), reverse=True):
        rows = np.flatnonzero(lcps >= t)
        assert rows[-1] - rows[0] + 1 == rows.size  # a tier is contiguous
        tiers.append((t, int(rows[0]), int(rows[-1]) + 1))
    return tiers


# 44 bytes searches two depths at a time at L = 11, so walks there take several batches
@pytest.mark.parametrize("needle_bytes", [trie.NEEDLE_CHUNK_BYTES, 2, 44])
@pytest.mark.parametrize("window_rows", [1, 2, 3, 5])
def test_window_tiers_equal_the_tiers_of_every_row(monkeypatch, window_rows, needle_bytes):
    monkeypatch.setattr(trie, "WINDOW_ROWS", window_rows)
    monkeypatch.setattr(trie, "NEEDLE_CHUNK_BYTES", needle_bytes)
    searched, compared = [], []
    search, compare = trie.TrieIndex._prefix_ranges, trie._row_lcps

    def counted(self, *args):
        searched.append(1)
        return search(self, *args)

    def counted_compare(*args):
        compared.append(1)
        return compare(*args)

    monkeypatch.setattr(trie.TrieIndex, "_prefix_ranges", counted)
    monkeypatch.setattr(trie, "_row_lcps", counted_compare)
    rng = np.random.default_rng(2026)
    seen = {"read_off_window": 0, "searched": 0, "first_row": 0, "past_last_row": 0,
            "search_first": 0, "window": 0, "search_first_at_w": 0, "window_at_w_plus_1": 0}
    if window_rows > 1 and needle_bytes > 2:
        # a walk to the root stays on the window even when L + 1 <= w (w > 1 only)
        seen["root_walk_within_w"] = 0
    for sigma in (2, 3, 4, 300):
        for length in (1, 2, 5, 11):
            # no rows; and two rows, which a one-row-a-side window covers whole
            fixed = {(3, 2): 0, (4, 5): 2}
            n = fixed[sigma, length] if (sigma, length) in fixed else int(rng.integers(1, 60))
            ds = Dataset.from_rows(_grid_rows(rng, n, length, sigma), sigma)
            index = build(ds)
            w = min(window_rows, max(1, needle_bytes // (2 * length)))
            for _ in range(8):
                if n and rng.random() < 0.6:
                    q = ds.items[rng.integers(0, n)].copy()
                    c = int(rng.integers(0, length + 1))
                    q[c:] = rng.integers(0, sigma, size=length - c)
                else:
                    q = rng.integers(0, sigma, size=length)
                key = validate_query(q, length, sigma)
                lcps = _profile(ds, q)[index.order]
                below = sum(tuple(row) < tuple(q) for row in ds.items[index.order].tolist())
                for d0 in range(length + 1):
                    del searched[:], compared[:]
                    tiers = list(index._tiers(key, d0))
                    assert all(s <= below <= e for _, s, e in tiers)
                    assert tiers == _profile_tiers(lcps, d0), (sigma, length, d0, q.tolist())
                    # the ladder L..d0 is searched at once when the window is as
                    # wide, unless the walk runs to the root
                    ladder = length - d0 + 1
                    assert bool(compared) == (d0 == 0 or ladder > w), (d0, ladder, w)
                    seen["window" if compared else "search_first"] += 1
                    seen["search_first_at_w"] += d0 > 0 and ladder == w
                    seen["window_at_w_plus_1"] += d0 > 0 and ladder == w + 1
                    if d0 == 0 and ladder <= w:
                        seen["root_walk_within_w"] += 1
                    if tiers:
                        seen["searched" if searched else "read_off_window"] += 1
                res = index.query(q, n + 5, "complete")
                assert res.pairs() == oracle_top_k(ds, q, n + 5).pairs()
                seen["first_row"] += n > 0 and below == 0
                seen["past_last_row"] += n > 0 and below == n
    assert all(count > 0 for count in seen.values()), seen


def test_prefix_ranges_at_the_top_of_the_alphabet(monkeypatch):
    # 0xFFFF is both a real symbol and the padding of the upper search key
    top = 0xFFFF
    rows = np.array([
        [5, top, top, top],
        [5, top, top, 0],
        [5, top, 0, top],
        [5, 0, top, top],
        [6, top, top, top],
        [top, top, top, top],
        [5, top, top, top],
    ])
    ds = Dataset.from_rows(rows, 65536)
    # B = 65536 takes the ladder search at the default window, B = 1 (a walk to
    # the root) the window walk; with one row a side both take the window walk
    for window_rows in (trie.WINDOW_ROWS, 1):
        monkeypatch.setattr(trie, "WINDOW_ROWS", window_rows)
        for b in (1, 65536):
            engine = build_tal(ds, b)
            for q in ([5, top, top, top], [5, top, top, 7], [top, top, top, 0], [5, top, 1, 1]):
                res, report = engine.query(q, 3)
                lcps = _profile(ds, q)
                bucket = lcps[lcps >= engine.bucket_depth]
                assert res.pairs() == oracle_top_k(ds, q, 3).pairs()[: min(3, bucket.size)]
                assert report.symbols_compared == int(np.minimum(bucket + 1, 4).sum())


def test_bucket_sizes_refuse_too_many_buckets_without_allocating():
    ds = Dataset.from_rows(np.array([[0, 1, 2], [65535, 0, 0]]), 65536)
    engine = build_tal(ds, 1 << 25)  # depth 2: 2^32 buckets
    assert engine.bucket_count == 1 << 32
    assert engine.nbytes == engine.index.nbytes
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError, match="listing limit"):
            engine.bucket_sizes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    res, report = engine.query([65535, 0, 7], 2)
    assert res.pairs() == [(1, 2)]
    assert report.items_scanned == 1
    assert engine.bucket_range([65535, 0, 7]) == (1, 2)


def test_long_sequences_answer_with_bounded_scratch(monkeypatch):
    length = 65535
    rng = np.random.default_rng(34)
    base = rng.integers(0, 4, size=length)
    rows = np.tile(base, (160, 1))
    # rows 8.. each leave the query at their own depth; 0..7 equal it
    depths = rng.choice(length, size=152, replace=False)
    rows[8 + np.arange(152), depths] = (base[depths] + 1) % 4
    ds = Dataset.from_rows(rows, 4)
    engine = build_tal(ds, 16)
    batches = []
    search = trie.TrieIndex._prefix_ranges

    def counted(self, *args):
        batches.append(1)
        return search(self, *args)

    monkeypatch.setattr(trie.TrieIndex, "_prefix_ranges", counted)
    tracemalloc.start()
    try:
        res, report = engine.query(base, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.pairs() == oracle_top_k(ds, base, 12).pairs()
    assert res.pairs()[:8] == [(i, length) for i in range(8)]
    lcps = _profile(ds, base)
    assert report.symbols_compared == int(np.minimum(lcps + 1, length).sum())
    # at most one search batch per distinct LCP value in the bucket
    assert len(batches) <= np.unique(lcps[lcps >= engine.bucket_depth]).size
    # a few search keys at a time: far below one byte per bucket symbol
    # (10 MB here), let alone one key per depth (8.6 GB)
    assert peak < 32 * max(trie.NEEDLE_CHUNK_BYTES, 2 * length)


def test_trie_and_tal_reject_the_same_queries():
    # and so do the memo path and the oracle, through the same validator
    ds = generate_dataset(40, 6, 4, seed=35)
    index, engine = build(ds), build_tal(ds, 4)
    for bad in (
        [0, 1, 2],
        [[0] * 6],
        [0, 1, 2, 3, 4, 4],
        [0, 1, 2, 3, -1, 0],
        [0.9, 1.5, 2.2, 3.7, 0.0, 1.0],
        [True, False, True, False, True, False],
        ["1", "2", "3", "0", "1", "2"],
        np.array([0, 1, 2, 3, 0, 1], dtype="m8[s]"),
        np.array([0, 1, 2, 3, 0, 1], dtype=np.float64),
        [0, 1, 2, 70000, 0, 1],
        np.zeros(0, dtype=np.int64),
    ):
        with pytest.raises(InvalidInputError) as trie_error:
            index.query(bad, 3)
        for answer in (
            lambda: engine.query(bad, 3),
            lambda: memoized_query(index, bad, 3, cache=QueryCache()),
            lambda: oracle_top_k(ds, bad, 3),
        ):
            with pytest.raises(InvalidInputError) as error:
                answer()
            assert str(error.value) == str(trie_error.value)


def test_result_dtypes_are_the_same_for_empty_and_non_empty_results():
    rows = np.array([[0, 1, 2], [0, 1, 3], [1, 2, 0], [1, 0, 0]])
    ds = Dataset.from_rows(rows, 4)
    empty = build(Dataset.from_rows(np.zeros((0, 3), dtype=np.uint16), 4))
    engine = build_tal(ds, 4)
    results = [
        (index.query([0, 1, 2], 3, mode), hits)
        for index, hits in ((build(ds), True), (empty, False))
        for mode in ("strict", "complete")
    ]
    # bucket 0 holds rows, bucket 3 none
    results += [(engine.query([0, 1, 1], 3)[0], True), (engine.query([3, 1, 2], 3)[0], False)]
    for res, hits in results:
        assert (res.indices.size > 0) == hits
        assert res.indices.dtype == np.int32
        assert res.lcps.dtype == np.int64


# ---------------------------------------------------------------------------
# thermodynamic floor
# ---------------------------------------------------------------------------

def test_landauer_per_bit_values():
    assert landauer_limit(320.0) == pytest.approx(3.06e-21, rel=0.01)
    assert landauer_limit(300.0) == pytest.approx(2.87e-21, rel=0.01)


def test_landauer_gap_arithmetic():
    report = WorkReport(c_sym=1.0, c_item=0.01, items_scanned=446)
    gap = landauer_gap(report, bits=10**6, temperature_kelvin=320.0)
    assert gap.measured_joules == pytest.approx(4.46)
    assert gap.gap_ratio == pytest.approx(1.46e15, rel=0.01)
    assert gap.bits_processed == 10**6


def test_landauer_validation():
    report = WorkReport(c_sym=0.5)
    with pytest.raises(ValueError):
        landauer_gap(report, bits=0, temperature_kelvin=300.0)
    with pytest.raises(ValueError):
        landauer_limit(-1.0)
