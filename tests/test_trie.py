"""Trie construction, descent, collection, and query semantics."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcpsearch import (
    Alphabet,
    Dataset,
    InvalidInputError,
    InvalidStateError,
    QueryCache,
    build,
    generate_dataset,
    generate_queries,
    memoized_query,
    oracle_top_k,
)
from lcpsearch import trie


def small(rows, sigma=4):
    return build(Dataset.from_rows(rows, sigma))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_two_items_sharing_a_node():
    index = small([[0, 1], [0, 2]])
    # root, the shared depth-1 node, and one leaf per item
    assert index.node_count == 4
    assert index.root.subtree_size == 2


def test_identical_items_share_one_path():
    n = 9
    index = small([[1, 2, 3]] * n)
    assert index.node_count == 3 + 1
    leaf = index.root.children()[0].children()[0].children()[0]
    assert leaf.posting.tolist() == list(range(n))
    assert leaf.subtree_size == n


def test_random_build_respects_node_bound():
    ds = generate_dataset(1000, 16, 4, seed=42)
    index = build(ds)
    assert index.node_count <= 16 * 1000 + 1
    assert index.root.subtree_size == 1000
    index.check_invariants()


def test_empty_dataset_builds_bare_root():
    ds = Dataset.from_rows(np.zeros((0, 5), dtype=np.uint16), 4)
    index = build(ds)
    assert index.node_count == 1
    assert index.root.subtree_size == 0
    index.check_invariants()
    assert index.query([0, 1, 2, 3, 0], 3, "complete").pairs() == []


def test_build_rejects_two_to_the_31_items():
    # a broadcast view: the dataset claims 2^31 rows but allocates one
    items = np.broadcast_to(np.zeros((1, 4), dtype=np.uint16), (1 << 31, 4))
    ds = Dataset(alphabet=Alphabet(2), length=4, items=items)
    with pytest.raises(InvalidInputError, match="limit"):
        build(ds)


def test_posting_lists_cover_every_item_once():
    ds = generate_dataset(300, 8, 3, seed=9)
    index = build(ds)
    leaves_level = index.level_offset[ds.length], index.level_offset[ds.length + 1]
    seen = np.sort(index.order)
    assert seen.tolist() == list(range(300))
    # postings live only at full depth
    total = sum(
        index.node(i).posting.size for i in range(int(leaves_level[0]), int(leaves_level[1]))
    )
    assert total == 300


def test_children_iterate_in_ascending_symbol_order():
    ds = generate_dataset(200, 6, 16, seed=4)
    index = build(ds)
    stack = [index.root]
    while stack:
        node = stack.pop()
        kids = node.children()
        syms = [k.edge_symbol for k in kids]
        assert syms == sorted(syms)
        stack.extend(kids)


def test_subtree_recurrence_holds_at_every_node():
    ds = generate_dataset(150, 7, 3, seed=13)
    index = build(ds)
    stack = [index.root]
    while stack:
        node = stack.pop()
        kids = node.children()
        assert node.subtree_size == node.posting.size + sum(k.subtree_size for k in kids)
        stack.extend(kids)


def naive_trie_node_count(rows) -> int:
    """Independent reference: pointer trie over nested dicts."""
    root: dict = {}
    for row in rows:
        node = root
        for symbol in row.tolist():
            node = node.setdefault(symbol, {})

    def count(node):
        return 1 + sum(count(child) for child in node.values())

    return count(root)


@pytest.mark.parametrize("seed", range(5))
def test_node_count_matches_naive_pointer_trie(seed):
    ds = generate_dataset(80, 6, 3, seed=seed)
    index = build(ds)
    assert index.node_count == naive_trie_node_count(ds.items)


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------

def test_descend_full_match():
    ds = generate_dataset(50, 10, 4, seed=2)
    index = build(ds)
    _, depth = index.descend(ds.items[31])
    assert depth == 10


def test_descend_no_shared_first_symbol():
    index = small([[0, 1, 2], [0, 1, 3]])
    node, depth = index.descend([3, 1, 2])
    assert depth == 0
    assert node.node_id == 0


def test_descend_partial():
    index = small([[0, 1, 2], [0, 1, 3]], sigma=16)
    _, depth = index.descend([0, 1, 9])
    assert depth == 2


def test_descend_correctness_every_outside_item_matches_shorter():
    # exhaustive scan on small instances: items outside the reached subtree
    # all have lcp strictly below the descent depth
    ds = generate_dataset(120, 6, 2, seed=77)
    index = build(ds)
    for q in generate_queries(ds, 40, seed=78, prefix_len=3):
        node, depth = index.descend(q)
        inside = set(index.order[node.row_lo : node.row_hi].tolist())
        for i in range(ds.n):
            neq = ds.items[i] != q
            val = int(neq.argmax()) if neq.any() else ds.length
            if i not in inside:
                assert val < depth
            else:
                assert val >= depth


# ---------------------------------------------------------------------------
# collection
# ---------------------------------------------------------------------------

def bfs_reference(node):
    """Literal breadth-first enumeration with symbol-sorted children."""
    out = []
    queue = deque([node])
    while queue:
        u = queue.popleft()
        out.extend(u.posting.tolist())
        for child in u.children():
            queue.append(child)
    return out


def test_bfs_emission_equals_lexicographic_slice():
    ds = generate_dataset(180, 5, 3, seed=6)
    index = build(ds)
    for node in (index.root, index.root.children()[0]):
        assert bfs_reference(node) == index.order[node.row_lo : node.row_hi].tolist()


def test_collect_fast_path_returns_all_items():
    ds = generate_dataset(40, 6, 4, seed=3)
    index = build(ds)
    node = index.root.children()[0]
    got = index.collect_top_k(node, node.subtree_size + 10)
    assert len(got) == node.subtree_size
    assert got.tolist() == sorted(index.order[node.row_lo : node.row_hi].tolist())


def test_collect_k1_from_duplicate_posting():
    index = build(Dataset.from_rows([[7, 7]] * 2 + [[1, 1]], 8))
    # items 0 and 1 are duplicates landing in one leaf posting
    node, depth = index.descend([7, 7])
    assert depth == 2
    assert index.collect_top_k(node, 1).tolist() == [0]


def test_collect_matches_oracle_enumeration_order():
    ds = generate_dataset(220, 6, 2, seed=31)
    index = build(ds)
    node, depth = index.descend(ds.items[11])
    got = index.collect_top_k(node, 5)
    subtree = index.order[node.row_lo : node.row_hi]
    assert got.tolist() == sorted(subtree.tolist())[:5]


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

def test_exact_match_dominates():
    ds = generate_dataset(400, 9, 4, seed=12, distinct=True)
    index = build(ds)
    res = index.query(ds.items[123], 1, "strict")
    assert res.pairs() == [(123, 9)]


def test_three_item_hand_case():
    index = small([[0, 0], [0, 1], [1, 0]], sigma=2)
    res = index.query([0, 0], 3, "complete")
    assert res.pairs() == [(0, 2), (1, 1), (2, 0)]


def test_strict_returns_fewer_when_subtree_small():
    index = small([[0, 0], [0, 1], [1, 0]], sigma=2)
    res = index.query([0, 0], 3, "strict")
    assert res.pairs() == [(0, 2)]
    assert res.matched_depth == 2


def test_complete_always_min_k_n():
    ds = generate_dataset(35, 8, 4, seed=10)
    index = build(ds)
    for k in (1, 7, 35, 60):
        assert len(index.query(ds.items[0], k, "complete").indices) == min(k, 35)


def test_mode_and_k_validation():
    index = small([[0, 1]])
    with pytest.raises(InvalidInputError):
        index.query([0, 1], 0)
    with pytest.raises(InvalidInputError):
        index.query([0, 1], 2, "both")
    with pytest.raises(InvalidInputError):
        index.query([0], 2)
    with pytest.raises(InvalidInputError):
        index.query([0, 99], 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_complete_mode_equals_oracle_randomized(seed):
    ds = generate_dataset(500, 12, 3, seed=seed)
    index = build(ds)
    queries = generate_queries(ds, 200, seed=seed + 100, prefix_len=6)
    for i, q in enumerate(queries):
        k = (1, 5, 50)[i % 3]
        assert index.query(q, k, "complete").pairs() == oracle_top_k(ds, q, k).pairs()


def test_strict_mode_is_oracle_prefix():
    ds = generate_dataset(500, 12, 3, seed=5)
    index = build(ds)
    for i, q in enumerate(generate_queries(ds, 100, seed=55, prefix_len=4)):
        k = (1, 5, 50)[i % 3]
        res = index.query(q, k, "strict")
        ref = oracle_top_k(ds, q, k).pairs()
        assert res.pairs() == ref[: len(res.indices)]
        assert all(val == res.matched_depth for _, val in res.pairs())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 2), min_size=4, max_size=4), min_size=0, max_size=24),
    st.lists(st.integers(0, 2), min_size=4, max_size=4),
    st.integers(1, 30),
)
def test_complete_mode_equals_oracle_property(rows, query, k):
    ds = Dataset.from_rows(np.asarray(rows, dtype=np.uint16).reshape(len(rows), 4), 3)
    index = build(ds)
    assert index.query(query, k, "complete").pairs() == oracle_top_k(ds, query, k).pairs()


def test_work_bounds_on_random_queries():
    ds = generate_dataset(800, 20, 4, seed=8)
    index = build(ds)
    for q in generate_queries(ds, 50, seed=9, prefix_len=10):
        work = index.new_work_report()
        res = index.query(q, 7, "complete", work=work)
        assert work.symbols_compared <= 20
        assert len(res.indices) <= 7


def test_determinism_across_independent_builds():
    ds = generate_dataset(300, 10, 4, seed=20)
    a, b = build(ds), build(ds)
    for q in generate_queries(ds, 30, seed=21, prefix_len=5):
        for mode in ("strict", "complete"):
            assert a.query(q, 9, mode).to_bytes() == b.query(q, 9, mode).to_bytes()


# ---------------------------------------------------------------------------
# memoization
# ---------------------------------------------------------------------------

def test_memoized_repeat_is_bit_identical():
    ds = generate_dataset(200, 8, 4, seed=30)
    index = build(ds)
    cache = QueryCache()
    q = ds.items[5]
    first = memoized_query(index, q, 4, "complete", cache)
    second = memoized_query(index, q, 4, "complete", cache)
    assert first.to_bytes() == second.to_bytes()
    assert cache.hits == 1 and cache.misses == 1


def test_memoized_hot_query_does_zero_scan_work():
    ds = generate_dataset(200, 8, 4, seed=30)
    index = build(ds)
    cache = QueryCache()
    q = ds.items[5]
    memoized_query(index, q, 4, "complete", cache)
    hot = index.new_work_report()
    memoized_query(index, q, 4, "complete", cache, work=hot)
    assert hot.symbols_compared == 0
    assert hot.items_scanned == 0
    assert hot.nodes_visited == 0
    assert hot.cache_hits == 1


def test_memoized_distinguishes_k_and_mode():
    ds = generate_dataset(100, 6, 4, seed=33)
    index = build(ds)
    cache = QueryCache()
    q = ds.items[0]
    memoized_query(index, q, 2, "strict", cache)
    memoized_query(index, q, 3, "strict", cache)
    memoized_query(index, q, 2, "complete", cache)
    assert len(cache) == 3


def test_memoized_rejects_what_query_rejects():
    ds = generate_dataset(100, 4, 4, seed=33)
    index = build(ds)
    cache = QueryCache()
    for bad in ([0.9, 1.5, 2.2, 3.7], [True, False, True, False], ["1", "2", "3", "0"], [0, 1, 4, 0]):
        with pytest.raises(InvalidInputError):
            memoized_query(index, bad, 2, "complete", cache)
    assert len(cache) == 0


def test_memoized_validates_each_query_once(monkeypatch):
    ds = generate_dataset(100, 4, 4, seed=33)
    index = build(ds)
    cache = QueryCache()
    calls = []
    real = trie.validate_query

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(trie, "validate_query", counting)
    memoized_query(index, ds.items[0], 2, "complete", cache)
    assert (len(calls), cache.misses) == (1, 1)
    memoized_query(index, ds.items[0], 2, "complete", cache)
    assert (len(calls), cache.hits) == (2, 1)


def test_cache_refuses_a_second_index():
    ds = generate_dataset(100, 6, 4, seed=33)
    first, second = build(ds), build(generate_dataset(100, 6, 4, seed=34))
    cache = QueryCache()
    q = ds.items[0]
    memoized_query(first, q, 2, "complete", cache)
    with pytest.raises(InvalidStateError, match="another index"):
        memoized_query(second, q, 2, "complete", cache)
    # a different object holding the same rows is still another index
    with pytest.raises(InvalidStateError):
        memoized_query(build(ds), q, 2, "complete", cache)
    assert memoized_query(first, q, 2, "complete", cache) is not None
    assert cache.hits == 1 and cache.misses == 1


# ---------------------------------------------------------------------------
# packed keys
# ---------------------------------------------------------------------------

def _lcp_profile(ds, q):
    return np.logical_and.accumulate(ds.items == np.asarray(q), axis=1).sum(axis=1)


def _check_packed_index(ds, queries, k):
    """rows, adjacent LCPs, strict, complete and TAL of ``build(ds)`` against the raw rows."""
    from lcpsearch.core import adjacent_lcp
    from lcpsearch.tal import TalEngine

    index = build(ds)
    sigma, length = ds.alphabet.size, ds.length
    bits = trie.symbol_bits(sigma)
    assert index.keys.shape == (ds.n, trie.key_width(length, bits))
    assert index.nbytes == ds.n * (index.keys.shape[1] + 4)
    assert np.array_equal(index.rows, ds.items[index.order])
    assert np.array_equal(index._adjacent_lcps(0, ds.n), adjacent_lcp(ds.items[index.order]))
    index.check_invariants()
    engines = [TalEngine(index, b) for b in sorted({1, min(sigma, sigma**length)})]
    for q in queries:
        want = oracle_top_k(ds, q, k).pairs()
        lcps = _lcp_profile(ds, q)
        top = int(lcps.max()) if ds.n else 0
        assert index.query(q, k, "complete").pairs() == want, (sigma, length, q.tolist())
        strict = want[: min(k, int((lcps == top).sum()))]
        assert index.query(q, k, "strict").pairs() == strict, (sigma, length, q.tolist())
        for engine in engines:
            bucket = int((lcps >= engine.bucket_depth).sum())
            res, report = engine.query(q, k)
            assert res.pairs() == want[: min(k, bucket)], (sigma, length, engine.bucket_count)
            assert report.items_scanned == bucket


@pytest.mark.parametrize("sigma", [2, 3, 4, 5, 16, 255, 256, 257, 300, 65535, 65536])
def test_packed_keys_answer_like_the_rows(sigma):
    # key widths from 1 byte to 130, across the 8-byte sort-key boundary
    rng = np.random.default_rng(sigma)
    for length in [*range(1, 20), 32, 33, 64, 65]:
        n = int(rng.integers(1, 40))
        pool = rng.integers(0, sigma, size=(max(1, n // 3), length))
        rows = pool[rng.integers(0, len(pool), size=n)]
        cut = rng.integers(0, length + 1, size=(n, 1))
        redraw = (np.arange(length) >= cut) & (rng.random((n, 1)) < 0.5)
        rows = np.where(redraw, rng.integers(0, sigma, size=(n, length)), rows)
        rows[0] = sigma - 1  # all-ones fields where sigma is a power of two
        ds = Dataset.from_rows(rows, sigma)
        queries = [ds.items[i].copy() for i in rng.integers(0, n, size=3)]
        for q in queries[1:]:
            c = int(rng.integers(0, length + 1))
            q[c:] = rng.integers(0, sigma, size=length - c)
        queries.append(np.full(length, sigma - 1))
        _check_packed_index(ds, queries, int(rng.choice([1, 3, n + 2])))


@pytest.mark.parametrize("sigma, length", [(2, 64), (2, 65), (4, 32), (4, 33), (3, 40)])
def test_packed_lcps_are_exact_for_all_ones_xors(sigma, length):
    # row j ends in j all-ones fields, so its key XOR the zero row's is 2^(jb) - 1
    # (up to 2^64 - 1): a float bit length rounds these up above 2^53
    rows = np.zeros((length + 1, length), dtype=np.int64)
    for j in range(1, length + 1):
        rows[j, length - j :] = sigma - 1
    ds = Dataset.from_rows(rows[::-1], sigma)
    queries = [np.zeros(length, dtype=np.int64), rows[length // 2], rows[-1]]
    _check_packed_index(ds, queries, length + 1)
    assert build(ds)._adjacent_lcps(0, ds.n).tolist() == list(range(length - 1, -1, -1))
    # only the longest runs, so that the zero query's window compare meets them
    near = Dataset.from_rows(np.concatenate((rows[:1], rows[-12:])), sigma)
    _check_packed_index(near, queries, 13)


@pytest.mark.parametrize("sigma, length", [(4, 16), (3, 33), (5, 30), (300, 7), (65536, 17)])
def test_build_packs_and_sorts_across_chunks(monkeypatch, sigma, length):
    # a few rows per chunk, so packing, unpacking and the XOR LCPs cross many chunk edges
    from lcpsearch.core import adjacent_lcp

    monkeypatch.setattr(trie, "CHUNK_BYTES", 1 << 9)
    rng = np.random.default_rng(length)
    pool = rng.integers(0, sigma, size=(20, length))
    ds = Dataset.from_rows(pool[rng.integers(0, len(pool), size=200)], sigma)
    index = build(ds)
    bits = trie.symbol_bits(sigma)
    width = trie.key_width(length, bits)
    keys = [
        sum(int(s) << 8 * width - (j + 1) * bits for j, s in enumerate(row)).to_bytes(width, "big")
        for row in ds.items
    ]
    order = sorted(range(ds.n), key=keys.__getitem__)
    assert index.order.tolist() == order
    assert [bytes(key) for key in index.keys] == [keys[i] for i in order]
    assert np.array_equal(index.rows, ds.items[index.order])
    assert np.array_equal(index._adjacent_lcps(0, ds.n), adjacent_lcp(ds.items[index.order]))
    index.check_invariants()
