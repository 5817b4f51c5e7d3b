"""Seeded data generation."""

import hashlib

import numpy as np
import pytest

from lcpsearch import InvalidInputError, generate_dataset, generate_queries


def test_same_seed_gives_identical_bytes():
    a = generate_dataset(1000, 12, 4, seed=123)
    b = generate_dataset(1000, 12, 4, seed=123)
    assert a.items.tobytes() == b.items.tobytes()


def test_different_seeds_differ():
    a = generate_dataset(1000, 12, 4, seed=123)
    b = generate_dataset(1000, 12, 4, seed=124)
    assert a.items.tobytes() != b.items.tobytes()


def test_uniform_bucket_occupancy_chi_square():
    # occupancy of the 256 depth-8 binary prefixes vs the flat expectation;
    # threshold is a generous tail bound for 255 degrees of freedom
    ds = generate_dataset(1 << 16, 10, 2, seed=7)
    codes = np.zeros(ds.n, dtype=np.int64)
    for j in range(8):
        codes = codes * 2 + ds.items[:, j]
    counts = np.bincount(codes, minlength=256)
    expected = ds.n / 256
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 360.0


def test_distinct_full_universe():
    ds = generate_dataset(2**6, 6, 2, seed=5, distinct=True)
    seen = {row.tobytes() for row in ds.items}
    assert len(seen) == 64
    # every 6-bit pattern appears exactly once
    codes = sorted(int("".join(map(str, row.tolist())), 2) for row in ds.items)
    assert codes == list(range(64))


def test_distinct_rejects_oversize_request():
    with pytest.raises(InvalidInputError):
        generate_dataset(9, 3, 2, seed=1, distinct=True)


def test_distinct_sparse_regime():
    ds = generate_dataset(500, 40, 4, seed=11, distinct=True)
    assert len({row.tobytes() for row in ds.items}) == 500


def test_distinct_dense_regime():
    # n < sigma**L <= 4n: a prefix of one permutation of the universe
    ds = generate_dataset(20, 6, 2, seed=11, distinct=True)
    assert len({row.tobytes() for row in ds.items}) == 20
    assert generate_dataset(20, 6, 2, seed=11, distinct=True).items.tobytes() == ds.items.tobytes()


def test_clustered_skews_prefix_occupancy():
    uniform = generate_dataset(20_000, 12, 16, seed=3, distribution="uniform")
    clustered = generate_dataset(20_000, 12, 16, seed=3, distribution="clustered")

    def top_bucket_share(ds):
        counts = np.bincount(ds.items[:, 0], minlength=16)
        return counts.max() / ds.n

    assert top_bucket_share(clustered) > 2 * top_bucket_share(uniform)


def test_unknown_distribution_rejected():
    with pytest.raises(InvalidInputError):
        generate_dataset(10, 4, 2, seed=1, distribution="gauss")


def test_queries_deterministic_and_prefixed():
    ds = generate_dataset(100, 10, 4, seed=1)
    q1 = generate_queries(ds, 50, seed=2, prefix_len=6)
    q2 = generate_queries(ds, 50, seed=2, prefix_len=6)
    assert q1.tobytes() == q2.tobytes()
    prefixes = {row[:6].tobytes() for row in ds.items}
    assert all(q[:6].tobytes() in prefixes for q in q1)


def test_query_prefix_len_validation():
    ds = generate_dataset(10, 4, 2, seed=1)
    with pytest.raises(InvalidInputError):
        generate_queries(ds, 5, seed=2, prefix_len=5)


@pytest.mark.parametrize(
    "args, digest",
    [
        ((16, 4, 5), "8e02ee2dd445056a2d6bee481a93c6e2d5aa2d8d70ed7d9f01236ee6c8df10b5"),
        ((5, 300, 9), "a2087285fd2a11ae2d59ff634dad9b1f5680cff9c81370f2c3175f6a67e15d52"),
    ],
)
def test_clustered_rows_are_pinned_across_draw_chunks(args, digest):
    # three chunks of 2^15 rows and a partial one: the chunked draw reads the
    # Philox stream exactly as one draw of every head symbol did
    ds = generate_dataset(3 * 2**15 + 7, *args, distribution="clustered")
    assert hashlib.sha256(ds.items.astype("<u2").tobytes()).hexdigest() == digest
