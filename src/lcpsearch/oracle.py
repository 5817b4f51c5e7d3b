"""Brute-force reference answers, used as ground truth by the test suite.

Everything here is a pure linear scan over the raw dataset rows: no trie, no
buckets, no shared state with the index implementations.  Prefix lengths are
computed by an inline running-AND over elementwise equality, a deliberately
different formulation from the mismatch-position search used elsewhere, so
the two routes can cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, InvalidInputError, validate_query


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Exhaustive top-k: hits sorted by (lcp desc, item index asc)."""

    indices: np.ndarray = field(repr=False)
    lcps: np.ndarray = field(repr=False)

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.indices.tolist(), self.lcps.tolist()))

    def to_bytes(self) -> bytes:
        head = b"ORCL" + len(self.indices).to_bytes(4, "little")
        return (
            head
            + np.ascontiguousarray(self.indices, dtype="<u4").tobytes()
            + np.ascontiguousarray(self.lcps, dtype="<u2").tobytes()
        )


def _lcp_profile(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """LCP of ``q`` against every row: running AND of prefix equality, summed."""
    if rows.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    eq = rows == q
    return np.logical_and.accumulate(eq, axis=1).sum(axis=1).astype(np.int64)


def oracle_top_k(dataset: Dataset, q, k: int) -> OracleResult:
    """Exact top-k by LCP over the whole dataset; always ``min(k, n)`` hits."""
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    query = validate_query(q, dataset.length, dataset.alphabet.size)
    lcps = _lcp_profile(dataset.items, query)
    n = dataset.n
    take = min(k, n)
    if take == 0:
        empty = np.zeros(0, dtype=np.int64)
        return OracleResult(indices=empty, lcps=empty.copy())
    idx = np.arange(n, dtype=np.int64)
    ranking = np.lexsort((idx, -lcps))[:take]
    return OracleResult(indices=idx[ranking], lcps=lcps[ranking])


def oracle_distinguish(s1: Dataset, s2: Dataset) -> np.ndarray | None:
    """Find a query whose top-1 answers differ between two equal-size datasets.

    Both datasets must be duplicate-free with the same shape.  If the item
    sets differ, any sequence in the symmetric difference is a witness: it
    matches itself at full length in the dataset that contains it, while the
    other dataset's best answer is strictly shorter.  Returns the
    lexicographically smallest such sequence, or None iff the sets are equal.
    """
    if s1.n != s2.n or s1.length != s2.length or s1.alphabet != s2.alphabet:
        raise InvalidInputError("datasets must share (n, length, alphabet)")
    rows1 = {row.tobytes() for row in s1.items}
    rows2 = {row.tobytes() for row in s2.items}
    if len(rows1) != s1.n or len(rows2) != s2.n:
        raise InvalidInputError("oracle_distinguish requires duplicate-free datasets")
    diff = rows1.symmetric_difference(rows2)
    if not diff:
        return None
    witness = min(diff)
    return np.frombuffer(witness, dtype=s1.items.dtype).copy()
