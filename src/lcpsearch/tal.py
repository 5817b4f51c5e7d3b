"""TAL: bucketed range-scan query execution over a prefix-sorted array.

The engine serves from the sorted rows of a :class:`~lcpsearch.trie.TrieIndex`
(stable lexicographic order; ties keep item order), partitioned into
``sigma**d`` buckets by the first ``d`` symbols, where ``d`` is the smallest
depth giving at least the requested bucket count.  It stores nothing of its
own, so any number of engines share one sort.  A query's bucket is the
contiguous range of rows sharing its first ``d`` symbols, and only that range
is answered from.

The bucket itself is not scanned.  A query runs the trie's tier walk
(:meth:`~lcpsearch.trie.TrieIndex._tiers`) stopped at the bucket depth: the
rows sharing the query's first ``t`` symbols form one contiguous range, and
the ranges for ``t = D, D-1, ..., d`` are nested tiers of equal LCP, the last
of which is the bucket.  When the ladder of depths ``L..d`` is no longer than
the trie's window is wide (at most ``WINDOW_ROWS``; any ``d >= 1`` at
``L = 16``), all of its ranges come from one batched binary search over the
index, two ``searchsorted`` calls in all, which also give the insertion
point.  Longer ladders, and ``d = 0`` (one bucket) as in the trie's strict
and complete modes, read the tiers inside the rows around the insertion
point off one compare of at most ``2 * WINDOW_ROWS`` rows, and search the
rest, the bucket among them.  The top-k is selected tier by tier, as in the
trie's complete mode.  A query costs O(L log n) per depth searched plus the
rows it selects, and its scratch memory stays within a few times
``max(NEEDLE_CHUNK_BYTES, 2L)`` bytes whatever the bucket size.
:meth:`TalEngine.bucket_range` searches the bucket's depth alone.

The work units still model a scan of the whole bucket: ``items_scanned`` is
the bucket size and ``symbols_compared`` is ``sum(min(lcp + 1, L))`` over the
bucket, computed from the tier widths.  With ``B`` roughly equal buckets this
cuts modelled work by about a factor of ``B``; that is the ratio the energy
comparisons of :mod:`lcpsearch.work` report.

There is deliberately no cross-bucket backtracking: a query whose prefix
bucket is empty returns no hits and scans nothing.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, InvalidInputError, validate_query
from .trie import QueryResult, TrieIndex, build
from .trie import NEEDLE_CHUNK_BYTES  # noqa: F401  (the scratch bound named above)
from .work import WorkReport

# bucket_sizes() lists at most this many buckets (8 bytes each).
MAX_LISTED_BUCKETS = 1 << 24


def _prefix_depth(sigma: int, bucket_count: int) -> int:
    """Smallest d with sigma**d >= bucket_count (exact integer arithmetic)."""
    d = 0
    span = 1
    while span < bucket_count:
        span *= sigma
        d += 1
    return d


class TalEngine:
    """Immutable bucketed scan engine; safe for concurrent readers."""

    def __init__(self, index: TrieIndex, bucket_count: int):
        if bucket_count < 1:
            raise InvalidInputError(f"bucket count must be >= 1, got {bucket_count}")
        sigma = index.sigma
        length = index.length
        if bucket_count > sigma**length:
            raise InvalidInputError(
                f"bucket count {bucket_count} needs prefix depth beyond the "
                f"sequence length {length} (alphabet {sigma})"
            )
        depth = _prefix_depth(sigma, bucket_count)

        self.index = index
        self.n = index.n
        self.length = length
        self.sigma = sigma
        self.bucket_depth = depth
        self.requested_buckets = bucket_count
        self.bucket_count = sigma**depth
        self.c_sym = index.c_sym

    @property
    def nbytes(self) -> int:
        """The shared index; the engine adds nothing."""
        return self.index.nbytes

    def new_work_report(self) -> WorkReport:
        return WorkReport(c_sym=self.c_sym)

    def bucket_range(self, q) -> tuple[int, int]:
        """Row range of the query's prefix bucket: one search per side over the index."""
        index = self.index
        key = validate_query(q, self.length, self.sigma)
        starts, ends = index._prefix_ranges(key, np.array([self.bucket_depth]), self.n, 0)
        return int(starts[0]), int(ends[0])

    def bucket_sizes(self) -> np.ndarray:
        """Occupancy of every prefix bucket, by prefix code (derived; O(n d)).

        Raises InvalidInputError, before allocating, when there are more than
        ``MAX_LISTED_BUCKETS`` buckets.
        """
        if self.bucket_count > MAX_LISTED_BUCKETS:
            raise InvalidInputError(
                f"{self.bucket_count} buckets exceed the listing limit of {MAX_LISTED_BUCKETS}"
            )
        codes = np.zeros(self.n, dtype=np.int64)
        for j in range(self.bucket_depth):
            codes = codes * self.sigma + self.index.rows[:, j]
        return np.bincount(codes, minlength=self.bucket_count)

    def query(self, q, k: int, work: WorkReport | None = None) -> tuple[QueryResult, WorkReport]:
        """Exact top-k within the query's bucket, from its equal-LCP tiers.

        Returns the per-query work report as well; when ``work`` is given the
        counters are also accumulated there.
        """
        if k < 1:
            raise InvalidInputError(f"k must be >= 1, got {k}")
        index = self.index
        mid, tiers = index._tiers(validate_query(q, self.length, self.sigma), self.bucket_depth)
        tiers = list(tiers)
        # the bucket is the last tier; the work model charges each of its rows
        # min(lcp + 1, L) symbol comparisons
        scanned = symbols = 0
        for t, s, e in tiers:
            symbols += (e - s - scanned) * min(t + 1, self.length)
            scanned = e - s
        report = WorkReport(
            c_sym=self.c_sym, symbols_compared=symbols, items_scanned=scanned, queries=1
        )
        indices, lcps = index._select(tiers, mid, k)
        if work is not None:
            work.symbols_compared += report.symbols_compared
            work.items_scanned += report.items_scanned
            work.queries += 1
        result = QueryResult(indices=indices, lcps=lcps, matched_depth=self.bucket_depth, mode="tal")
        return result, report


def build_tal(dataset: Dataset, bucket_count: int) -> TalEngine:
    """Build the index and a bucketed scan engine for roughly ``bucket_count`` buckets.

    The effective bucket count is ``sigma**d`` for the smallest depth ``d``
    covering the request; requests beyond ``sigma**L`` are invalid.  To
    serve several bucket counts from one sort, build the index once and
    construct a :class:`TalEngine` per count over it.
    """
    return TalEngine(build(dataset), bucket_count)
