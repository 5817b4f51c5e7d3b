"""TAL: bucketed range-scan query execution over a prefix-sorted array.

The engine serves from the sorted rows of a :class:`~lcpsearch.trie.TrieIndex`
(stable lexicographic order; ties keep item order), partitioned into
``sigma**d`` buckets by the first ``d`` symbols, where ``d`` is the smallest
depth giving at least the requested bucket count.  It adds only a dense
directory of bucket boundaries, so any number of engines share one sort.  A
query touches exactly one bucket: the directory (or a binary search on the
sorted rows; both must agree) yields the half-open row range of the query's
own prefix, and only that range is answered from.

The bucket itself is not scanned.  The rows sharing the query's first ``t``
symbols form one contiguous range found by binary search, and the ranges for
``t = D, D-1, ..., d`` are nested tiers of equal LCP; the top-k is selected
tier by tier from the deepest, exactly as the trie's complete mode does (see
:meth:`~lcpsearch.trie.TrieIndex._tiers`).  Only the rows at tier boundaries
are ever compared with the query, so a query costs O(tiers * L log n) plus
the rows it selects, and its scratch memory stays within a few times
``max(NEEDLE_CHUNK_BYTES, 2L)`` bytes whatever the bucket size.

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

from .core import Dataset, InternalInvariantError, InvalidInputError, validate_query
from .trie import QueryResult, TrieIndex, _empty_result, _smallest, build
from .trie import NEEDLE_CHUNK_BYTES  # noqa: F401  (the scratch bound named above)
from .work import WorkReport

# Dense directories beyond this many entries would dominate memory; fall back
# to pure binary search on the sorted rows.
MAX_DIRECTORY_ENTRIES = 1 << 24


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
        self.rows = index.rows
        self.item_index = index.order
        self.n = index.n
        self.length = length
        self.sigma = sigma
        self.bucket_depth = depth
        self.requested_buckets = bucket_count
        self.bucket_count = sigma**depth
        self.c_sym = index.c_sym

        # Dense directory: row range per prefix code, when it fits.
        self.directory: np.ndarray | None = None
        if 0 < depth and self.bucket_count <= MAX_DIRECTORY_ENTRIES:
            codes = np.zeros(self.n, dtype=np.int64)
            for j in range(depth):
                codes = codes * sigma + self.rows[:, j].astype(np.int64)
            bounds = np.searchsorted(codes, np.arange(self.bucket_count + 1, dtype=np.int64))
            self.directory = bounds.astype(np.int64)

    @property
    def nbytes(self) -> int:
        """The shared index plus this engine's directory."""
        total = self.index.nbytes
        if self.directory is not None:
            total += self.directory.nbytes
        return int(total)

    def new_work_report(self) -> WorkReport:
        return WorkReport(c_sym=self.c_sym)

    # -- bucket lookup -------------------------------------------------------

    def _validate_query(self, q) -> np.ndarray:
        return validate_query(q, self.length, self.sigma)

    def prefix_code(self, q: np.ndarray) -> int:
        code = 0
        for j in range(self.bucket_depth):
            code = code * self.sigma + int(q[j])
        return code

    def _directory_range(self, query: np.ndarray) -> tuple[int, int]:
        code = self.prefix_code(query)
        return int(self.directory[code]), int(self.directory[code + 1])

    def _search_range(self, query: np.ndarray) -> tuple[int, int]:
        if self.bucket_depth == 0:
            return 0, self.n
        key = query.astype(">u2")
        mid = self.index._insertion_point(key, 0, self.n)
        starts, ends = self.index._prefix_ranges(
            key, np.array([self.bucket_depth]), 0, mid, self.n
        )
        return int(starts[0]), int(ends[0])

    def _bucket(self, query: np.ndarray) -> tuple[int, int]:
        if self.directory is not None:
            return self._directory_range(query)
        return self._search_range(query)

    def bucket_range_directory(self, q) -> tuple[int, int]:
        """Row range of the query's prefix bucket via the dense directory."""
        if self.directory is None:
            raise InvalidStateNoDirectory()
        return self._directory_range(self._validate_query(q))

    def bucket_range_search(self, q) -> tuple[int, int]:
        """Row range of the query's prefix bucket via binary search."""
        return self._search_range(self._validate_query(q))

    def bucket_range(self, q) -> tuple[int, int]:
        return self._bucket(self._validate_query(q))

    def bucket_sizes(self) -> np.ndarray:
        """Occupancy of every prefix bucket (directory path only)."""
        if self.directory is not None:
            return np.diff(self.directory)
        raise InvalidInputError(
            "bucket occupancy enumeration requires the dense directory"
        )

    # -- queries ---------------------------------------------------------------

    def query(self, q, k: int, work: WorkReport | None = None) -> tuple[QueryResult, WorkReport]:
        """Exact top-k within the query's bucket, from its equal-LCP tiers.

        Returns the per-query work report as well; when ``work`` is given the
        counters are also accumulated there.
        """
        if k < 1:
            raise InvalidInputError(f"k must be >= 1, got {k}")
        query = self._validate_query(q)
        lo, hi = self._bucket(query)
        report = self.new_work_report()
        report.queries = 1
        size = hi - lo
        if size == 0:
            if work is not None:
                work.queries += 1
            return _empty_result("tal", self.bucket_depth), report

        key = query.astype(">u2")
        mid = self.index._insertion_point(key, lo, hi)
        need = min(k, size)
        out_idx, out_lcp = [], []
        got = symbols = 0
        prev_lo = prev_hi = mid
        for depth, a, b in self.index._tiers(key, lo, mid, hi, self.bucket_depth):
            fresh = (prev_lo - a) + (b - prev_hi)
            # the work model charges each row min(lcp + 1, L) symbol comparisons
            symbols += fresh * min(depth + 1, self.length)
            take = min(need - got, fresh)
            if take:
                cand = np.concatenate((self.item_index[a:prev_lo], self.item_index[prev_hi:b]))
                out_idx.append(_smallest(cand, take))
                out_lcp.append(np.full(take, depth, dtype=np.int64))
                got += take
            prev_lo, prev_hi = a, b
        if (prev_lo, prev_hi) != (lo, hi) or got != need:
            raise InternalInvariantError("prefix tiers did not cover the bucket")
        report.items_scanned = size
        report.symbols_compared = symbols

        result = QueryResult(
            indices=np.concatenate(out_idx),
            lcps=np.concatenate(out_lcp),
            matched_depth=self.bucket_depth,
            mode="tal",
        )
        if work is not None:
            work.symbols_compared += report.symbols_compared
            work.items_scanned += report.items_scanned
            work.queries += 1
        return result, report


class InvalidStateNoDirectory(InvalidInputError):
    """Dense directory was not built (bucket count above the cap)."""


def build_tal(dataset: Dataset, bucket_count: int) -> TalEngine:
    """Build the index and a bucketed scan engine for roughly ``bucket_count`` buckets.

    The effective bucket count is ``sigma**d`` for the smallest depth ``d``
    covering the request; requests beyond ``sigma**L`` are invalid.  To
    serve several bucket counts from one sort, build the index once and
    construct a :class:`TalEngine` per count over it.
    """
    return TalEngine(build(dataset), bucket_count)


def tal_query(engine: TalEngine, q, k: int) -> tuple[QueryResult, WorkReport]:
    return engine.query(q, k)
