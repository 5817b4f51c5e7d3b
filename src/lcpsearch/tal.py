"""TAL: bucketed range-scan query execution over a prefix-sorted array.

The dataset is sorted lexicographically once (stable; ties keep item order)
and partitioned into ``sigma**d`` buckets by the first ``d`` symbols, where
``d`` is the smallest depth giving at least the requested bucket count.  A
query touches exactly one bucket: the directory (or a binary search on the
sorted rows; both must agree) yields the half-open row range of the query's
own prefix, and only that range is answered from.

The bucket itself is not scanned.  The sorted rows are stored big-endian,
so each row doubles as a memcmp key, and the rows sharing the query's first
``t`` symbols form one contiguous range found by binary search (the classic
suffix-array technique).  The rows next to the query's insertion point give
the deepest shared prefix ``D``; the ranges for ``t = D, D-1, ..., d`` are
nested tiers of equal LCP, and the top-k is selected tier by tier from the
deepest, exactly as the trie's complete mode backtracks.  Only the rows at
tier boundaries are ever compared with the query, so a query costs
O(tiers * L log n) plus the rows it selects, and its scratch memory stays
within a few times ``max(NEEDLE_CHUNK_BYTES, 2L)`` bytes whatever the
bucket size.

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

from .core import (
    Dataset,
    InternalInvariantError,
    InvalidInputError,
    lexicographic_order,
    memcmp_keys,
    validate_query,
)
from .trie import QueryResult, _empty_result, _smallest
from .work import WorkReport, work_per_symbol

# Dense directories beyond this many entries would dominate memory; fall back
# to pure binary search on the sorted rows.
MAX_DIRECTORY_ENTRIES = 1 << 24

# Size of one padded-prefix search-key matrix built by a query: prefix ranges
# are searched in chunks of this many bytes of keys (at least one key), so
# short sequences search all their depths at once and long ones a few at a
# time, and no query allocates O(L^2) bytes.
NEEDLE_CHUNK_BYTES = 1 << 16


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

    def __init__(self, dataset: Dataset, bucket_count: int):
        if bucket_count < 1:
            raise InvalidInputError(f"bucket count must be >= 1, got {bucket_count}")
        sigma = dataset.alphabet.size
        length = dataset.length
        if bucket_count > sigma**length:
            raise InvalidInputError(
                f"bucket count {bucket_count} needs prefix depth beyond the "
                f"sequence length {length} (alphabet {sigma})"
            )
        depth = _prefix_depth(sigma, bucket_count)

        order = lexicographic_order(dataset.items)
        # Big-endian rows are their own memcmp keys; swap in place so the
        # build never holds two copies of the rows.
        rows = dataset.items[order]
        if rows.dtype != np.dtype(">u2"):
            rows = rows.byteswap(inplace=True).view(">u2")
        self.rows = rows
        self.item_index = order.astype(np.int64, copy=False)
        self.rows.setflags(write=False)
        self.item_index.setflags(write=False)
        self._keys = memcmp_keys(self.rows)

        self.n = dataset.n
        self.length = length
        self.sigma = sigma
        self.bucket_depth = depth
        self.requested_buckets = bucket_count
        self.bucket_count = sigma**depth
        self.c_sym = work_per_symbol(length)

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
        total = self.rows.nbytes + self.item_index.nbytes
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

    def _insertion_point(self, key: np.ndarray, lo: int, hi: int) -> int:
        """First row in ``[lo, hi)`` not below the big-endian query ``key``."""
        return lo + int(np.searchsorted(self._keys[lo:hi], memcmp_keys(key[None, :]))[0])

    def _prefix_ranges(
        self, key: np.ndarray, depths: np.ndarray, lo: int, mid: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row range of the rows starting with ``key[:t]``, for each t in ``depths``.

        ``key[:t]`` padded with 0x0000 is the smallest row with that prefix
        and padded with 0xFFFF the largest, so one ``searchsorted`` per side
        finds every range.  Each range must lie in ``[lo, hi)`` and contain
        the query's insertion point ``mid``.
        """
        keep = np.arange(self.length) < depths[:, None]
        first = memcmp_keys(np.where(keep, key, 0).astype(">u2"))
        last = memcmp_keys(np.where(keep, key, 0xFFFF).astype(">u2"))
        starts = lo + np.searchsorted(self._keys[lo:mid], first, side="left")
        ends = mid + np.searchsorted(self._keys[mid:hi], last, side="right")
        return starts, ends

    def _tiers(self, key: np.ndarray, lo: int, mid: int, hi: int) -> list[tuple[int, int, int]]:
        """Equal-LCP tiers of the bucket ``[lo, hi)``, deepest first.

        Each tier is ``(depth, start, end)``: rows ``[start, end)`` share at
        least ``depth`` symbols with the query, and the rows a tier adds to
        the one before it share exactly ``depth``.  The next tier's depth is
        the LCP of the rows just outside the current range; from there the
        ranges of up to ``NEEDLE_CHUNK_BYTES / 2L`` shallower depths are
        searched at once, so short sequences take one batch and long ones
        skip the depths no row stops at.
        """
        d0, length = self.bucket_depth, self.length
        step = max(1, NEEDLE_CHUNK_BYTES // (2 * length))
        tiers = []
        a = b = mid
        while (a, b) != (lo, hi):
            outside = [i for i in (a - 1, b) if lo <= i < hi]
            neq = self.rows[outside] != key
            depth = int(np.where(neq.any(axis=1), neq.argmax(axis=1), length).max())
            depths = np.arange(depth, max(d0 - 1, depth - step), -1)
            starts, ends = self._prefix_ranges(key, depths, lo, mid, hi)
            if (starts[0], ends[0]) == (a, b):
                raise InternalInvariantError(f"no row found sharing {depth} symbols")
            for t, s, e in zip(depths.tolist(), starts.tolist(), ends.tolist()):
                if (s, e) != (a, b):
                    tiers.append((t, s, e))
                    a, b = s, e
        return tiers

    def _directory_range(self, query: np.ndarray) -> tuple[int, int]:
        code = self.prefix_code(query)
        return int(self.directory[code]), int(self.directory[code + 1])

    def _search_range(self, query: np.ndarray) -> tuple[int, int]:
        if self.bucket_depth == 0:
            return 0, self.n
        key = query.astype(">u2")
        mid = self._insertion_point(key, 0, self.n)
        starts, ends = self._prefix_ranges(key, np.array([self.bucket_depth]), 0, mid, self.n)
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
        mid = self._insertion_point(key, lo, hi)
        need = min(k, size)
        out_idx, out_lcp = [], []
        got = symbols = 0
        prev_lo = prev_hi = mid
        for depth, a, b in self._tiers(key, lo, mid, hi):
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
    """Build the bucketed scan engine for roughly ``bucket_count`` buckets.

    The effective bucket count is ``sigma**d`` for the smallest depth ``d``
    covering the request; requests beyond ``sigma**L`` are invalid.
    """
    return TalEngine(dataset, bucket_count)


def tal_query(engine: TalEngine, q, k: int) -> tuple[QueryResult, WorkReport]:
    return engine.query(q, k)
