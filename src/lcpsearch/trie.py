"""Prefix-tree index over a fixed-length dataset, stored as its sorted rows.

Layout
------
Construction sorts the dataset once (stable, lexicographic) and keeps two
arrays and nothing else:

- ``rows``: the sorted rows, big-endian (``>u2``), so that each row is its
  own memcmp search key (:func:`lcpsearch.core.memcmp_keys`, a view);
- ``order``: the sort permutation (int32), the item index of each row.

That is ``2L + 4`` bytes per item.  The trie is implicit: because every item
has the same length, the depth-``d`` nodes are the maximal runs of rows that
share their first ``d`` symbols (the lcp-intervals of the rows), so a node is
fully described by its depth and its row range.  Its subtree size is the
width of the range, its children are the runs of equal symbols in column
``d`` of the range, and its posting list, non-empty only at depth ``L``, is
its slice of ``order``.  Node ids (level by level, within a level in sorted
order), node counts and level offsets are derived on demand from the
adjacent-LCP array; no query needs them.

Every byte of the structure is a pure function of the dataset: no hashing,
no pointer addresses, no iteration-order dependence.  A built index is
immutable and may be queried concurrently without synchronization.

Query path
----------
The rows sharing the query's first ``t`` symbols form one contiguous range
containing its insertion point (the first row not below it), and the
ranges for ``t = D, D-1, ...`` are nested tiers of equal LCP, walked
deepest first and taken from by one selection loop.  The walk can stop at
a depth ``d0``: its last tier is then the range of rows sharing ``d0``
symbols.  A range is found by binary search with the query prefix padded
by 0x0000 (left end) and 0xFFFF (right end), the classic suffix-array
technique, and the walk has two entries:

- a short ladder stopped above the root, ``d0 >= 1`` and ``L - d0 + 1``
  depths no more than the window is wide (``w``, at most ``WINDOW_ROWS``),
  searches every depth ``L..d0`` in one batch over the whole index; the
  left end of the depth-``L`` range is the insertion point, so nothing
  else is searched;
- any other walk first binary-searches the insertion point, reads off the
  tiers inside the ``2w`` rows around it from one compare of them, and
  searches only the tiers reaching past them.

A query costs ``O(L log n)`` per side per depth searched, plus the rows it
selects (and on the window entry, the insertion search and the compare);
its scratch memory stays within a few times
``max(NEEDLE_CHUNK_BYTES, 2L)`` bytes.  Strict and complete queries
(``d0 = 0``) always take the window entry: strict uses only the deepest
tier, which the window usually holds, so searching the whole ladder would
be wasted.  The TAL engine (:mod:`lcpsearch.tal`) is the walk stopped at
its bucket depth, so it takes the ladder search when that depth is at
least ``max(1, L + 1 - w)`` (any depth from 1 at ``L = 16``).

Query semantics
---------------
``strict`` mode returns up to ``k`` items from the deepest tier only, the
subtree of the deepest node whose path matches the query; it may return
fewer than ``k`` when the subtree is small.  ``complete`` mode continues
through the shallower tiers, each the not-yet-visited part of one ancestor's
range (those items match exactly at the ancestor's depth), until
``min(k, n)`` hits.  In both modes hits are ordered by (lcp descending, item
index ascending), and within an equal-lcp tier the *selection* is also by
ascending index, so results agree exactly with the exhaustive definition of
top-k under index tie-breaking.

The work counters model a node-by-node descent: ``symbols_compared`` is
``min(D + 1, L)`` and ``nodes_visited`` is ``D + 1`` plus, in complete mode,
one per ancestor walked.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from .core import (
    MAX_ITEMS,
    Dataset,
    InternalInvariantError,
    InvalidInputError,
    InvalidStateError,
    adjacent_lcp,
    lexicographic_order,
    memcmp_keys,
    validate_query,
)
from .work import WorkReport, work_per_symbol

# Size of one padded-prefix search-key matrix built by a query: prefix ranges
# are searched in chunks of this many bytes of keys (at least one key), so
# short sequences search all their depths at once and long ones a few at a
# time, and no query allocates O(L^2) bytes.
NEEDLE_CHUNK_BYTES = 1 << 16

# Rows on each side of the insertion point compared at once (fewer when that
# many rows of 2L bytes exceed NEEDLE_CHUNK_BYTES); tiers inside are not searched.
WINDOW_ROWS = 16

MODE_CODES = {"strict": 0, "complete": 1, "tal": 2}


@dataclass(frozen=True, eq=False)
class QueryResult:
    """Ordered hits of one top-k query: (item index, exact lcp) pairs."""

    indices: np.ndarray = field(repr=False)
    lcps: np.ndarray = field(repr=False)
    matched_depth: int
    mode: str

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.indices.tolist(), self.lcps.tolist()))

    def to_bytes(self) -> bytes:
        """Canonical little-endian serialization; identical runs give identical bytes."""
        head = (
            b"LCPR"
            + bytes([1, MODE_CODES[self.mode]])
            + int(self.matched_depth).to_bytes(2, "little")
            + len(self.indices).to_bytes(4, "little")
        )
        return (
            head
            + np.ascontiguousarray(self.indices, dtype="<u4").tobytes()
            + np.ascontiguousarray(self.lcps, dtype="<u2").tobytes()
        )


def _smallest(values: np.ndarray, k: int) -> np.ndarray:
    """The k smallest entries of ``values``, ascending, in a new array. k may exceed the size."""
    out = values.copy()
    if k < out.size:
        out.partition(k - 1)
        out = out[:k].copy()
    out.sort()
    return out


def _row_lcps(rows: np.ndarray, key: np.ndarray) -> np.ndarray:
    """LCP of each of ``rows`` with ``key``: its first mismatch, one appended past the end."""
    neq = np.ones((rows.shape[0], key.size + 1), dtype=bool)
    np.not_equal(rows, key, out=neq[:, :-1])
    return neq.argmax(axis=1)


def _new_ranges(depths: np.ndarray, starts: np.ndarray, ends: np.ndarray, a: int, b: int):
    """``(depth, start, end)`` of each searched range wider than the one before it.

    The ranges are nested, widening from ``[a, b)``; a range equal to the one
    before it adds no row and is no tier.
    """
    for t, s, e in zip(depths.tolist(), starts.tolist(), ends.tolist()):
        if (s, e) != (a, b):
            yield t, s, e
            a, b = s, e


@dataclass(frozen=True)
class TrieNodeView:
    """Read-only handle on one trie node: a depth and a row range."""

    index: "TrieIndex"
    depth: int
    row_lo: int
    row_hi: int

    @property
    def node_id(self) -> int:
        """Breadth-first id (derived on demand; O(n L))."""
        index = self.index
        adj = adjacent_lcp(index.rows)
        first = level_offsets(adj, index.n, index.length)[self.depth]
        return int(first + np.searchsorted(level_starts(adj, index.n, self.depth), self.row_lo))

    @property
    def subtree_size(self) -> int:
        return self.row_hi - self.row_lo

    @property
    def edge_symbol(self) -> int | None:
        if self.depth == 0:
            return None
        return int(self.index.rows[self.row_lo, self.depth - 1])

    @property
    def posting(self) -> np.ndarray:
        """Item indices ending at this node (non-empty only at full depth)."""
        if self.depth != self.index.length:
            return np.zeros(0, dtype=self.index.order.dtype)
        return self.index.order[self.row_lo : self.row_hi]

    def children(self) -> list["TrieNodeView"]:
        """Child views in ascending edge-symbol order: the runs of column ``depth``."""
        if self.depth == self.index.length or self.row_lo == self.row_hi:
            return []
        col = self.index.rows[self.row_lo : self.row_hi, self.depth]
        cuts = (self.row_lo + 1 + np.flatnonzero(col[1:] != col[:-1])).tolist()
        bounds = [self.row_lo, *cuts, self.row_hi]
        return [
            TrieNodeView(self.index, self.depth + 1, lo, hi)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]


def level_starts(adj: np.ndarray, n: int, depth: int) -> np.ndarray:
    """First row of each depth-``depth`` node, in id order.

    ``adj`` is the adjacent-LCP array of the ``n`` sorted rows: a run of rows
    sharing ``depth`` symbols starts at row 0 and after each LCP below ``depth``.
    """
    if n == 0 and depth:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(([0], np.flatnonzero(adj < depth) + 1))


def level_offsets(adj: np.ndarray, n: int, length: int) -> np.ndarray:
    """First node id of each depth ``0..length``, then the node count.

    The same runs as :func:`level_starts`, counted by a histogram of ``adj``.
    """
    sizes = np.zeros(length + 1, dtype=np.int64)
    sizes[0] = 1
    if n:
        below = np.cumsum(np.bincount(adj, minlength=length))
        sizes[1:] = 1 + below[:length]
    return np.concatenate(([0], np.cumsum(sizes)))


def layout_defect(rows: np.ndarray, order: np.ndarray, sigma: int) -> str | None:
    """Why ``rows`` and ``order`` are not the index of any dataset, or None.

    They are when every symbol is below ``sigma``, ``order`` is a permutation
    of ``[0, n)``, and the rows ascend in stable lexicographic order: equal
    rows by ascending item index.
    """
    n = rows.shape[0]
    if n and int(rows.max()) >= sigma:
        return f"symbol {int(rows.max())} out of range for alphabet of size {sigma}"
    if order.shape != (n,) or (
        n
        and (
            int(order.min()) < 0
            or int(order.max()) >= n
            or int(np.bincount(order, minlength=n).max()) > 1
        )
    ):
        return "item indices are not a permutation of [0, n)"
    if n > 1:
        neq = rows[1:] != rows[:-1]
        col = neq.argmax(axis=1)
        i = np.arange(n - 1)
        ascending = np.where(
            neq.any(axis=1), rows[i + 1, col] > rows[i, col], order[1:] > order[:-1]
        )
        if not ascending.all():
            return "rows are not in stable lexicographic order"
    return None


class TrieIndex:
    """Immutable trie over a dataset; see the module docstring for layout."""

    def __init__(self, *, sigma: int, rows: np.ndarray, order: np.ndarray):
        self.n, self.length = (int(x) for x in rows.shape)
        self.sigma = sigma
        self.rows = rows
        self.order = order
        for arr in (rows, order):
            arr.setflags(write=False)
        self._keys = memcmp_keys(rows)
        self.c_sym = work_per_symbol(self.length)

    # -- structure ---------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Live memory footprint in bytes: the sorted rows and the permutation."""
        return int(self.rows.nbytes + self.order.nbytes)

    @property
    def level_offset(self) -> np.ndarray:
        """First node id of each depth ``0..L``, then the node count (derived)."""
        return level_offsets(adjacent_lcp(self.rows), self.n, self.length)

    @property
    def node_count(self) -> int:
        return int(self.level_offset[-1])

    def new_work_report(self) -> WorkReport:
        return WorkReport(c_sym=self.c_sym)

    @property
    def root(self) -> TrieNodeView:
        return TrieNodeView(self, 0, 0, self.n)

    def node(self, node_id: int) -> TrieNodeView:
        adj = adjacent_lcp(self.rows)
        offsets = level_offsets(adj, self.n, self.length)
        if not (0 <= node_id < int(offsets[-1])):
            raise InvalidInputError(f"node id {node_id} out of range")
        depth = int(np.searchsorted(offsets, node_id, side="right")) - 1
        bounds = np.append(level_starts(adj, self.n, depth), self.n)
        j = node_id - int(offsets[depth])
        return TrieNodeView(self, depth, int(bounds[j]), int(bounds[j + 1]))

    # -- prefix tiers --------------------------------------------------------

    def _prefix_ranges(
        self, key: np.ndarray, depths: np.ndarray, a: int, b: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row range of the rows starting with ``key[:t]``, for each t in ``depths``.

        ``key[:t]`` padded with 0x0000 is the smallest row with that prefix
        and padded with 0xFFFF the largest, so one ``searchsorted`` per side
        finds every range.  Each range must contain rows ``[a, b)``, so only
        the rows outside them are searched; ``a = n, b = 0`` searches them all.
        """
        needles = np.empty((2, depths.size, self.length), dtype=">u2")
        needles[...] = key
        pad = np.arange(self.length) >= depths[:, None]
        np.putmask(needles[0], pad, 0)
        np.putmask(needles[1], pad, 0xFFFF)
        first, last = needles.view(self._keys.dtype)[..., 0]
        starts = self._keys[:a].searchsorted(first, side="left")
        ends = self._keys[b:].searchsorted(last, side="right")
        if b:
            ends += b
        return starts, ends

    def _tiers(self, key: np.ndarray, d0: int):
        """The query's insertion point and its equal-LCP tiers down to depth ``d0``.

        ``key`` is a validated query key.  Returns ``(mid, tiers)``: ``mid``
        is the first row not below the key, and ``tiers`` iterates deepest
        first over ``(depth, start, end)``: rows ``[start, end)`` share at
        least ``depth`` symbols with the query, and the rows a tier adds to
        the one before it share exactly ``depth``.  It yields nothing when no
        row shares ``d0`` symbols; otherwise its last tier is the range of
        rows sharing ``d0`` symbols.

        When ``d0 >= 1`` and the ladder of depths ``L..d0`` is no longer than
        the window ``w = min(WINDOW_ROWS, NEEDLE_CHUNK_BYTES / 2L)`` is wide,
        every depth of it is searched in one batch over the whole index: the
        left end of the depth-``L`` range is ``mid``, and depths no row
        reaches give empty ranges at ``mid``, which are skipped.  Other walks
        take the window walk of :meth:`_window_tiers`, which locates ``mid``
        first.  Walks to the root (strict and complete, ``d0 = 0``) stay on
        the window even when ``L < w``: strict keeps only the deepest tier,
        which the window usually answers without a search.

        The ladder limit is tied to the window width on purpose, so there is
        one tuning value: it is a conservative bound below the crossover
        measured for TAL at about 24 depths (n = 2^18, clustered rows,
        B = 64), past which the window walk is faster.  A change to
        ``WINDOW_ROWS`` moves both, and should re-measure both.
        """
        length = self.length
        step = max(1, NEEDLE_CHUNK_BYTES // (2 * length))
        w = min(WINDOW_ROWS, step)
        if d0 and length - d0 + 1 <= w:
            depths = np.arange(length, d0 - 1, -1)
            starts, ends = self._prefix_ranges(key, depths, self.n, 0)
            mid = int(starts[0])
            return mid, _new_ranges(depths, starts, ends, mid, mid)
        mid = int(self._keys.searchsorted(key.view(self._keys.dtype))[0])
        return mid, self._window_tiers(key, mid, d0, w, step)

    def _window_tiers(self, key: np.ndarray, mid: int, d0: int, w: int, step: int):
        """The tiers of :meth:`_tiers`, read off the rows around ``mid`` first.

        The rows within ``w`` of ``mid`` are compared at once.  Their LCPs
        never decrease toward ``mid``, so each tier deeper than ``c``, the
        larger LCP of the window-edge rows that have a neighbour outside the
        window, lies inside it and is read off by walking outward.  From
        depth ``c`` the ranges of up to ``step`` depths are searched at a
        time, past the rows taken; each later batch starts at the LCP of the
        rows just outside.  The walk stops after the batch that reaches ``d0``.
        """
        n = self.n
        lo, hi = max(0, mid - w), min(n, mid + w)
        lcp = _row_lcps(self.rows[lo:hi], key).tolist()
        # rows outside the window share at most c symbols with the query
        c = max(lcp[0] if lo > 0 else -1, lcp[-1] if hi < n else -1)
        floor = max(c, d0 - 1)
        a = b = mid
        for depth in sorted({v for v in lcp if v > floor}, reverse=True):
            while a > lo and lcp[a - 1 - lo] >= depth:
                a -= 1
            while b < hi and lcp[b - lo] >= depth:
                b += 1
            yield depth, a, b
        depth = c
        while depth >= d0:
            depths = np.arange(depth, max(d0 - 1, depth - step), -1)
            starts, ends = self._prefix_ranges(key, depths, a, b)
            if (starts[0], ends[0]) == (a, b):
                raise InternalInvariantError(f"no row found sharing {depth} symbols")
            yield from _new_ranges(depths, starts, ends, a, b)
            a, b = int(starts[-1]), int(ends[-1])
            outside = [i for i in (a - 1, b) if 0 <= i < n]
            if depths[-1] == d0 or not outside:
                return
            depth = int(_row_lcps(self.rows[outside], key).max())

    def _select(self, tiers, mid: int, need: int) -> tuple[np.ndarray, np.ndarray]:
        """Up to ``need`` hits taken tier by tier from ``tiers``: (indices, lcps).

        Each tier contributes its new rows, those outside the tier before it
        (the first tier's "before" is the empty range at ``mid``), selected
        by ascending item index.  Tiers are consumed only until ``need`` hits
        are taken.  Indices have the dtype of ``order`` on every path.
        """
        order = self.order
        picked, depths, takes = [], [], []
        got = 0
        a = b = mid
        for t, s, e in tiers:
            take = min(need - got, (a - s) + (e - b))
            if s == a:
                new = order[b:e]
            elif e == b:
                new = order[s:a]
            else:
                new = np.concatenate((order[s:a], order[b:e]))
            picked.append(_smallest(new, take))
            depths.append(t)
            takes.append(take)
            got += take
            a, b = s, e
            if got >= need:
                break
        if not picked:
            return np.zeros(0, dtype=order.dtype), np.zeros(0, dtype=np.int64)
        indices = picked[0] if len(picked) == 1 else np.concatenate(picked)
        return indices, np.array(depths, dtype=np.int64).repeat(takes)

    # -- queries -----------------------------------------------------------

    def descend(self, q) -> tuple[TrieNodeView, int]:
        """Deepest node whose path matches a prefix of ``q``, and its depth."""
        _, tiers = self._tiers(validate_query(q, self.length, self.sigma), 0)
        depth, lo, hi = next(tiers, (0, 0, self.n))
        return TrieNodeView(self, depth, lo, hi), depth

    def collect_top_k(self, node: TrieNodeView, k: int) -> np.ndarray:
        """Up to ``k`` item indices from the node's subtree, ascending by index.

        When the subtree holds at most ``k`` items the whole range is taken;
        otherwise the k smallest indices are selected, matching the index
        tie-break of the exhaustive top-k definition.
        """
        if k < 1:
            raise InvalidInputError(f"k must be >= 1, got {k}")
        rows = self.order[node.row_lo : node.row_hi]
        picked = _smallest(rows, k)
        if picked.size > k:
            raise InternalInvariantError("collection emitted more than k items")
        return picked

    def query(self, q, k: int, mode: str = "strict", work: WorkReport | None = None) -> QueryResult:
        """Top-k by LCP against the indexed dataset.

        Raises InvalidInputError for a malformed query or k < 1.  When a
        ``work`` report is supplied, descent comparisons and visited nodes
        are accumulated into it.
        """
        if mode not in ("strict", "complete"):
            raise InvalidInputError(f"mode must be 'strict' or 'complete', got {mode!r}")
        if k < 1:
            raise InvalidInputError(f"k must be >= 1, got {k}")
        mid, tiers = self._tiers(validate_query(q, self.length, self.sigma), 0)
        if mode == "strict":
            tiers = itertools.islice(tiers, 1)
        indices, lcps = self._select(tiers, mid, min(k, self.n))
        depth = int(lcps[0]) if lcps.size else 0
        if work is not None:
            # counted as a node-by-node descent: one symbol per level entered,
            # then one node per ancestor down to the last tier taken from
            last = int(lcps[-1]) if lcps.size else 0
            work.symbols_compared += min(depth + 1, self.length) if self.n else 0
            work.nodes_visited += depth + 1 + (depth - last)
            work.queries += 1
        return QueryResult(indices=indices, lcps=lcps, matched_depth=depth, mode=mode)

    # -- integrity ---------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify the layout contract; raises InternalInvariantError on failure.

        Checks: every symbol is in the alphabet, ``order`` is a permutation
        of ``[0, n)``, and the rows are in stable lexicographic order.
        """
        defect = layout_defect(self.rows, self.order, self.sigma)
        if defect is not None:
            raise InternalInvariantError(defect)


def build(dataset: Dataset) -> TrieIndex:
    """Construct the index: sort the rows once and keep them with the permutation.

    An empty dataset yields a valid index containing only the root.
    """
    items = dataset.items
    if items.shape[0] >= MAX_ITEMS:
        raise InvalidInputError(f"{items.shape[0]} items exceed the limit of {MAX_ITEMS - 1}")
    order = lexicographic_order(items)
    # Big-endian rows are their own memcmp keys; swap in place so the build
    # never holds two copies of the rows.
    rows = items[order]
    if rows.dtype != np.dtype(">u2"):
        rows = rows.byteswap(inplace=True).view(">u2")
    return TrieIndex(sigma=dataset.alphabet.size, rows=rows, order=order.astype(np.int32))


class QueryCache:
    """Memoization cache keyed on (query bytes, k, mode) with atomic get-or-insert.

    A cache serves one index: the first index it is used with.  Cached
    results are immutable, so returning the stored object gives bit-identical
    repeats.  Hits and misses are counted for reporting.
    """

    def __init__(self) -> None:
        self._store: dict[tuple[bytes, int, str], QueryResult] = {}
        self._lock = threading.Lock()
        self._index: weakref.ref | None = None
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def lookup(self, index: TrieIndex, key: tuple[bytes, int, str]) -> QueryResult | None:
        """The result cached for ``key``, or None; the first call binds ``index``.

        Raises InvalidStateError when the cache already serves another index.
        """
        with self._lock:
            if self._index is None:
                self._index = weakref.ref(index)
            elif self._index() is not index:
                raise InvalidStateError("query cache already serves another index")
            res = self._store.get(key)
            if res is None:
                self.misses += 1
            else:
                self.hits += 1
            return res

    def insert(self, key: tuple[bytes, int, str], value: QueryResult) -> QueryResult:
        with self._lock:
            return self._store.setdefault(key, value)


def memoized_query(
    index: TrieIndex,
    q,
    k: int,
    mode: str = "strict",
    cache: QueryCache | None = None,
    work: WorkReport | None = None,
) -> QueryResult:
    """Like :meth:`TrieIndex.query` but served from ``cache`` on repeats.

    A hit performs no descent and no collection; it contributes zero scan
    work to ``work`` apart from the hit counter.  Raises InvalidStateError
    when ``cache`` has served a different index.
    """
    if cache is None:
        raise InvalidInputError("memoized_query requires a cache")
    query = validate_query(q, index.length, index.sigma)
    key = (query.tobytes(), int(k), mode)
    cached = cache.lookup(index, key)
    if cached is not None:
        if work is not None:
            work.cache_hits += 1
            work.queries += 1
        return cached
    result = index.query(query, k, mode, work=work)
    return cache.insert(key, result)
