"""Prefix-tree index over a fixed-length dataset with O(L + k) queries.

Construction sorts the dataset once (stable, lexicographic) and lays the trie
out as a flat arena: node ids are assigned level by level (breadth-first),
and within a level in sorted-prefix order.  Because every item has the same
length, each level's nodes partition the sorted row range ``[0, n)``, so a
node is fully described by the row offset where its range starts plus the
symbol on its incoming edge.  Everything else is derived:

- ``subtree_size`` is the width of the node's row range;
- a node's children are the next level's nodes whose ranges fall inside its
  own (found by binary search);
- posting lists exist only at depth ``L`` and are slices of the sort
  permutation, so the permutation itself is the concatenation of all posting
  lists in id order.

This keeps the arena at 6 bytes per node plus 4 bytes per item and makes
every byte of the structure a pure function of the dataset: no hashing, no
pointer addresses, no iteration-order dependence.  A built index is
immutable and may be queried concurrently without synchronization.

Query semantics
---------------
``strict`` mode descends to the deepest node whose path matches the query
and returns up to ``k`` items from that subtree only; it may return fewer
than ``k`` when the subtree is small.  ``complete`` mode continues from
there, backtracking ancestor by ancestor and pulling items from the not-yet
visited part of each ancestor's range (those items match exactly at the
ancestor's depth), until ``min(k, n)`` hits.  In both modes hits are ordered
by (lcp descending, item index ascending), and within an equal-lcp tier the
*selection* is also by ascending index, so results agree exactly with the
exhaustive definition of top-k under index tie-breaking.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Dataset,
    InternalInvariantError,
    InvalidInputError,
    adjacent_lcp,
    lexicographic_order,
    validate_query,
)
from .work import WorkReport, work_per_symbol

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


def _empty_result(mode: str, matched_depth: int = 0) -> QueryResult:
    return QueryResult(
        indices=np.zeros(0, dtype=np.int64),
        lcps=np.zeros(0, dtype=np.int64),
        matched_depth=matched_depth,
        mode=mode,
    )


def _smallest(values: np.ndarray, k: int) -> np.ndarray:
    """The k smallest entries of ``values``, ascending. k may exceed the size."""
    if k >= values.size:
        return np.sort(values)
    return np.sort(np.partition(values, k - 1)[:k])


@dataclass(frozen=True)
class TrieNodeView:
    """Read-only handle on one arena node (mainly for tests and inspection)."""

    index: "TrieIndex"
    node_id: int
    depth: int
    row_lo: int
    row_hi: int

    @property
    def subtree_size(self) -> int:
        return self.row_hi - self.row_lo

    @property
    def edge_symbol(self) -> int | None:
        if self.node_id == 0:
            return None
        return int(self.index.edge_symbol[self.node_id])

    @property
    def posting(self) -> np.ndarray:
        """Item indices ending at this node (non-empty only at full depth)."""
        if self.depth != self.index.length:
            return np.zeros(0, dtype=self.index.order.dtype)
        return self.index.order[self.row_lo : self.row_hi]

    def children(self) -> list["TrieNodeView"]:
        """Child views in ascending edge-symbol order."""
        return self.index._children(self)


class TrieIndex:
    """Immutable trie over a dataset; see the module docstring for layout."""

    def __init__(
        self,
        *,
        n: int,
        length: int,
        sigma: int,
        order: np.ndarray,
        row_lo: np.ndarray,
        edge_symbol: np.ndarray,
        level_offset: np.ndarray,
    ):
        self.n = n
        self.length = length
        self.sigma = sigma
        self.order = order
        self.row_lo = row_lo
        self.edge_symbol = edge_symbol
        self.level_offset = level_offset
        for arr in (order, row_lo, edge_symbol, level_offset):
            arr.setflags(write=False)
        self.c_sym = work_per_symbol(length)

    # -- structure ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        return int(self.row_lo.shape[0])

    @property
    def nbytes(self) -> int:
        """Live memory footprint of the arena in bytes."""
        return int(
            self.order.nbytes
            + self.row_lo.nbytes
            + self.edge_symbol.nbytes
            + self.level_offset.nbytes
        )

    def new_work_report(self) -> WorkReport:
        return WorkReport(c_sym=self.c_sym)

    @property
    def root(self) -> TrieNodeView:
        return TrieNodeView(self, 0, 0, 0, self.n)

    def node(self, node_id: int) -> TrieNodeView:
        if not (0 <= node_id < self.node_count):
            raise InvalidInputError(f"node id {node_id} out of range")
        depth = int(np.searchsorted(self.level_offset, node_id, side="right")) - 1
        lo = int(self.row_lo[node_id])
        hi = self._row_hi(node_id, depth)
        return TrieNodeView(self, node_id, depth, lo, hi)

    def _row_hi(self, node_id: int, depth: int) -> int:
        level_end = int(self.level_offset[depth + 1])
        if node_id + 1 < level_end:
            return int(self.row_lo[node_id + 1])
        return self.n

    def _child_range(self, depth: int, lo: int, hi: int) -> tuple[int, int]:
        """Arena id range of the children of a node at ``depth`` covering rows [lo, hi)."""
        if depth >= self.length:
            return 0, 0
        base = int(self.level_offset[depth + 1])
        end = int(self.level_offset[depth + 2])
        slice_lo = self.row_lo[base:end]
        # needles must match the array dtype: a python-int needle makes
        # searchsorted promote (and copy) the whole level slice
        c0 = base + int(np.searchsorted(slice_lo, np.int32(lo), side="left"))
        c1 = base + int(np.searchsorted(slice_lo, np.int32(hi), side="left"))
        return c0, c1

    def _children(self, view: TrieNodeView) -> list[TrieNodeView]:
        c0, c1 = self._child_range(view.depth, view.row_lo, view.row_hi)
        out = []
        for cid in range(c0, c1):
            lo = int(self.row_lo[cid])
            hi = self._row_hi(cid, view.depth + 1)
            out.append(TrieNodeView(self, cid, view.depth + 1, lo, hi))
        return out

    # -- queries -----------------------------------------------------------

    def _validate_query(self, q) -> np.ndarray:
        return validate_query(q, self.length, self.sigma)

    def _descend(self, q: np.ndarray) -> tuple[list[tuple[int, int, int, int]], int]:
        """Walk the query path; returns ((id, depth, lo, hi) per node, comparisons)."""
        path = [(0, 0, 0, self.n)]
        comparisons = 0
        if self.n == 0:
            return path, comparisons
        node, lo, hi = 0, 0, self.n
        row_lo = self.row_lo
        edge = self.edge_symbol
        offs = self.level_offset
        for d in range(self.length):
            base = int(offs[d + 1])
            end = int(offs[d + 2])
            lvl = row_lo[base:end]
            c0 = base + int(np.searchsorted(lvl, np.int32(lo), side="left"))
            c1 = base + int(np.searchsorted(lvl, np.int32(hi), side="left"))
            comparisons += 1
            syms = edge[c0:c1]
            j = int(np.searchsorted(syms, q[d]))
            if j == c1 - c0 or int(syms[j]) != int(q[d]):
                break
            node = c0 + j
            lo = int(row_lo[node])
            hi = int(row_lo[node + 1]) if node + 1 < end else self.n
            path.append((node, d + 1, lo, hi))
        if comparisons > self.length:
            raise InternalInvariantError("descent exceeded L symbol comparisons")
        return path, comparisons

    def descend(self, q) -> tuple[TrieNodeView, int]:
        """Deepest node whose path matches a prefix of ``q``, and its depth."""
        query = self._validate_query(q)
        path, _ = self._descend(query)
        node_id, depth, lo, hi = path[-1]
        return TrieNodeView(self, node_id, depth, lo, hi), depth

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

    def subtree_items_lexicographic(self, node: TrieNodeView) -> np.ndarray:
        """All subtree items in breadth-first emission order.

        With fixed-length items, postings exist only at full depth and a
        breadth-first walk with symbol-sorted children reaches them in sorted
        row order, so the emission order is exactly this slice of the sort
        permutation.
        """
        return self.order[node.row_lo : node.row_hi]

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
        query = self._validate_query(q)
        path, comparisons = self._descend(query)
        node_id, depth, lo, hi = path[-1]
        if work is not None:
            work.symbols_compared += comparisons
            work.nodes_visited += len(path)
            work.queries += 1

        need = min(k, self.n) if mode == "complete" else k
        tier_rows = self.order[lo:hi]
        take = min(need, tier_rows.size)
        out_idx = [_smallest(tier_rows, take)] if take else []
        out_lcp = [np.full(take, depth, dtype=np.int64)] if take else []
        got = take

        if mode == "complete" and got < need:
            prev_lo, prev_hi = lo, hi
            for anc_id, anc_depth, alo, ahi in reversed(path[:-1]):
                if got >= need:
                    break
                cand = np.concatenate(
                    (self.order[alo:prev_lo], self.order[prev_hi:ahi])
                )
                if work is not None:
                    work.nodes_visited += 1
                if cand.size:
                    take = min(need - got, cand.size)
                    out_idx.append(_smallest(cand, take))
                    out_lcp.append(np.full(take, anc_depth, dtype=np.int64))
                    got += take
                prev_lo, prev_hi = alo, ahi

        if got > k:
            raise InternalInvariantError("query emitted more than k items")
        if not out_idx:
            return _empty_result(mode, depth)
        return QueryResult(
            indices=np.concatenate(out_idx),
            lcps=np.concatenate(out_lcp),
            matched_depth=depth,
            mode=mode,
        )

    # -- integrity ---------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify the structural contract; raises InternalInvariantError on failure.

        Checks: node count bound, root coverage, every level partitions
        [0, n), subtree sizes obey the posting + children recurrence, and
        child symbols are strictly ascending under each parent.
        """
        n, length = self.n, self.length
        if self.node_count > n * length + 1:
            raise InternalInvariantError("node count exceeds n*L + 1")
        if int(self.level_offset[0]) != 0 or int(self.level_offset[-1]) != self.node_count:
            raise InternalInvariantError("level offsets do not cover the arena")
        if self.root.subtree_size != n:
            raise InternalInvariantError("root subtree size != n")
        if n == 0:
            if self.node_count != 1:
                raise InternalInvariantError("empty dataset must index to a bare root")
            return
        for d in range(length + 1):
            base, end = int(self.level_offset[d]), int(self.level_offset[d + 1])
            if base == end:
                if n > 0 and d <= length:
                    raise InternalInvariantError(f"level {d} is empty")
                continue
            lvl_lo = self.row_lo[base:end].astype(np.int64)
            lvl_hi = np.append(lvl_lo[1:], n)
            sizes = lvl_hi - lvl_lo
            if int(lvl_lo[0]) != 0 or (sizes <= 0).any():
                raise InternalInvariantError(f"level {d} does not partition [0, n)")
            if d < length:
                nb, ne = int(self.level_offset[d + 1]), int(self.level_offset[d + 2])
                child_lo = self.row_lo[nb:ne].astype(np.int64)
                # children of each node are a contiguous run in the next level
                starts = np.searchsorted(child_lo, lvl_lo, side="left")
                ends = np.append(starts[1:], ne - nb)
                child_hi = np.append(child_lo[1:], n)
                child_sizes = child_hi - child_lo
                sums = np.add.reduceat(child_sizes, starts)
                if not np.array_equal(sums, sizes):
                    raise InternalInvariantError(f"subtree size recurrence fails at depth {d}")
                syms = self.edge_symbol[nb:ne].astype(np.int64)
                run = np.arange(ne - nb)
                parent_of = np.searchsorted(starts, run, side="right") - 1
                inc = np.diff(syms) > 0
                same_parent = np.diff(parent_of) == 0
                if np.any(same_parent & ~inc):
                    raise InternalInvariantError(f"children not symbol-sorted at depth {d}")
        if n and int(self.level_offset[length + 1]) - int(self.level_offset[length]) > n:
            raise InternalInvariantError("more leaves than items")


def build(dataset: Dataset) -> TrieIndex:
    """Construct the index: one root-to-depth-L path per distinct sequence.

    An empty dataset yields a valid index containing only the root.
    """
    items = dataset.items
    n, length = items.shape
    order = lexicographic_order(items)
    row_parts: list[np.ndarray] = [np.zeros(1, dtype=np.int32)]
    sym_parts: list[np.ndarray] = [np.zeros(1, dtype=np.uint16)]
    level_offset = np.zeros(length + 2, dtype=np.int64)
    level_offset[1] = 1
    if n > 0:
        rows = items[order]
        adj = adjacent_lcp(rows)
        total = 1
        for d in range(1, length + 1):
            starts = np.flatnonzero(adj < d).astype(np.int64) + 1
            starts = np.concatenate((np.zeros(1, dtype=np.int64), starts))
            row_parts.append(starts.astype(np.int32))
            sym_parts.append(np.ascontiguousarray(rows[starts, d - 1]))
            total += starts.size
            level_offset[d + 1] = total
    else:
        level_offset[1:] = 1

    return TrieIndex(
        n=int(n),
        length=int(length),
        sigma=dataset.alphabet.size,
        order=order.astype(np.int32),
        row_lo=np.concatenate(row_parts),
        edge_symbol=np.concatenate(sym_parts),
        level_offset=level_offset,
    )


class QueryCache:
    """Memoization cache keyed on (query bytes, k, mode) with atomic get-or-insert.

    Cached results are immutable, so returning the stored object gives
    bit-identical repeats.  Hits and misses are counted for reporting.
    """

    def __init__(self) -> None:
        self._store: dict[tuple[bytes, int, str], QueryResult] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def lookup(self, key: tuple[bytes, int, str]) -> QueryResult | None:
        with self._lock:
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
    work to ``work`` apart from the hit counter.
    """
    if cache is None:
        raise InvalidInputError("memoized_query requires a cache")
    query = index._validate_query(q)
    key = (query.tobytes(), int(k), mode)
    cached = cache.lookup(key)
    if cached is not None:
        if work is not None:
            work.cache_hits += 1
            work.queries += 1
        return cached
    result = index.query(query, k, mode, work=work)
    return cache.insert(key, result)
