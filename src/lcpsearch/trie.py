"""Prefix-tree index over a fixed-length dataset, stored as its sorted, bit-packed rows.

Layout
------
Construction packs every row into a key and sorts the keys once (stable,
lexicographic), keeping two arrays and nothing else:

- ``keys``: the sorted rows, each packed at ``b = max(1, bit_length(sigma - 1))``
  bits per symbol, most significant bit first, and zero-padded to
  ``W = ceil(L * b / 8)`` bytes (:func:`symbol_bits`, :func:`key_width`).
  Unsigned fields packed big-endian compare bytewise exactly as their rows
  compare lexicographically, so each key is its own memcmp search key;
- ``order``: the sort permutation (int32), the item index of each row.

That is ``W + 4`` bytes per item: 8 at ``L = 16``, ``sigma = 4``.  At
``sigma = 65536`` a key is the row's big-endian ``>u2`` bytes, so one code
path serves every alphabet.  The unpacked rows are derived on demand
(:attr:`TrieIndex.rows`, O(n L)) for inspection only; no build, query,
snapshot or report path reads them.

The trie is implicit: because every item has the same length, the depth-``d``
nodes are the maximal runs of rows that share their first ``d`` symbols (the
lcp-intervals of the rows), so a node is fully described by its depth and
its row range, and its subtree size is the width of the range.  No build,
query, snapshot or report path walks a node.  Only the node count is
derived, from the adjacent-LCP array ``adj`` (the first set bit of each XOR
of neighbouring keys): a depth-``d`` level holds ``1 + #{adj < d}`` nodes,
so the trie has ``1 + L + sum(L - adj)`` of them, or 1 when ``n = 0``.

Every byte of the structure is a pure function of the dataset: no hashing,
no pointer addresses, no iteration-order dependence.  A built index is
immutable and may be queried concurrently without synchronization.

Query path
----------
A query is validated as a ``>u2`` key (:func:`lcpsearch.core.validate_query`)
and packed like a row.  The rows sharing the query's first ``t`` symbols form
one contiguous range containing its insertion point (the first row not below
it), and the ranges for ``t = D, D-1, ...`` are nested tiers of equal LCP.
The walk yields these tiers deepest first, as ``(depth, start, end)`` and
nothing else, and one selection loop takes all of the first tier and the new
rows of each later one.  The walk can stop at a depth ``d0``: its last tier
is then the range of rows sharing ``d0`` symbols.  A range is found by binary
search over the whole index with the packed query whose bits from ``t * b``
on are cleared (left end) or set (right end), the classic suffix-array
technique; all-ones fields exceed every symbol, so right ends stay exact
when ``sigma`` is not a power of two.  A row's LCP with the query is the
first set bit of their XOR, divided by ``b``, exact at any width because
both are read as Python ints, one row at a time as the walk reaches it.
The walk has two entries:

- a short ladder stopped above the root, ``d0 >= 1`` and ``L - d0 + 1``
  depths no more than the window is wide (``w``, at most ``WINDOW_ROWS``),
  searches every depth ``L..d0`` in one batch, and nothing else;
- any other walk first binary-searches the insertion point, reads off the
  tiers inside the ``2w`` rows around it by comparing them one by one
  outward from it, only as far as the tiers taken reach, and searches only
  the tiers reaching past them.

``w`` and the search batch are sized as if a key were ``2L`` bytes (the
unpacked row), which bounds packed keys of at most that width.  A query
costs ``O(W log n)`` per side per depth searched, plus the rows it selects
(and on the window entry, the insertion search and the compare); its
scratch memory stays within a few times ``max(NEEDLE_CHUNK_BYTES, 2L)``
bytes.  Strict and complete queries (``d0 = 0``) always take the window
entry: strict uses only the deepest tier, which the window usually holds,
so searching the whole ladder would be wasted.  The TAL engine
(:mod:`lcpsearch.tal`) is the walk stopped at its bucket depth, so it takes
the ladder search when that depth is at least ``max(1, L + 1 - w)`` (any
depth from 1 at ``L = 16``).

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
import math
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

# Rows packed (build), unpacked (inspection, bucket sizes, load checks) or
# XOR-compared (node count) per step: at most about this many bytes of temporaries.
CHUNK_BYTES = 1 << 22

# Leading zero bits of each byte value; a zero byte gets a count past any key's bits.
_LEADING_ZEROS = np.array([1 << 30] + [8 - v.bit_length() for v in range(1, 256)], np.int32)

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


def symbol_bits(sigma: int) -> int:
    """Bits per packed symbol: enough for ``sigma - 1``, and at least one."""
    return max(1, (sigma - 1).bit_length())


def key_width(length: int, bits: int) -> int:
    """Bytes per packed key: ``length`` symbols of ``bits`` bits, zero-padded."""
    return -(-length * bits // 8)


def _pack_words(rows: np.ndarray, bits: int) -> np.ndarray:
    """Each row's symbols packed at ``bits`` bits, most significant first, in uint64 words.

    Returns ``(n, words)`` native uint64, zero-padded; the first
    ``key_width`` bytes of their big-endian bytes are the row's key.  A group
    of ``g = 64 / gcd(bits, 64)`` symbols fills whole words, so the loop runs
    over at most 64 symbol slots, each a column operation over every group.
    Rows are packed a chunk at a time, so the temporaries stay within about
    ``CHUNK_BYTES`` beside the words.
    """
    n, length = rows.shape
    g = 64 // math.gcd(bits, 64)
    groups = -(-length // g)
    per_group = bits * g // 64
    words = np.zeros((n, groups, per_group), dtype=np.uint64)
    step = max(1, CHUNK_BYTES // (8 * groups * g))
    for i in range(0, n, step):
        part = words[i : i + step]
        x = np.zeros((part.shape[0], groups * g), dtype=rows.dtype)
        x[:, :length] = rows[i : i + step]
        x = x.reshape(-1, groups, g)
        for k in range(min(g, length)):
            w, start = divmod(k * bits, 64)
            end = start + bits
            col = x[:, :, k].astype(np.uint64)
            if end <= 64:
                part[:, :, w] |= col << np.uint64(64 - end)
            else:
                part[:, :, w] |= col >> np.uint64(end - 64)
                part[:, :, w + 1] |= col << np.uint64(128 - end)
    return words.reshape(n, groups * per_group)


def _word_bytes(words: np.ndarray, width: int) -> np.ndarray:
    """The first ``width`` big-endian bytes of each row of ``words``: C-contiguous keys.

    ``words`` is byte-swapped in place and must not be read as integers
    afterwards; the keys are a view of it when ``width`` fills whole words,
    so the key bytes are held once, not twice.
    """
    if words.dtype != np.dtype(">u8"):
        words.byteswap(inplace=True)
    return np.ascontiguousarray(words.view(np.uint8)[:, :width])


def _unpacked(keys: np.ndarray, bits: int, columns: int):
    """The first ``columns`` symbols of each packed key as uint16 rows: ``(offset, rows)`` chunks.

    Each chunk spreads at most ``CHUNK_BYTES`` bytes of bits.
    """
    step = max(1, CHUNK_BYTES // (16 * columns))
    for i in range(0, keys.shape[0], step):
        part = keys[i : i + step]
        m = part.shape[0]
        fields = np.unpackbits(part, axis=1, count=columns * bits).reshape(m, columns, bits)
        wide = np.zeros((m, columns, 16), dtype=np.uint8)
        wide[..., 16 - bits :] = fields
        yield i, np.packbits(wide, axis=2).view(">u2")[..., 0].astype(np.uint16)


def _xor_lcps(x: np.ndarray, bits: int, length: int) -> np.ndarray:
    """LCP in symbols of each pair of keys whose XOR is a row of ``x``.

    The first set bit of the XOR is the first differing bit; it lies in the
    first differing symbol.  Exact integer arithmetic on bytes, at any width.
    """
    first = _LEADING_ZEROS[x]
    first += np.arange(0, 8 * x.shape[1], 8, dtype=np.int32)
    return np.minimum(first.min(axis=1) // bits, length)


def _row_lcps(index: "TrieIndex", key: int):
    """LCPs of the sorted rows with the packed ``key``, read on demand.

    Returns a function of a row number: its LCP, the first set bit of its
    key XOR ``key`` divided by ``b``, or -1 outside ``[0, n)``.  Each row is
    read as one Python int when asked for, so a walk pays only for the rows
    it reads.
    """
    raw, n, width, pad, bits = index._raw, index.n, index._width, index._pad, index.bits
    top = index.length * bits

    def lcp(i: int) -> int:
        if not 0 <= i < n:
            return -1
        row = int.from_bytes(raw[i * width : (i + 1) * width], "big")
        return (top - ((row ^ key) >> pad).bit_length()) // bits

    return lcp


def _new_ranges(depths: range, starts: np.ndarray, ends: np.ndarray, a: int, b: int):
    """``(depth, start, end)`` of each searched range wider than the one before it.

    The ranges are nested, widening from ``[a, b)``; a range equal to the one
    before it adds no row and is no tier.
    """
    for t, s, e in zip(depths, starts.tolist(), ends.tolist()):
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
    def subtree_size(self) -> int:
        return self.row_hi - self.row_lo


def layout_defect(keys: np.ndarray, order: np.ndarray, sigma: int, length: int) -> str | None:
    """Why ``keys`` and ``order`` are not the index of any dataset, or None.

    They are when each key is ``length`` fields of :func:`symbol_bits` bits
    with zero padding, every field is below ``sigma`` (checked only when
    ``sigma`` is below ``2^b``, since a ``b``-bit field cannot exceed it
    otherwise), ``order`` is a permutation of ``[0, n)``, and the keys ascend
    in stable order: equal keys by ascending item index.
    """
    n = keys.shape[0]
    bits = symbol_bits(sigma)
    width = key_width(length, bits)
    if keys.shape != (n, width):
        return f"keys are {keys.shape[1]} bytes wide, not {width}"
    pad = 8 * width - length * bits
    if n and pad and int((keys[:, -1] & ((1 << pad) - 1)).max()):
        return "key padding bits are not zero"
    if n and sigma < 1 << bits:
        top = max(int(rows.max()) for _, rows in _unpacked(keys, bits, length))
        if top >= sigma:
            return f"symbol {top} out of range for alphabet of size {sigma}"
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
        neq = keys[1:] != keys[:-1]
        col = neq.argmax(axis=1)
        i = np.arange(n - 1)
        ascending = np.where(
            neq.any(axis=1), keys[i + 1, col] > keys[i, col], order[1:] > order[:-1]
        )
        if not ascending.all():
            return "rows are not in stable lexicographic order"
    return None


class TrieIndex:
    """Immutable trie over a dataset; see the module docstring for layout."""

    def __init__(self, *, sigma: int, length: int, keys: np.ndarray, order: np.ndarray):
        self.n = int(keys.shape[0])
        self.length = length
        self.sigma = sigma
        self.bits = symbol_bits(sigma)
        self.keys = keys
        self.order = order
        for arr in (keys, order):
            arr.setflags(write=False)
        self._search_keys = memcmp_keys(keys)
        # the keys' bytes, read a few rows at a time as Python ints by queries
        self._raw = memoryview(keys.reshape(-1))
        self._width = int(keys.shape[1])
        self._pad = 8 * self._width - self.length * self.bits
        self.c_sym = work_per_symbol(self.length)

    # -- structure ---------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Live memory footprint in bytes: the sorted keys and the permutation."""
        return int(self.keys.nbytes + self.order.nbytes)

    @property
    def rows(self) -> np.ndarray:
        """The sorted rows, unpacked from the keys on every access (O(n L); inspection only)."""
        return self._rows()

    def _rows(self, columns: int | None = None) -> np.ndarray:
        """The first ``columns`` (default all) symbols of every sorted row, unpacked."""
        columns = self.length if columns is None else columns
        out = np.empty((self.n, columns), dtype=np.uint16)
        for i, rows in _unpacked(self.keys, self.bits, columns):
            out[i : i + rows.shape[0]] = rows
        return out

    def _adjacent_lcps(self) -> np.ndarray:
        """LCP of each sorted row with the row before it, from XORs of their keys."""
        out = np.empty(max(0, self.n - 1), dtype=np.int32)
        step = max(1, CHUNK_BYTES // (4 * self._width))
        for i in range(0, self.n - 1, step):
            j = min(self.n - 1, i + step)
            out[i:j] = _xor_lcps(self.keys[i + 1 : j + 1] ^ self.keys[i:j], self.bits, self.length)
        return out

    @property
    def node_count(self) -> int:
        """Nodes of the implicit trie: ``1 + L + sum(L - adj)``, or 1 when empty."""
        if self.n == 0:
            return 1
        adj = self._adjacent_lcps()
        return 1 + self.length + self.length * adj.size - int(adj.sum(dtype=np.int64))

    def new_work_report(self) -> WorkReport:
        return WorkReport(c_sym=self.c_sym)

    @property
    def root(self) -> TrieNodeView:
        return TrieNodeView(self, 0, 0, self.n)

    # -- prefix tiers --------------------------------------------------------

    def _pack_key(self, key: np.ndarray) -> int:
        """A validated ``>u2`` query key packed like the rows, as an int of ``8W`` bits.

        The low ``b`` bits of each 16-bit symbol are kept, most significant
        first, and zero-padded: a few numpy calls, linear in ``L``.
        """
        fields = np.unpackbits(key.view(np.uint8)).reshape(-1, 16)[:, 16 - self.bits :]
        return int.from_bytes(np.packbits(fields).tobytes(), "big")

    def _prefix_ranges(self, key: int, depths: range) -> tuple[np.ndarray, np.ndarray]:
        """Row range of the rows sharing ``t`` symbols with ``key``, for each t in ``depths``.

        ``key`` is packed and ``depths`` descends one at a time.  With its
        bits from ``t * b`` on cleared, ``key`` is the smallest key with that
        prefix, and with them set it is above the largest, so one
        ``searchsorted`` per side over the whole index finds every range.
        """
        width, dtype = self._width, self._search_keys.dtype
        # bits from t * b on: the low 8W - t * b bits of the key
        lows = [8 * width - t * self.bits for t in depths]
        first = b"".join([(key >> s << s).to_bytes(width, "big") for s in lows])
        last = b"".join([(key | (1 << s) - 1).to_bytes(width, "big") for s in lows])
        return (
            self._search_keys.searchsorted(np.frombuffer(first, dtype), side="left"),
            self._search_keys.searchsorted(np.frombuffer(last, dtype), side="right"),
        )

    def _tiers(self, key: np.ndarray, d0: int):
        """The query's equal-LCP tiers down to depth ``d0``, deepest first.

        ``key`` is a validated ``>u2`` query key, packed here.  Yields
        ``(depth, start, end)``: rows ``[start, end)`` share at least
        ``depth`` symbols with the query, and the rows a tier adds to the one
        before it share exactly ``depth``.  Every tier contains the query's
        insertion point (the first row not below it).  Nothing is yielded
        when no row shares ``d0`` symbols; otherwise the last tier is the
        range of rows sharing ``d0`` symbols.

        When ``d0 >= 1`` and the ladder of depths ``L..d0`` is no longer than
        the window ``w = min(WINDOW_ROWS, NEEDLE_CHUNK_BYTES / 2L)`` is wide,
        every depth of it is searched in one batch over the whole index, and
        the empty ranges of depths no row reaches are skipped.  Any other
        walk binary-searches the insertion point first.  The window is the
        rows within ``w`` of it, compared one by one as the walk reaches
        them.  Their LCPs never decrease toward the insertion point, so each
        tier deeper than ``c``, the larger LCP of the window-edge rows that
        have a neighbour outside the window, lies inside it and is read off
        by walking outward, one row past each tier.  From depth ``c`` the
        ranges of up to ``step`` depths are searched at a time; each later
        batch starts at the LCP of the rows just outside the last range, and
        the walk stops after the batch that reaches ``d0``.  Walks to the
        root (strict and complete, ``d0 = 0``) stay on the window even when
        ``L < w``: strict keeps only the deepest tier, which the window
        usually answers without a search.

        The ladder limit is tied to the window width on purpose, so there is
        one tuning value: it is a conservative bound below the crossover
        measured for TAL at about 24 depths (n = 2^18, clustered rows,
        B = 64), past which the window walk is faster.  A change to
        ``WINDOW_ROWS`` moves both, and should re-measure both.
        """
        n, length = self.n, self.length
        key = self._pack_key(key)
        # sized as for unpacked 2L-byte rows, which no packed key exceeds
        step = max(1, NEEDLE_CHUNK_BYTES // (2 * length))
        w = min(WINDOW_ROWS, step)
        if d0 and length - d0 + 1 <= w:
            depths = range(length, d0 - 1, -1)
            starts, ends = self._prefix_ranges(key, depths)
            mid = int(starts[0])
            yield from _new_ranges(depths, starts, ends, mid, mid)
            return
        needle = np.frombuffer(key.to_bytes(self._width, "big"), self._search_keys.dtype)
        a = b = int(self._search_keys.searchsorted(needle)[0])
        lcp = _row_lcps(self, key)
        lo, hi = max(0, a - w), min(n, a + w)
        # rows outside the window share at most c symbols with the query
        c = max(lcp(lo) if lo > 0 else -1, lcp(hi - 1) if hi < n else -1)
        floor = max(c, d0 - 1)
        below, above = lcp(a - 1), lcp(b)
        depth = max(below, above)
        while depth > floor:
            while below >= depth:
                a -= 1
                below = lcp(a - 1)
            while above >= depth:
                b += 1
                above = lcp(b)
            yield depth, a, b
            depth = max(below, above)
        depth = c
        while depth >= d0:
            depths = range(depth, max(d0 - 1, depth - step), -1)
            starts, ends = self._prefix_ranges(key, depths)
            if (starts[0], ends[0]) == (a, b):
                raise InternalInvariantError(f"no row found sharing {depth} symbols")
            yield from _new_ranges(depths, starts, ends, a, b)
            a, b = int(starts[-1]), int(ends[-1])
            if depths[-1] == d0:
                return
            depth = max(lcp(a - 1), lcp(b))

    def _select(self, tiers, need: int) -> tuple[np.ndarray, np.ndarray]:
        """Up to ``need`` hits taken tier by tier from ``tiers``: (indices, lcps).

        Each tier contributes its new rows, those outside the tier before it
        (all rows of the first tier), selected by ascending item index.
        Tiers are consumed only until ``need`` hits are taken.  Indices have
        the dtype of ``order`` on every path.
        """
        order = self.order
        picked, depths, takes = [], [], []
        got = 0
        a = b = None
        for t, s, e in tiers:
            if a is None:
                a = b = s
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
        tiers = self._tiers(validate_query(q, self.length, self.sigma), 0)
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
        return self._query_key(validate_query(q, self.length, self.sigma), k, mode, work)

    def _query_key(
        self, key: np.ndarray, k: int, mode: str, work: WorkReport | None
    ) -> QueryResult:
        """:meth:`query` for a key ``validate_query`` has already returned."""
        if mode not in ("strict", "complete"):
            raise InvalidInputError(f"mode must be 'strict' or 'complete', got {mode!r}")
        if k < 1:
            raise InvalidInputError(f"k must be >= 1, got {k}")
        tiers = self._tiers(key, 0)
        if mode == "strict":
            tiers = itertools.islice(tiers, 1)
        indices, lcps = self._select(tiers, min(k, self.n))
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

        Checks: the keys are packed with zero padding, every symbol is in
        the alphabet, ``order`` is a permutation of ``[0, n)``, and the keys
        are in stable lexicographic order (:func:`layout_defect`).
        """
        defect = layout_defect(self.keys, self.order, self.sigma, self.length)
        if defect is not None:
            raise InternalInvariantError(defect)


def build(dataset: Dataset) -> TrieIndex:
    """Construct the index: pack the rows, sort the keys once, keep them with the permutation.

    Keys of at most 8 bytes are sorted as one native uint64 each.  An empty
    dataset yields a valid index containing only the root.
    """
    items = dataset.items
    n, length = items.shape
    if n >= MAX_ITEMS:
        raise InvalidInputError(f"{n} items exceed the limit of {MAX_ITEMS - 1}")
    sigma = dataset.alphabet.size
    bits = symbol_bits(sigma)
    width = key_width(length, bits)
    words = _pack_words(items, bits)
    if width <= 8:
        order = np.argsort(words[:, 0], kind="stable")
        keys = _word_bytes(words[order], width)
    else:
        keys = _word_bytes(words, width)
        del words
        order = np.argsort(memcmp_keys(keys), kind="stable")
        keys = keys[order]
    return TrieIndex(sigma=sigma, length=length, keys=keys, order=order.astype(np.int32))


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
    return cache.insert(key, index._query_key(query, k, mode, work))
