"""Domain types and the longest-common-prefix similarity metric.

Datasets are fixed-length runs of integer symbols: every item in a dataset
has exactly the same length ``L`` and every symbol lies in ``[0, sigma)``
for a declared alphabet size ``sigma``.  Similarity between two items is
the length of their longest common prefix (LCP); ``d = L - LCP`` is the
induced distance and satisfies the strong triangle inequality
``d(s, u) <= max(d(s, t), d(t, u))``.

Symbols are stored as ``uint16`` (alphabets up to 65536 symbols), which
keeps comparisons branch-free and lets datasets live in dense 2-D arrays.
All types here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SYMBOL_DTYPE = np.uint16
MAX_ALPHABET = 65536
MIN_ALPHABET = 2
# Sequence length must fit the u16 matched-depth and lcp fields of QueryResult.to_bytes.
MAX_LENGTH = 65535
# Item counts must stay below this: indices are stored as int32.
MAX_ITEMS = 1 << 31


class InvalidInputError(ValueError):
    """Raised when a sequence, dataset, or query violates its declared shape."""


class ConfigError(ValueError):
    """Raised for malformed scenario or command configuration."""


class InvalidStateError(RuntimeError):
    """Raised when an operation needs a structure that was never built/loaded."""


class InternalInvariantError(RuntimeError):
    """Raised when a structural self-check fails; indicates a bug, not bad input."""


@dataclass(frozen=True)
class Alphabet:
    """A finite symbol alphabet: symbols are the integers ``0 .. size-1``."""

    size: int

    def __post_init__(self) -> None:
        if not (MIN_ALPHABET <= int(self.size) <= MAX_ALPHABET):
            raise InvalidInputError(
                f"alphabet size must be in [{MIN_ALPHABET}, {MAX_ALPHABET}], got {self.size}"
            )


def _holds_integers(arr: np.ndarray) -> bool:
    """Whether ``arr`` has a plain integer dtype: not bool, float, timedelta or object."""
    return arr.dtype.kind in "iu"


def as_sequence(values, *, length: int | None = None, alphabet: Alphabet | None = None) -> np.ndarray:
    """Coerce ``values`` to a read-only 1-D uint16 symbol array, validating shape.

    ``length`` and ``alphabet`` are checked when given; violations raise
    :class:`InvalidInputError` naming the offending property.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise InvalidInputError(f"sequence must be 1-D, got shape {arr.shape}")
    if arr.size and (not _holds_integers(arr) or int(arr.min()) < 0):
        raise InvalidInputError("sequence symbols must be non-negative integers")
    if arr.size and int(arr.max()) >= MAX_ALPHABET:
        raise InvalidInputError(f"symbol {int(arr.max())} exceeds the maximum alphabet size")
    if length is not None and arr.shape[0] != length:
        raise InvalidInputError(f"sequence length {arr.shape[0]} != expected {length}")
    if alphabet is not None and arr.size and int(arr.max()) >= alphabet.size:
        raise InvalidInputError(
            f"symbol {int(arr.max())} out of range for alphabet of size {alphabet.size}"
        )
    out = np.ascontiguousarray(arr, dtype=SYMBOL_DTYPE)
    if out is arr:
        out = arr.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """An ordered collection of ``n`` equal-length sequences.

    Item indices are stable: insertion order defines the 0-based index used
    in every query result.  Duplicate items are permitted; ties among them
    are broken by index downstream.  ``items`` is a read-only ``(n, length)``
    uint16 array.
    """

    alphabet: Alphabet
    length: int
    items: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not (1 <= int(self.length) <= MAX_LENGTH):
            raise InvalidInputError(f"sequence length must be in [1, {MAX_LENGTH}], got {self.length}")
        if self.items.ndim != 2 or self.items.shape[1] != self.length:
            raise InvalidInputError(
                f"items must have shape (n, {self.length}), got {self.items.shape}"
            )

    @classmethod
    def from_rows(cls, rows, alphabet: Alphabet | int) -> "Dataset":
        """Build a dataset from a 2-D array-like of symbol rows."""
        if isinstance(alphabet, int):
            alphabet = Alphabet(alphabet)
        arr = np.asarray(rows)
        if arr.ndim != 2:
            raise InvalidInputError(f"rows must be 2-D, got shape {arr.shape}")
        if arr.size:
            if not _holds_integers(arr):
                raise InvalidInputError("symbols must be integers")
            lo, hi = int(arr.min()), int(arr.max())
            if lo < 0 or hi >= alphabet.size:
                bad = lo if lo < 0 else hi
                raise InvalidInputError(
                    f"symbol {bad} out of range for alphabet of size {alphabet.size}"
                )
        items = np.ascontiguousarray(arr, dtype=SYMBOL_DTYPE)
        if items is arr:
            items = items.copy()
        items.setflags(write=False)
        return cls(alphabet=alphabet, length=int(arr.shape[1]), items=items)

    @property
    def n(self) -> int:
        return int(self.items.shape[0])


def lcp(s, t) -> int:
    """Length of the longest common prefix of two equal-length sequences.

    Returns the largest ``j`` such that the first ``j`` symbols agree; 0 when
    the very first symbols differ (the empty prefix always matches).
    """
    a = np.asarray(s)
    b = np.asarray(t)
    if a.ndim != 1 or b.ndim != 1:
        raise InvalidInputError("lcp operands must be 1-D sequences")
    if a.shape[0] != b.shape[0]:
        raise InvalidInputError(f"sequence length mismatch: {a.shape[0]} != {b.shape[0]}")
    neq = a != b
    if not neq.any():
        return int(a.shape[0])
    return int(neq.argmax())


def ultrametric_distance(s, t) -> int:
    """``L - lcp(s, t)``; an ultrametric over fixed-length sequences."""
    a = np.asarray(s)
    return int(a.shape[0]) - lcp(s, t)


def validate_query(q, length: int, sigma: int) -> np.ndarray:
    """Check a query against an index's length and alphabet; return its key.

    The key is a new big-endian (``>u2``) array: its bytes key the query
    cache, and the index packs it like its rows.  Shared by every query
    engine and the oracle, so all of them reject the same inputs with the
    same :class:`InvalidInputError` messages.
    """
    arr = np.asarray(q)
    if arr.ndim != 1:
        raise InvalidInputError(f"query must be 1-D, got shape {arr.shape}")
    if arr.shape[0] != length:
        raise InvalidInputError(f"query length {arr.shape[0]} != index length {length}")
    if not _holds_integers(arr):
        raise InvalidInputError(f"query symbols must be integers, got dtype {arr.dtype}")
    if int(arr.max()) >= sigma or (arr.dtype.kind != "u" and int(arr.min()) < 0):
        raise InvalidInputError(f"query symbol out of range for alphabet of size {sigma}")
    return arr.astype(">u2")


def memcmp_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row of a C-contiguous 2-D array, comparing as the row's bytes.

    The keys are a view, not a copy.  numpy compares them bytewise, which for
    big-endian unsigned rows (``>u2`` symbols, or the packed keys of
    :mod:`lcpsearch.trie`) is exactly the lexicographic row order, so
    ``argsort`` and ``searchsorted`` work on them directly.
    """
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def lexicographic_order(rows: np.ndarray) -> np.ndarray:
    """Stable lexicographic argsort of uint16 symbol rows (ties keep row order).

    Rows are compared symbol-by-symbol from the left.  Implemented as a
    memcmp sort over a big-endian byte view, which is equivalent for
    unsigned symbols and independent of hash seeds or memory layout.
    """
    n, width = rows.shape
    if n == 0 or width == 0:
        return np.arange(n, dtype=np.int64)
    be = np.ascontiguousarray(rows.astype(">u2"))
    return np.argsort(memcmp_keys(be), kind="stable")


def adjacent_lcp(sorted_rows: np.ndarray) -> np.ndarray:
    """LCP between each consecutive pair of (sorted) rows; shape ``(n-1,)``."""
    n, width = sorted_rows.shape
    if n <= 1:
        return np.zeros(0, dtype=np.int64)
    neq = sorted_rows[1:] != sorted_rows[:-1]
    out = np.where(neq.any(axis=1), neq.argmax(axis=1), width)
    return out.astype(np.int64)
