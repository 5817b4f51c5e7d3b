"""Versioned binary file formats: dataset files and index snapshots.

Both formats are little-endian with fixed-width integers and are written
deterministically: building the same dataset twice produces byte-identical
files.

Dataset file (magic ``LCPD``, version 1)::

    magic[4] version:u16 symbol_width:u8 reserved:u8
    n:u64 length:u32 sigma:u32
    symbols: n * length * u16, row-major

Index snapshot (magic ``LCPI``, version 1)::

    magic[4] version:u16
    widths: symbol:u8 item_index:u8 node_id:u8 depth:u8 posting_len:u8 child_count:u8
    n:u64 length:u32 sigma:u32 node_count:u64
    then one record per node, in node-id order:
      depth:u16
      posting_len:u32, item indices u32 * posting_len
      child_count:u16, (symbol:u16 child_id:u32) * child_count

Node ids are assigned level by level, so records appear depth 0, then all
depth-1 nodes in prefix order, and so on; posting lists are non-empty only
at full depth.  Text ingestion maps whitespace-separated tokens to integer
ids in first-occurrence order and emits the vocabulary alongside, one token
per line (line number = id).
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .core import (
    MAX_ALPHABET,
    MAX_ITEMS,
    MAX_LENGTH,
    MIN_ALPHABET,
    SYMBOL_DTYPE,
    Alphabet,
    Dataset,
    InvalidInputError,
    adjacent_lcp,
)
from .trie import TrieIndex, layout_defect, level_offsets, level_starts

DATASET_MAGIC = b"LCPD"
INDEX_MAGIC = b"LCPI"
FORMAT_VERSION = 1

_DATASET_HEADER = struct.Struct("<4sHBBQII")
_INDEX_HEADER = struct.Struct("<4sH6BQIIQ")
_INDEX_WIDTHS = (2, 4, 4, 2, 4, 2)  # symbol, item index, node id, depth, posting len, child count
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

def write_dataset(path: str, dataset: Dataset) -> int:
    """Write a dataset file; returns the number of bytes written."""
    header = _DATASET_HEADER.pack(
        DATASET_MAGIC, FORMAT_VERSION, 2, 0, dataset.n, dataset.length, dataset.alphabet.size
    )
    payload = np.ascontiguousarray(dataset.items, dtype="<u2")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    return len(header) + payload.nbytes


def read_dataset(path: str) -> Dataset:
    """Read a dataset file straight into one read-only array of rows."""
    with open(path, "rb") as fh:
        head = fh.read(_DATASET_HEADER.size)
        if len(head) < _DATASET_HEADER.size:
            raise InvalidInputError(f"{path}: truncated dataset header")
        magic, version, sym_w, _, n, length, sigma = _DATASET_HEADER.unpack(head)
        if magic != DATASET_MAGIC:
            raise InvalidInputError(f"{path}: not a dataset file (bad magic {magic!r})")
        if version != FORMAT_VERSION:
            raise InvalidInputError(f"{path}: unsupported dataset version {version}")
        if sym_w != 2:
            raise InvalidInputError(f"{path}: unsupported symbol width {sym_w}")
        expected = _DATASET_HEADER.size + n * length * 2
        found = os.fstat(fh.fileno()).st_size
        if found != expected:
            raise InvalidInputError(
                f"{path}: payload size mismatch (expected {expected} bytes, found {found})"
            )
        rows = np.empty((n, length), dtype="<u2")
        if fh.readinto(rows) != rows.nbytes:
            raise InvalidInputError(f"{path}: payload shrank while being read")
    alphabet = Alphabet(sigma)
    if rows.size and int(rows.max()) >= sigma:
        raise InvalidInputError(
            f"{path}: symbol {int(rows.max())} out of range for alphabet of size {sigma}"
        )
    items = rows.astype(SYMBOL_DTYPE, copy=False)
    items.setflags(write=False)
    return Dataset(alphabet=alphabet, length=length, items=items)


# ---------------------------------------------------------------------------
# Text ingestion
# ---------------------------------------------------------------------------

def ingest_text(path: str) -> tuple[Dataset, list[str]]:
    """Read one whitespace-separated token sequence per line.

    Tokens are mapped to integer symbols in first-occurrence order; the
    vocabulary list index is the symbol id.  All lines must have the same
    token count; a mismatch names the offending line.  An empty file yields
    an empty dataset of length 1.
    """
    vocab: dict[str, int] = {}
    rows: list[list[int]] = []
    length: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if length is None:
                length = len(tokens)
            elif len(tokens) != length:
                raise InvalidInputError(
                    f"{path}:{lineno}: expected {length} tokens per line, found {len(tokens)}"
                )
            row = [vocab.setdefault(tok, len(vocab)) for tok in tokens]
            rows.append(row)
    ordered = sorted(vocab, key=vocab.get)
    if length is None:
        return (
            Dataset.from_rows(np.zeros((0, 1), dtype=np.uint16), Alphabet(2)),
            ordered,
        )
    sigma = max(2, len(vocab))
    if sigma > 65536:
        raise InvalidInputError(f"{path}: vocabulary of {len(vocab)} tokens exceeds 65536")
    return Dataset.from_rows(np.asarray(rows, dtype=np.uint16), Alphabet(sigma)), ordered


def write_vocab(path: str, vocab: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for token in vocab:
            fh.write(token + "\n")


def read_vocab(path: str) -> dict[str, int]:
    mapping: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            mapping[line.rstrip("\n")] = i
    return mapping


# ---------------------------------------------------------------------------
# Index snapshots
# ---------------------------------------------------------------------------

def _scatter(buf: np.ndarray, pos: np.ndarray, values: np.ndarray, width: int) -> None:
    """Write ``values`` as little-endian unsigned fields of ``width`` bytes at ``pos``."""
    v = values.astype(np.int64)
    for byte in range(width):
        buf[pos + byte] = ((v >> (8 * byte)) & 0xFF).astype(np.uint8)


def _gather(buf: np.ndarray, pos: np.ndarray, width: int) -> np.ndarray:
    """Little-endian unsigned fields of ``width`` bytes starting at each of ``pos``."""
    value = np.zeros(pos.size, dtype=np.int64)
    for byte in range(width):
        value |= buf[pos + byte].astype(np.int64) << (8 * byte)
    return value


def _entry_positions(first: np.ndarray, counts: np.ndarray, stride: int) -> np.ndarray:
    """Offsets of ``counts[i]`` entries ``stride`` bytes apart from ``first[i]``, for every i."""
    within = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(first, counts) + stride * within


def index_snapshot_bytes(index: TrieIndex) -> bytes:
    """Serialize a built index; byte-identical for identical datasets.

    The nodes of each level are the runs of sorted rows derived from the
    adjacent-LCP array (see :func:`lcpsearch.trie.level_starts`).
    """
    n, length = index.n, index.length
    adj = adjacent_lcp(index.rows)
    offs = level_offsets(adj, n, length)
    header = _INDEX_HEADER.pack(
        INDEX_MAGIC, FORMAT_VERSION, *_INDEX_WIDTHS, n, length, index.sigma, int(offs[-1])
    )
    chunks = [header]
    lvl_lo = level_starts(adj, n, 0)
    for d in range(length + 1):
        m = lvl_lo.size
        if d == length or n == 0:
            plen = np.append(lvl_lo[1:], n) - lvl_lo if n else np.zeros(m, dtype=np.int64)
            rec_sizes = 8 + 4 * plen
            starts = np.concatenate(([0], np.cumsum(rec_sizes)))
            buf = np.zeros(int(starts[-1]), dtype=np.uint8)
            _scatter(buf, starts[:-1], np.full(m, d), 2)
            _scatter(buf, starts[:-1] + 2, plen, 4)
            # posting stream in id order is exactly the sort permutation;
            # the child counts after it stay zero
            _scatter(buf, _entry_positions(starts[:-1] + 6, plen, 4), index.order, 4)
            chunks.append(buf.tobytes())
            break
        child_lo = level_starts(adj, n, d + 1)
        first_child = np.searchsorted(child_lo, lvl_lo, side="left")
        cc = np.append(first_child[1:], child_lo.size) - first_child
        rec_sizes = 8 + 6 * cc
        starts = np.concatenate(([0], np.cumsum(rec_sizes)))
        buf = np.zeros(int(starts[-1]), dtype=np.uint8)
        _scatter(buf, starts[:-1], np.full(m, d), 2)
        _scatter(buf, starts[:-1] + 6, cc, 2)
        pos = _entry_positions(starts[:-1] + 8, cc, 6)
        _scatter(buf, pos, index.rows[child_lo, d], 2)
        _scatter(buf, pos + 2, np.arange(offs[d + 1], offs[d + 2], dtype=np.int64), 4)
        chunks.append(buf.tobytes())
        lvl_lo = child_lo
    return b"".join(chunks)


def write_index(path: str, index: TrieIndex) -> int:
    data = index_snapshot_bytes(index)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def read_index(path: str) -> TrieIndex:
    with open(path, "rb") as fh:
        raw = fh.read()
    return index_from_snapshot_bytes(raw, name=path)


def index_from_snapshot_bytes(raw: bytes, name: str = "<bytes>") -> TrieIndex:
    """Load a snapshot, accepting only the canonical encoding of a valid index.

    Every other input raises :class:`InvalidInputError`: the reader rebuilds
    the sorted rows and the permutation, checks them, and then requires that
    they encode back to exactly ``raw``.
    """
    if len(raw) < _INDEX_HEADER.size:
        raise InvalidInputError(f"{name}: truncated index header")
    fields = _INDEX_HEADER.unpack_from(raw, 0)
    magic, version = fields[0], fields[1]
    widths = fields[2:8]
    n, length, sigma, _ = fields[8:]
    if magic != INDEX_MAGIC:
        raise InvalidInputError(f"{name}: not an index snapshot (bad magic {magic!r})")
    if version != FORMAT_VERSION:
        raise InvalidInputError(f"{name}: unsupported snapshot version {version}")
    if tuple(widths) != _INDEX_WIDTHS:
        raise InvalidInputError(f"{name}: unsupported field widths {widths}")
    if n >= MAX_ITEMS:
        raise InvalidInputError(f"{name}: {n} items exceed the limit of {MAX_ITEMS - 1}")
    if not 1 <= length <= MAX_LENGTH:
        raise InvalidInputError(f"{name}: sequence length {length} outside [1, {MAX_LENGTH}]")
    if not MIN_ALPHABET <= sigma <= MAX_ALPHABET:
        raise InvalidInputError(
            f"{name}: alphabet size {sigma} outside [{MIN_ALPHABET}, {MAX_ALPHABET}]"
        )

    # Record starts, posting lengths and child counts, level by level: each
    # level holds as many records as the level above has children.
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    pos = _INDEX_HEADER.size
    count = 1
    while count:
        if len(levels) > length:
            raise InvalidInputError(f"{name}: node depth exceeds declared length {length}")
        starts, plens, ccs = [], [], []
        for _ in range(count):
            if pos + 8 > len(raw):
                raise InvalidInputError(f"{name}: truncated node record at byte {pos}")
            plen = _U32.unpack_from(raw, pos + 2)[0]
            cc_at = pos + 6 + 4 * plen
            if cc_at + 2 > len(raw):
                raise InvalidInputError(f"{name}: truncated posting list at byte {pos}")
            cc = _U16.unpack_from(raw, cc_at)[0]
            starts.append(pos)
            plens.append(plen)
            ccs.append(cc)
            pos = cc_at + 2 + 6 * cc
        if pos > len(raw):
            raise InvalidInputError(f"{name}: truncated child list")
        levels.append((np.array(starts), np.array(plens), np.array(ccs)))
        count = sum(ccs)
    if pos != len(raw):
        raise InvalidInputError(f"{name}: {len(raw) - pos} trailing bytes")

    # Postings (leaf level) concatenated in id order form the sort permutation;
    # each row column repeats its level's edge symbols by the subtree sizes.
    # The rows are allocated only once the postings account for all n items.
    buf = np.frombuffer(raw, dtype=np.uint8)
    order = np.zeros(0, dtype=np.int64)
    rows = np.zeros((0, length), dtype=">u2")
    if n:
        if len(levels) != length + 1:
            raise InvalidInputError(f"{name}: leaves at depth {len(levels) - 1}, expected {length}")
        starts, sizes, _ = levels[-1]
        if int(sizes.sum()) != n:
            raise InvalidInputError(
                f"{name}: posting lists hold {int(sizes.sum())} items, header claims {n}"
            )
        rows = np.zeros((n, length), dtype=">u2")
        order = _gather(buf, _entry_positions(starts + 6, sizes, 4), 4)
        for d in range(length, 0, -1):
            starts, plens, ccs = levels[d - 1]
            symbols = _gather(buf, _entry_positions(starts + 8 + 4 * plens, ccs, 6), 2)
            rows[:, d - 1] = np.repeat(symbols, sizes)
            below = np.concatenate(([0], np.cumsum(sizes)))
            sizes = np.diff(below[np.concatenate(([0], np.cumsum(ccs)))])

    defect = layout_defect(rows, order, sigma)
    if defect is not None:
        raise InvalidInputError(f"{name}: {defect}")
    index = TrieIndex(sigma=int(sigma), rows=rows, order=order.astype(np.int32))
    if index_snapshot_bytes(index) != raw:
        raise InvalidInputError(f"{name}: not the canonical encoding of the index it holds")
    return index
