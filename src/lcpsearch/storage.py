"""Versioned binary file formats: dataset files and index snapshots.

Both formats have fixed-width little-endian headers and are written
deterministically: building the same dataset twice produces byte-identical
files.

Dataset file (magic ``LCPD``, version 1)::

    magic[4] version:u16 symbol_width:u8 reserved:u8     (reserved must be 0)
    n:u64 length:u32 sigma:u32
    symbols: n * length * u16 little-endian, row-major

Index snapshot (magic ``LCPI``, version 3) is the index's own two arrays::

    magic[4] version:u16 n:u64 length:u32 sigma:u32      (22 bytes)
    pad:   0-3 zero bytes, so that ``order`` starts at a multiple of 4
    keys:  n * W bytes, the sorted rows packed at b bits per symbol
    order: n * i32 little-endian, the item index of each row
    crc:   u32 little-endian, CRC32 of every byte before it

Here ``b = max(1, bit_length(sigma - 1))`` and ``W = ceil(length * b / 8)``:
each key holds its row's symbols as ``b``-bit fields, most significant bit
first, zero-padded (:func:`lcpsearch.trie.symbol_bits`).  At ``sigma = 65536``
a key is the row as big-endian u16.

A snapshot is accepted only when the header is valid (version 3,
``n < 2^31``, ``1 <= length <= 65535``, ``2 <= sigma <= 65536``), the file
has exactly the size ``n``, ``length`` and ``sigma`` imply, the CRC matches,
the pad bytes are zero, and the arrays pass
:func:`lcpsearch.trie.layout_defect` (zero key padding, symbols below
``sigma``, ``order`` a permutation of ``[0, n)``, keys in stable
lexicographic order).  No byte is free, so an accepted file is the unique
encoding of its index.  Version 1 (one record per trie node) and version 2
(unpacked ``>u2`` rows) files are refused; rebuild them from their dataset.

Text ingestion maps whitespace-separated tokens to integer ids in
first-occurrence order and emits the vocabulary alongside, one token per
line (line number = id).  Text files must be UTF-8: one that is not is
refused, naming the offset of its first bad byte (:func:`read_text`).
"""

from __future__ import annotations

import io
import os
import struct
import zlib

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
)
from .trie import TrieIndex, key_width, layout_defect, symbol_bits

DATASET_MAGIC = b"LCPD"
DATASET_VERSION = 1
INDEX_MAGIC = b"LCPI"
INDEX_VERSION = 3

_DATASET_HEADER = struct.Struct("<4sHBBQII")
_INDEX_HEADER = struct.Struct("<4sHQII")
_CRC = struct.Struct("<I")


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

def write_dataset(path: str, dataset: Dataset) -> int:
    """Write a dataset file; returns the number of bytes written."""
    header = _DATASET_HEADER.pack(
        DATASET_MAGIC, DATASET_VERSION, 2, 0, dataset.n, dataset.length, dataset.alphabet.size
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
        magic, version, sym_w, reserved, n, length, sigma = _DATASET_HEADER.unpack(head)
        if magic != DATASET_MAGIC:
            raise InvalidInputError(f"{path}: not a dataset file (bad magic {magic!r})")
        if version != DATASET_VERSION:
            raise InvalidInputError(f"{path}: unsupported dataset version {version}")
        if sym_w != 2:
            raise InvalidInputError(f"{path}: unsupported symbol width {sym_w}")
        if reserved:
            raise InvalidInputError(f"{path}: nonzero reserved header byte {reserved:#04x}")
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

def read_text(path: str, error: type[Exception] = InvalidInputError) -> io.StringIO:
    """The lines of a UTF-8 text file, split and newline-translated as a text-mode file's.

    Invalid UTF-8 raises ``error`` naming the file and the offset of the
    first byte that does not decode.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        raise error(f"{path}: invalid UTF-8 at byte {exc.start} ({exc.reason})") from None


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
    for lineno, line in enumerate(read_text(path), start=1):
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
    return {line.rstrip("\n"): i for i, line in enumerate(read_text(path))}


# ---------------------------------------------------------------------------
# Index snapshots
# ---------------------------------------------------------------------------

def _order_offset(n: int, width: int) -> int:
    """Where ``order`` starts: after the header, its pad and the keys, at a multiple of 4."""
    return _INDEX_HEADER.size + (-(_INDEX_HEADER.size + n * width) % 4) + n * width


def index_snapshot_bytes(index: TrieIndex) -> bytes:
    """Serialize a built index: its header, keys, permutation and CRC32.

    Byte-identical for identical datasets, since both arrays are.
    """
    header = _INDEX_HEADER.pack(INDEX_MAGIC, INDEX_VERSION, index.n, index.length, index.sigma)
    keys = np.ascontiguousarray(index.keys)
    pad = bytes(_order_offset(index.n, keys.shape[1]) - len(header) - keys.nbytes)
    order = np.ascontiguousarray(index.order, dtype="<i4")
    crc = zlib.crc32(order, zlib.crc32(keys, zlib.crc32(header + pad)))
    return b"".join((header, pad, keys, order, _CRC.pack(crc)))


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
    """Load a snapshot, accepting only the encoding of a valid index.

    Every other input raises :class:`InvalidInputError`.  The header is
    checked first, then the exact size it implies (before anything is
    allocated), then the CRC and the pad; the two arrays are copied out and
    must pass :func:`lcpsearch.trie.layout_defect`.
    """
    if len(raw) < _INDEX_HEADER.size:
        raise InvalidInputError(f"{name}: truncated index header")
    magic, version, n, length, sigma = _INDEX_HEADER.unpack_from(raw, 0)
    if magic != INDEX_MAGIC:
        raise InvalidInputError(f"{name}: not an index snapshot (bad magic {magic!r})")
    if version != INDEX_VERSION:
        raise InvalidInputError(
            f"{name}: unsupported snapshot version {version}; "
            f"rebuild it from its dataset with `lcpsearch build`"
        )
    if n >= MAX_ITEMS:
        raise InvalidInputError(f"{name}: {n} items exceed the limit of {MAX_ITEMS - 1}")
    if not 1 <= length <= MAX_LENGTH:
        raise InvalidInputError(f"{name}: sequence length {length} outside [1, {MAX_LENGTH}]")
    if not MIN_ALPHABET <= sigma <= MAX_ALPHABET:
        raise InvalidInputError(
            f"{name}: alphabet size {sigma} outside [{MIN_ALPHABET}, {MAX_ALPHABET}]"
        )
    width = key_width(length, symbol_bits(sigma))
    order_at = _order_offset(n, width)
    keys_at = order_at - n * width
    crc_at = order_at + 4 * n
    if len(raw) != crc_at + _CRC.size:
        raise InvalidInputError(
            f"{name}: size mismatch (expected {crc_at + _CRC.size} bytes, found {len(raw)})"
        )
    if zlib.crc32(memoryview(raw)[:crc_at]) != _CRC.unpack_from(raw, crc_at)[0]:
        raise InvalidInputError(f"{name}: CRC mismatch")
    if any(raw[_INDEX_HEADER.size : keys_at]):
        raise InvalidInputError(f"{name}: nonzero header pad")
    keys = np.frombuffer(raw, np.uint8, n * width, keys_at).reshape(n, width).copy()
    order = np.frombuffer(raw, "<i4", n, order_at).astype(np.int32)
    defect = layout_defect(keys, order, sigma, length)
    if defect is not None:
        raise InvalidInputError(f"{name}: {defect}")
    return TrieIndex(sigma=sigma, length=length, keys=keys, order=order)
