"""File formats: dataset round-trips, text ingestion, snapshot identity."""

import hashlib
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from lcpsearch import Dataset, InvalidInputError, build, generate_dataset, generate_queries
from lcpsearch.storage import (
    index_from_snapshot_bytes,
    index_snapshot_bytes,
    ingest_text,
    read_dataset,
    read_index,
    read_vocab,
    write_dataset,
    write_index,
    write_vocab,
)


def test_dataset_roundtrip_identity(tmp_path):
    ds = generate_dataset(200, 12, 16, seed=1)
    path = tmp_path / "data.lcpd"
    write_dataset(str(path), ds)
    back = read_dataset(str(path))
    assert back.n == ds.n and back.length == ds.length
    assert back.alphabet.size == ds.alphabet.size
    assert np.array_equal(back.items, ds.items)
    # writing again is byte-identical
    path2 = tmp_path / "data2.lcpd"
    write_dataset(str(path2), back)
    assert path.read_bytes() == path2.read_bytes()


def test_dataset_reader_rejects_garbage(tmp_path):
    path = tmp_path / "bad.lcpd"
    path.write_bytes(b"NOPE" + b"\x00" * 30)
    with pytest.raises(InvalidInputError):
        read_dataset(str(path))
    path.write_bytes(b"\x01")
    with pytest.raises(InvalidInputError):
        read_dataset(str(path))


def test_dataset_reader_rejects_size_mismatch(tmp_path):
    ds = generate_dataset(10, 4, 4, seed=2)
    path = tmp_path / "data.lcpd"
    write_dataset(str(path), ds)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(InvalidInputError) as err:
        read_dataset(str(path))
    assert "size mismatch" in str(err.value)


def test_dataset_reader_rejects_symbol_beyond_alphabet(tmp_path):
    ds = generate_dataset(10, 4, 4, seed=2)
    path = tmp_path / "data.lcpd"
    write_dataset(str(path), ds)
    raw = bytearray(path.read_bytes())
    raw[-2:] = (4).to_bytes(2, "little")  # the last symbol, one past sigma
    path.write_bytes(bytes(raw))
    with pytest.raises(InvalidInputError, match="out of range"):
        read_dataset(str(path))


def test_dataset_reader_rejects_a_nonzero_reserved_byte(tmp_path):
    ds = generate_dataset(10, 4, 4, seed=2)
    path = tmp_path / "data.lcpd"
    write_dataset(str(path), ds)
    raw = bytearray(path.read_bytes())
    assert raw[7] == 0  # magic, version and symbol width come first
    raw[7] = 0x5A
    path.write_bytes(bytes(raw))
    with pytest.raises(InvalidInputError, match="reserved"):
        read_dataset(str(path))


def test_text_ingestion_first_occurrence_vocab(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("cat dog cat\ndog dog bird\n")
    ds, vocab = ingest_text(str(path))
    assert vocab == ["cat", "dog", "bird"]
    assert ds.items.tolist() == [[0, 1, 0], [1, 1, 2]]
    assert ds.alphabet.size == 3


def test_text_ingestion_rejects_ragged_lines(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b c\na b\n")
    with pytest.raises(InvalidInputError) as err:
        ingest_text(str(path))
    assert ":2:" in str(err.value)


def test_text_ingestion_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    ds, vocab = ingest_text(str(path))
    assert ds.n == 0 and vocab == []


def test_vocab_roundtrip(tmp_path):
    path = tmp_path / "v.vocab"
    write_vocab(str(path), ["x", "y", "z"])
    assert read_vocab(str(path)) == {"x": 0, "y": 1, "z": 2}


def test_snapshot_roundtrip_and_byte_identity(tmp_path):
    ds = generate_dataset(350, 9, 3, seed=3)
    index = build(ds)
    snap = index_snapshot_bytes(index)
    loaded = index_from_snapshot_bytes(snap)
    assert loaded.node_count == index.node_count
    assert index_snapshot_bytes(loaded) == snap

    path = tmp_path / "index.lcpi"
    assert write_index(str(path), index) == len(snap)
    reread = read_index(str(path))
    assert index_snapshot_bytes(reread) == snap


def test_two_builds_serialize_identically():
    ds = generate_dataset(200, 8, 4, seed=4)
    assert index_snapshot_bytes(build(ds)) == index_snapshot_bytes(build(ds))


def test_loaded_index_answers_like_built(tmp_path):
    ds = generate_dataset(400, 10, 4, seed=5)
    index = build(ds)
    path = tmp_path / "index.lcpi"
    write_index(str(path), index)
    loaded = read_index(str(path))
    loaded.check_invariants()
    for i, q in enumerate(generate_queries(ds, 40, seed=6, prefix_len=5)):
        k = (1, 6, 40)[i % 3]
        for mode in ("strict", "complete"):
            assert loaded.query(q, k, mode).to_bytes() == index.query(q, k, mode).to_bytes()


def test_snapshot_of_empty_dataset(tmp_path):
    ds = Dataset.from_rows(np.zeros((0, 4), dtype=np.uint16), 4)
    index = build(ds)
    snap = index_snapshot_bytes(index)
    loaded = index_from_snapshot_bytes(snap)
    assert loaded.node_count == 1
    assert loaded.query([0, 0, 0, 0], 3, "complete").pairs() == []


def test_snapshot_with_duplicates():
    ds = Dataset.from_rows([[1, 2]] * 5 + [[0, 1]], 4)
    index = build(ds)
    loaded = index_from_snapshot_bytes(index_snapshot_bytes(index))
    assert loaded.query([1, 2], 9, "complete").pairs() == index.query([1, 2], 9, "complete").pairs()


def test_snapshot_reader_rejects_corruption():
    ds = generate_dataset(50, 6, 2, seed=7)
    snap = bytearray(index_snapshot_bytes(build(ds)))
    with pytest.raises(InvalidInputError):
        index_from_snapshot_bytes(bytes(snap[: len(snap) // 2]))
    bad = snap.copy()
    bad[0:4] = b"XXXX"
    with pytest.raises(InvalidInputError):
        index_from_snapshot_bytes(bytes(bad))


# (dataset, LCPI v2 digest, LCPI v3 digest)
PINNED_SNAPSHOTS = {
    "uniform": (
        lambda: generate_dataset(300, 9, 4, seed=101),
        "a7008c435440620ca9eb287b1f2f2af101e16fe579a11cdde95adb1c184aaadb",
        "3d2cee82aae289db727573462260ec44b2217b7a495affc8d83a91f10042b47a",
    ),
    "duplicates": (
        lambda: Dataset.from_rows(
            np.repeat(generate_dataset(60, 6, 3, seed=102).items, 3, axis=0), 3
        ),
        "944ef8e7a1e0936fc00ec840160eada7863596a76e3c07c5794bb5cdc141fb03",
        "9e3a908ca325812557dbde02356b07ac895bbf19fcf4d6ba96998877f8aafb0b",
    ),
    "empty": (
        lambda: Dataset.from_rows(np.zeros((0, 5), dtype=np.uint16), 4),
        "f303c9fa2eb4d6865cf965a85b52092112516468c4fc073fe2416a1944e314af",
        "d1c6b3e8634157162e63644c65cf3ccb7eeb7c3abd9fcf5698053191bc2fc926",
    ),
}


def _v2_snapshot_bytes(index):
    """The LCPI v2 encoding of an index: header, unpacked >u2 rows, order, CRC32."""
    header = struct.pack("<4sHQII", b"LCPI", 2, index.n, index.length, index.sigma)
    body = header + index.rows.astype(">u2").tobytes() + index.order.astype("<i4").tobytes()
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.mark.parametrize("case", sorted(PINNED_SNAPSHOTS))
def test_snapshot_bytes_are_pinned(case):
    # LCPI v3 is the published format: these digests must never change.  The
    # v2 digests pin the index content: its rows and order, re-encoded as v2.
    make, digest_v2, digest_v3 = PINNED_SNAPSHOTS[case]
    index = build(make())
    assert hashlib.sha256(_v2_snapshot_bytes(index)).hexdigest() == digest_v2
    snap = index_snapshot_bytes(index)
    assert hashlib.sha256(snap).hexdigest() == digest_v3
    assert index_snapshot_bytes(index_from_snapshot_bytes(snap)) == snap


def test_snapshot_mutations_are_rejected_or_canonical():
    # every corrupted snapshot is a data error, or loads as a valid index
    # that encodes back to exactly the bytes it was read from
    ds = Dataset.from_rows(np.repeat(generate_dataset(32, 5, 3, seed=41).items, 2, axis=0), 3)
    snap = index_snapshot_bytes(build(ds))
    rng = np.random.default_rng(42)
    mutants = [snap[:cut] for cut in range(len(snap))]
    for bit in rng.integers(0, 8 * len(snap), size=2000).tolist():
        bad = bytearray(snap)
        bad[bit // 8] ^= 1 << (bit % 8)
        mutants.append(bytes(bad))
    for raw in mutants:
        try:
            loaded = index_from_snapshot_bytes(raw)
        except InvalidInputError:
            continue
        assert np.array_equal(np.sort(loaded.order), np.arange(loaded.n))
        assert index_snapshot_bytes(loaded) == raw


def test_every_bit_flip_truncation_and_extension_is_rejected():
    # no byte of a snapshot is free, and the CRC catches every single-bit flip
    ds = Dataset.from_rows(np.repeat(generate_dataset(32, 5, 3, seed=41).items, 2, axis=0), 3)
    snap = index_snapshot_bytes(build(ds))
    mutants = [snap[:cut] for cut in range(len(snap))] + [snap + b"\x00"]
    for bit in range(8 * len(snap)):
        bad = bytearray(snap)
        bad[bit // 8] ^= 1 << (bit % 8)
        mutants.append(bytes(bad))
    for raw in mutants:
        with pytest.raises(InvalidInputError):
            index_from_snapshot_bytes(raw)


def test_snapshot_reader_rejects_two_to_the_31_items():
    header = struct.pack("<4sHQII", b"LCPI", 3, 1 << 31, 4, 2)
    with pytest.raises(InvalidInputError, match="limit"):
        index_from_snapshot_bytes(header)


def test_snapshot_reader_checks_the_size_before_allocating_rows():
    # 22 bytes: a header claiming n = 2^31 - 1 rows of L = 65535 (256 TiB)
    header = struct.pack("<4sHQII", b"LCPI", 3, (1 << 31) - 1, 65535, 2)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError, match="size mismatch"):
            index_from_snapshot_bytes(header)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_version_1_snapshot_is_refused():
    # a v1 header and one empty root record, as written before version 2
    header = struct.pack("<4sH6BQIIQ", b"LCPI", 1, 2, 4, 4, 2, 4, 2, (1 << 31) - 1, 65535, 2, 1)
    with pytest.raises(InvalidInputError, match="unsupported snapshot version 1.*lcpsearch build"):
        index_from_snapshot_bytes(header + struct.pack("<HIH", 0, 0, 0))


def test_version_2_snapshot_is_refused():
    # a valid v2 file, as written before keys were packed
    index = build(generate_dataset(20, 4, 3, seed=43))
    with pytest.raises(InvalidInputError, match="unsupported snapshot version 2.*lcpsearch build"):
        index_from_snapshot_bytes(_v2_snapshot_bytes(index))


def _with_crc(body):
    return body + struct.pack("<I", zlib.crc32(body))


def test_packed_fields_and_padding_are_checked_under_a_valid_crc():
    # sigma = 5 packs 3-bit fields (5..7 unused); L = 3 leaves 7 pad bits in 2 bytes
    ds = Dataset.from_rows([[4, 0, 1], [0, 4, 4], [2, 3, 0], [4, 4, 4]], 5)
    snap = index_snapshot_bytes(build(ds))
    keys_at = 24  # a 22-byte header, then 2 pad bytes so that order is aligned
    assert len(snap) == keys_at + 4 * 2 + 4 * 4 + 4
    body = bytearray(snap[:-4])
    last = bytearray(body)
    last[keys_at + 3 * 2 + 1] |= 1  # the last pad bit of the largest key
    first = bytearray(body)
    first[keys_at + 3 * 2] |= 0xE0  # its first field 4 -> 7, still the largest key
    for raw, match in ((last, "padding"), (first, "symbol 7 out of range")):
        with pytest.raises(InvalidInputError, match=match):
            index_from_snapshot_bytes(_with_crc(bytes(raw)))
    header_pad = bytearray(body)
    header_pad[22] = 1
    with pytest.raises(InvalidInputError, match="pad"):
        index_from_snapshot_bytes(_with_crc(bytes(header_pad)))
    # sorted: [0, 4, 4] (item 1), then [2, 3, 0] (items 0 and 2); 2-byte keys, then order
    ds = Dataset.from_rows([[2, 3, 0], [0, 4, 4], [2, 3, 0]], 5)
    body = index_snapshot_bytes(build(ds))[:-4]
    order_at = len(body) - 3 * 4
    keys_at = order_at - 3 * 2
    assert np.frombuffer(body, "<i4", 3, order_at).tolist() == [1, 0, 2]

    def with_order(order, keys=None):
        keys = body[keys_at:order_at] if keys is None else keys
        return _with_crc(body[:keys_at] + keys + np.array(order, "<i4").tobytes())

    first, second = keys_at, keys_at + 2
    swapped = body[second : second + 2] + body[first:second] + body[second + 2 : order_at]
    for raw, match in (
        (with_order([1, 0, 0]), "not a permutation"),  # a duplicate item index
        (with_order([1, 0, 3]), "not a permutation"),  # an item index equal to n
        (with_order([0, 1, 2], swapped), "not in stable lexicographic order"),
        (with_order([1, 2, 0]), "not in stable lexicographic order"),  # equal keys, 2 before 0
    ):
        with pytest.raises(InvalidInputError, match=match):
            index_from_snapshot_bytes(raw)
    assert index_from_snapshot_bytes(with_order([1, 0, 2])).order.tolist() == [1, 0, 2]


@pytest.mark.parametrize("sigma", [3, 5])
def test_every_bit_flip_truncation_and_extension_of_a_packed_snapshot_is_rejected(sigma):
    rows = np.repeat(generate_dataset(16, 5, sigma, seed=44).items, 2, axis=0)
    ds = Dataset.from_rows(rows, sigma)
    snap = index_snapshot_bytes(build(ds))
    mutants = [snap[:cut] for cut in range(len(snap))] + [snap + b"\x00"]
    for bit in range(8 * len(snap)):
        bad = bytearray(snap)
        bad[bit // 8] ^= 1 << (bit % 8)
        mutants.append(bytes(bad))
    for raw in mutants:
        with pytest.raises(InvalidInputError):
            index_from_snapshot_bytes(raw)


def test_snapshot_roundtrip_at_the_length_and_alphabet_limits():
    rows = np.zeros((3, 65535), dtype=np.uint16)
    rows[0, -1] = 0xFFFF
    rows[1, 0] = 0xFFFF
    rows[2, 1000] = 7
    index = build(Dataset.from_rows(rows, 65536))
    snap = index_snapshot_bytes(index)
    assert len(snap) == 22 + 3 * (2 * 65535 + 4) + 4
    loaded = index_from_snapshot_bytes(snap)
    assert loaded.sigma == 65536
    assert np.array_equal(loaded.rows, index.rows) and np.array_equal(loaded.order, index.order)
    for q in rows:
        for mode in ("strict", "complete"):
            assert loaded.query(q, 3, mode).to_bytes() == index.query(q, 3, mode).to_bytes()
