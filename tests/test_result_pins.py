"""Result bytes and work counters pinned by SHA-256 over seeded query streams.

Any change to what a query returns or counts, in strict, complete or TAL
mode, changes one of these digests.
"""

import hashlib
import struct

import pytest

from lcpsearch import build, generate_dataset, generate_queries
from lcpsearch.tal import TalEngine

PINS = {
    ("uniform", "complete"): (
        "638abaf567b035a9d7386e0cd729a5107bb8b4b855f5ffe565d0a4ee01166189"
    ),
    ("uniform", "strict"): (
        "7b8245acc232eea6584b9015aa14b9052e7a8e194f70a2f06f91ebccf0705f32"
    ),
    ("uniform", "tal"): (
        "bb143be7dae2eba02afc5befb66817d8ff5a7c29e50abfc7579434d5bfe4da63"
    ),
    ("clustered", "complete"): (
        "76cf6ca9fae4d54353f4b5e36d73c3500d885c478b6dbf04c88e5b6a9fff1733"
    ),
    ("clustered", "strict"): (
        "2f281074a01bd1141f8b07e59fd5235dc59ad4ba7ffb143e655743436e63ef17"
    ),
    ("clustered", "tal"): (
        "23ce65feab2394e490795b5237f491ac94be372864dbae64ef5bfbc80d0b6989"
    ),
}


def _stream(distribution):
    """A 2^12-row dataset and 600 queries copying 0..16 symbols of a row."""
    ds = generate_dataset(1 << 12, 16, 4, seed=61, distribution=distribution)
    queries = [
        q
        for j, prefix in enumerate((0, 4, 7, 9, 12, 16))
        for q in generate_queries(ds, 100, seed=62 + j, prefix_len=prefix)
    ]
    return ds, queries


def _digest(distribution, mode):
    ds, queries = _stream(distribution)
    index = build(ds)
    engine = TalEngine(index, 64)
    acc = hashlib.sha256()
    for i, q in enumerate(queries):
        k = (1, 10, 100, 5000)[i % 4]
        if mode == "tal":
            res, work = engine.query(q, k)
        else:
            work = index.new_work_report()
            res = index.query(q, k, mode, work=work)
        acc.update(res.to_bytes())
        acc.update(
            struct.pack(
                "<4q", work.symbols_compared, work.items_scanned, work.nodes_visited, work.queries
            )
        )
    return acc.hexdigest()


@pytest.mark.parametrize("distribution, mode", sorted(PINS))
def test_result_stream_digest_is_pinned(distribution, mode):
    assert _digest(distribution, mode) == PINS[(distribution, mode)]
