"""Deterministic top-k retrieval by longest-common-prefix similarity.

A trie index, stored as the sorted rows and their permutation, answers
top-k queries over fixed-length symbol sequences by binary search with
bit-identical results across runs; a bucketed range-scan engine over the
same rows bounds per-query work to one prefix bucket; a brute-force scan
provides independent ground truth; and seeded benchmark scenarios measure
work in deterministic units rather than hardware joules.
"""

from .core import (
    Alphabet,
    ConfigError,
    Dataset,
    InternalInvariantError,
    InvalidInputError,
    InvalidStateError,
    as_sequence,
    lcp,
    ultrametric_distance,
)
from .datagen import generate_dataset, generate_queries
from .oracle import OracleResult, oracle_distinguish, oracle_top_k
from .tal import TalEngine, build_tal
from .trie import QueryCache, QueryResult, TrieIndex, build, memoized_query
from .work import (
    LandauerGap,
    WorkReduction,
    WorkReport,
    landauer_gap,
    landauer_limit,
    work_reduction,
)
from .bench import (
    LatencyStats,
    MemoryEstimate,
    ScenarioConfig,
    ScenarioReport,
    memory_wall,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "ConfigError",
    "Dataset",
    "InternalInvariantError",
    "InvalidInputError",
    "InvalidStateError",
    "LandauerGap",
    "LatencyStats",
    "MemoryEstimate",
    "OracleResult",
    "QueryCache",
    "QueryResult",
    "ScenarioConfig",
    "ScenarioReport",
    "TalEngine",
    "TrieIndex",
    "WorkReduction",
    "WorkReport",
    "as_sequence",
    "build",
    "build_tal",
    "generate_dataset",
    "generate_queries",
    "landauer_gap",
    "landauer_limit",
    "lcp",
    "memoized_query",
    "memory_wall",
    "oracle_distinguish",
    "oracle_top_k",
    "run_scenario",
    "ultrametric_distance",
    "work_reduction",
]
