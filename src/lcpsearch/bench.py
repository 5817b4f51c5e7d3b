"""Benchmark scenarios, latency statistics, and the materialization memory wall.

Four scenarios are provided, each fully determined by a config + seed:

- ``sustained``: a query loop over a pre-built prefix index, reporting
  nearest-rank latency percentiles and throughput;
- ``gnc``: a step loop where every simulation step issues one top-k query
  against a static set of historical patterns;
- ``tal_sweep``: full scan versus bucketed range scans across a ladder of
  bucket counts, reporting the work-unit reduction per rung;
- ``memo``: cold-versus-hot comparison of a memoized query set.

Reports split into a deterministic ``results`` section (work counters,
reductions, determinism checks) and a ``wall_clock`` section (latency,
throughput, elapsed) that is expected to vary between runs.  Wall-clock
values are informational only; work-unit values are the ones tests assert.
Every report embeds its config and seed so a run can be replayed exactly.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .core import ConfigError, Dataset, InvalidStateError
from .datagen import generate_dataset, generate_queries
from .storage import read_index
from .tal import TalEngine
from .trie import QueryCache, TrieIndex, build, memoized_query
from .work import WorkReport, work_reduction

GIB = 1 << 30
MATERIALIZATION_ENTRY_BYTES = 2  # half-precision similarity entries
DEFAULT_BUDGET_BYTES = 80 * GIB
SCHEMA_VERSION = "1"

SCENARIOS = ("sustained", "gnc", "tal_sweep", "memo")


# ---------------------------------------------------------------------------
# Latency statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatencyStats:
    """Nearest-rank percentiles over a complete latency sample, in seconds."""

    p50: float
    p95: float
    p99: float
    qps: float
    total_queries: int

    @classmethod
    def from_samples(cls, samples, elapsed_s: float) -> "LatencyStats":
        arr = np.sort(np.asarray(list(samples), dtype=np.float64))
        n = arr.size
        if n == 0:
            return cls(0.0, 0.0, 0.0, 0.0, 0)

        def rank(p: float) -> float:
            return float(arr[max(1, math.ceil(p / 100.0 * n)) - 1])

        qps = n / elapsed_s if elapsed_s > 0 else 0.0
        return cls(p50=rank(50), p95=rank(95), p99=rank(99), qps=qps, total_queries=n)

    def as_dict(self) -> dict:
        return {
            "p50_ms": self.p50 * 1e3,
            "p95_ms": self.p95 * 1e3,
            "p99_ms": self.p99 * 1e3,
            "qps": self.qps,
            "total_queries": self.total_queries,
        }


# ---------------------------------------------------------------------------
# Memory wall
# ---------------------------------------------------------------------------

def format_byte_size(num_bytes: int) -> str:
    """GiB rendering used in feasibility tables; >= 1000 GiB shown as TiB.

    The TiB figure is the GiB value divided by 1000, matching the common
    report convention of thousand-GiB steps.
    """
    gib = num_bytes / GIB
    if gib >= 1000.0:
        return f"{gib / 1000.0:.2f} TiB"
    return f"{gib:.2f} GiB"


@dataclass(frozen=True)
class MemoryEstimate:
    """Cost of materializing all pairwise similarities versus an index."""

    n: int
    materialization_bytes: int
    budget_bytes: int
    feasible: bool
    index_bytes_measured: int | None = None
    ratio: float | None = None

    @property
    def materialization_display(self) -> str:
        return format_byte_size(self.materialization_bytes)


def memory_wall(n: int, budget_bytes: int = DEFAULT_BUDGET_BYTES, index_bytes: int | None = None) -> MemoryEstimate:
    """Exact pairwise-materialization size ``n*n*2`` bytes against a budget."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    mat = n * n * MATERIALIZATION_ENTRY_BYTES
    ratio = (mat / index_bytes) if index_bytes else None
    return MemoryEstimate(
        n=n,
        materialization_bytes=mat,
        budget_bytes=budget_bytes,
        feasible=mat <= budget_bytes,
        index_bytes_measured=index_bytes,
        ratio=ratio,
    )


# ---------------------------------------------------------------------------
# Scenario configuration and report
# ---------------------------------------------------------------------------

@dataclass
class ScenarioConfig:
    """A scenario's inputs; construction rejects invalid ones with ConfigError.

    ``index_path`` serves ``sustained`` from a snapshot; every other scenario
    generates its own dataset and rejects it.
    """

    scenario: str
    seed: int
    n_items: int = 100_000
    seq_len: int = 64
    alphabet: int = 2
    k: int = 10
    mode: str = "complete"
    query_count: int = 1000
    duration_s: float | None = None
    steps: int = 1000
    bucket_counts: tuple[int, ...] = (1, 4, 16, 64, 256)
    prefix_len: int | None = None
    distribution: str = "uniform"
    index_path: str | None = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if self.seed is None or self.seed < 0:
            raise ConfigError(f"seed must be >= 0 (every run must be replayable), got {self.seed}")
        positives = {
            "n_items": self.n_items,
            "seq_len": self.seq_len,
            "alphabet": self.alphabet,
            "k": self.k,
            "query_count": self.query_count,
            "steps": self.steps,
        }
        for name, value in positives.items():
            if int(value) < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.duration_s is not None and not (0 < self.duration_s < math.inf):
            raise ConfigError(f"duration_s must be positive and finite, got {self.duration_s}")
        if self.mode not in ("strict", "complete"):
            raise ConfigError(f"mode must be strict or complete, got {self.mode!r}")
        if not self.bucket_counts or any(int(b) < 1 for b in self.bucket_counts):
            raise ConfigError(f"bucket counts must be positive, got {self.bucket_counts}")
        if self.index_path is not None and self.scenario != "sustained":
            raise ConfigError(
                f"index_path is for the sustained scenario only; {self.scenario} "
                "generates its own dataset"
            )
        if self.index_path is not None and self.prefix_len is not None:
            raise ConfigError("prefix_len queries need the raw dataset, not a loaded index")

    def as_dict(self) -> dict:
        d = asdict(self)
        d["bucket_counts"] = list(self.bucket_counts)
        return d


@dataclass
class ScenarioReport:
    scenario: str
    config: dict
    results: dict
    wall_clock: dict
    schema_version: str = SCHEMA_VERSION

    def to_machine(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "scenario": self.scenario,
            "config": self.config,
            "results": self.results,
            "wall_clock": self.wall_clock,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_machine(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            "lcpsearch scenario report",
            f"schema: {self.schema_version}",
            f"scenario: {self.scenario}",
        ]
        for section in ("config", "results", "wall_clock"):
            lines.append("")
            lines.append(f"[{section}]")
            lines.extend(_render_kv(getattr(self, section)))
        return "\n".join(lines) + "\n"


def _render_kv(data: dict, prefix: str = "") -> list[str]:
    lines = []
    for key in sorted(data):
        value = data[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.extend(_render_kv(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    lines.extend(_render_kv(item, prefix=f"{name}.{i}."))
                else:
                    lines.append(f"{name}.{i}: {item}")
        elif isinstance(value, float):
            lines.append(f"{name}: {value:.6g}")
        else:
            lines.append(f"{name}: {value}")
    return lines


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------

def _query_stream(
    answer, queries: np.ndarray, duration_s: float | None = None
) -> tuple[list[float], float]:
    """Latencies and elapsed time of ``answer`` over ``queries``, once or cycled for ``duration_s``.

    The clock starts where the deadline is set, so a timed run never reports
    less than ``duration_s``.
    """
    latencies: list[float] = []
    t_start = time.perf_counter()
    deadline = None if duration_s is None else t_start + duration_s
    for q in queries if deadline is None else itertools.cycle(queries):
        t0 = time.perf_counter()
        if deadline is not None and t0 >= deadline:
            break
        answer(q)
        latencies.append(time.perf_counter() - t0)
    return latencies, time.perf_counter() - t_start


def _determinism_check(run_bytes, queries: np.ndarray) -> dict:
    """Re-run a 1% sample of queries twice and byte-compare the results."""
    sample = queries[::100]
    ok = all(run_bytes(q) == run_bytes(q) for q in sample)
    return {"sampled_queries": len(sample), "byte_identical": bool(ok)}


def _load_or_build_index(config: ScenarioConfig) -> tuple[TrieIndex, Dataset]:
    """The index and the dataset its queries are drawn from.

    A loaded snapshot comes with an empty dataset of the snapshot's shape.
    """
    if config.index_path is not None:
        if not os.path.exists(config.index_path):
            raise InvalidStateError(f"index snapshot not found: {config.index_path}")
        index = read_index(config.index_path)
        empty = np.zeros((0, index.length), dtype=np.uint16)
        return index, Dataset.from_rows(empty, index.sigma)
    dataset = generate_dataset(
        config.n_items, config.seq_len, config.alphabet, config.seed, config.distribution
    )
    return build(dataset), dataset


def _scenario_sustained(config: ScenarioConfig) -> ScenarioReport:
    index, dataset = _load_or_build_index(config)
    queries = generate_queries(dataset, config.query_count, config.seed + 1, config.prefix_len)
    work = index.new_work_report()
    lats, elapsed = _query_stream(
        lambda q: index.query(q, config.k, config.mode, work=work), queries, config.duration_s
    )
    stats = LatencyStats.from_samples(lats, elapsed)
    det = _determinism_check(lambda q: index.query(q, config.k, config.mode).to_bytes(), queries)
    results: dict = {"determinism": det, "index_nodes": index.node_count, "index_bytes": index.nbytes}
    wall: dict = {"latency": stats.as_dict(), "elapsed_s": elapsed}
    target = results if config.duration_s is None else wall
    target["work"] = work.as_dict()
    target["energy_work_units_per_query"] = work.energy_work_units / max(1, work.queries)
    echoed = config.as_dict()
    if config.index_path is not None:
        # the served shape is the snapshot's own; a snapshot records no distribution
        echoed.update(
            n_items=index.n, seq_len=index.length, alphabet=index.sigma, distribution=None
        )
    return ScenarioReport("sustained", echoed, results, wall)


def _scenario_gnc(config: ScenarioConfig) -> ScenarioReport:
    # Historical patterns are pre-generated and static for the whole run; each
    # simulation step issues one top-k query for the current sensor reading.
    index, dataset = _load_or_build_index(config)
    readings = generate_queries(dataset, config.steps, config.seed + 1, config.prefix_len)
    work = index.new_work_report()
    lats, elapsed = _query_stream(
        lambda q: index.query(q, config.k, config.mode, work=work), readings
    )
    stats = LatencyStats.from_samples(lats, elapsed)

    det = _determinism_check(lambda q: index.query(q, config.k, config.mode).to_bytes(), readings)
    results = {
        "steps": config.steps,
        "work": work.as_dict(),
        "energy_work_units_per_step": work.energy_work_units / config.steps,
        "determinism": det,
    }
    wall = {
        "latency": stats.as_dict(),
        "elapsed_s": elapsed,
        "steps_per_second": config.steps / elapsed if elapsed > 0 else 0.0,
    }
    return ScenarioReport("gnc", config.as_dict(), results, wall)


def _scenario_tal_sweep(config: ScenarioConfig) -> ScenarioReport:
    index, dataset = _load_or_build_index(config)  # one sort serves every rung
    queries = generate_queries(dataset, config.query_count, config.seed + 1, config.prefix_len)

    def rung(bucket_count: int) -> tuple[TalEngine, WorkReport, float]:
        engine = TalEngine(index, bucket_count)
        work = engine.new_work_report()
        _, elapsed = _query_stream(lambda q: engine.query(q, config.k, work=work), queries)
        return engine, work, elapsed

    _, base_work, base_elapsed = rung(1)
    rows = []
    wall_rows = []
    for b in config.bucket_counts:
        engine, work, b_elapsed = rung(int(b))
        red = work_reduction(base_work, work)
        rows.append(
            {
                "bucket_count": int(b),
                "effective_buckets": engine.bucket_count,
                "bucket_depth": engine.bucket_depth,
                "work": work.as_dict(),
                "reduction": red.ratio if math.isfinite(red.ratio) else "inf",
                "tal_work_zero": red.tal_work_zero,
            }
        )
        wall_rows.append({"bucket_count": int(b), "elapsed_s": b_elapsed})

    det = _determinism_check(lambda q: engine.query(q, config.k)[0].to_bytes(), queries)
    results = {
        "baseline_work": base_work.as_dict(),
        "sweep": rows,
        "determinism": det,
    }
    wall = {"baseline_elapsed_s": base_elapsed, "sweep": wall_rows}
    return ScenarioReport("tal_sweep", config.as_dict(), results, wall)


def _scenario_memo(config: ScenarioConfig) -> ScenarioReport:
    index, dataset = _load_or_build_index(config)
    queries = generate_queries(dataset, config.query_count, config.seed + 1, config.prefix_len)
    cache = QueryCache()

    def memo_pass() -> tuple[list, WorkReport, float]:
        answers: list = []
        work = index.new_work_report()
        _, elapsed = _query_stream(
            lambda q: answers.append(
                memoized_query(index, q, config.k, config.mode, cache, work=work)
            ),
            queries,
        )
        return answers, work, elapsed

    cold, cold_work, cold_elapsed = memo_pass()
    hot, hot_work, hot_elapsed = memo_pass()

    identical = all(a.to_bytes() == b.to_bytes() for a, b in zip(cold, hot))
    results = {
        "cold_work": cold_work.as_dict(),
        "hot_work": hot_work.as_dict(),
        "hot_scan_work_zero": hot_work.symbols_compared == 0
        and hot_work.items_scanned == 0
        and hot_work.nodes_visited == 0,
        "hot_results_byte_identical": bool(identical),
        "cache_entries": len(cache),
    }
    wall = {
        "cold_elapsed_s": cold_elapsed,
        "hot_elapsed_s": hot_elapsed,
        "speedup": (cold_elapsed / hot_elapsed) if hot_elapsed > 0 else float("inf"),
    }
    return ScenarioReport("memo", config.as_dict(), results, wall)


_RUNNERS = {
    "sustained": _scenario_sustained,
    "gnc": _scenario_gnc,
    "tal_sweep": _scenario_tal_sweep,
    "memo": _scenario_memo,
}


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Execute one scenario and return its report."""
    return _RUNNERS[config.scenario](config)
