"""The benchmark's workloads and the pipeline that runs one of them.

Every workload runs the same pipeline, from one process, with one client
that waits for each reply (a closed loop, no extra threads):

1. generate the dataset from the seed (``datagen``; not part of set-up);
2. ``Spec.rounds`` times: build the serving engine (``setup_s``), save and
   load the workload's on-disk form (``save_s``, ``load_s``), and serve the
   request stream for a 1/rounds slice of the window.  A request is the
   engine call plus ``QueryResult.to_bytes``, the reply a server sends.
   Each metric is the median over its samples or slices;
3. check outputs, untimed: window replies against a reference engine byte
   for byte, a sample against ``oracle_top_k``, and a digest of the first
   replies so that runs can be compared for bit-determinism.

With tracing on, every public call is wrapped in a span from here, outside
the library, and extra calls that the serving path makes internally
(``descend``, ``collect_top_k``, ``bucket_range``, encode/decode/validate)
are timed on their own.  Only per-layer numbers come from that run.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import time
import traceback
from array import array
from dataclasses import dataclass

import numpy as np

from harness import (
    Tracer, expected_prefix, lcp_profile, median, percentile, slice_medians, slice_summary, timed,
)
from lcpsearch import core, datagen, oracle, storage, tal, trie, work

K = 10
LENGTH = 16
SIGMA = 4
TAL_BUCKETS = 64
WARMUP_REQUESTS = 50
# spans kept per round of a traced run, so the span file stays small
TRACED_PER_ROUND = 4000
# snapshot-cold: a pass is PASS_LEN Zipf(ZIPF_A) draws over POOL distinct
# requests, served from a cache that starts empty.
POOL = 256
PASS_LEN = 2000
ZIPF_A = 1.2


@dataclass(frozen=True)
class Spec:
    engine: str  # "trie", "tal" or "memo" (memoized trie on a loaded snapshot)
    n: int
    distribution: str
    store: str  # "dataset" (LCPD file) or "index" (LCPI snapshot)
    # A run is this many rounds of build, save, load and a slice of the
    # window, so that the samples behind every median are spread over the
    # whole run rather than taken within one burst of load from other
    # processes.
    rounds: int
    builds: int  # per round
    saves: int  # per round
    loads: int  # per round
    checks: int  # distinct requests checked against the oracle
    digest_len: int  # leading requests covered by the result digest
    probes: int  # leading requests replayed for the per-layer probe calls


SPECS = {
    "trie-serve": Spec("trie", 1 << 20, "uniform", "dataset", rounds=5, builds=1, saves=3,
                       loads=3, checks=12, digest_len=2000, probes=500),
    "tal-clustered": Spec("tal", 1 << 20, "clustered", "dataset", rounds=5, builds=1, saves=3,
                          loads=3, checks=12, digest_len=100, probes=100),
    # An LCPI v1 load costs ~20 us per node: ~1.7 s at 2^13 rows, so ten
    # loads, one per round, fit in a run.
    "snapshot-cold": Spec("memo", 1 << 13, "uniform", "index", rounds=10, builds=3, saves=3,
                          loads=1, checks=200, digest_len=PASS_LEN, probes=PASS_LEN),
}

SERVE_SPAN = {"trie": "trie.query", "tal": "tal.query", "memo": "trie.memoized_query"}


def subseed(seed: int, tag: int) -> int:
    """Independent seed for one input stream of a run."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1, np.uint64)[0])


def _distinct_shuffled(queries: np.ndarray, seed: int) -> np.ndarray:
    keys = np.ascontiguousarray(queries).view(np.dtype((np.void, queries.shape[1] * 2))).ravel()
    _, first = np.unique(keys, return_index=True)
    kept = queries[np.sort(first)]
    return kept[np.random.default_rng(seed).permutation(kept.shape[0])]


def _mixed_queries(ds, per_group: int, seed: int) -> np.ndarray:
    """Uniform draws plus dataset prefixes of 8, 12 and 16 symbols, deduplicated."""
    groups = [
        datagen.generate_queries(ds, per_group, subseed(seed, 10 + g), prefix_len=p)
        for g, p in enumerate((None, 8, 12, 16))
    ]
    return _distinct_shuffled(np.concatenate(groups), subseed(seed, 19))


def make_stream(spec: Spec, ds, seed: int) -> list[tuple[np.ndarray, str]]:
    """One pass of the workload's requests as (query, mode) pairs."""
    if spec.engine == "trie":
        qs = _mixed_queries(ds, 25000, seed)
        return [(q, ("strict", "complete")[i % 2]) for i, q in enumerate(qs)]
    if spec.engine == "tal":
        qs = datagen.generate_queries(ds, 3000, subseed(seed, 20), prefix_len=8)
        return [(q, "tal") for q in _distinct_shuffled(qs, subseed(seed, 21))]
    pool = _mixed_queries(ds, POOL, seed)[:POOL]
    ranks = np.arange(1, pool.shape[0] + 1, dtype=np.float64)
    weights = ranks**-ZIPF_A
    draws = np.random.default_rng(subseed(seed, 30)).choice(
        pool.shape[0], size=PASS_LEN, p=weights / weights.sum()
    )
    return [(pool[j], ("strict", "complete")[j % 2]) for j in draws]


class Bench:
    """One run of one workload; ``tracer`` is None for the untraced run."""

    def __init__(self, name: str, seed: int, seconds: float, tracer: Tracer | None, tmp_dir):
        self.spec = SPECS[name]
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.tmp_dir = tmp_dir
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None
        self.cache = None

    def span(self, name: str, **attrs):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **attrs)

    def timed_span(self, name: str, fn, *args):
        with self.span(name):
            return timed(fn, *args)

    # -- pipeline ---------------------------------------------------------------

    def run(self) -> None:
        spec = self.spec
        self.ds, self.generate_s = self.timed_span(
            "datagen.generate_dataset", datagen.generate_dataset,
            spec.n, LENGTH, SIGMA, self.seed, spec.distribution,
        )
        self.stream = make_stream(spec, self.ds, self.seed)
        self.path = str(self.tmp_dir / ("data.lcpd" if spec.store == "dataset" else "index.lcpi"))
        self.build_s, self.save_s, self.load_s = [], [], []
        self.slices: list[tuple[float, float, float]] = []  # (qps, p50 ns, p95 ns) per slice
        self.captured: dict[int, bytes | None] = {}
        self.position = 0
        self.served = {False: [0, 0.0], True: [0, 0.0]}  # traced? -> [requests, seconds]
        for r in range(spec.rounds):
            self.setup()
            self.persist()
            if r == 0:
                self.warm_up()
            self.serve_slice(self.seconds / spec.rounds)
        self.check()
        if self.tracer is not None:
            self.core_phases()
            if spec.store == "index":
                self.storage_phases()
            self.probe()

    def setup(self) -> None:
        build = tal.build_tal if self.spec.engine == "tal" else trie.build
        args = (self.ds, TAL_BUCKETS) if self.spec.engine == "tal" else (self.ds,)
        span = "tal.build" if self.spec.engine == "tal" else "trie.build"
        for _ in range(self.spec.builds):
            self.engine = None  # release the previous engine before building anew
            self.engine, secs = self.timed_span(span, build, *args)
            self.build_s.append(secs)

    def persist(self) -> None:
        """Save the on-disk form, then load and verify it."""
        spec = self.spec
        if spec.store == "dataset":
            write, read, obj = storage.write_dataset, storage.read_dataset, self.ds
        else:
            write, read, obj = storage.write_index, storage.read_index, self.engine
        for _ in range(spec.saves):
            self.file_bytes, secs = self.timed_span(f"storage.{write.__name__}", write, self.path, obj)
            self.save_s.append(secs)
        for _ in range(spec.loads):
            self.loaded = None
            self.loaded, secs = self.timed_span(f"storage.{read.__name__}", read, self.path)
            self.load_s.append(secs)
            self.attempted += 1
            if spec.store == "dataset":
                same = self.loaded.alphabet == self.ds.alphabet and np.array_equal(
                    self.loaded.items, self.ds.items
                )
            else:
                same = storage.index_snapshot_bytes(self.loaded) == storage.index_snapshot_bytes(
                    self.engine
                )
            if not same:
                self.failed += 1

    @property
    def serving_index(self):
        """The engine that answers the window's requests."""
        return self.loaded if self.spec.engine == "memo" else self.engine

    def storage_phases(self) -> None:
        """Encode, decode and validate, each timed on its own (traced run only)."""
        with open(self.path, "rb") as fh:
            raw = fh.read()
        for _ in range(self.spec.rounds * self.spec.saves):
            self.timed_span("storage.index_snapshot_bytes", storage.index_snapshot_bytes, self.loaded)
            self.timed_span("trie.check_invariants", self.loaded.check_invariants)
        self.timed_span("storage.index_from_snapshot_bytes", storage.index_from_snapshot_bytes, raw)

    def new_pass(self) -> None:
        if self.spec.engine == "memo":
            self.cache = trie.QueryCache()

    def serve(self, q, mode):
        engine = self.spec.engine
        if engine == "trie":
            return self.engine.query(q, K, mode)
        if engine == "tal":
            return self.engine.query(q, K)[0]
        return trie.memoized_query(self.loaded, q, K, mode, self.cache)

    def warm_up(self) -> None:
        self.new_pass()
        for q, mode in self.stream[:WARMUP_REQUESTS]:
            self.serve(q, mode)

    def serve_slice(self, seconds: float) -> None:
        """Serve this round's share of the window; a traced run traces half of it."""
        if self.spec.engine == "memo":
            # start on a pass boundary, so each pass uses one loaded index
            m = len(self.stream)
            self.position = -(-self.position // m) * m
        if self.tracer is None:
            lat = array("q")
            self._loop(seconds, lat)
        else:
            self._loop(seconds / 2, array("q"))
            self._loop(seconds / 2, array("q"), self.tracer)

    def _loop(self, seconds: float, lat, tracer: Tracer | None = None) -> None:
        """Closed loop: serve the stream from ``self.position`` for ``seconds``."""
        stream, m = self.stream, len(self.stream)
        keep = self.spec.digest_len
        now = time.perf_counter_ns
        call = SERVE_SPAN[self.spec.engine]
        failed = 0
        i = self.position
        began = now()
        deadline = began + int(seconds * 1e9)
        while now() < deadline:
            j = i % m
            if j == 0:
                self.new_pass()
            q, mode = stream[j]
            data = None
            if tracer is None:
                t0 = now()
                try:
                    data = self.serve(q, mode).to_bytes()
                except Exception:
                    failed += 1
                    self.first_error = self.first_error or traceback.format_exc()
                lat.append(now() - t0)
            else:
                if i - self.position >= TRACED_PER_ROUND:
                    break
                try:
                    with tracer.span("request", request=i):
                        with tracer.span(call, mode=mode) as attrs:
                            hits = self.cache.hits if self.cache is not None else 0
                            res = self.serve(q, mode)
                            if self.cache is not None:
                                attrs["hit"] = self.cache.hits > hits
                        with tracer.span("trie.to_bytes"):
                            data = res.to_bytes()
                except Exception:
                    failed += 1
                    self.first_error = self.first_error or traceback.format_exc()
            if i < keep:
                self.captured[i] = data
            i += 1
        secs = (now() - began) / 1e9
        count = i - self.position
        self.position = i
        self.attempted += count
        self.failed += failed
        self.served[tracer is not None][0] += count
        self.served[tracer is not None][1] += secs
        if tracer is None and lat:
            # keep only the summary, so peak RSS does not grow with qps
            self.slices.append(slice_summary(lat, secs))

    # -- correctness --------------------------------------------------------------

    def reference(self, q, mode):
        """The same request on an engine without cache or snapshot round trip."""
        if self.spec.engine == "tal":
            return self.engine.query(q, K)[0]
        return self.engine.query(q, K, mode)

    def check(self) -> None:
        digest = hashlib.sha256()
        seen: set[tuple[bytes, str]] = set()
        self.oracle_checked = 0
        self.mismatches = 0
        selected = []
        for i in range(self.spec.digest_len):
            q, mode = self.stream[i % len(self.stream)]
            res = self.reference(q, mode)
            data = res.to_bytes()
            digest.update(data)
            # a None capture is a request that raised; the window counted it
            if self.captured.get(i) is not None:
                self.attempted += 1
                if self.captured[i] != data:
                    self.failed += 1
            key = (q.tobytes(), mode)
            if key in seen or self.oracle_checked >= self.spec.checks:
                continue
            seen.add(key)
            self.oracle_checked += 1
            pairs = oracle.oracle_top_k(self.ds, q, K).pairs()
            want = pairs if mode == "complete" else expected_prefix(pairs, res.matched_depth)
            if res.pairs() != want:
                self.mismatches += 1
            if self.tracer is not None and mode != "tal":
                shallowest = int(res.lcps.min())
                selected.append(int((lcp_profile(self.ds.items, q) >= shallowest).sum()))
        self.attempted += self.oracle_checked
        self.failed += self.mismatches
        self.digest = digest.hexdigest()
        self.selected_rows = float(np.mean(selected)) if selected else 0.0

    # -- traced run only ------------------------------------------------------------

    def core_phases(self) -> None:
        """Time the two ``core`` build phases as standalone calls."""
        for _ in range(self.spec.builds):
            order, _ = self.timed_span("core.lexicographic_order", core.lexicographic_order, self.ds.items)
            self.timed_span("core.adjacent_lcp", core.adjacent_lcp, self.ds.items[order])

    def probe(self) -> None:
        """Replay the leading requests with work counters and the inner public calls."""
        spec = self.spec
        report = work.WorkReport(c_sym=work.work_per_symbol(LENGTH))
        self.rows_max = 0
        self.hits_returned = 0
        self.cache_hit_rate = 0.0
        self.cache_entries = 0
        depths = []
        head = [self.stream[i % len(self.stream)] for i in range(spec.probes)]
        if spec.engine == "memo":
            # one pass from an empty cache, then the inner calls on a sample
            self.new_pass()
            for q, mode in head:
                trie.memoized_query(self.loaded, q, K, mode, self.cache, work=report)
            self.cache_hit_rate = self.cache.hits / (self.cache.hits + self.cache.misses)
            self.cache_entries = len(self.cache)
            head = head[: spec.checks]
        for q, mode in head:
            if spec.engine == "tal":
                with self.span("tal.bucket_range"):
                    self.engine.bucket_range(q)
                with self.span("tal.query", mode=mode):
                    res, one = self.engine.query(q, K, work=report)
                self.rows_max = max(self.rows_max, one.items_scanned)
                self.hits_returned += len(res.indices)
                continue
            index = self.serving_index
            with self.span("trie.descend"):
                node, depth = index.descend(q)
            depths.append(depth)
            with self.span("trie.collect_top_k"):
                index.collect_top_k(node, K)
            with self.span("trie.query", mode=mode):
                index.query(q, K, mode, work=None if spec.engine == "memo" else report)
        self.work = report
        self.matched_depth_mean = float(np.mean(depths)) if depths else 0.0

    # -- results --------------------------------------------------------------------

    def end_to_end(self) -> dict:
        n = self.spec.n
        index_bytes = self.serving_index.nbytes
        qps, p50_ns, p95_ns = slice_medians(self.slices)
        return {
            "setup_s": (median(self.build_s), "s"),
            "qps": (qps, "1/s"),
            "query_p50_us": (p50_ns / 1e3, "us"),
            "query_p95_us": (p95_ns / 1e3, "us"),
            "save_s": (median(self.save_s), "s"),
            "load_s": (median(self.load_s), "s"),
            "index_bytes_per_item": (index_bytes / n, "B/item"),
            "snapshot_bytes_per_item": (self.file_bytes / n, "B/item"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self) -> dict:
        tr = self.tracer

        def p_us(name, pct=50, **match):
            d = tr.durations_ns(name, **match)
            return percentile(d, pct) / 1e3 if d else 0.0

        def med_s(name):
            d = tr.durations_ns(name)
            return median(d) / 1e9 if d else 0.0

        def qps(traced):
            count, secs = self.served[traced]
            return count / secs

        engine = self.spec.engine
        is_trie = engine != "tal"
        rep = self.work
        q = max(rep.queries, 1)
        build = med_s("trie.build")
        return {
            "datagen.generate_dataset_s": (self.generate_s, "s"),
            "core.lexicographic_order_s": (med_s("core.lexicographic_order"), "s"),
            "core.adjacent_lcp_s": (med_s("core.adjacent_lcp"), "s"),
            "trie.build_s": (build, "s"),
            "trie.build_emit_s": (
                build - med_s("core.lexicographic_order") - med_s("core.adjacent_lcp")
                if build else 0.0,
                "s",
            ),
            "trie.node_count": (self.serving_index.node_count if is_trie else 0, "count"),
            "trie.index_bytes": (self.serving_index.nbytes if is_trie else 0, "B"),
            "trie.descend_us_p50": (p_us("trie.descend"), "us"),
            "trie.to_bytes_us_p50": (p_us("trie.to_bytes"), "us"),
            "trie.collect_top_k_us_p50": (p_us("trie.collect_top_k"), "us"),
            "trie.query_strict_us_p50": (p_us("trie.query", mode="strict"), "us"),
            "trie.query_complete_us_p50": (p_us("trie.query", mode="complete"), "us"),
            "trie.query_complete_us_p95": (p_us("trie.query", 95, mode="complete"), "us"),
            "trie.matched_depth_mean": (self.matched_depth_mean, "symbols"),
            "trie.selected_rows_per_query": (self.selected_rows, "rows"),
            "trie.cache_hit_rate": (self.cache_hit_rate, "ratio"),
            "trie.cache_hit_us_p50": (p_us("trie.memoized_query", hit=True), "us"),
            "trie.cache_miss_us_p50": (p_us("trie.memoized_query", hit=False), "us"),
            "trie.cache_entries": (self.cache_entries, "count"),
            "tal.build_s": (med_s("tal.build"), "s"),
            "tal.index_bytes": (self.engine.nbytes if engine == "tal" else 0, "B"),
            "tal.bucket_range_us_p50": (p_us("tal.bucket_range"), "us"),
            "tal.query_us_p50": (p_us("tal.query"), "us"),
            "tal.query_us_p95": (p_us("tal.query", 95), "us"),
            "tal.bucket_rows_max": (self.rows_max, "rows"),
            "tal.useful_ratio": (
                self.hits_returned / rep.items_scanned if engine == "tal" and rep.items_scanned else 0.0,
                "ratio",
            ),
            "storage.encode_s": (med_s("storage.index_snapshot_bytes"), "s"),
            "storage.snapshot_bytes": (self.file_bytes, "B"),
            "storage.decode_s": (med_s("storage.index_from_snapshot_bytes"), "s"),
            "storage.validate_s": (med_s("trie.check_invariants"), "s"),
            "work.units_per_query": (rep.energy_work_units / q, "units"),
            "work.symbols_compared_per_query": (rep.symbols_compared / q, "count"),
            "work.items_scanned_per_query": (rep.items_scanned / q, "count"),
            "work.nodes_visited_per_query": (rep.nodes_visited / q, "count"),
            "work.cache_hits": (rep.cache_hits, "count"),
            "oracle.checked_queries": (self.oracle_checked, "count"),
            "oracle.mismatches": (self.mismatches, "count"),
            "trace.overhead_frac": (1 - qps(True) / qps(False), "ratio"),
        }
