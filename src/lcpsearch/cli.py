"""Command-line entry point.

Subcommands::

    build    ingest a dataset file (binary or tokenized text) and write an
             index snapshot
    query    run ad-hoc or batched queries against a snapshot
    bench    execute a benchmark scenario from a flat key-value config file
    memwall  print pairwise-materialization feasibility for given n
    verify   run the oracle-equivalence and invariant suite on a dataset

Exit codes: 0 success, 2 usage or config error, 3 data validation error,
4 internal invariant violation.  Every failure prints a diagnostic naming
the offending input element.  All commands are deterministic for identical
inputs, flags, and seeds; only wall-clock fields in reports vary.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from .bench import (
    DEFAULT_BUDGET_BYTES,
    GIB,
    SCENARIOS,
    ScenarioConfig,
    memory_wall,
    run_scenario,
)
from .core import (
    ConfigError,
    InternalInvariantError,
    InvalidInputError,
    InvalidStateError,
)
from .datagen import generate_dataset, generate_queries
from .oracle import oracle_top_k
from .storage import (
    ingest_text,
    read_dataset,
    read_index,
    read_text,
    read_vocab,
    write_dataset,
    write_index,
    write_vocab,
)
from .tal import TalEngine
from .trie import build

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def _load_dataset(path: str, as_text: bool):
    """The dataset at ``path`` and, read as token text, its vocabulary (else None)."""
    if not os.path.exists(path):
        raise InvalidInputError(f"dataset file not found: {path}")
    if as_text:
        return ingest_text(path)
    return read_dataset(path), None


def cmd_build(args) -> int:
    t0 = time.perf_counter()
    dataset, vocab = _load_dataset(args.dataset, args.text)
    if vocab is not None:
        write_vocab(args.dataset + ".vocab", vocab)
    index = build(dataset)
    snapshot_bytes = write_index(args.output, index)
    elapsed = time.perf_counter() - t0
    print(f"n: {dataset.n}")
    print(f"length: {dataset.length}")
    print(f"alphabet: {dataset.alphabet.size}")
    print(f"node_count: {index.node_count}")
    print(f"index_bytes: {index.nbytes}")
    print(f"snapshot_bytes: {snapshot_bytes}")
    print(f"build_seconds: {elapsed:.3f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

def _parse_query_line(line: str, lineno, vocab: dict[str, int] | None) -> list[int]:
    tokens = line.split()
    symbols = []
    for tok in tokens:
        if vocab is not None:
            if tok not in vocab:
                raise InvalidInputError(f"query token {tok!r} (line {lineno}) not in vocabulary")
            symbols.append(vocab[tok])
        else:
            try:
                symbols.append(int(tok))
            except ValueError:
                raise InvalidInputError(
                    f"query symbol {tok!r} (line {lineno}) is not an integer; "
                    "pass --vocab for token queries"
                ) from None
    return symbols


def cmd_query(args) -> int:
    if not os.path.exists(args.index):
        raise InvalidInputError(f"index snapshot not found: {args.index}")
    index = read_index(args.index)
    vocab = read_vocab(args.vocab) if args.vocab else None

    queries: list[list[int]] = []
    if args.query is not None:
        queries.append(_parse_query_line(args.query, "<arg>", vocab))
    if args.query_file is not None:
        for lineno, line in enumerate(read_text(args.query_file), start=1):
            if line.strip():
                queries.append(_parse_query_line(line, lineno, vocab))
    if not queries:
        raise ConfigError("no query given: use --query or --query-file")

    dataset = None
    if args.verify_oracle:
        if not args.dataset:
            raise ConfigError("--verify-oracle needs --dataset to rescan the raw rows")
        dataset, _ = _load_dataset(args.dataset, args.text)
        # a mismatch must mean a bug, so the oracle may only rescan the indexed rows
        rebuilt = build(dataset)
        if not (
            rebuilt.sigma == index.sigma
            and np.array_equal(rebuilt.keys, index.keys)
            and np.array_equal(rebuilt.order, index.order)
        ):
            raise InvalidInputError(
                f"dataset {args.dataset} is not the dataset {args.index} was built from"
            )

    all_ok = True
    for i, symbols in enumerate(queries):
        try:
            result = index.query(symbols, args.k, args.mode)
        except InvalidInputError as exc:
            raise InvalidInputError(f"query {i}: {exc}") from None
        if args.format == "machine":
            print(result.to_bytes().hex())
        else:
            print(f"query {i}: matched_depth={result.matched_depth} hits={len(result.indices)}")
            for idx, lcp_val in result.pairs():
                print(f"{idx}\t{lcp_val}")
        if dataset is not None:
            reference = oracle_top_k(dataset, symbols, args.k)
            if result.pairs() != reference.pairs()[: len(result.indices)]:
                all_ok = False
    if dataset is not None:
        print("OK" if all_ok else "MISMATCH")
        if not all_ok:
            return EXIT_INTERNAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

# Upstream spellings of ScenarioConfig fields; every field is also accepted
# under its own name.
_CONFIG_ALIASES = {
    "n_candidates": "n_items",
    "max_len": "seq_len",
    "sigma": "alphabet",
    "run_seconds_target": "duration_s",
    "queries": "query_count",
    "simulation_steps": "steps",
    "bucket_count": "bucket_counts",
    "index": "index_path",
}
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig)}

# Keys that appear in upstream-style configs but describe hardware measurement
# we do not model, or the removed ``workers`` thread count (one thread served
# faster than two); accepted and ignored so configs paste in unchanged.
_CONFIG_IGNORED = {
    "warmup_s", "range_fraction", "sensors", "update_rate", "device", "workers",
}


def _parse_config_value(key: str, raw: str):
    text = raw.strip()
    if key == "bucket_counts":
        return tuple(int(part.replace(",", "")) for part in text.replace(",", " ").split())
    if key in ("scenario", "mode", "distribution", "index_path"):
        return text
    if key == "duration_s":
        return float(text.replace(",", ""))
    return int(text.replace(",", ""))


def parse_scenario_config(path: str) -> ScenarioConfig:
    """Parse a flat ``key: value`` config file into a ScenarioConfig."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values: dict = {}
    for lineno, line in enumerate(read_text(path, ConfigError), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if ":" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key: value', found {text!r}")
        key, _, raw = text.partition(":")
        key = key.strip()
        if key in _CONFIG_IGNORED:
            continue
        canonical = _CONFIG_ALIASES.get(key, key)
        if canonical not in _CONFIG_FIELDS:
            print(f"warning: {path}:{lineno}: ignoring unknown key {key!r}", file=sys.stderr)
            continue
        if canonical == "mode" and raw.strip() not in ("strict", "complete"):
            # upstream configs use 'mode' for the execution backend name
            continue
        try:
            values[canonical] = _parse_config_value(canonical, raw)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: cannot parse value {raw.strip()!r} for {key!r}"
            ) from None
    if "scenario" not in values:
        raise ConfigError(f"{path}: missing required key 'scenario' (one of {SCENARIOS})")
    if "seed" not in values:
        raise ConfigError(f"{path}: missing required key 'seed'")
    try:
        return ScenarioConfig(**values)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def cmd_bench(args) -> int:
    config = parse_scenario_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    report = run_scenario(config)

    out_base = args.out or os.path.splitext(args.config)[0] + ".report"
    text_path = out_base + ".txt"
    json_path = out_base + ".json"
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    if args.format == "machine":
        print(report.to_json())
    else:
        print(report.to_text(), end="")
    print(f"report written: {text_path}, {json_path}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# memwall
# ---------------------------------------------------------------------------

def cmd_memwall(args) -> int:
    budget = int(args.budget_gib * GIB)
    for n in args.n:
        estimate = memory_wall(n, budget, index_bytes=args.index_bytes)
        verdict = "feasible" if estimate.feasible else "infeasible"
        line = (
            f"n={n}: materialization {estimate.materialization_display} "
            f"({verdict} at {args.budget_gib:g} GiB budget)"
        )
        if estimate.ratio is not None:
            line += f", index {estimate.index_bytes_measured} bytes, ratio {estimate.ratio:.0f}x"
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_dataset(dataset, k_values, query_count, seed) -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []
    index = build(dataset)
    try:
        index.check_invariants()
        checks.append(("trie structural invariants", True))
    except InternalInvariantError:
        checks.append(("trie structural invariants", False))

    queries = generate_queries(dataset, query_count, seed + 17,
                               dataset.length // 2 if dataset.n else None)
    engine = TalEngine(index, min(16, dataset.alphabet.size))
    full_engine = TalEngine(index, 1)
    # each row's bucket, coded from its first bucket_depth raw symbols
    weights = dataset.alphabet.size ** np.arange(engine.bucket_depth - 1, -1, -1, dtype=np.int64)
    histogram = np.bincount(
        dataset.items[:, : engine.bucket_depth] @ weights, minlength=engine.bucket_count
    )
    ok_partition = np.array_equal(engine.bucket_sizes(), histogram)
    ok_complete = ok_strict = ok_tal = ok_bucket = ok_work = True
    for i, q in enumerate(queries):
        k = k_values[i % len(k_values)]
        reference = oracle_top_k(dataset, q, k).pairs()
        work = index.new_work_report()
        complete = index.query(q, k, "complete", work=work)
        if complete.pairs() != reference[: min(k, dataset.n)]:
            ok_complete = False
        strict = index.query(q, k, "strict")
        if strict.pairs() != reference[: len(strict.indices)]:
            ok_strict = False
        if work.symbols_compared > dataset.length or len(complete.indices) > k:
            ok_work = False
        full, _ = full_engine.query(q, k)
        if full.pairs() != reference[: min(k, dataset.n)]:
            ok_tal = False
        # every row of the bucket outranks every row outside it
        res, rep = engine.query(q, k)
        lo, hi = engine.bucket_range(q)
        if res.pairs() != reference[: min(k, hi - lo)]:
            ok_bucket = False
        if rep.items_scanned != hi - lo:
            ok_work = False
        if hi - lo != histogram[q[: engine.bucket_depth] @ weights]:
            ok_partition = False
    checks.append(("complete mode equals exhaustive scan", ok_complete))
    checks.append(("strict mode is an exhaustive-scan prefix", ok_strict))
    checks.append(("single-bucket scan equals exhaustive scan", ok_tal))
    checks.append(("bucketed scan is an exhaustive-scan prefix", ok_bucket))
    checks.append(("per-query work bounds", ok_work))
    checks.append(("bucket ranges partition the dataset", ok_partition))
    return checks


def cmd_verify(args) -> int:
    if args.dataset:
        dataset, _ = _load_dataset(args.dataset, args.text)
    else:
        dataset = generate_dataset(args.n, args.len, args.sigma, args.seed)
    checks = _verify_dataset(dataset, (1, 5, 50), args.queries, args.seed)
    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'OK' if ok else 'FAIL'} {name}")
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return EXIT_INTERNAL
    print("OK")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcpsearch",
        description="Deterministic top-k retrieval by longest-common-prefix similarity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build an index snapshot from a dataset file")
    p_build.add_argument("dataset")
    p_build.add_argument("-o", "--output", required=True, help="snapshot output path")
    p_build.add_argument("--text", action="store_true", help="ingest tokenized text input")
    p_build.set_defaults(func=cmd_build)

    p_query = sub.add_parser("query", help="query an index snapshot")
    p_query.add_argument("index")
    p_query.add_argument("--query", help="space-separated symbols, e.g. '0 1 2'")
    p_query.add_argument("--query-file", help="file with one query per line")
    p_query.add_argument("-k", type=int, default=10)
    p_query.add_argument("--mode", choices=("strict", "complete"), default="complete")
    p_query.add_argument("--format", choices=("text", "machine"), default="text")
    p_query.add_argument("--vocab", help="vocabulary file for token queries")
    p_query.add_argument("--verify-oracle", action="store_true",
                         help="cross-check results against an exhaustive scan")
    p_query.add_argument("--dataset", help="raw dataset file for --verify-oracle")
    p_query.add_argument("--text", action="store_true", help="dataset is tokenized text")
    p_query.set_defaults(func=cmd_query)

    p_bench = sub.add_parser("bench", help="run a benchmark scenario from a config file")
    p_bench.add_argument("config")
    p_bench.add_argument("--out", help="report path prefix (default: next to the config)")
    p_bench.add_argument("--seed", type=int, help="override the config seed")
    p_bench.add_argument("--format", choices=("text", "machine"), default="text")
    p_bench.set_defaults(func=cmd_bench)

    p_mem = sub.add_parser("memwall", help="pairwise materialization feasibility")
    p_mem.add_argument("n", type=int, nargs="+")
    p_mem.add_argument("--budget-gib", type=float, default=DEFAULT_BUDGET_BYTES / GIB)
    p_mem.add_argument("--index-bytes", type=int, help="measured index footprint for the ratio")
    p_mem.set_defaults(func=cmd_memwall)

    p_verify = sub.add_parser("verify", help="oracle-equivalence and invariant suite")
    p_verify.add_argument("--dataset", help="dataset file; omit to generate one")
    p_verify.add_argument("--text", action="store_true", help="dataset is tokenized text")
    p_verify.add_argument("--n", type=int, default=2000)
    p_verify.add_argument("--len", type=int, default=16)
    p_verify.add_argument("--sigma", type=int, default=4)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--queries", type=int, default=200)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidInputError, InvalidStateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
