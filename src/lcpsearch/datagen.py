"""Seeded synthetic dataset and query generation.

All randomness comes from numpy's Philox bit generator: a counter-based PRNG
(4x64-bit counter, 2x64-bit key) whose output stream is fixed by the seed
and stable across platforms and processes, so any generated dataset can be
recreated from its (parameters, seed) pair alone.

Two row distributions are provided.  ``uniform`` draws every symbol
independently.  ``clustered`` draws the first few symbols from a skewed
power-law distribution over the alphabet (symbol ``v`` with weight
``(v + 1) ** -SKEW_EXPONENT``), which concentrates items into few prefix
buckets and is the stress case for bucketed scans.
"""

from __future__ import annotations

import numpy as np

from .core import SYMBOL_DTYPE, Alphabet, Dataset, InvalidInputError

_MAX_ENUMERABLE_BITS = 62

# ``clustered`` rows draw their first SKEW_DEPTH symbols from the power law.
SKEW_EXPONENT = 1.1
SKEW_DEPTH = 8
# ``clustered`` head symbols are drawn this many rows at a time.
CLUSTERED_CHUNK_ROWS = 1 << 15


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _codes_to_rows(codes: np.ndarray, length: int, sigma: int) -> np.ndarray:
    rows = np.empty((codes.shape[0], length), dtype=SYMBOL_DTYPE)
    rem = codes.astype(np.int64)
    for j in range(length - 1, -1, -1):
        rows[:, j] = (rem % sigma).astype(SYMBOL_DTYPE)
        rem //= sigma
    return rows


def _power_law_weights(sigma: int, exponent: float) -> np.ndarray:
    w = (np.arange(1, sigma + 1, dtype=np.float64)) ** (-exponent)
    return w / w.sum()


def generate_dataset(
    n: int,
    length: int,
    sigma: int,
    seed: int,
    distribution: str = "uniform",
    *,
    distinct: bool = False,
) -> Dataset:
    """Deterministically generate ``n`` rows of ``length`` symbols over ``sigma``.

    With ``distinct=True`` all rows are unique; ``n`` may then be at most
    ``sigma**length``, and requesting exactly that many yields the full
    universe of sequences.
    """
    if n < 0:
        raise InvalidInputError(f"n must be >= 0, got {n}")
    alphabet = Alphabet(sigma)
    if distribution not in ("uniform", "clustered"):
        raise InvalidInputError(f"unknown distribution {distribution!r}")
    universe = sigma**length
    if distinct and n > universe:
        raise InvalidInputError(
            f"cannot draw {n} distinct sequences from a universe of {universe}"
        )
    rng = _rng(seed)

    if distinct:
        rows = _generate_distinct(rng, n, length, sigma, universe)
    else:
        rows = _draw_rows(rng, n, length, sigma, distribution)
    rows.setflags(write=False)
    return Dataset(alphabet=alphabet, length=length, items=rows)


def _draw_rows(rng, n, length, sigma, distribution):
    rows = rng.integers(0, sigma, size=(n, length), dtype=SYMBOL_DTYPE)
    if distribution == "clustered" and n > 0:
        head = min(SKEW_DEPTH, length)
        weights = _power_law_weights(sigma, SKEW_EXPONENT)
        # one draw per symbol, consumed in row order, so the chunks read the
        # same stream as one draw would while holding float64 and int64
        # temporaries for CLUSTERED_CHUNK_ROWS rows only
        for i in range(0, n, CLUSTERED_CHUNK_ROWS):
            part = rows[i : i + CLUSTERED_CHUNK_ROWS, :head]
            part[...] = rng.choice(sigma, size=part.shape, p=weights)
    return rows


def _generate_distinct(rng, n, length, sigma, universe):
    if n == 0:
        return np.empty((0, length), dtype=SYMBOL_DTYPE)
    enumerable = length * np.log2(sigma) <= _MAX_ENUMERABLE_BITS
    # Dense regime, the full universe included: a prefix of one permutation.
    if enumerable and universe <= 4 * n:
        codes = rng.permutation(np.arange(universe, dtype=np.int64))[:n]
        return _codes_to_rows(codes, length, sigma)
    # Sparse regime: draw, deduplicate on row bytes, redraw the shortfall.
    chosen: list[np.ndarray] = []
    seen: set[bytes] = set()
    remaining = n
    while remaining > 0:
        batch = rng.integers(0, sigma, size=(remaining + 16, length), dtype=SYMBOL_DTYPE)
        for row in batch:
            key = row.tobytes()
            if key in seen:
                continue
            seen.add(key)
            chosen.append(row)
            remaining -= 1
            if remaining == 0:
                break
    return np.vstack(chosen)


def generate_queries(
    dataset: Dataset,
    count: int,
    seed: int,
    prefix_len: int | None = None,
) -> np.ndarray:
    """Seeded query batch of shape ``(count, length)``.

    With ``prefix_len`` set, each query copies the first ``prefix_len``
    symbols of a randomly chosen dataset item and re-draws the remainder
    uniformly, so queries share realistic prefixes with stored items.
    Without it queries are fully uniform.
    """
    if count < 0:
        raise InvalidInputError(f"count must be >= 0, got {count}")
    length = dataset.length
    sigma = dataset.alphabet.size
    rng = _rng(seed)
    queries = rng.integers(0, sigma, size=(count, length), dtype=SYMBOL_DTYPE)
    if prefix_len is not None and count > 0:
        if not (0 <= prefix_len <= length):
            raise InvalidInputError(
                f"prefix_len must be in [0, {length}], got {prefix_len}"
            )
        if dataset.n == 0:
            raise InvalidInputError("prefix_len queries need a non-empty dataset")
        picks = rng.integers(0, dataset.n, size=count)
        queries[:, :prefix_len] = dataset.items[picks, :prefix_len]
    return queries
