"""Deterministic work accounting and the thermodynamic reference point.

Instead of sampling hardware power, every query accumulates counters for the
operations it actually performed, and an energy proxy is derived from them:

    energy = items_scanned * C_ITEM + symbols_compared * c_sym

with ``C_ITEM = 1.0`` work units per item scanned and ``c_sym = 1 / L`` work
units per symbol comparison (so a full-width comparison of one item costs one
extra unit regardless of ``L``).  The proxy is dimensionally labeled "work
units", not joules; it is hardware-independent and exactly reproducible,
which is what lets reduction ratios be asserted in tests.

``landauer_limit`` gives the k_B*T*ln2 minimum energy per bit erasure, used
only as a normalization reference for gap ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Exact SI value (2019 redefinition), joules per kelvin.
BOLTZMANN_J_PER_K = 1.380649e-23

WORK_PER_ITEM = 1.0


def work_per_symbol(length: int) -> float:
    """Per-symbol-comparison work constant for sequences of width ``length``."""
    if length <= 0:
        raise ValueError(f"sequence length must be positive, got {length}")
    return 1.0 / float(length)


@dataclass
class WorkReport:
    """Counters for one query or an accumulated query stream.

    A report is owned by a single execution context; combining reports from
    several query streams is the explicit, associative :meth:`combine`.
    """

    c_sym: float
    c_item: float = WORK_PER_ITEM
    symbols_compared: int = 0
    items_scanned: int = 0
    nodes_visited: int = 0
    cache_hits: int = 0
    queries: int = 0

    @property
    def energy_work_units(self) -> float:
        return self.items_scanned * self.c_item + self.symbols_compared * self.c_sym

    def combine(self, other: "WorkReport") -> "WorkReport":
        if (self.c_sym, self.c_item) != (other.c_sym, other.c_item):
            raise ValueError("cannot combine work reports with different constants")
        return WorkReport(
            c_sym=self.c_sym,
            c_item=self.c_item,
            symbols_compared=self.symbols_compared + other.symbols_compared,
            items_scanned=self.items_scanned + other.items_scanned,
            nodes_visited=self.nodes_visited + other.nodes_visited,
            cache_hits=self.cache_hits + other.cache_hits,
            queries=self.queries + other.queries,
        )

    def as_dict(self) -> dict:
        return {
            "symbols_compared": self.symbols_compared,
            "items_scanned": self.items_scanned,
            "nodes_visited": self.nodes_visited,
            "cache_hits": self.cache_hits,
            "queries": self.queries,
            "c_item": self.c_item,
            "c_sym": self.c_sym,
            "energy_work_units": self.energy_work_units,
        }


@dataclass(frozen=True)
class WorkReduction:
    """Ratio of baseline work to range-scan work for the same query stream."""

    ratio: float
    tal_work_zero: bool = False


def work_reduction(full: WorkReport, tal: WorkReport) -> WorkReduction:
    """Energy-proxy ratio ``full / tal``; flags the degenerate zero-work case."""
    denom = tal.energy_work_units
    if denom == 0.0:
        return WorkReduction(ratio=math.inf, tal_work_zero=True)
    return WorkReduction(ratio=full.energy_work_units / denom)


def landauer_limit(temperature_kelvin: float) -> float:
    """Minimum energy per bit erasure, ``k_B * T * ln 2``, in joules."""
    if temperature_kelvin <= 0:
        raise ValueError(f"temperature must be positive, got {temperature_kelvin}")
    return BOLTZMANN_J_PER_K * temperature_kelvin * math.log(2)


@dataclass(frozen=True)
class LandauerGap:
    """How far a measured energy sits above the thermodynamic floor."""

    temperature_kelvin: float
    bits_processed: int
    measured_joules: float
    gap_ratio: float


def landauer_gap(report: WorkReport, bits: int, temperature_kelvin: float) -> LandauerGap:
    """Gap ratio between a report's energy proxy and the Landauer floor.

    The proxy is in work units; the ratio is meaningful as a relative
    comparison between workloads measured with the same constants.
    """
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits}")
    measured = report.energy_work_units
    floor = bits * landauer_limit(temperature_kelvin)
    return LandauerGap(
        temperature_kelvin=temperature_kelvin,
        bits_processed=bits,
        measured_joules=measured,
        gap_ratio=measured / floor,
    )
