"""Latency statistics, the memory wall, and scenario runs at toy sizes."""

import hashlib
import json
import math

import pytest

from lcpsearch import ScenarioConfig, build, generate_dataset, memory_wall, run_scenario
from lcpsearch.bench import GIB, LatencyStats, format_byte_size
from lcpsearch.core import ConfigError
from lcpsearch.storage import write_index


# ---------------------------------------------------------------------------
# latency stats
# ---------------------------------------------------------------------------

def test_percentiles_are_nearest_rank():
    samples = [i / 1000 for i in range(1, 101)]  # 1ms .. 100ms
    stats = LatencyStats.from_samples(samples, elapsed_s=1.0)
    assert stats.p50 == pytest.approx(0.050)
    assert stats.p95 == pytest.approx(0.095)
    assert stats.p99 == pytest.approx(0.099)
    assert stats.qps == pytest.approx(100.0)


def test_percentiles_ordered():
    import random

    rnd = random.Random(4)
    samples = [rnd.random() for _ in range(777)]
    stats = LatencyStats.from_samples(samples, elapsed_s=2.0)
    assert stats.p50 <= stats.p95 <= stats.p99


def test_empty_sample():
    stats = LatencyStats.from_samples([], elapsed_s=1.0)
    assert stats.total_queries == 0


# ---------------------------------------------------------------------------
# memory wall
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n,display,feasible",
    [
        (100_000, "18.63 GiB", True),
        (200_000, "74.51 GiB", True),
        (500_000, "465.66 GiB", False),
        (1_000_000, "1.86 TiB", False),
    ],
)
def test_memory_wall_reference_rows(n, display, feasible):
    est = memory_wall(n, budget_bytes=80 * GIB)
    assert est.materialization_bytes == n * n * 2
    assert est.materialization_display == display
    assert est.feasible is feasible


def test_memory_wall_two_million_row():
    assert format_byte_size(2_000_000 * 2_000_000 * 2) == "7.45 TiB"


def test_memory_wall_ratio_with_index():
    est = memory_wall(100_000, index_bytes=68_400_000)
    assert est.ratio == pytest.approx(20_000_000_000 / 68_400_000)


def test_memory_wall_validates_n():
    with pytest.raises(ConfigError):
        memory_wall(0)


# ---------------------------------------------------------------------------
# scenario configs
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_scenario():
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="warp", seed=1)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="sustained", seed=1, n_items=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="sustained", seed=1, mode="fast")
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="sustained", seed=1, duration_s=-2.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="sustained", seed=-1)
    for duration in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="sustained", seed=1, duration_s=duration)
    for scenario in ("gnc", "memo", "tal_sweep"):
        with pytest.raises(ConfigError, match="index_path"):
            ScenarioConfig(scenario=scenario, seed=1, index_path="index.lcpi")
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="tal_sweep", seed=1, bucket_counts=())


# ---------------------------------------------------------------------------
# scenarios (toy sizes; wall-clock values are never asserted)
# ---------------------------------------------------------------------------

def toy(scenario, **kw):
    base = dict(
        scenario=scenario,
        seed=42,
        n_items=400,
        seq_len=10,
        alphabet=2,
        k=5,
        query_count=60,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def test_sustained_report_shape_and_determinism():
    report = run_scenario(toy("sustained"))
    machine = report.to_machine()
    assert machine["scenario"] == "sustained"
    assert machine["results"]["determinism"]["byte_identical"] is True
    assert machine["results"]["work"]["queries"] == 60
    stats = machine["wall_clock"]["latency"]
    assert stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"]
    assert machine["config"]["seed"] == 42
    json.dumps(machine)  # machine form must be serializable


def test_sustained_results_reproducible_across_runs():
    r1 = run_scenario(toy("sustained")).to_machine()
    r2 = run_scenario(toy("sustained")).to_machine()
    assert r1["results"] == r2["results"]
    assert r1["config"] == r2["config"]


def test_gnc_step_loop():
    report = run_scenario(toy("gnc", steps=50)).to_machine()
    assert report["results"]["steps"] == 50
    assert report["results"]["work"]["queries"] == 50
    assert report["results"]["energy_work_units_per_step"] > 0
    assert report["results"]["determinism"]["byte_identical"] is True
    assert report["wall_clock"]["steps_per_second"] > 0


def test_tal_sweep_reductions_monotone():
    config = toy("tal_sweep", n_items=4096, seq_len=16, bucket_counts=(1, 4, 16))
    report = run_scenario(config).to_machine()
    rows = report["results"]["sweep"]
    assert [r["bucket_count"] for r in rows] == [1, 4, 16]
    assert rows[0]["reduction"] == pytest.approx(1.0)
    reductions = [r["reduction"] for r in rows]
    assert reductions == sorted(reductions)
    assert rows[-1]["work"]["items_scanned"] < rows[0]["work"]["items_scanned"]


def test_memo_scenario_hot_pass_is_free_and_identical():
    report = run_scenario(toy("memo")).to_machine()
    assert report["results"]["hot_scan_work_zero"] is True
    assert report["results"]["hot_results_byte_identical"] is True
    assert report["results"]["hot_work"]["cache_hits"] == 60
    assert report["wall_clock"]["speedup"] > 0


def test_text_report_rendering():
    text = run_scenario(toy("sustained")).to_text()
    assert "lcpsearch scenario report" in text
    assert "[config]" in text and "[results]" in text and "[wall_clock]" in text
    assert "seed: 42" in text


def test_missing_index_path_raises_invalid_state():
    from lcpsearch.core import InvalidStateError

    config = toy("sustained", index_path="/nonexistent/snapshot.lcpi")
    with pytest.raises(InvalidStateError):
        run_scenario(config)


def test_snapshot_report_echoes_the_served_shape(tmp_path):
    # the config's shape keys (400 x 10 over 2 symbols) describe no served index
    path = str(tmp_path / "small.lcpi")
    write_index(path, build(generate_dataset(50, 6, 5, seed=3)))
    machine = run_scenario(toy("sustained", index_path=path)).to_machine()
    config = machine["config"]
    assert (config["n_items"], config["seq_len"], config["alphabet"]) == (50, 6, 5)
    assert config["distribution"] is None and config["index_path"] == path
    assert machine["results"]["index_bytes"] == 50 * (3 + 4)  # 6 symbols of 3 bits


def test_duration_mode_runs_until_deadline():
    config = toy("sustained", duration_s=0.2, query_count=10)
    report = run_scenario(config).to_machine()
    # counters are wall-clock dependent in duration mode and live in wall_clock
    assert "work" in report["wall_clock"]
    assert report["wall_clock"]["work"]["queries"] > 0
    assert report["wall_clock"]["elapsed_s"] >= 0.2
    assert not math.isnan(report["wall_clock"]["latency"]["p50_ms"])


# ---------------------------------------------------------------------------
# results pinned by SHA-256 (any change to what a scenario reports changes one)
# ---------------------------------------------------------------------------

RESULT_PINS = {
    "sustained-uniform": "b97a362e42cfa223fe8ba980ac959d32a856ebbd55f71d01380b3435d031ddba",
    "sustained-strict-prefix": "a6b184af19c9971248e1a7b7bb469f49cde4341cc0c1eafee6a9ff8c7cf867fa",
    "sustained-snapshot": "11bf7e5350636f5f21c65945b88bd7a14b229cf002a1631f35a4fe679885422f",
    "gnc": "dc1266a2f9e8e8d9982c2083de771b2b9bf964cb07c79fa3cddd26ea448c0b02",
    "tal_sweep": "d3edff8da2912c91e122f23c6e2beabb1c09555bc5f44dbd0a003af119b658d6",
    "memo": "3bdf6604d9b816c69ca8d485d2012ff2231a174dd5f5d7b80542f8cf26c180e5",
}


def _pinned_config(name, tmp_path):
    shape = dict(seed=17, n_items=2048, seq_len=16, alphabet=4, k=10, query_count=300)
    if name == "sustained-uniform":
        return ScenarioConfig(scenario="sustained", **shape)
    if name == "sustained-strict-prefix":
        return ScenarioConfig(scenario="sustained", mode="strict", prefix_len=9,
                              distribution="clustered", **shape)
    if name == "sustained-snapshot":
        path = str(tmp_path / "pinned.lcpi")
        write_index(path, build(generate_dataset(2048, 16, 4, seed=18)))
        return ScenarioConfig(scenario="sustained", index_path=path, **shape)
    if name == "gnc":
        return ScenarioConfig(scenario="gnc", steps=250, prefix_len=6, **shape)
    if name == "tal_sweep":
        return ScenarioConfig(scenario="tal_sweep", bucket_counts=(1, 4, 16, 64), prefix_len=5,
                              distribution="clustered", **shape)
    return ScenarioConfig(scenario="memo", prefix_len=12, **shape)


@pytest.mark.parametrize("name", sorted(RESULT_PINS))
def test_scenario_results_are_pinned(name, tmp_path):
    results = run_scenario(_pinned_config(name, tmp_path)).to_machine()["results"]
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert digest == RESULT_PINS[name]
