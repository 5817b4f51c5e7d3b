"""Command-line interface, exercised in-process through main()."""

import struct

import numpy as np
import pytest

from lcpsearch import generate_dataset
from lcpsearch.cli import main
from lcpsearch.storage import write_dataset


@pytest.fixture()
def dataset_file(tmp_path):
    ds = generate_dataset(120, 6, 4, seed=9)
    path = tmp_path / "data.lcpd"
    write_dataset(str(path), ds)
    return ds, str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_prints_summary(dataset_file, tmp_path, capsys):
    ds, data_path = dataset_file
    out_path = str(tmp_path / "index.lcpi")
    code, out, _ = run(capsys, "build", data_path, "-o", out_path)
    assert code == 0
    assert "n: 120" in out and "length: 6" in out and "alphabet: 4" in out
    assert "node_count:" in out and "snapshot_bytes:" in out


def test_build_twice_is_byte_identical(dataset_file, tmp_path, capsys):
    _, data_path = dataset_file
    p1, p2 = tmp_path / "a.lcpi", tmp_path / "b.lcpi"
    assert run(capsys, "build", data_path, "-o", str(p1))[0] == 0
    assert run(capsys, "build", data_path, "-o", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_build_missing_file_is_data_error(tmp_path, capsys):
    code, _, err = run(capsys, "build", str(tmp_path / "nope.lcpd"), "-o", str(tmp_path / "o"))
    assert code == 3
    assert "nope.lcpd" in err


def test_build_empty_dataset(tmp_path, capsys):
    import lcpsearch

    empty = lcpsearch.Dataset.from_rows(np.zeros((0, 4), dtype=np.uint16), 4)
    data_path = str(tmp_path / "empty.lcpd")
    write_dataset(data_path, empty)
    code, out, _ = run(capsys, "build", data_path, "-o", str(tmp_path / "e.lcpi"))
    assert code == 0
    assert "n: 0" in out


def test_query_on_snapshot_claiming_huge_rows_is_data_error(tmp_path, capsys):
    # n = 2^31 - 1 rows of L = 65535 (256 TiB) claimed by 44 bytes: a header
    # and one empty root record
    header = struct.pack("<4sH6BQIIQ", b"LCPI", 1, 2, 4, 4, 2, 4, 2, (1 << 31) - 1, 65535, 2, 1)
    path = tmp_path / "huge.lcpi"
    path.write_bytes(header + struct.pack("<HIH", 0, 0, 0))
    code, _, err = run(capsys, "query", str(path), "--query", "0")
    assert code == 3
    assert "huge.lcpi" in err


def test_query_exact_match(dataset_file, tmp_path, capsys):
    ds, data_path = dataset_file
    out_path = str(tmp_path / "index.lcpi")
    run(capsys, "build", data_path, "-o", out_path)
    literal = " ".join(str(s) for s in ds.items[3].tolist())
    code, out, _ = run(capsys, "query", out_path, "--query", literal, "-k", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if "\t" in l]
    idx, lcp_val = lines[0].split("\t")
    assert int(lcp_val) == 6


def test_query_batch_blocks_in_input_order(dataset_file, tmp_path, capsys):
    ds, data_path = dataset_file
    out_path = str(tmp_path / "index.lcpi")
    run(capsys, "build", data_path, "-o", out_path)
    qfile = tmp_path / "queries.txt"
    qfile.write_text(
        "\n".join(" ".join(str(s) for s in ds.items[i].tolist()) for i in (0, 1, 2))
    )
    code, out, _ = run(capsys, "query", out_path, "--query-file", str(qfile), "-k", "2")
    assert code == 0
    assert out.count("query ") == 3
    assert out.index("query 0:") < out.index("query 1:") < out.index("query 2:")


def test_query_length_mismatch_reports_both(dataset_file, tmp_path, capsys):
    _, data_path = dataset_file
    out_path = str(tmp_path / "index.lcpi")
    run(capsys, "build", data_path, "-o", out_path)
    code, _, err = run(capsys, "query", out_path, "--query", "0 1 2")
    assert code == 3
    assert "3" in err and "6" in err


def test_query_verify_oracle_prints_ok(dataset_file, tmp_path, capsys):
    ds, data_path = dataset_file
    out_path = str(tmp_path / "index.lcpi")
    run(capsys, "build", data_path, "-o", out_path)
    literal = " ".join(str(s) for s in ds.items[7].tolist())
    code, out, _ = run(
        capsys, "query", out_path, "--query", literal, "-k", "5",
        "--verify-oracle", "--dataset", data_path,
    )
    assert code == 0
    assert out.rstrip().endswith("OK")


def test_query_machine_format_is_hex(dataset_file, tmp_path, capsys):
    ds, data_path = dataset_file
    out_path = str(tmp_path / "index.lcpi")
    run(capsys, "build", data_path, "-o", out_path)
    literal = " ".join(str(s) for s in ds.items[0].tolist())
    code, out, _ = run(capsys, "query", out_path, "--query", literal, "--format", "machine")
    assert code == 0
    payload = out.strip()
    bytes.fromhex(payload)
    assert payload.startswith(b"LCPR".hex())


def test_text_pipeline_and_token_queries(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("up up down\nup down down\ndown up up\n")
    out_path = str(tmp_path / "index.lcpi")
    code, _, _ = run(capsys, "build", str(corpus), "-o", out_path, "--text")
    assert code == 0
    vocab_path = str(corpus) + ".vocab"
    code, out, _ = run(
        capsys, "query", out_path, "--query", "up up down", "--vocab", vocab_path, "-k", "1"
    )
    assert code == 0
    assert "\t3" in out  # full-length match
    code, _, err = run(
        capsys, "query", out_path, "--query", "up sideways down", "--vocab", vocab_path
    )
    assert code == 3
    assert "sideways" in err


def test_memwall_table_row(capsys):
    code, out, _ = run(capsys, "memwall", "500000")
    assert code == 0
    assert "465.66 GiB" in out and "infeasible" in out


def test_memwall_feasible_row(capsys):
    code, out, _ = run(capsys, "memwall", "100000")
    assert code == 0
    assert "18.63 GiB" in out and "(feasible" in out


def test_bench_runs_config_and_writes_reports(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "scenario: tal_sweep\n"
        "n_items: 2,048\n"
        "max_len: 12\n"
        "sigma: 2\n"
        "queries: 40\n"
        "bucket_counts: 1 4 16\n"
        "seed: 5\n"
    )
    code, out, _ = run(capsys, "bench", str(config))
    assert code == 0
    assert (tmp_path / "sweep.report.txt").exists()
    assert (tmp_path / "sweep.report.json").exists()
    assert "tal_sweep" in out


def test_bench_reports_identical_modulo_wall_clock(tmp_path, capsys):
    import json

    config = tmp_path / "gnc.cfg"
    config.write_text(
        "scenario: gnc\nn_items: 300\nmax_len: 8\nsigma: 2\nsimulation_steps: 25\nseed: 3\n"
    )
    assert run(capsys, "bench", str(config), "--out", str(tmp_path / "r1"))[0] == 0
    assert run(capsys, "bench", str(config), "--out", str(tmp_path / "r2"))[0] == 0
    r1 = json.loads((tmp_path / "r1.json").read_text())
    r2 = json.loads((tmp_path / "r2.json").read_text())
    r1.pop("wall_clock")
    r2.pop("wall_clock")
    assert r1 == r2


def test_bench_config_with_the_removed_workers_key_still_runs(tmp_path, capsys):
    config = tmp_path / "old.cfg"
    config.write_text("scenario: sustained\nn_items: 200\nmax_len: 8\nqueries: 20\n"
                      "workers: 4\nseed: 3\n")
    code, _, err = run(capsys, "bench", str(config))
    assert code == 0
    assert "workers" not in err
    assert "--workers" not in run(capsys, "bench", "--help")[1]


def test_bench_unknown_scenario_is_usage_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("scenario: hyperdrive\nseed: 1\n")
    code, _, err = run(capsys, "bench", str(config))
    assert code == 2
    assert "hyperdrive" in err


def test_bench_malformed_line_names_it(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("scenario: memo\nseed\n")
    code, _, err = run(capsys, "bench", str(config))
    assert code == 2
    assert ":2:" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "query")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


def test_verify_generated_dataset(capsys):
    code, out, _ = run(capsys, "verify", "--n", "200", "--len", "8", "--sigma", "4",
                       "--queries", "30", "--seed", "2")
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "OK"
    assert "complete mode equals exhaustive scan" in out


def test_verify_reports_both_tal_checks(capsys):
    code, out, _ = run(capsys, "verify", "--n", "200", "--len", "8", "--sigma", "4",
                       "--queries", "30", "--seed", "2")
    assert code == 0
    assert "OK single-bucket scan equals exhaustive scan" in out
    assert "OK bucketed scan is an exhaustive-scan prefix" in out


@pytest.mark.parametrize(
    "depth_zero, check",
    [
        (True, "single-bucket scan equals exhaustive scan"),
        (False, "bucketed scan is an exhaustive-scan prefix"),
    ],
)
def test_verify_checks_tal_on_every_query(monkeypatch, capsys, depth_zero, check):
    # a wrong answer on any query but the first must still fail the check
    from dataclasses import replace

    from lcpsearch.tal import TalEngine

    real = TalEngine.query
    calls = []

    def wrong_after_first(self, q, k, work=None):
        res, report = real(self, q, k, work)
        if (self.bucket_depth == 0) != depth_zero or len(res.indices) == 0:
            return res, report
        calls.append(k)
        if len(calls) == 1:
            return res, report
        return replace(res, indices=res.indices[:-1], lcps=res.lcps[:-1]), report

    monkeypatch.setattr(TalEngine, "query", wrong_after_first)
    code, out, err = run(capsys, "verify", "--n", "200", "--len", "8", "--sigma", "4",
                         "--queries", "30", "--seed", "2")
    assert len(calls) > 1
    assert code == 4
    assert f"FAIL {check}" in out
    assert "1 check(s) failed" in err
