"""Tests of the benchmark itself: its output format, its inputs and its checks."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import worker
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=BENCH_DIR.parent):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "7"]
    cmd += ["--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    details_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    details = json.loads(details_line)["details"]
    assert details["failed_frac"] == 0.0
    assert {"python", "numpy", "scipy", "blas", "nproc", "thread_pins", "git_sha"} <= set(details["machine"])
    if trace:
        assert details["layers"]
    else:
        assert details["op_tail_percentile"] > 0 and details["samples"] == result["attempted"]


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = run_bench("spectrum-large", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def composition(ops):
    return Counter((op.stratum, op.argv[-1] if op.kind == "eig" else "", op.params.get("parity")) for op in ops)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_jitter_and_order_but_not_the_mix(workload):
    first = [next(workloads.rounds(workload, seed)) for seed in (1, 2)]
    again = next(workloads.rounds(workload, 1))
    assert [op.argv for op in again] == [op.argv for op in first[0]]
    assert [op.argv for op in first[0]] != [op.argv for op in first[1]]
    assert composition(first[0]) == composition(first[1])


def test_gamma_strata_split_the_range_in_halves_at_three_halves():
    ops = next(workloads.rounds("spectrum-large", 3))
    gammas = [op.params["gamma"] for op in ops]
    assert all(-0.45 <= g <= 2.4 for g in gammas)
    assert sum(g <= 1.5 for g in gammas) == sum(g > 1.5 for g in gammas)


def run_round(workload):
    import gegtau.cli

    records, _ = worker.measure(gegtau.cli, workload, seed=5, seconds=1e-9, scale="tiny")
    metrics, failed, details = worker.summarize(records, setup_s=1.0, peak_rss_mb=1.0, tail_percentile=50.0)
    return records, metrics, details


def test_corrupted_eigenvalue_counts_as_failed(monkeypatch):
    import gegtau.spectra

    dense_eigs = gegtau.spectra.dense_eigs

    def corrupted(a, vectors=False):
        w = dense_eigs(a, vectors)
        k = abs(w).argmax()  # the largest mu is the first eigenvalue's reciprocal
        w[k] *= 1 + 1e-7
        return w

    monkeypatch.setattr(gegtau.spectra, "dense_eigs", corrupted)
    records, metrics, details = run_round("spectrum-large")
    assert details["failed_frac"] == 1.0 and metrics["ok_frac"] == 0.0
    assert all("first modes off" in r.check.reason for r in records)


def test_corrupted_coefficient_counts_as_failed(monkeypatch):
    import gegtau.cli
    from gegtau.charpoly import MuPolynomial

    charpoly_sequence = gegtau.cli.charpoly_sequence

    def corrupted(*args):
        polys = charpoly_sequence(*args)
        top = polys[-1].coeffs
        return polys[:-1] + [MuPolynomial((top[0] + 1,) + top[1:])]

    monkeypatch.setattr(gegtau.cli, "charpoly_sequence", corrupted)
    records, metrics, details = run_round("verify-exact")
    charpoly = [r for r in records if r.op.kind == "charpoly"]
    assert charpoly and all(not r.check.ok for r in charpoly)
    assert all(r.check.ok for r in records if r.op.kind == "verify")
    assert details["failed_frac"] == len(charpoly) / len(records)


def test_tail_keeps_ten_samples_beyond():
    times = list(range(1, 41))
    assert worker.tail(times, 75.0) == (30, 75.0, 10)
    assert worker.tail(times, 90.0) == (30, 75.0, 10)
    assert worker.tail(times[:8], 90.0) == (8, 100.0, 0)
