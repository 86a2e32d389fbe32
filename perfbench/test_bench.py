"""Tests of the benchmark itself: tiny smoke runs, and that bad outputs count as failed.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

TINY = {
    "verify-all": {"scale": 0.001},
    "scatter-d4": {"samples": 200, "recheck_every": 50},
    "exact-large-d": {"vectors": ((8, 2), (16, 1)), "table_vectors": 2},
    "locc-pool": {"trials": 40},
}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("name", list(TINY))
def test_smoke_run_reports_every_end_to_end_metric(name, capsys):
    result = run.run_one(tiny(name), seed=5, seconds=0.1, traced=False, deadline=run.time.perf_counter() + 120)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_RUNS * tiny(name).cases
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {n: u for n, u, _, _ in run.END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert f"fail_frac=0.0 (0/{result['attempted']} cases) sha256=" in capsys.readouterr().out


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_every_per_layer_metric(name):
    result = run.run_one(tiny(name), seed=5, seconds=0.1, traced=True, deadline=run.time.perf_counter() + 120)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {n: u for n, u, _ in PER_LAYER}
    assert metrics["monotones.fidelity_exact.calls"] > 0
    if name != "exact-large-d":
        # the CLI span is the root, so the layers' self times add up to the traced wall time
        assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.wall_s"], abs=1e-3)
    if name == "locc-pool":
        assert metrics["harness.pool.worker_cpu_s"] > 0 and metrics["harness.pool.efficiency"] > 0
        assert metrics["locc.apply_channel.calls"] == tiny(name).cases
    if name == "exact-large-d":
        assert metrics["monotones.fidelity_exact.d2.random.us"] > 0
        assert metrics["monotones.fidelity_exact.d192.random.peak_alloc_mb"] > 0


def _scatter_output(tmp_path, wl, seed):
    from mirrorent import cli

    out = tmp_path / "scatter.csv"
    assert cli.main(wl.argv(seed, 1) + ["--out", str(out)]) == 0
    return out


def test_corrupted_scatter_row_counts_as_failed(tmp_path):
    wl = tiny("scatter-d4")
    good = _scatter_output(tmp_path, wl, seed=7)
    tally = run.Tally(wl, seed=7)
    assert tally.add(good, ok=True, threads=1) == 0

    bad = _scatter_output(tmp_path, wl, seed=7)
    lines = bad.read_text().split("\n")
    el, _ = lines[3].split(",")
    lines[3] = f"{el},{float(el) + 1e-6!r}"  # above the E_L upper bound
    bad.write_text("\n".join(lines))
    tally = run.Tally(wl, seed=7)
    assert tally.add(bad, ok=True, threads=1) == 1
    assert (tally.failed, tally.attempted) == (1, wl.cases)


def test_recheck_catches_a_value_inside_the_sandwich(tmp_path):
    wl = tiny("scatter-d4")
    out = _scatter_output(tmp_path, wl, seed=7)
    lines = out.read_text().split("\n")
    el, estar = lines[1].split(",")
    lines[1] = f"{el},{float(estar) - 1e-9!r}"  # row 0 is rechecked with the oracle
    assert wl.failures("\n".join(lines).encode(), seed=7) == 1


def test_digest_change_and_crash_count_every_case(tmp_path):
    wl = tiny("scatter-d4")
    tally = run.Tally(wl, seed=7)
    tally.add(_scatter_output(tmp_path, wl, seed=7), ok=True, threads=1)
    changed = _scatter_output(tmp_path, wl, seed=7)
    changed.write_bytes(changed.read_bytes() + b"\n")
    assert tally.add(changed, ok=True, threads=1) == wl.cases
    assert tally.add(None, ok=False, threads=1) == wl.cases
    assert (tally.failed, tally.attempted) == (2 * wl.cases, 3 * wl.cases)


def test_pin_mismatch_counts_every_case(tmp_path):
    wl = workloads.WORKLOADS["scatter-d4"]
    out = tmp_path / "scatter.csv"
    out.write_text("el,estar\n")
    assert wl.pin(0) is not None and wl.pin(1) is None
    assert run.Tally(wl, seed=0).add(out, ok=True, threads=1) == wl.cases


def test_exact_check_rejects_a_suboptimal_assignment():
    from mirrorent.monotones import fidelity_exact
    from mirrorent.spectra import LUSpectrum
    from mirrorent.states import SchmidtSpectrum

    rng = np.random.default_rng(0)
    p = np.sort(rng.dirichlet(np.ones(6)))[::-1]
    phases = rng.uniform(0.0, 2.0 * np.pi, 6)
    lam = np.exp(1j * np.sort(phases))
    sol = fidelity_exact(SchmidtSpectrum.from_probs(p), LUSpectrum.from_phases(phases))
    assert workloads._is_optimal_assignment(sol.sigma, sol.fidelity, lam, p)
    worse = list(sol.sigma)
    worse[0], worse[-1] = worse[-1], worse[0]
    z = lam[worse] @ p
    assert not workloads._is_optimal_assignment(worse, abs(z) ** 2, lam, p)
    assert not workloads._is_optimal_assignment(sol.sigma[:-1], sol.fidelity, lam, p)


def test_fails_without_a_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scatter-d4", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
