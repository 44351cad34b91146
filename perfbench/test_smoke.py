"""Smoke tests of the benchmark itself, at toy sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import PER_LAYER

WORKLOADS = run.WORKLOAD_NAMES
SCRIPT = Path(run.__file__).resolve()


def _tiny(workload, seed, trace):
    return run.run(workload, seed, 0.0, trace, size="tiny", probes=0)


def _assert_metrics(result, expected):
    assert list(result["metrics"]) == [name for name, _ in expected]
    for name, unit in expected:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_every_gate(workload, seed):
    result, detail = _tiny(workload, seed, False)
    assert result["correct"], detail["gates"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    _assert_metrics(result, run.END_TO_END)
    assert all(g["ok"] for g in detail["gates"].values())
    json.dumps(detail, allow_nan=False)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_cover_the_round(workload):
    result, detail = _tiny(workload, 1, True)
    assert result["correct"], detail["gates"]
    _assert_metrics(result, PER_LAYER)
    # Self times sum to the traced wall time, less what the benchmark's own
    # code between calls takes; the tracer never attributes more than the wall.
    for frac in detail["unattributed_frac"]:
        assert -1e-6 <= frac <= 0.35
    layer_share = sum(result["metrics"][f"layer.{name}.self_frac"]["value"]
                      for name in run.LAYER_NAMES)
    assert 0.5 <= layer_share <= 1.0 + 1e-6
    # the wrappers are gone after the run
    import s3lab.clebsch

    assert hasattr(s3lab.clebsch.cg_table, "cache_info")


def test_layers_are_exercised_where_expected():
    scan, scan_detail = _tiny("bilinear-scan", 1, True)
    lattice, _ = _tiny("lattice-cli", 1, True)
    suite, suite_detail = _tiny("strichartz-suite", 1, True)
    value = lambda result, name: result["metrics"][name]["value"]  # noqa: E731
    assert value(scan, "bilinear.product_norm2_batch.calls") > 0
    assert value(lattice, "bilinear.product_norm2_batch.calls") == 0
    assert value(lattice, "layer.strichartz.self_frac") == 0
    assert value(lattice, "cli.main.self_s") > 0
    assert value(lattice, "reporting.write_run_outputs.bytes") > 0
    # health figures, read through the wrappers
    zonal = scan_detail["health_first_traced_round"]["zonal_dev_per_cell"]
    assert set(zonal) >= {"8,4", "8,8", "16,4"}
    calls = suite_detail["health_first_traced_round"]["evolve_l4_norm_calls"]
    assert len(calls) == value(suite, "strichartz.evolve_l4_norm.calls")
    worst_first_round = min(c["n_t"] / c["need_nt"] for c in calls)
    assert worst_first_round >= value(suite, "strichartz.evolve_l4_norm.nt_ratio_min") - 1e-12


def test_injected_nan_gate_value_is_a_failure(monkeypatch):
    run.set_up("bilinear-scan", 0, "tiny", 1)
    import s3lab.bilinear

    monkeypatch.setattr(s3lab.bilinear, "zonal_pair_ratio", lambda m, n: float("nan"))
    result, detail = _tiny("bilinear-scan", 1, False)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert detail["gates"]["c_star"]["value"] == "nan"
    assert not detail["gates"]["c_star"]["ok"]
    assert result["metrics"]["accuracy_digits"]["value"] == 0.0
    json.dumps(detail, allow_nan=False)


def test_stopwatch_scales_each_lap_by_the_slices_around_it(monkeypatch):
    slices = iter([0.050, 0.025, 0.025])  # the host runs at half speed, then full
    watch = run.Stopwatch(lambda: next(slices))
    clock = iter([0.0, 1.0, 1.0, 3.0, 3.0])
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))
    watch.start()
    watch.lap()
    watch.stop()
    assert watch.laps == [1.0, 2.0]
    assert watch.raw() == 3.0
    ref = run.REFERENCE_CALIBRATION_S
    assert watch.scaled() == pytest.approx(1.0 * ref / 0.0375 + 2.0 * ref / 0.025)


def test_benchmark_json_matches_the_code():
    spec = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_command_line_prints_the_result_last(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "lattice-cli", "--seed", "4",
         "--seconds", "0", "--trace", "0", "--size", "tiny"],
        capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(SCRIPT.parent, tmp_path / SCRIPT.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / SCRIPT.parent.name / SCRIPT.name), "--workload",
         "lattice-cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
