import dataclasses
import json
import os
import platform
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy

from s3lab import bilinear, clebsch, cli, gates, lattice, strichartz
from s3lab.reporting import file_sha256, write_run_outputs


def strict_json(path):
    """Parse a summary as strict JSON: a bare NaN or Infinity is an error."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "s3lab.cli", *args],
        cwd=cwd, capture_output=True, text=True,
    )


def test_cg_table_outputs(tmp_path):
    r = run_cli(["cg-table", "1", "1", "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 0, r.stderr
    csv = (tmp_path / "cg_table_m1_n1.csv").read_text().strip().splitlines()
    assert len(csv) == 1 + 6
    summary = json.loads((tmp_path / "cg_table_m1_n1.summary.json").read_text())
    assert summary["summary"]["max_row_defect"] <= 1e-12
    assert summary["summary"]["dimension_identity"] is True
    manifest = json.loads((tmp_path / "cg_table_m1_n1.manifest.json").read_text())
    assert manifest["subcommand"] == "cg-table"
    assert "timestamp" in manifest
    assert "timestamp" not in summary["manifest"]


def test_cg_table_medium_defects(tmp_path):
    r = run_cli(["cg-table", "12", "8", "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 0, r.stderr
    summary = json.loads((tmp_path / "cg_table_m12_n8.summary.json").read_text())
    assert summary["summary"]["max_row_defect"] <= 1e-9
    assert summary["summary"]["max_col_defect"] <= 1e-9


def test_cg_table_invalid_args(tmp_path):
    r = run_cli(["cg-table", "2", "5", "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 2, r.stderr
    r = run_cli(["cg-table", "150", "100", "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 2, r.stderr
    r = run_cli(["bogus-command"], tmp_path)
    assert r.returncode == 2, r.stderr


def test_cg_table_fails_closed_on_a_construction_error(tmp_path, monkeypatch, capsys):
    # the top of k = m+n-2 moved 1e-3 off the complement of the first chain,
    # which at weight m+n-2 is (sqrt(m), sqrt(n)) / sqrt(m+n)
    tops = clebsch._chain_tops

    def off_complement(m, n):
        out = tops(m, n)
        out[1, :2] += 1e-3 * np.sqrt([m, n]) / np.sqrt(m + n)
        out[1, :2] /= np.linalg.norm(out[1, :2])
        return out

    monkeypatch.setattr(clebsch, "_chain_tops", off_complement)
    assert cli.main(["cg-table", "12", "8", "--out", str(tmp_path)]) == 1
    assert "construction failed" in capsys.readouterr().err
    assert not (tmp_path / "cg_table_m12_n8.csv").exists()


def test_cg_table_fails_closed_on_a_nan_table(tmp_path, monkeypatch, capsys):
    decompose = clebsch.cg_decompose

    def nan_table(m, n):
        table = decompose(m, n)
        blocks = table.blocks.copy()
        blocks[1][0, 0] = np.nan
        return clebsch.CGTable(m=m, n=n, gammas=table.gammas, kvals=table.kvals, blocks=blocks)

    monkeypatch.setattr(clebsch, "cg_decompose", nan_table)
    assert cli.main(["cg-table", "6", "4", "--out", str(tmp_path)]) == 1
    assert "orthogonality defect nan" in capsys.readouterr().err
    summary = strict_json(tmp_path / "cg_table_m6_n4.summary.json")["summary"]
    assert summary["max_row_defect"] == "nan" and summary["max_col_defect"] == "nan"


def test_bilinear_verify_small(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    r = run_cli(
        ["bilinear-verify", "--m-max", "8", "--n-max", "8", "--seeds", "10",
         "--seed", "1", "--out", str(first)],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    summary = json.loads((first / "bilinear_verify.summary.json").read_text())["summary"]
    assert summary["C_star"] <= 1.5
    # every run has the zonal sweep and the cross-check, and so all four gates
    assert set(summary["zonal_ratios"]) == {str(n) for n in range(1, 61)}
    assert summary["zonal_min"] == min(summary["zonal_ratios"].values()) >= gates.ZONAL_FLOOR
    assert summary["quadrature_cross_check_rel"] <= gates.CROSS_CHECK_TOL
    assert summary["quadrature_cross_check_ok"] is True
    # health figures: every witness is 1 to rounding, every CG table orthogonal
    witnesses = [float(row.split(",")[3]) for row in
                 (first / "bilinear_verify.csv").read_text().splitlines() if ",zonal," in row]
    sweep = summary["zonal_ratios"]
    assert summary["witness_dev_max"] == max(abs(w - 1.0) for w in [*witnesses, *sweep.values()])
    assert max(abs(w - 1.0) for w in [*witnesses, *(sweep[str(n)] for n in range(1, 5))]) <= 1e-12
    # the sweep's largest cell (120, 60) keeps the identity to 1e-11, as in test_bilinear
    assert summary["witness_dev_max"] <= 1e-11
    assert 0.0 < summary["cg_defect_max"] <= gates.CG_DEFECT_BOUND
    rows = (first / "bilinear_verify.csv").read_text().strip().splitlines()
    assert rows[0] == "m,n,seed,ratio"
    r = run_cli(["rerun", str(first / "bilinear_verify.manifest.json"), "--out", str(second)],
                tmp_path)
    assert r.returncode == 0, r.stderr
    for suffix in (".csv", ".summary.json"):
        name = f"bilinear_verify{suffix}"
        assert file_sha256(first / name) == file_sha256(second / name)


@pytest.mark.parametrize("m_max,n_max", [(8, 3), (2, 64)])
def test_bilinear_verify_refuses_a_one_point_fit(tmp_path, m_max, n_max):
    # only n = 0 cells leave no slope to fit: exit 2, no outputs
    r = run_cli(["bilinear-verify", "--m-max", str(m_max), "--n-max", str(n_max),
                 "--seeds", "2", "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 2, r.stderr
    assert not (tmp_path / "bilinear_verify.summary.json").exists()


@pytest.mark.parametrize("seeds", [0, -3])
def test_bilinear_verify_refuses_seeds_below_one(tmp_path, monkeypatch, capsys, seeds):
    # with no random pairs the gate would rest on the zonal witnesses alone
    calls = []
    monkeypatch.setattr(bilinear, "sampling_plan", lambda *a: calls.append(a))
    out = tmp_path / "out"
    code = cli.main(["bilinear-verify", "--m-max", "8", "--n-max", "8", "--seeds", str(seeds),
                     "--out", str(out)])
    assert code == 2 and calls == []
    assert f"bad seeds {seeds}: seeds must be >= 1; got {seeds}" in capsys.readouterr().err
    assert not out.exists()


def test_bilinear_verify_fails_closed_on_nan_witness(tmp_path, monkeypatch):
    # a NaN witness must reach C* and the slope, whatever the argument order
    monkeypatch.setattr(bilinear, "zonal_pair_ratio", lambda m, n: float("nan"))
    code = cli.main(["bilinear-verify", "--m-max", "8", "--n-max", "8", "--seeds", "3",
                     "--out", str(tmp_path)])
    assert code == 1
    summary = strict_json(tmp_path / "bilinear_verify.summary.json")["summary"]
    assert summary["C_star"] == "nan" and summary["fitted_slope"] == "nan"
    assert summary["witness_dev_max"] == "nan"


def test_bilinear_verify_fails_closed_on_nan_cross_check(tmp_path, monkeypatch):
    monkeypatch.setattr(bilinear, "product_l2_quadrature", lambda f, g, quad: float("nan"))
    code = cli.main(["bilinear-verify", "--m-max", "8", "--n-max", "4", "--seeds", "2",
                     "--out", str(tmp_path)])
    assert code == 1
    summary = strict_json(tmp_path / "bilinear_verify.summary.json")["summary"]
    assert summary["quadrature_cross_check_rel"] == "nan"
    assert summary["quadrature_cross_check_ok"] is False


def test_bilinear_verify_fails_closed_on_a_nan_cg_table(tmp_path, monkeypatch, capsys):
    # a NaN coefficient in the cross-check's tables reaches both of its figures
    def nan_table(m, n):
        table = clebsch.cg_decompose(m, n)
        blocks = table.blocks.copy()
        blocks[0][0, 0] = np.nan
        return clebsch.CGTable(m=m, n=n, gammas=table.gammas, kvals=table.kvals, blocks=blocks)

    monkeypatch.setattr(bilinear, "cg_table", nan_table)
    code = cli.main(["bilinear-verify", "--m-max", "8", "--n-max", "4", "--seeds", "2",
                     "--out", str(tmp_path)])
    assert code == 1
    assert "quadrature cross-check gap nan" in capsys.readouterr().err
    summary = strict_json(tmp_path / "bilinear_verify.summary.json")["summary"]
    assert summary["cg_defect_max"] == "nan" and summary["quadrature_cross_check_rel"] == "nan"


def test_bilinear_verify_fails_closed_on_nan_zonal(tmp_path, monkeypatch):
    monkeypatch.setattr(bilinear, "zonal_ratio", lambda n: float("nan") if n == 2 else 1.0)
    code = cli.main(["bilinear-verify", "--m-max", "8", "--n-max", "4", "--seeds", "2",
                     "--out", str(tmp_path)])
    assert code == 1
    summary = strict_json(tmp_path / "bilinear_verify.summary.json")["summary"]
    assert summary["zonal_min"] == "nan" and summary["witness_dev_max"] == "nan"


@pytest.mark.parametrize("low", [0.05, float("nan")])
def test_bilinear_verify_gates_the_zonal_floor(tmp_path, monkeypatch, capsys, low):
    monkeypatch.setattr(bilinear, "zonal_ratio", lambda n: low if n == 2 else 1.0)
    code = cli.main(["bilinear-verify", "--m-max", "8", "--n-max", "4", "--seeds", "2",
                     "--out", str(tmp_path)])
    assert code == 1
    assert f"zonal minimum {low:.4g} is below {gates.ZONAL_FLOOR:g}" in capsys.readouterr().err


def test_bilinear_verify_gates_c_star(tmp_path, monkeypatch, capsys):
    # a witness of 1.1 in every cell leaves the slope flat but C* above 1.05
    monkeypatch.setattr(bilinear, "zonal_pair_ratio", lambda m, n: 1.1)
    code = cli.main(["bilinear-verify", "--m-max", "8", "--n-max", "8", "--seeds", "3",
                     "--out", str(tmp_path)])
    assert code == 1
    assert f"C* 1.1 exceeds {gates.C_STAR_BOUND:g}" in capsys.readouterr().err
    assert strict_json(tmp_path / "bilinear_verify.summary.json")["summary"]["C_star"] == 1.1


def test_lattice_scan_and_exit_codes(tmp_path):
    r = run_cli(["lattice-scan", "--lemma", "5.2b", "--seed", "2", "--per-n", "400",
                 "--N", "32", "--N", "64", "--N", "128", "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 0, r.stderr
    summary = json.loads((tmp_path / "lattice_5_2b.summary.json").read_text())["summary"]
    assert summary["fitted_exponent"] <= 0.3


def test_lattice_scan_refuses_a_one_point_fit(tmp_path):
    # one N leaves the fitted exponent undefined: exit 2, no outputs
    r = run_cli(["lattice-scan", "--lemma", "5.2b", "--N", "64", "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 2, r.stderr
    assert not list(tmp_path.glob("lattice_5_2b.*"))


_LATTICE_SCANS = ("scan_lemma51", "scan_lemma52", "scan_lemma53")


@pytest.mark.parametrize("args,count", [
    (["--lemma", "5.1", "--n-queries", "0"], "n_queries"),
    (["--lemma", "5.2a", "--per-n", "0"], "per_n"),
    (["--lemma", "5.2b", "--per-n", "-2"], "per_n"),
    (["--lemma", "5.3", "--per-config", "0"], "per_config"),
])
def test_lattice_scan_refuses_an_empty_sample(tmp_path, work_calls, capsys, args, count):
    # a gate over no samples would pass on nothing: exit 2, no outputs
    assert cli.main(["lattice-scan", *args, "--out", str(tmp_path)]) == 2
    assert f"{count} must be >= 1" in capsys.readouterr().err
    assert work_calls == [] and not list(tmp_path.iterdir())


def test_lattice_scan_refuses_an_unknown_lemma(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["lattice-scan", "--lemma", "9.9", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice: '9.9'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_strichartz_hyperbolic_refuses_a_one_point_fit(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"Ns": [4]}))
    out = tmp_path / "out"
    r = run_cli(["strichartz", "--mode", "hyperbolic", "--config", str(config),
                 "--out", str(out)], tmp_path)
    assert r.returncode == 2, r.stderr
    assert not out.exists()


def test_strichartz_hyperbolic_mode_flags_and_rerun(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"Ns": [2, 4], "trials": 1, "window": [-10, 10, 64]}))
    first = tmp_path / "first"
    second = tmp_path / "second"
    r = run_cli(["strichartz", "--mode", "hyperbolic", "--config", str(config),
                 "--out", str(first)], tmp_path)
    assert r.returncode == 0, r.stderr
    name = "strichartz_hyperbolic"
    summary = strict_json(first / f"{name}.summary.json")["summary"]
    assert any(f.startswith("time-aliasing-risk:need_nt=") for f in summary["flags"])
    r2 = run_cli(["rerun", str(first / f"{name}.manifest.json"), "--out", str(second)], tmp_path)
    assert r2.returncode == 0, r2.stderr
    for suffix in (".csv", ".summary.json"):
        assert file_sha256(first / f"{name}{suffix}") == file_sha256(second / f"{name}{suffix}")
    # the environment goes in the sidecar only, next to the timestamp
    sidecar = json.loads((second / f"{name}.manifest.json").read_text())
    assert sidecar["environment"] == {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "chunk_threads": min(2, len(os.sched_getaffinity(0)))}
    assert "environment" not in json.loads((second / f"{name}.summary.json").read_text())["manifest"]


def test_strichartz_kernel_split_mode(tmp_path):
    r = run_cli(["strichartz", "--mode", "kernel-split", "--seed", "5",
                 "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 0, r.stderr
    summary = json.loads((tmp_path / "strichartz_kernel_split.summary.json").read_text())["summary"]
    assert summary["cover_ok"] is True


def test_strichartz_quadrilinear_mode(tmp_path):
    r = run_cli(["strichartz", "--mode", "quadrilinear", "--seed", "4",
                 "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 0, r.stderr
    summary = json.loads((tmp_path / "strichartz_quadrilinear.summary.json").read_text())["summary"]
    assert summary["relative_mismatch"] <= 0.02
    # the periodic-exact time rule leaves only rounding
    assert summary["relative_mismatch"] <= gates.PLANCHEREL_EXACT_TOL
    assert summary["time_rule"] == "periodic-exact" and summary["n_nodes"] > 0


def test_strichartz_quadrilinear_gate_is_the_exact_tolerance(tmp_path, monkeypatch):
    # a 1e-9 mismatch passes the windowed rule's 2 % but not the exact rule's 1e-12
    freq = strichartz.quadrilinear_form_frequency
    monkeypatch.setattr(cli.strichartz, "quadrilinear_form_frequency",
                        lambda p, k: freq(p, k) * (1 + 1e-9))
    assert cli.main(["strichartz", "--mode", "quadrilinear", "--seed", "4",
                     "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("args,name", [
    (["lattice-scan", "--lemma", "5.1", "--seed", "9", "--n-queries", "300"], "lattice_5_1"),
    (["cg-table", "6", "4"], "cg_table_m6_n4"),
    (["bilinear-verify", "--m-max", "8", "--n-max", "4", "--seeds", "3"], "bilinear_verify"),
    (["strichartz", "--mode", "box-scaling", "--config", "box.json"], "strichartz_box_scaling"),
    (["strichartz", "--mode", "slab", "--config", "slab.json"], "strichartz_slab"),
    (["strichartz", "--mode", "elliptic", "--config", "scan.json"], "strichartz_elliptic"),
    (["strichartz", "--mode", "hyperbolic", "--config", "scan.json"], "strichartz_hyperbolic"),
])
def test_manifest_rerun_reproduces_outputs(tmp_path, args, name):
    # every subcommand and every _scan row round-trips; the strichartz runs
    # read their toy-size configs from the cwd
    toy = {"trials": 1, "window": [-10, 10, 64]}
    for config, params in (("box.json", {"Ns": [2, 4]}), ("slab.json", {"slab": _SLAB, **toy}),
                           ("scan.json", {"Ns": [4, 8], **toy})):
        (tmp_path / config).write_text(json.dumps(params))
    first = tmp_path / "first"
    second = tmp_path / "second"
    first.mkdir()
    second.mkdir()
    r = run_cli([*args, "--out", str(first)], tmp_path)
    assert r.returncode == 0, r.stderr
    r2 = run_cli(["rerun", str(first / f"{name}.manifest.json"), "--out", str(second)], tmp_path)
    assert r2.returncode == 0, r2.stderr
    for suffix in (".csv", ".summary.json"):
        assert file_sha256(first / f"{name}{suffix}") == file_sha256(second / f"{name}{suffix}")
    # the environment goes in the sidecar only, next to the timestamp
    sidecar = json.loads((second / f"{name}.manifest.json").read_text())
    assert sidecar["environment"] == {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "chunk_threads": min(2, len(os.sched_getaffinity(0)))}
    assert "environment" not in json.loads((second / f"{name}.summary.json").read_text())["manifest"]


_MANIFEST_51 = {"subcommand": "lattice-scan",
                "params": {"lemma": "5.1", "seed": 9, "n_queries": 300}, "seed": 9}


@pytest.fixture
def entry_calls(monkeypatch, work_calls):
    """Stop every entry of every table at its first work (``work_calls``):
    a run that passes its scan's checks records its resolved keys and
    returns no rows, no summary and no gate; a refused run records none."""
    calls = []

    def stopped(run):
        def stop(args):
            try:
                run(args)
            except work_calls.Started:
                calls.append(args)
                return [], {}, []
            raise AssertionError("the run did no work")
        return stop
    for _, table, _ in cli._SUBCOMMANDS.values():
        for choice, entry in list(table.items()):
            monkeypatch.setitem(table, choice, entry._replace(run=stopped(entry.run)))
    return calls


def _rerun_stubbed(tmp_path, calls, capsys, manifest):
    """Rerun a manifest with every entry stopped at its first work
    (``entry_calls``): the exit code, the stderr lines, the entries' calls
    and the outputs."""
    path = tmp_path / "edited.manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    out.mkdir()
    code = cli.main(["rerun", str(path), "--out", str(out)])
    return code, capsys.readouterr().err.strip().splitlines(), calls, list(out.iterdir())


@pytest.mark.parametrize("edit,named", [
    ({"params": {"lemma": "9.9", "seed": 9, "n_queries": 300}}, "unknown lemma '9.9'"),
    ({"params": {"seed": 9, "n_queries": 300}}, "unknown lemma None"),
    ({"subcommand": "bogus"}, "unknown manifest subcommand 'bogus'"),
    ({"subcommand": None}, "unknown manifest subcommand None"),
    ({"params": None}, "manifest params None is not an object"),
    ({"params": [9]}, "manifest params [9] is not an object"),
])
def test_rerun_refuses_a_bad_manifest(tmp_path, entry_calls, capsys, edit, named):
    # None drops the key; each case exits 2 before any work with one line
    manifest = {k: v for k, v in {**_MANIFEST_51, **edit}.items() if v is not None}
    code, err, calls, outputs = _rerun_stubbed(tmp_path, entry_calls, capsys, manifest)
    assert code == 2
    assert len(err) == 1 and named in err[0]
    assert calls == [] and outputs == []


@pytest.mark.parametrize("degrees,named", [
    ({"m": 6.5, "n": 4}, "bad m 6.5"),
    ({"m": "6", "n": 4}, "bad m '6'"),
    ({"m": True, "n": 0}, "bad m True"),
    ({"m": 6, "n": 4.0}, "bad n 4.0"),
    ({"n": 4}, "bad m None"),
])
def test_rerun_refuses_cg_table_degrees_that_are_not_integers(tmp_path, entry_calls, capsys,
                                                              degrees, named):
    manifest = {"subcommand": "cg-table", "params": degrees, "seed": None}
    code, err, calls, outputs = _rerun_stubbed(tmp_path, entry_calls, capsys, manifest)
    assert code == 2
    assert len(err) == 1 and named in err[0]
    assert calls == [] and outputs == []


def test_strichartz_refuses_unknown_config_keys(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"Nz": [4], "trails": 1}))
    out = tmp_path / "out"
    r = run_cli(["strichartz", "--mode", "hyperbolic", "--config", str(config),
                 "--out", str(out)], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "Nz" in r.stderr and "trails" in r.stderr
    assert not out.exists()


def test_strichartz_single_slab_config_keys(tmp_path, work_calls):
    # a single-slab record reads "grid" but not the scan's "Ns"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"slab": {"xi0": [0.0, 0], "a": [1.0, 0.0], "c": 0.0,
                                           "M": 2, "N": 4}, "Ns": [4, 8]}))
    code = cli.main(["strichartz", "--mode", "elliptic", "--config", str(config),
                     "--out", str(tmp_path / "out")])
    assert code == 2 and work_calls == []
    assert not (tmp_path / "out").exists()


_BAD_SCAN_WINDOWS = [
    [60, -60, 256], [5, 5, 256], [float("nan"), 60, 256], [-60, float("inf"), 256],
    [-60, 60, 32], [-60, 60], [-60, 60, 256, 1], {"t_min": -60, "t_max": 60, "n_t": 256},
    # ran as n_t = 100 and as t_min = 1.0
    [-60, 60, 100.7], [True, 60, 64],
]


def _refuses_before_any_work(tmp_path, work_calls, capsys, mode, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = cli.main(["strichartz", "--mode", mode, "--config", str(path), "--out", str(out)])
    assert code == 2 and work_calls == []
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("window", _BAD_SCAN_WINDOWS)
@pytest.mark.parametrize("mode", ["elliptic", "hyperbolic"])
def test_strichartz_scans_refuse_a_bad_window(tmp_path, work_calls, capsys, mode, window):
    err = _refuses_before_any_work(tmp_path, work_calls, capsys, mode,
                                   {"Ns": [4, 8], "trials": 1, "window": window})
    assert f"bad window {window!r}" in err


_SLAB = {"xi0": [0.0, 0], "a": [1.0, 0.0], "c": 0.0, "M": 2, "N": 4}


@pytest.mark.parametrize("window", [
    [60, -60, 8192], [-60, float("nan"), 8192], [-float("inf"), 60, 8192],
    [-60, 60, 32], [70, 60, 8192], [-60, 60], {"t_min": -60, "t_max": 60, "n_t": 256},
])
def test_slab_mode_refuses_a_bad_window(tmp_path, work_calls, capsys, window):
    err = _refuses_before_any_work(tmp_path, work_calls, capsys, "slab",
                                   {"slab": _SLAB, "trials": 1, "window": window})
    assert f"bad window {window!r}" in err


@pytest.mark.parametrize("given,window", [
    ({}, (-60.0, 60.0, 8192)),
    ({"window": [-30, 60, 128]}, [-30, 60, 128]),
])
def test_slab_mode_fills_defaults(tmp_path, monkeypatch, given, window):
    # the quotient gets the keys as resolved: the slab record and the window
    # as given, which its own checks convert
    seen = []

    def fake_quotient(slab, delta, trials, seed, h, t_window):
        seen.append((slab, delta, trials, seed, h, t_window))
        return [{"trial": 0, "quotient": 1.0}], {"max_quotient": 1.0, "argmax": {}, "flags": []}

    monkeypatch.setattr(cli.strichartz, "strichartz_quotient", fake_quotient)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"slab": _SLAB, **given}))
    assert cli.main(["strichartz", "--mode", "slab", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 0
    assert seen == [(_SLAB, 0.1, 8, 3, 0.125, window)]
    # the CSV's columns are the keys of the scan's first row
    assert (tmp_path / "out" / "strichartz_slab.csv").read_text() == "trial,quotient\n0,1\n"


@pytest.mark.parametrize("config,named", [
    ({"trials": 1}, "bad slab None"),
    ({"slab": {k: v for k, v in _SLAB.items() if k != "M"}, "trials": 1}, "missing M"),
    ({"slab": {**_SLAB, "b": 1.0}, "trials": 1}, "unknown b"),
    ({"slab": {**_SLAB, "M": 5}, "trials": 1}, "need 1 <= M <= N"),
    ({"slab": {**_SLAB, "xi0": 0.0}, "trials": 1}, "bad slab"),
    ({"slab": _SLAB, "grid": {"h": 0.125}}, "grid"),
])
def test_slab_mode_refuses_a_bad_slab_record(tmp_path, work_calls, capsys, config, named):
    # a missing, malformed or unbuildable record, or the old "grid" key of
    # an elliptic single-slab config: exit 2 before any work, no outputs
    assert named in _refuses_before_any_work(tmp_path, work_calls, capsys, "slab", config)


@pytest.mark.parametrize("mode,config", [
    ("elliptic", {"Ns": [2, 4], "trials": 0}),
    ("hyperbolic", {"Ns": [2, 4], "trials": 0}),
    ("slab", {"slab": _SLAB, "trials": 0}),
])
def test_strichartz_refuses_zero_trials(tmp_path, work_calls, capsys, mode, config):
    # a gate over no trials would pass on nothing
    err = _refuses_before_any_work(tmp_path, work_calls, capsys, mode, config)
    assert "trials must be >= 1; got 0" in err


@pytest.mark.parametrize("delta", [0.2, 0.125, 0.0, -0.1])
@pytest.mark.parametrize("mode,config", [
    ("elliptic", {"Ns": [2, 4], "trials": 1, "window": [-10, 10, 64]}),
    ("slab", {"slab": _SLAB, "trials": 1, "window": [-10, 10, 64]}),
])
def test_strichartz_refuses_delta_outside_its_range(tmp_path, work_calls, capsys, mode, config,
                                                   delta):
    err = _refuses_before_any_work(tmp_path, work_calls, capsys, mode,
                                   {**config, "delta": delta})
    assert f"bad delta {delta!r}: delta must lie in (0, 1/8); got {delta}" in err


@pytest.mark.parametrize("mode,config,key,value", [
    ("elliptic", {"Ns": [2, 4], "trials": 1, "delta": "0.1", "window": [-10, 10, 64]},
     "delta", "0.1"),
    ("hyperbolic", {"Ns": [2, 4], "trials": "1", "window": [-10, 10, 64]}, "trials", "1"),
    ("elliptic", {"Ns": [2, 4], "trials": 1, "delta": None, "window": [-10, 10, 64]},
     "delta", None),
    ("slab", {"slab": _SLAB, "trials": [1], "window": [-10, 10, 64]}, "trials", [1]),
])
def test_strichartz_refuses_a_non_numeric_value(tmp_path, work_calls, capsys, mode, config,
                                                 key, value):
    # a string, None or a list: exit 2 naming the key and value, not a TypeError
    err = _refuses_before_any_work(tmp_path, work_calls, capsys, mode, config)
    assert f"bad {key} {value!r}: {key} must be a number; got {value!r}" in err


def test_checks_accept_numpy_scalars_and_refuse_non_numbers():
    assert strichartz.check_delta(np.float64(0.1)) == 0.1
    assert strichartz.check_delta(np.float32(0.1)) == np.float32(0.1)
    assert strichartz.check_count("trials", np.int64(3)) == 3
    assert strichartz.check_count("trials", 2.0) == 2.0
    for bad in ("0.1", None, [0.1]):
        with pytest.raises(ValueError, match="delta must be a number"):
            strichartz.check_delta(bad)
        with pytest.raises(ValueError, match="trials must be a number"):
            strichartz.check_count("trials", bad)
    # a count is a whole number: 2.0 runs as 2, a bool or a fraction is refused
    assert type(strichartz.check_count("trials", 2.0)) is int
    for bad in (1.5, True, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="trials must be an integer"):
            strichartz.check_count("trials", bad)


def test_strichartz_hyperbolic_refuses_n_above_the_cap(tmp_path, work_calls, capsys):
    # N = 2 would run before N = 128 hit the cap
    err = _refuses_before_any_work(tmp_path, work_calls, capsys, "hyperbolic",
                                   {"Ns": [2, 128], "trials": 1, "window": [-10, 10, 64]})
    assert "bad Ns [2, 128]: N is capped at 64; got 128" in err


@pytest.mark.parametrize("mode,config,bad", [
    ("elliptic", {"Ns": [2, 128], "trials": 1, "window": [-10, 10, 64]}, "bad Ns [2, 128]"),
    ("slab", {"slab": {**_SLAB, "N": 128}, "trials": 1}, "bad slab"),
    ("box-scaling", {"Ns": [2, 128], "h": 0.5}, "bad Ns [2, 128]"),
])
def test_strichartz_modes_refuse_n_above_the_cap(tmp_path, work_calls, capsys, mode, config, bad):
    # the cap of the hyperbolic mode holds for every mode that reads an N
    err = _refuses_before_any_work(tmp_path, work_calls, capsys, mode, config)
    assert bad in err and "N is capped at 64; got 128" in err


_ONE_TRIAL = {"trials": 1, "window": [-10, 10, 64]}


@pytest.mark.parametrize("mode,config,named", [
    ("box-scaling", {"Ns": [0, 4]}, "bad Ns [0, 4]: N must be >= 1; got 0"),
    ("box-scaling", {"Ns": []}, "bad Ns []: need at least one N"),
    ("box-scaling", {"Ns": [2.5, 4]}, "bad Ns [2.5, 4]: N must be a whole number; got 2.5"),
    ("box-scaling", {"Ns": [4, float("nan")]}, "bad Ns [4, nan]: N is capped at 64; got nan"),
    ("box-scaling", {"Ns": 4}, "bad Ns 4: Ns must be a list of numbers; got 4"),
    # a spread factor over one N used to read 1.0 and pass its gate
    ("box-scaling", {"Ns": [4]},
     "bad Ns [4]: a slope needs at least two distinct x values; got [4.0]"),
    ("hyperbolic", {"Ns": [0, 4], **_ONE_TRIAL}, "bad Ns [0, 4]: N must be >= 1; got 0"),
    ("hyperbolic", {"Ns": [-1, 4], **_ONE_TRIAL}, "bad Ns [-1, 4]: N must be >= 1; got -1"),
    ("hyperbolic", {"Ns": [2.5, 4], **_ONE_TRIAL}, "bad Ns [2.5, 4]: N must be a whole number; got 2.5"),
    ("hyperbolic", {"Ns": ["4", 8], **_ONE_TRIAL}, "bad Ns ['4', 8]: N must be a number; got '4'"),
    ("elliptic", {"Ns": [0, 8], **_ONE_TRIAL}, "bad Ns [0, 8]: N must be >= 1; got 0"),
    ("elliptic", {"Ns": [float("-inf"), 8], **_ONE_TRIAL}, "bad Ns [-inf, 8]: N must be >= 1; got -inf"),
    ("elliptic", {"Ns": [8, float("inf")], **_ONE_TRIAL}, "bad Ns [8, inf]: N is capped at 64; got inf"),
])
def test_strichartz_refuses_an_n_its_mode_cannot_run(tmp_path, work_calls, capsys, mode, config,
                                                    named):
    # these used to die with a ZeroDivisionError, an empty max(), an empty
    # xi2 range or an M > N traceback, fail on a NaN slope after every
    # trial, or label a box_packet(2) row as N = 2.5
    err = _refuses_before_any_work(tmp_path, work_calls, capsys, mode, config)
    assert err.strip().splitlines() == [named]


def test_lattice_scan_runs_n_4096_within_the_work_budget(tmp_path, entry_calls, capsys):
    code, err, [args], _ = _rerun_stubbed(
        tmp_path, entry_calls, capsys,
        {"subcommand": "lattice-scan", "params": {"lemma": "5.3", "Ns": [64, 4096.0]}})
    assert code == 0 and err == [] and args["Ns"] == [64, 4096.0]


def test_elliptic_slab_radius_may_be_fractional(tmp_path, entry_calls, capsys):
    code, err, [args], _ = _rerun_stubbed(
        tmp_path, entry_calls, capsys,
        {"subcommand": "strichartz", "params": {"mode": "elliptic", "Ns": [2.5, 8]}})
    assert code == 0 and err == [] and args["Ns"] == [2.5, 8]


@pytest.mark.parametrize("h", [0, -0.5, "0.5", float("inf"), float("nan"), True,
                               pytest.param(10**400, id="10**400")])
@pytest.mark.parametrize("mode,config", [
    ("elliptic", {"Ns": [2, 4], "trials": 1, "window": [-10, 10, 64]}),
    ("slab", {"slab": _SLAB, "trials": 1, "window": [-10, 10, 64]}),
    ("hyperbolic", {"Ns": [2, 4], "trials": 1, "window": [-10, 10, 64]}),
    ("box-scaling", {"Ns": [2, 4]}),
])
def test_strichartz_refuses_a_bad_grid_step(tmp_path, work_calls, capsys, mode, config, h):
    # h = 0 used to reach FrequencyGrid and die with a ValueError traceback,
    # NaN with "cannot convert float NaN to integer"; the box probe read
    # h = True as q = 1 and ran at h = 1
    err = _refuses_before_any_work(tmp_path, work_calls, capsys, mode, {**config, "h": h})
    assert err.strip().splitlines() == [f"bad h {h!r}: h must be a finite positive number"]


def test_strichartz_box_scaling_refuses_h_off_the_lattice(tmp_path, work_calls, capsys):
    err = _refuses_before_any_work(tmp_path, work_calls, capsys, "box-scaling",
                                   {"Ns": [2, 4], "h": 0.3})
    assert err.strip().splitlines() == [
        "bad h 0.3: the periodic-exact time rule needs h^2 = 1/q for an integer q, got h = 0.3"]


@pytest.mark.parametrize("mode,config,named", [
    # 16384 * 4097 nodes at N = 32
    ("box-scaling", {"h": 0.0078125}, "bad Ns (4, 8, 16, 32), h 0.0078125: "
                                      "67125248 time nodes are over the budget of 2097152"),
    ("hyperbolic", {"Ns": [2, 4], "trials": 1, "window": [-10, 10, 2**21]},
     "bad window [-10, 10, 2097152]: 2097153 time nodes are over the budget of 2097152"),
])
def test_strichartz_refuses_time_nodes_over_the_budget(tmp_path, work_calls, capsys, mode,
                                                       config, named):
    err = _refuses_before_any_work(tmp_path, work_calls, capsys, mode, config)
    assert err.strip().splitlines() == [named]


def test_strichartz_box_scaling_reports_the_exact_rule_nodes(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"Ns": [2, 4], "h": 0.5}))
    r = run_cli(["strichartz", "--mode", "box-scaling", "--config", str(config),
                 "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "strichartz_box_scaling.csv").read_text().splitlines()
    assert lines[0].split(",")[:2] == ["N", "n_t"]
    # q (4 N^2 + 1) nodes with q = 1/h^2 = 4: the box's Lambda spread is 2 N^2
    assert [line.split(",")[1] for line in lines[1:]] == ["68", "260"]


def _scan_summary(field):
    return lambda value: lambda *a, **k: ([], {field: value})


def _kernel_report(value):
    # K1 + K2 = 1, so the Gamma mass beyond them is value
    return lambda *a, **k: strichartz.KernelSplitReport(1.0 + value, 1.0, 0.0, 1, 1, 0, True,
                                                        (1, 0, 0, 0))


def _time_side_off_by(value):
    # the time side (1 + value) times the frequency side: a mismatch of value
    freq = strichartz.quadrilinear_form_frequency
    return lambda p, k, dispersion: SimpleNamespace(quartic=freq(p, k) * (1.0 + value),
                                                    n_nodes=1, warnings=())


@pytest.mark.parametrize("breaching", [True, False], ids=["above", "nan"])
@pytest.mark.parametrize("mode,call,fake,value,bound", [
    ("elliptic", "scan_strichartz_quotients", _scan_summary("fitted_slope"), 0.08,
     gates.SLOPE_BOUND),
    ("hyperbolic", "scan_hyperbolic_quotients", _scan_summary("fitted_slope"), 0.08,
     gates.SLOPE_BOUND),
    ("box-scaling", "box_scaling_probe", _scan_summary("spread_factor"), 3.0,
     gates.BOX_SPREAD_BOUND),
    ("kernel-split", "kernel_split_diagnostics", _kernel_report, 0.5, 1e-12),
    ("quadrilinear", "evolve_l4_norm_exact", _time_side_off_by, 0.5, gates.PLANCHEREL_EXACT_TOL),
], ids=["elliptic", "hyperbolic", "box-scaling", "kernel-split", "quadrilinear"])
def test_strichartz_gates_fail_closed(tmp_path, monkeypatch, capsys, mode, call, fake, value,
                                      bound, breaching):
    value = value if breaching else float("nan")
    monkeypatch.setattr(cli.strichartz, call, fake(value))
    assert cli.main(["strichartz", "--mode", mode, "--out", str(tmp_path)]) == 1
    assert f"{value:.4g} exceeds {bound:g}" in capsys.readouterr().err
    name = f"strichartz_{mode.replace('-', '_')}"
    assert strict_json(tmp_path / f"{name}.summary.json")["manifest"]["params"]["mode"] == mode
    assert (tmp_path / f"{name}.csv").exists()


def _lattice_summary(monkeypatch, summary):
    for scan in _LATTICE_SCANS:
        monkeypatch.setattr(cli.lattice, scan, lambda **kw: ([], summary))


@pytest.mark.parametrize("lemma,summary,code", [
    ("5.1", {"max_ratio": 7.9}, 0),
    ("5.1", {"max_ratio": 9.0}, 1),  # above the 8.0 of the gate table
    ("5.3", {"fitted_slope": 0.01, "max_ratio_per_N": {"64": 30.0, "128": 59.0}}, 0),
    ("5.3", {"fitted_slope": 0.01, "max_ratio_per_N": {"64": 30.0, "128": 61.0}}, 1),
    ("5.3", {"fitted_slope": 0.01, "max_ratio_per_N": {"64": float("nan"), "128": 1.0}}, 1),
])
def test_lattice_scan_gates_from_the_gate_table(tmp_path, monkeypatch, lemma, summary, code):
    _lattice_summary(monkeypatch, summary)
    args = ["lattice-scan", "--lemma", lemma, "--out", str(tmp_path)]
    if lemma == "5.3":
        args += ["--N", "64", "--N", "128"]
    assert cli.main(args) == code


def _nan_on_call(target, n, poison):
    """target, with the result of its n-th call replaced by poison(result)."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        result = target(*args, **kwargs)
        return poison(result) if len(calls) == n else result
    return wrapped


def _nan_value(result):
    return dataclasses.replace(result, value=float("nan"))


def _nan_middle(values):
    values[len(values) // 2] = np.nan
    return values


@pytest.mark.parametrize("argv,config,module,call,n,poison,field", [
    # the second of three packets at N = 8
    (["strichartz", "--mode", "elliptic"], {"Ns": [8, 16], "trials": 1, "window": [-20, 20, 512]},
     strichartz, "evolve_l4_norm", 2, _nan_value, ("max_per_N", "8")),
    # the second of three trials at N = 2
    (["strichartz", "--mode", "hyperbolic"], {"Ns": [2, 4], "trials": 3, "window": [-10, 10, 64]},
     strichartz, "_weighted_quartic", 2, _nan_value, ("max_per_N", "2")),
    # the middle query of the one batch
    (["lattice-scan", "--lemma", "5.1", "--n-queries", "200"], None,
     lattice, "annulus_measures", 1, _nan_middle, ("max_ratio",)),
    # the middle query of the N = 64 batch
    (["lattice-scan", "--lemma", "5.3", "--N", "64", "--N", "128", "--per-config", "1"], None,
     lattice, "setB_measures", 1, _nan_middle, ("max_ratio_per_N", "64")),
    # the second of three box norms: the builtins read a spread factor of 1.0267
    (["strichartz", "--mode", "box-scaling"], {"Ns": [4, 8, 16], "h": 0.5},
     strichartz, "evolve_l4_norm_exact", 2, _nan_value, ("spread_factor",)),
], ids=["elliptic", "hyperbolic", "5.1", "5.3", "box-scaling"])
def test_scan_maxima_keep_a_nan(tmp_path, monkeypatch, argv, config, module, call, n, poison,
                                field):
    # one NaN sample mid-scan: the maximum reads "nan" and the gate exits 1
    monkeypatch.setattr(module, call, _nan_on_call(getattr(module, call), n, poison))
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "config.json")]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 1
    [path] = out.glob("*.summary.json")
    value = strict_json(path)["summary"]
    for key in field:
        value = value[key]
    assert value == "nan"


# every entry of every table, and the values of the keys with no default
_ENTRIES = [(sub, choice) for sub, (_, table, _) in cli._SUBCOMMANDS.items() for choice in table]
_REQUIRED = {("cg-table", None): {"m": 2, "n": 1}, ("strichartz", "slab"): {"slab": _SLAB}}


def _entry_params(sub, choice, **params):
    """The required keys of an entry, its selector and params."""
    selector = cli._SUBCOMMANDS[sub][0]
    return {**_REQUIRED.get((sub, choice), {}), **({selector: choice} if selector else {}),
            **params}


@pytest.mark.parametrize("sub,choice", _ENTRIES, ids=[f"{s}-{c}" for s, c in _ENTRIES])
def test_every_entry_refuses_an_unknown_key(tmp_path, entry_calls, capsys, sub, choice):
    code, err, calls, outputs = _rerun_stubbed(
        tmp_path, entry_calls, capsys,
        {"subcommand": sub, "params": _entry_params(sub, choice, sedes=3)})
    assert code == 2
    assert len(err) == 1 and "unknown keys" in err[0] and "sedes 3" in err[0]
    assert calls == [] and outputs == []


@pytest.mark.parametrize("sub,choice", _ENTRIES, ids=[f"{s}-{c}" for s, c in _ENTRIES])
def test_every_entry_fills_a_missing_key_from_its_default(tmp_path, entry_calls, capsys, sub,
                                                          choice):
    selector, table, _ = cli._SUBCOMMANDS[sub]
    keys = table[choice].keys
    required = _REQUIRED.get((sub, choice), {})
    assert {key for key, default in keys.items() if default is None} == set(required)
    code, err, calls, outputs = _rerun_stubbed(
        tmp_path, entry_calls, capsys, {"subcommand": sub, "params": _entry_params(sub, choice)})
    assert code == 0 and err == []
    [args] = calls
    assert {key: args[key] for key in keys if key not in required} == {
        key: default for key, default in keys.items() if key not in required}
    # the manifest records every key the entry reads, and nothing else
    [manifest] = [path for path in outputs if path.name.endswith(".manifest.json")]
    recorded = json.loads(manifest.read_text())
    assert recorded["params"] == json.loads(json.dumps(_entry_params(sub, choice, **{
        key: default for key, default in keys.items() if key not in required})))
    assert recorded["seed"] == keys.get("seed")


@pytest.mark.parametrize("sub,params,resolved", [
    ("bilinear-verify", {"n_max": 8}, {"m_max": 64, "n_max": 8}),
    ("bilinear-verify", {"seeds": 2}, {"m_max": 64, "n_max": 64, "seeds": 2, "seed": 7}),
    ("lattice-scan", {"lemma": "5.3", "per_config": 2}, {"seed": 11, "per_config": 2}),
    ("strichartz", {"mode": "kernel-split", "k_shift": 2}, {"seed": 3, "k_shift": 2}),
    ("strichartz", {"mode": "hyperbolic", "trials": 2.0}, {"trials": 2}),
])
def test_rerun_fills_what_a_manifest_leaves_out(tmp_path, entry_calls, capsys, sub, params,
                                                resolved):
    # a missing m_max or seed used to be a KeyError
    code, _, [args], _ = _rerun_stubbed(tmp_path, entry_calls, capsys,
                                        {"subcommand": sub, "params": params})
    assert code == 0
    assert {key: args[key] for key in resolved} == resolved


@pytest.mark.parametrize("sub,params,named", [
    ("bilinear-verify", {"m_max": "8"}, "bad m_max '8': need an integer"),
    ("bilinear-verify", {"n_max": 8.0}, "bad n_max 8.0: need an integer"),
    # manifests saved with the --zonal, --zonal-n-max and --cross-check options that went
    ("bilinear-verify", {"zonal": True, "zonal_n_max": 60},
     "unknown keys for bilinear-verify: zonal True, zonal_n_max 60"),
    ("bilinear-verify", {"cross_check": True}, "unknown keys for bilinear-verify: cross_check True"),
    ("bilinear-verify", {"m_max": 8, "n_max": 3},
     "bad m_max 8, n_max 3: the no-growth fit needs cells at two or more n"),
    ("bilinear-verify", {"sedes": 3}, "unknown keys for bilinear-verify: sedes 3"),
    ("lattice-scan", {"lemma": "5.1", "n_quries": 20}, "unknown keys for lemma 5.1: n_quries 20"),
    ("lattice-scan", {"lemma": "5.1", "per_n": 7, "delta": 0.3},
     "unknown keys for lemma 5.1: delta 0.3, per_n 7"),
    # a manifest saved with the --format option that went
    ("cg-table", {"m": 6, "n": 4, "format": "csv"}, "unknown keys for cg-table: format 'csv'"),
    ("cg-table", {"m": 2, "n": 5}, "bad m 2, n 5: need m >= n >= 0 and m + n <= 200"),
    ("strichartz", {"mode": "hyperbolic", "trials": 1.5},
     "bad trials 1.5: trials must be an integer; got 1.5"),
    ("strichartz", {"mode": "hyperbolic", "trials": True},
     "bad trials True: trials must be an integer; got True"),
    ("strichartz", {"mode": "hyperbolic", "trials": float("inf")},
     "bad trials inf: trials must be an integer; got inf"),
    ("strichartz", {"mode": "kernel-split", "k_shift": 0.5}, "bad k_shift 0.5: need an integer"),
    ("strichartz", {"mode": "quadrilinear", "k_shift": 1},
     "unknown keys for mode quadrilinear: k_shift 1 (allowed: seed)"),
    ("strichartz", {"mode": "box-scaling", "Ns": []}, "bad Ns []: need at least one N"),
    ("strichartz", {"mode": "box-scaling", "Ns": [0, 4]}, "bad Ns [0, 4]: N must be >= 1; got 0"),
    ("strichartz", {"mode": "box-scaling", "Ns": [8, 8.0]},
     "bad Ns [8, 8.0]: a slope needs at least two distinct x values; got [8.0]"),
    ("strichartz", {"mode": "hyperbolic", "Ns": [4, 8.5]},
     "bad Ns [4, 8.5]: N must be a whole number; got 8.5"),
    ("strichartz", {"mode": "elliptic", "Ns": [0.5, 8]}, "bad Ns [0.5, 8]: N must be >= 1; got 0.5"),
    # '64' and 0 used to die with a TypeError or a ValueError traceback, and
    # 64.5 and true ran to the gate
    ("lattice-scan", {"lemma": "5.2a", "Ns": ["64", 128]},
     "bad Ns ['64', 128]: N must be a number; got '64'"),
    ("lattice-scan", {"lemma": "5.2b", "Ns": [0, 64]}, "bad Ns [0, 64]: N must be >= 1; got 0"),
    ("lattice-scan", {"lemma": "5.3", "Ns": [64.5, 128]},
     "bad Ns [64.5, 128]: N must be a whole number; got 64.5"),
    ("lattice-scan", {"lemma": "5.3", "Ns": [True, 128]},
     "bad Ns [True, 128]: N must be a number; got True"),
    # lemma 5.3's delta was checked nowhere: '0.1' died with a TypeError,
    # true ran as delta = 1 and NaN ran to NaN gates
    ("lattice-scan", {"lemma": "5.3", "delta": "0.1"},
     "bad delta '0.1': delta must be a number; got '0.1'"),
    ("lattice-scan", {"lemma": "5.3", "delta": True},
     "bad delta True: delta must be a number; got True"),
    ("lattice-scan", {"lemma": "5.3", "delta": float("nan")},
     "bad delta nan: delta must lie in (0, 1/8); got nan"),
    ("strichartz", {"mode": "elliptic", "delta": True},
     "bad delta True: delta must be a number; got True"),
    # an OverflowError traceback after the packet was drawn
    ("strichartz", {"mode": "kernel-split", "k_shift": 10**30},
     f"bad k_shift {10**30}: need an integer of magnitude at most {2**62}"),
])
def test_rerun_refuses_before_any_work(tmp_path, entry_calls, capsys, sub, params, named):
    # each used to be a TypeError, a silent default or an ignored key
    code, err, calls, outputs = _rerun_stubbed(tmp_path, entry_calls, capsys,
                                               {"subcommand": sub, "params": params})
    assert code == 2
    assert len(err) == 1 and named in err[0]
    assert calls == [] and outputs == []


@pytest.mark.parametrize("argv,config,named", [
    (["lattice-scan", "--lemma", "5.1", "--per-n", "7", "--delta", "0.3"], None,
     "unknown keys for lemma 5.1: delta 0.3, per_n 7"),
    (["strichartz", "--mode", "elliptic"], [1, 2], "got [1, 2]"),
    (["strichartz", "--mode", "elliptic"], {"mode": "box-scaling"},
     "without a mode key; got {'mode': 'box-scaling'}"),
    # the box probe draws nothing
    (["strichartz", "--mode", "box-scaling", "--seed", "3"], None,
     "unknown keys for mode box-scaling: seed 3 (allowed: Ns, h)"),
    (["lattice-scan", "--lemma", "5.2a", "--N", "0", "--N", "64"], None,
     "bad Ns [0, 64]: N must be >= 1; got 0"),
    (["lattice-scan", "--lemma", "5.3", "--delta", "nan"], None,
     "bad delta nan: delta must lie in (0, 1/8); got nan"),
    # about 3 h of counting at the default per_n
    (["lattice-scan", "--lemma", "5.2a", "--N", "64", "--N", "1000000000"], None,
     "bad Ns [64, 1000000000], per_n 500: the estimated kernel work of 1e+12 entries is "
     "over the budget of 1e+09"),
    (["lattice-scan", "--lemma", "5.3", "--N", "64", "--N", "1000000000"], None,
     "bad Ns [64, 1000000000], delta 0.1, per_config 3: the estimated kernel work of "
     "1.96e+12 entries is over the budget of 1e+09"),
    # an OverflowError traceback from converting N to a float
    (["lattice-scan", "--lemma", "5.2a", "--N", "64", "--N", str(10**400)], None,
     f"bad Ns [64, {10**400}]: x values must lie within float range"),
])
def test_main_refuses_before_any_work(tmp_path, entry_calls, capsys, argv, config, named):
    # an option the lemma ignores, or a config that is not an object or
    # switches the mode, used to run or raise a TypeError
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "config.json")]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and named in err[0]
    assert entry_calls == [] and not out.exists()


_SEEDED = [(sub, choice) for sub, choice in _ENTRIES
           if "seed" in cli._SUBCOMMANDS[sub][1][choice].keys]


@pytest.mark.parametrize("seed", ["x", -1, True, 1.5, None])
@pytest.mark.parametrize("sub,choice", _SEEDED, ids=[f"{s}-{c}" for s, c in _SEEDED])
def test_every_seeded_entry_refuses_a_bad_seed(tmp_path, entry_calls, capsys, sub, choice, seed):
    code, err, calls, outputs = _rerun_stubbed(
        tmp_path, entry_calls, capsys,
        {"subcommand": sub, "params": _entry_params(sub, choice, seed=seed)})
    assert code == 2
    assert err == [f"bad seed {seed!r}: seed must be a non-negative integer"]
    assert calls == [] and outputs == []


@pytest.mark.parametrize("argv,config", [
    (["strichartz", "--mode", "quadrilinear"], {"seed": "x"}),
    (["lattice-scan", "--lemma", "5.1", "--seed", "-1"], None),
])
def test_main_refuses_a_bad_seed(tmp_path, capsys, argv, config):
    # a TypeError traceback from np.random.default_rng and a ValueError
    # traceback from the 5.1 scan used to exit 1
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "config.json")]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "seed must be a non-negative integer" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("argv,params", [
    (["lattice-scan", "--lemma", "5.1", "--n-queries", "300"],
     {"lemma": "5.1", "seed": 11, "n_queries": 300}),
    (["cg-table", "6", "4"], {"m": 6, "n": 4}),
])
def test_the_manifest_records_the_resolved_keys(tmp_path, entry_calls, argv, params):
    # the 5.1 manifest used to record per_n, per_config and delta too
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    [manifest] = tmp_path.glob("*.manifest.json")
    assert json.loads(manifest.read_text())["params"] == params


def test_a_row_key_a_scan_adds_reaches_the_csv(tmp_path, monkeypatch):
    # the CSV used to write only the columns of a header list kept in cli.py
    rows = [{"m": 8, "n": 4, "seed": "zonal", "ratio": 1.0, "zonal_partner_top": 0.5}]
    monkeypatch.setattr(cli.bilinear, "scan_cells",
                        lambda **kw: (rows, {"C_star": 1.0, "fitted_slope": 0.0,
                                             "quadrature_cross_check_rel": 0.0, "zonal_min": 1.0}))
    assert cli.main(["bilinear-verify", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "bilinear_verify.csv").read_text().splitlines() == [
        "m,n,seed,ratio,zonal_partner_top", "8,4,zonal,1,0.5"]


# a small run of every entry
_SMALL = {
    ("cg-table", None): {"m": 2, "n": 1},
    ("bilinear-verify", None): {"m_max": 8, "n_max": 4, "seeds": 2},
    ("lattice-scan", "5.1"): {"n_queries": 50},
    ("lattice-scan", "5.2a"): {"Ns": [16, 32], "per_n": 5},
    ("lattice-scan", "5.2b"): {"Ns": [16, 32], "per_n": 5},
    ("lattice-scan", "5.3"): {"Ns": [16, 32], "per_config": 1},
    ("strichartz", "elliptic"): {"Ns": [4, 8], **_ONE_TRIAL},
    ("strichartz", "slab"): {"slab": _SLAB, **_ONE_TRIAL},
    ("strichartz", "hyperbolic"): {"Ns": [2, 4], **_ONE_TRIAL},
    ("strichartz", "quadrilinear"): {},
    ("strichartz", "kernel-split"): {},
    ("strichartz", "box-scaling"): {"Ns": [2, 4], "h": 0.5},
}


@pytest.mark.parametrize("sub,choice", _ENTRIES, ids=[f"{s}-{c}" for s, c in _ENTRIES])
def test_every_row_carries_the_first_rows_keys(tmp_path, monkeypatch, capsys, sub, choice):
    # the CSV's columns are the first row's keys, so no later row may add,
    # drop or reorder one
    written = []

    def record(out_dir, name, rows, summary, manifest):
        written.append(rows)
        return write_run_outputs(out_dir, name, rows, summary, manifest)
    monkeypatch.setattr(cli, "write_run_outputs", record)
    selector = cli._SUBCOMMANDS[sub][0]
    params = {**_SMALL[(sub, choice)], **({selector: choice} if selector else {})}
    assert cli._run(sub, params, tmp_path) in (0, 1), capsys.readouterr().err
    [rows] = written
    assert rows and all(list(row) == list(rows[0]) for row in rows)
    [path] = tmp_path.glob("*.csv")
    assert path.read_text().splitlines()[0] == ",".join(rows[0])


def test_strichartz_runs_an_integral_float_trial_count(tmp_path):
    # the slab mode is ungated, so the exit code is that of the run alone
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"slab": _SLAB, "trials": 2.0, "window": [-10, 10, 64]}))
    assert cli.main(["strichartz", "--mode", "slab", "--config", str(config),
                     "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "strichartz_slab.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["trial", "0", "1"]


_ROOT = Path(__file__).resolve().parent.parent


def _documented_commands():
    """Every CLI line of scripts/*.sh (shell loops expanded) and every
    ``s3lab`` line of the README's code blocks, as (where, argv) pairs;
    and the config that a README block shows in its ``# name.json: {...}``
    comment lines, by name (one per block)."""
    out = []
    for path in sorted((_ROOT / "scripts").glob("*.sh")):
        text = path.read_text().replace("\\\n", " ")
        loops = dict(re.findall(r"for (\w+) in (.+?); do", text))
        for line in text.splitlines():
            if "-m s3lab.cli" not in line:
                continue
            lines = [line]
            for var, values in loops.items():
                if f"${var}" in line:
                    lines = [ln.replace(f"${var}", v) for ln in lines for v in shlex.split(values)]
            out += [(f"{path.name}: {ln.strip()}", shlex.split(ln.split("-m s3lab.cli", 1)[1]))
                    for ln in lines]
    blocks = (_ROOT / "README.md").read_text().split("```")[1::2]
    out += [(f"README.md: {line}", shlex.split(line)[1:])
            for block in blocks for line in block.splitlines() if line.startswith("s3lab ")]
    comments = (" ".join(line.lstrip("# ") for line in block.splitlines() if line.startswith("#"))
                for block in blocks)
    return out, {name: json.loads(body) for text in comments
                 for name, body in re.findall(r"(\S+\.json): (.*)", text)}


def test_documented_commands_parse(tmp_path, monkeypatch, capsys, entry_calls):
    # a renamed mode, lemma or option breaks a script or a README example,
    # and so does an option or config key its entry does not read, or a
    # value its checks refuse
    commands, configs = _documented_commands()
    assert {where.split(":")[0] for where, _ in commands} >= {
        "README.md", "cg_tables.sh", "lattice_scans.sh", "strichartz_suite.sh"}
    parser = cli._build_parser()
    calls = entry_calls
    monkeypatch.chdir(tmp_path)
    for name, config in configs.items():
        (tmp_path / name).write_text(json.dumps(config))
    for where, argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{where} does not parse: {argv}")
        if argv[0] == "rerun":
            continue
        calls.clear()
        code = cli.main([*argv, "--out", str(tmp_path / "out")])
        assert code == 0 and len(calls) == 1, f"{where}: {capsys.readouterr().err}"
