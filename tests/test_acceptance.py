"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured quantities and elapsed time (run with -s to see them live).

Recorded constants (frozen from measurement, asserted stable), from the
gate table s3lab.gates that the CLI gates with too:
  bilinear C*      <= 1.05   (witness-included cell maxima sit at 1.0)
  trilinear ratio  <= 1.25   (measured max 1.00, at constant factors)
  annulus measure/K <= 8     (measured max ~4.2 over 1e4 queries)
  resonant-set ratio <= 60   (measured max ~27 over the grid)
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from s3lab.su2 import haar_quadrature, haar_samples
from s3lab import bilinear, lattice, strichartz
from s3lab.clebsch import (
    block_diagonalization_defect,
    casimir_projectors,
    cg_decompose,
    cg_table,
    chain_projectors,
    verify_orthogonality,
)
from s3lab.gates import (
    ANNULUS_BOUND,
    BOX_SPREAD_BOUND,
    C_STAR_BOUND,
    CG_DEFECT_BOUND,
    CROSS_CHECK_TOL,
    EXPONENT_BOUND,
    GALILEAN_TOL,
    GAMMA_MASS_TOL,
    ORACLE_DEFECT_BOUND,
    PLANCHEREL_REFINED_TOL,
    PLANCHEREL_TOL,
    POINTWISE_BOUND,
    SETB_BOUND,
    SLOPE_BOUND,
    TRILINEAR_BOUND,
    ZONAL_FLOOR,
)
from s3lab.reporting import file_sha256


def _report(num, detail, t0, budget):
    elapsed = time.time() - t0
    print(f"\n[acceptance] criterion {num}: PASS  ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    assert elapsed <= budget, f"criterion {num} exceeded its runtime budget: {elapsed:.1f}s"


def test_criterion_1_cg_structural_suite():
    t0 = time.time()
    worst_row = worst_col = 0.0
    count = 0
    for s in range(0, 61):
        for n in range(0, s // 2 + 1):
            m = s - n
            table = cg_decompose(m, n)
            count += 1
            # dimension identity, exact
            assert table.dimension_identity()
            # triangle support, exact: rows with k < |gamma| are structural zeros
            for t, gamma in enumerate(table.gammas):
                bad = np.abs(gamma) > table.kvals
                if bad.any():
                    assert np.all(table.blocks[t][bad] == 0.0)
            rep = verify_orthogonality(table)
            # np.maximum propagates a NaN; the builtin max may drop it
            worst_row = np.maximum(worst_row, rep["max_row_defect"])
            worst_col = np.maximum(worst_col, rep["max_col_defect"])
            # weight conservation, exact, spot-checked through the keyed lookup
            if (m + n) % 17 == 0:
                for rec in table.records():
                    assert rec[4] + rec[5] == rec[3]
                assert table.coefficient(m + n, m + n, m, n - 2 if n else 0) in (0.0, 1.0)
    assert worst_row <= CG_DEFECT_BOUND and worst_col <= CG_DEFECT_BOUND
    _report(1, f"{count} tables, defects <= {max(worst_row, worst_col):.2e}", t0, 60)


def test_criterion_2_cg_oracle_equivalence():
    t0 = time.time()
    # projector equivalence for (m+1)(n+1) <= 256
    pairs = [(m, n) for n in range(0, 16) for m in range(n, 256 // (n + 1))
             if (m + 1) * (n + 1) <= 256]
    worst = 0.0
    for m, n in pairs:
        table = cg_decompose(m, n)
        P_cg = chain_projectors(table)
        P_or = casimir_projectors(m, n)
        for k in P_cg:
            worst = max(worst, float(np.max(np.abs(P_cg[k] - P_or[k]))))
    assert worst <= ORACLE_DEFECT_BOUND
    # block diagonalization into D^k blocks over 20 seeded elements, one
    # stacked product per table; the runtime budget pins this to the
    # m + n <= 20 equivariance grid
    gs = haar_samples(20, 2024)
    # np.max propagates a NaN; the builtin max may drop it
    worst_bd = np.max([block_diagonalization_defect(cg_table(s - n, n), gs)
                       for s in range(0, 21) for n in range(0, s // 2 + 1)])
    assert worst_bd <= ORACLE_DEFECT_BOUND
    _report(2, f"{len(pairs)} projector pairs ({worst:.2e}), blockdiag defect {worst_bd:.2e}", t0, 120)


def test_criterion_3_bilinear_exactness():
    t0 = time.time()
    rels, pts = [], []
    quads = {}
    for m in range(0, 9):
        for n in range(0, m + 1):
            L = max(32, 4 * (m + n) + 8)
            if L not in quads:
                quads[L] = haar_quadrature((L, L, L))
            q = quads[L]
            table = cg_table(m, n)
            for s in range(50):
                f = bilinear.random_eigenfunction(m, [3, m, n, s])
                g = bilinear.random_eigenfunction(n, [4, m, n, s])
                exact = bilinear.product_l2_exact(f, g, table)
                quad = bilinear.product_l2_quadrature(f, g, q)
                rels.append(abs(exact - quad) / max(exact, 1e-300))
            f = bilinear.random_eigenfunction(m, [5, m, n])
            g = bilinear.random_eigenfunction(n, [6, m, n])
            dec = bilinear.product_decompose(f, g, table)
            for pt in haar_samples(50, 100 * m + n):
                lhs = bilinear.evaluate(f, pt) * bilinear.evaluate(g, pt)
                pts.append(abs(lhs - dec.evaluate(pt)))
    # np.max propagates a NaN; the builtin max may drop it
    worst_rel, worst_pt = np.max(rels), np.max(pts)
    assert worst_rel <= CROSS_CHECK_TOL
    assert worst_pt <= POINTWISE_BOUND
    _report(3, f"45 cells x 50 pairs, quadrature rel {worst_rel:.2e}, pointwise {worst_pt:.2e}", t0, 120)


def test_criterion_4_no_log_check():
    t0 = time.time()
    # the CLI defaults of bilinear-verify, with the zonal sweep
    rows, summary = bilinear.scan_cells(64, 64, 500, 7, zonal=True, zonal_n_max=60)
    c_star, slope, zonal_min = summary["C_star"], summary["fitted_slope"], summary["zonal_min"]
    assert c_star <= C_STAR_BOUND
    assert -SLOPE_BOUND <= slope <= SLOPE_BOUND
    assert zonal_min >= ZONAL_FLOOR
    # the random pairs alone, at n >= 4: at n = 0 g is constant and every ratio is 1
    random_ratios = {}
    for row in rows:
        if row["seed"] != "zonal" and row["n"] >= 4:
            random_ratios.setdefault((row["m"], row["n"]), []).append(row["ratio"])
    # np.max and np.min propagate a NaN; the builtins may drop it
    random_max = [np.max(ratios) for ratios in random_ratios.values()]
    _report(
        4,
        f"C* = {c_star:.6f}, slope {slope:+.4f}, zonal floor {zonal_min:.4f}, "
        f"random-only maxima decay from {np.max(random_max):.3f} to {np.min(random_max):.3f}",
        t0, 600,
    )


def test_criterion_5_multilinear_corollary():
    t0 = time.time()
    quads = {}
    worst = 0.0
    for m1 in range(0, 9):
        for m2 in range(0, m1 + 1):
            for m3 in range(0, m2 + 1):
                L = max(32, 4 * (m1 + m2 + m3) + 8)
                if L not in quads:
                    quads[L] = haar_quadrature((L, L, L))
                for s in range(3):
                    fs = [
                        bilinear.random_eigenfunction(m1, [m1, m2, m3, s, 1]),
                        bilinear.random_eigenfunction(m2, [m1, m2, m3, s, 2]),
                        bilinear.random_eigenfunction(m3, [m1, m2, m3, s, 3]),
                    ]
                    val = bilinear.multilinear_l2_quadrature(fs, quads[L])
                    worst = max(worst, val / (np.sqrt(m2 + 1.0) * (m3 + 1.0)))
    assert worst <= TRILINEAR_BOUND
    _report(5, f"165 triples x 3 seeds, max trilinear ratio {worst:.4f}", t0, 120)


def test_criterion_6_lattice_lemma_scans():
    t0 = time.time()
    scan_s = {}

    def timed_scan(lemma, scan, **kwargs):
        start = time.time()
        _, summary = scan(seed=3, **kwargs)
        scan_s[lemma] = time.time() - start
        return summary

    s51 = timed_scan("5.1", lattice.scan_lemma51, n_queries=10000)
    assert s51["max_ratio"] <= ANNULUS_BOUND
    s52a = timed_scan("5.2a", lattice.scan_lemma52, Ns=[64, 128, 256, 512], per_n=1000,
                      variant="quadric")
    s52b = timed_scan("5.2b", lattice.scan_lemma52, Ns=[64, 128, 256, 512], per_n=1000,
                      variant="hyperbola")
    assert s52a["fitted_exponent"] <= EXPONENT_BOUND
    assert s52b["fitted_exponent"] <= EXPONENT_BOUND
    s53 = timed_scan("5.3", lattice.scan_lemma53, Ns=[64, 128, 256, 512, 1024], delta=0.1,
                     per_config=4)
    assert s53["fitted_slope"] <= SLOPE_BOUND
    assert max(s53["max_ratio_per_N"].values()) <= SETB_BOUND
    _report(
        6,
        f"5.1 max {s51['max_ratio']:.3f}, 5.2 exponents {s52a['fitted_exponent']:+.3f}/"
        f"{s52b['fitted_exponent']:+.3f}, 5.3 slope {s53['fitted_slope']:+.4f} "
        f"(cases {sorted(s53['case_max'])}); scans "
        + ", ".join(f"{lemma} {t:.2f}s" for lemma, t in scan_s.items()),
        t0, 300,
    )


def test_criterion_7_strichartz_suite(monkeypatch):
    t0 = time.time()
    # Plancherel identity, <= 32-node packets, within 2%; refinement to 0.5%
    mismatches = []
    for seed in (7, 8, 9):
        p = strichartz.sparse_packet(seed, 28, 5.0, 0.5)
        freq = strichartz.quadrilinear_form_frequency(p, 0)
        n_t = strichartz.anti_alias_nt(p, 0, "elliptic", -240.0, 240.0)
        res = strichartz.evolve_l4_norm(p, 0, "elliptic", (-240.0, 240.0, n_t))
        mismatches.append(abs(res.quartic - freq) / freq)
    # np.max propagates a NaN; the builtin max may drop it
    worst_pl = np.max(mismatches)
    assert worst_pl <= PLANCHEREL_TOL
    p = strichartz.sparse_packet(7, 28, 5.0, 0.25)
    freq = strichartz.quadrilinear_form_frequency(p, 0)
    n_t = 2 * strichartz.anti_alias_nt(p, 0, "elliptic", -240.0, 240.0)
    res = strichartz.evolve_l4_norm(p, 0, "elliptic", (-240.0, 240.0, n_t))
    refined = abs(res.quartic - freq) / freq
    assert refined <= PLANCHEREL_REFINED_TOL

    # kernel cover, exact on every enumerated tuple
    tuples = 0
    for seed in (3, 4, 5):
        rep = strichartz.kernel_split_diagnostics(strichartz.sparse_packet(seed, 20, 6.0, 0.5), 2)
        assert rep.cover_ok
        assert rep.K1_part + rep.K2_part >= rep.gamma_total - GAMMA_MASS_TOL
        tuples += rep.tuple_count

    # quotient scan, no growth in N
    t_ell = time.time()
    _, summ = strichartz.scan_strichartz_quotients(
        [8, 16, 32, 64], 0.1, 6, seed=7, h=0.125, t_window=(-60.0, 60.0, 8192))
    t_ell = time.time() - t_ell
    assert summ["fitted_slope"] <= SLOPE_BOUND

    # box example tracks N^{1/4} within a factor 2
    t_box = time.time()
    box_rows, box = strichartz.box_scaling_probe([4, 8, 16, 32], h=0.25)
    t_box = time.time() - t_box
    assert box["spread_factor"] <= BOX_SPREAD_BOUND

    # hyperbolic quotients bounded for N <= 64; the N = 64 evaluations are
    # timed one by one to report the cost per time node
    quartic, n64 = strichartz._weighted_quartic, []

    def timed_quartic(pkt, *args, **kwargs):
        start = time.perf_counter()
        out = quartic(pkt, *args, **kwargs)
        if pkt.grid.xi2_max == 64:
            n64.append(time.perf_counter() - start)
        return out

    monkeypatch.setattr(strichartz, "_weighted_quartic", timed_quartic)
    t_hyp = time.time()
    _, hyp = strichartz.scan_hyperbolic_quotients(
        [4, 8, 16, 32, 64], 2, seed=5, h=0.5, t_window=(-60.0, 60.0, 4096))
    t_hyp = time.time() - t_hyp
    monkeypatch.undo()
    ms_per_node = 1e3 * sum(n64) / (len(n64) * 4097)
    assert hyp["fitted_slope"] <= SLOPE_BOUND

    # Galilean invariance
    slab = strichartz.SlabSpec(xi0=(0.0, 0), a=(0.6, 0.8), c=0.2, M=2.0, N=6.0)
    grid = strichartz.grid_for_slab(slab, h=0.25)
    pk = strichartz.sample_slab_packet(slab, grid, "gaussian-random", 11)
    w = (-60.0, 60.0, 2048)
    base = strichartz.evolve_l4_norm(pk, 4, "elliptic", w).value
    sh2 = strichartz.evolve_l4_norm(strichartz.shift_packet_xi2(pk, 3), -2, "elliptic", w).value
    sh1 = strichartz.evolve_l4_norm(strichartz.shift_packet_xi1(pk, 6), 4, "elliptic", w).value
    gal = np.max([abs(sh2 - base), abs(sh1 - base)]) / base
    assert gal <= GALILEAN_TOL

    rest = time.time() - t0 - t_ell - t_box - t_hyp
    _report(
        7,
        f"Plancherel {worst_pl:.4f}/refined {refined:.4f}, {tuples} Gamma tuples covered, "
        f"quotient slope {summ['fitted_slope']:+.4f}, box spread {box['spread_factor']:.3f}, "
        f"hyperbolic slope {hyp['fitted_slope']:+.4f}, Galilean {gal:.1e}; "
        f"elliptic scan {t_ell:.1f}s, hyperbolic scan {t_hyp:.1f}s "
        f"({ms_per_node:.2f} ms per time node at N=64), box probe {t_box:.1f}s "
        f"({'/'.join(str(r['n_t']) for r in box_rows)} time nodes), rest {rest:.1f}s",
        t0, 900,
    )


def test_criterion_8_cli_determinism(tmp_path):
    t0 = time.time()
    checked = 0
    configs = [
        (["cg-table", "9", "5"], "cg_table_m9_n5"),
        (["lattice-scan", "--lemma", "5.1", "--seed", "4", "--n-queries", "400"], "lattice_5_1"),
        (["strichartz", "--mode", "kernel-split", "--seed", "6"], "strichartz_kernel_split"),
        (["bilinear-verify", "--m-max", "8", "--n-max", "4", "--seeds", "5", "--seed", "2"],
         "bilinear_verify"),
    ]
    for args, name in configs:
        first = tmp_path / f"{name}_a"
        second = tmp_path / f"{name}_b"
        r1 = subprocess.run([sys.executable, "-m", "s3lab.cli", *args, "--out", str(first)],
                            capture_output=True, text=True)
        assert r1.returncode == 0, r1.stderr
        r2 = subprocess.run(
            [sys.executable, "-m", "s3lab.cli", "rerun",
             str(first / f"{name}.manifest.json"), "--out", str(second)],
            capture_output=True, text=True)
        assert r2.returncode == 0, r2.stderr
        for suffix in (".csv", ".summary.json"):
            assert file_sha256(first / f"{name}{suffix}") == file_sha256(second / f"{name}{suffix}"), \
                f"{name}{suffix} differs between runs"
            checked += 1
    _report(8, f"{checked} output files byte-identical on manifest re-run", t0, 240)
