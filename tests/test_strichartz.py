import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings, strategies as stn

import s3lab.strichartz as st

SETTINGS = dict(max_examples=20, deadline=None, database=None, derandomize=True)


def test_fejer_weight_values():
    assert st.fejer_weight(0.0) == pytest.approx(2.0)
    assert st.fejer_weight(1.0) == pytest.approx(2.0 * (np.sin(0.5) / 0.5) ** 2)
    assert st.fejer_weight(1.0) == pytest.approx(1.8390, abs=5e-4)
    ts = np.linspace(-200, 200, 4001)
    assert (st.fejer_weight(ts) >= 0).all()
    assert st.fejer_weight(np.linspace(0, 1, 256)).min() >= 1.0


def test_fejer_hat_triangle():
    assert st.fejer_hat(0.0) == pytest.approx(2.0)
    assert st.fejer_hat(1.5) == 0.0
    assert st.fejer_hat(-0.25) == pytest.approx(1.5)
    taus = np.linspace(-3, 3, 1001)
    assert (st.fejer_hat(taus) >= 0).all()
    assert (st.fejer_hat(taus[np.abs(taus) > 1.0]) == 0).all()


def test_fejer_transform_pair():
    # quadrature check of phi_hat(tau) = (1/2pi) int phi(t) exp(-i tau t) dt
    ts = np.linspace(-3000.0, 3000.0, 1_200_001)
    phi = st.fejer_weight(ts)
    for tau in (0.0, 0.3, 0.9, 1.4):
        val = np.trapezoid(phi * np.exp(-1j * tau * ts), ts) / (2 * np.pi)
        assert abs(val - st.fejer_hat(tau)) < 2e-3


def test_fejer_tail_matches_quadrature():
    ts = np.linspace(60.0, 50_000.0, 2_000_001)
    tail = 2.0 * np.trapezoid(st.fejer_weight(ts), ts)
    tail += 2.0 * 4.0 / 50_000.0  # mean remainder of 4(1 - cos t)/t^2 past the cutoff
    assert st.fejer_tail(60.0) == pytest.approx(tail, rel=1e-3)


def test_slab_validation():
    with pytest.raises(ValueError):
        st.SlabSpec(xi0=(0.0, 0), a=(0.0, 0.0), c=0.0, M=1.0, N=2.0)
    with pytest.raises(ValueError):
        st.SlabSpec(xi0=(0.0, 0), a=(1.0, 0.0), c=0.0, M=4.0, N=2.0)
    s = st.SlabSpec(xi0=(0.0, 0), a=(3.0, 4.0), c=0.0, M=1.0, N=2.0)
    assert np.hypot(*s.a) == pytest.approx(1.0)


def test_packet_sampling_unit_norm_and_support():
    slab = st.SlabSpec(xi0=(1.0, 2), a=(0.0, 1.0), c=2.0, M=1.0, N=8.0)
    grid = st.grid_for_slab(slab, h=0.25)
    p = st.sample_slab_packet(slab, grid, "indicator")
    assert p.l2_norm() == pytest.approx(1.0, abs=1e-12)
    _, rows, _ = p.support()
    assert len(np.unique(rows)) <= 3  # strip of width M=1 along xi2: <= 3 integer rows
    pr = st.sample_slab_packet(slab, grid, "gaussian-random", 4)
    assert pr.l2_norm() == pytest.approx(1.0, abs=1e-12)


def test_packet_sampling_errors():
    slab = st.SlabSpec(xi0=(0.0, 0), a=(1.0, 0.0), c=50.0, M=1.0, N=4.0)
    grid = st.grid_for_slab(slab, h=0.5)
    with pytest.raises(ValueError):
        st.sample_slab_packet(slab, grid, "indicator")  # band misses the disk
    slab2 = st.SlabSpec(xi0=(0.0, 0), a=(1.0, 0.0), c=0.0, M=2.0, N=2.0)
    with pytest.raises(ValueError):
        st.sample_slab_packet(slab2, grid, "bogus-mode")
    small = st.FrequencyGrid(h=0.5, xi1_extent=1.0, xi2_min=-1, xi2_max=1)
    with pytest.raises(ValueError):
        st.sample_slab_packet(slab2, small, "indicator")  # grid does not cover


@given(stn.floats(min_value=1.0, max_value=8.0), stn.floats(min_value=0.0, max_value=4.0))
@settings(**SETTINGS)
def test_slab_monotone_in_m(M, extra):
    N = 10.0
    slab1 = st.SlabSpec(xi0=(0.0, 0), a=(0.6, 0.8), c=0.5, M=M, N=N)
    slab2 = st.SlabSpec(xi0=(0.0, 0), a=(0.6, 0.8), c=0.5, M=min(M + extra, N), N=N)
    grid = st.grid_for_slab(slab1, h=0.5)
    m1 = st.slab_mask(slab1, grid)
    m2 = st.slab_mask(slab2, grid)
    assert not np.any(m1 & ~m2)  # node-set inclusion, exact


def _full_grid_mask(slab, grid):
    """Oracle: the slab test on the whole grid at once."""
    x1 = grid.xi1[None, :]
    x2 = grid.xi2[:, None].astype(float)
    d2 = (x1 - slab.xi0[0]) ** 2 + (x2 - slab.xi0[1]) ** 2
    band = np.abs(slab.a[0] * x1 + slab.a[1] * x2 - slab.c)
    return (d2 <= slab.N**2 + 1e-9) & (band <= slab.M + 1e-9)


def test_row_blocked_mask_matches_the_full_grid(monkeypatch):
    # even draws: a budget of a third of a row plus one, so a row spans
    # three or four blocks, mostly with a short last one; odd draws: three
    # rows and one entry, so the last row block is mostly short
    rng = np.random.default_rng(23)
    split_rows = short_blocks = 0
    for draw in range(200):
        N = int(rng.integers(2, 65))
        h = float(rng.choice([0.125, 0.25, 0.3, 0.5]))
        M = float(rng.uniform(1.0, N))
        slab = st._random_slab(float(N), M, 0.1, rng, h, boundary=(draw % 3 == 2))
        grid = st.grid_for_slab(slab, h)
        rows, cols = len(grid.xi2), len(grid.xi1)
        budget = cols // 3 + 1 if draw % 2 == 0 else 3 * cols + 1
        monkeypatch.setattr(st, "_CHUNK_ENTRIES", budget)
        split_rows += budget < cols
        short_blocks += (cols % budget if budget < cols else rows % 3) != 0
        assert np.array_equal(st.slab_mask(slab, grid), _full_grid_mask(slab, grid))
    assert split_rows == 100 and short_blocks >= 150


@pytest.mark.parametrize("mode", ["indicator", "gaussian-random"])
def test_slab_packet_values_are_the_full_array_formula(mode):
    # dividing only the drawn nodes leaves the values bit for bit those of
    # dividing the whole array by sqrt(h) times its norm
    slab = st.SlabSpec(xi0=(0.5, 1), a=(0.6, 0.8), c=0.7, M=3.0, N=9.0)
    grid = st.grid_for_slab(slab, h=0.3)
    got = st.sample_slab_packet(slab, grid, mode, 31).values
    mask = _full_grid_mask(slab, grid)
    vals = np.zeros(mask.shape, dtype=complex)
    rng = np.random.default_rng(31)
    count = int(mask.sum())
    vals[mask] = 1.0 if mode == "indicator" else rng.standard_normal(count) + 1j * rng.standard_normal(count)
    vals /= np.sqrt(grid.h) * np.linalg.norm(vals)
    assert got.tobytes() == vals.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2, 31, 77])
def test_gaussian_draws_are_bitwise_the_complex_sum(monkeypatch, seed):
    # the real and imaginary parts written in place give, bit for bit and
    # signed zeros included, the values of a + 1j b with a drawn first
    slab = st.SlabSpec(xi0=(0.5, 1), a=(0.6, 0.8), c=0.7, M=3.0, N=9.0)
    grid = st.grid_for_slab(slab, h=0.3)
    mask = _full_grid_mask(slab, grid)
    rng = np.random.default_rng(seed)
    count = int(mask.sum())
    vals = np.zeros(mask.shape, dtype=complex)
    vals[mask] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    vals /= np.sqrt(grid.h) * np.linalg.norm(vals)
    got = st.sample_slab_packet(slab, grid, "gaussian-random", seed).values
    assert np.array_equal(got.view(np.int64), vals.view(np.int64))

    # the hyperbolic quotient's draws on [-3, 3]^2, three trials from one rng
    drawn = []
    monkeypatch.setattr(st, "_weighted_quartic",
                        lambda p, *a, **k: drawn.append(p.values) or st.EvolveResult(1.0, 1.0, 0.0, 1))
    st.hyperbolic_l4_quotient(3, 3, seed, h=0.5)
    rng = np.random.default_rng(seed)
    for values in drawn:
        ref = rng.standard_normal((7, 13)) + 1j * rng.standard_normal((7, 13))
        ref /= np.sqrt(0.5) * np.linalg.norm(ref)
        assert np.array_equal(values.view(np.int64), ref.view(np.int64))
    assert len(drawn) == 3


def test_slab_packet_draw_stays_under_3_5_mib():
    # the N = 64, M = N slab at h = 0.125 (102 206 nodes, a 2.05 MiB
    # packet): the draw peaked at 5.43 MiB with a + 1j b, and reads about
    # 2.96 MiB with the parts written in place
    slab = st.SlabSpec(xi0=(0.0, 0), a=(1.0, 0.0), c=3.125, M=64.0, N=64.0)
    grid = st.grid_for_slab(slab, h=0.125)
    tracemalloc.start()
    try:
        p = st.sample_slab_packet(slab, grid, "gaussian-random", 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.support_count() == 102206
    assert peak <= 3.5 * 2**20


def _single_node_packet(h=0.5, xi1_steps=3, xi2=2, extent=4.0):
    grid = st.FrequencyGrid(h=h, xi1_extent=extent, xi2_min=-4, xi2_max=4)
    vals = np.zeros((9, 2 * grid.imax + 1), dtype=complex)
    vals[4 + xi2, grid.imax + xi1_steps] = 1.0 / np.sqrt(h)
    return st.WavePacket(grid=grid, values=vals)


def test_single_mode_closed_form():
    p = _single_node_packet()
    assert p.l2_norm() == pytest.approx(1.0)
    n_t = 2048
    res = st.evolve_l4_norm(p, 3, "elliptic", (-60.0, 60.0, n_t))
    # one frequency: |u| = h |V| everywhere, so the quartic is
    # (h|V|)^4 (2 pi / h) int_window phi, with the same Simpson rule
    ts, sw = st._simpson_weights(-60.0, 60.0, n_t)
    int_phi = float(sw @ st.fejer_weight(ts))
    h = p.grid.h
    closed = ((h / np.sqrt(h)) ** 4 * (2 * np.pi / h) * int_phi) ** 0.25
    assert res.value == pytest.approx(closed, rel=1e-6)


@pytest.mark.parametrize("dispersion", ["elliptic", "hyperbolic"])
def test_single_mode_torus_closed_form(dispersion):
    # one frequency: |u| = h |V| on the whole (x1, x2) torus, so the torus
    # quartic is 2 pi times the slice closed form
    p = _single_node_packet()
    n_t = 2048
    res = st._weighted_quartic(p, 3, dispersion, (-60.0, 60.0, n_t), x2_torus=True)
    ts, sw = st._simpson_weights(-60.0, 60.0, n_t)
    int_phi = float(sw @ st.fejer_weight(ts))
    h = p.grid.h
    closed = 2 * np.pi * (h / np.sqrt(h)) ** 4 * (2 * np.pi / h) * int_phi
    assert res.quartic == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("dispersion", ["elliptic", "hyperbolic"])
def test_one_row_torus_is_2pi_times_slice(dispersion):
    # a single xi2 row makes |u| independent of x2
    grid = st.FrequencyGrid(h=0.5, xi1_extent=4.0, xi2_min=-3, xi2_max=3)
    rng = np.random.default_rng(2)
    vals = np.zeros((7, 17), dtype=complex)
    vals[5] = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    p = st.WavePacket(grid=grid, values=vals)
    w = (-30.0, 30.0, 512)
    slice_q = st._weighted_quartic(p, 1, dispersion, w, x2_torus=False).quartic
    torus_q = st._weighted_quartic(p, 1, dispersion, w, x2_torus=True).quartic
    assert abs(torus_q - 2 * np.pi * slice_q) <= 1e-13 * torus_q


def _direct_torus_quartic(p, k, dispersion, t_window):
    """Oracle: |u|^4 by explicit exponential sums on (x1, x2) grids twice as
    fine as exactness needs, with the same Simpson rule in t."""
    t0, t1, n_t = t_window
    ts, sw = st._simpson_weights(t0, t1, n_t)
    cols, rows, vals = p.support()
    xi1 = p.grid.h * cols
    xi2 = rows.astype(float)
    lam = xi1**2 + (xi2**2 + k * xi2 if dispersion == "elliptic" else -(xi2**2))
    nx = 8 * int(np.max(np.abs(cols))) + 1
    ny = 8 * int(np.max(np.abs(rows))) + 1
    x1 = p.grid.period * np.arange(nx) / nx
    x2 = 2 * np.pi * np.arange(ny) / ny
    space = np.exp(1j * (x1[:, None, None] * xi1 + x2[None, :, None] * xi2))
    total = 0.0
    for t, w in zip(ts, sw):
        u = space @ (p.grid.h * vals * np.exp(-1j * t * lam))
        total += w * st.fejer_weight(t) * np.sum(np.abs(u) ** 4)
    return total * (p.grid.period / nx) * (2 * np.pi / ny)


@pytest.mark.parametrize("dispersion", ["elliptic", "hyperbolic"])
def test_torus_quartic_matches_direct_sum(dispersion):
    p = st.sparse_packet(4, 14, 3.0, 0.5)
    w = (-10.0, 10.0, 64)
    res = st._weighted_quartic(p, 2, dispersion, w, x2_torus=True)
    assert res.quartic == pytest.approx(_direct_torus_quartic(p, 2, dispersion, w), rel=1e-12)


def test_torus_refuses_too_few_time_intervals():
    with pytest.raises(ValueError, match="64 time intervals"):
        st.hyperbolic_l4_quotient(4, 1, 0, t_window=(-60.0, 60.0, 32))


def _reference_quartic(p, k, dispersion, t_window, x2_torus):
    """Oracle: the direct form of the evaluator, with a complex exp per
    (time node, frequency), FFT lengths P = 4 max|xi1 index| + 2 and
    Q = 4 max|xi2| + 2 about frequency 0, and the columns scattered into a
    zeroed buffer.  ``t_window=None`` takes the periodic-exact rule's
    q (2 spread + 1) nodes on one period 2 pi q, weighted by the closed
    form of the periodized Fejer weight."""
    if t_window is None:
        q = st.lattice_q(p.grid.h)
        n = round(q * (2 * st.lambda_spread(p, k, dispersion) + 1))
        ts = 2 * np.pi * q * np.arange(n) / n
        with np.errstate(invalid="ignore", divide="ignore"):
            w_T = 2 * (np.sin(ts / 2) / (q * np.sin(ts / (2 * q)))) ** 2
        w_T[0] = 2.0
        weights = (2 * np.pi * q / n) * w_T
    else:
        ts, sw = st._simpson_weights(*t_window)
        weights = sw * st.fejer_weight(ts)
    mu, colsq = st._lambda_rows_cols(p, k, dispersion)
    rows = np.flatnonzero(np.any(p.values != 0, axis=1))
    cols = np.flatnonzero(np.any(p.values != 0, axis=0))
    V = p.values[np.ix_(rows, cols)]
    mu, colsq = mu[rows], colsq[cols]
    cidx = cols - p.grid.imax
    P = 4 * int(np.max(np.abs(cidx))) + 2
    xi2 = (rows + p.grid.xi2_min).astype(float)
    Q = 4 * int(np.max(np.abs(xi2))) + 2 if x2_torus else 1
    dvol = p.grid.period / P * (2 * np.pi / Q if x2_torus else 1.0)
    yph = np.exp(1j * (2 * np.pi / Q) * np.arange(Q)[:, None] * xi2[None, :])
    total = 0.0
    for t, w in zip(ts, weights):
        W = (yph * np.exp(-1j * t * mu)) @ V * (p.grid.h * np.exp(-1j * t * colsq))
        buf = np.zeros((Q, P), dtype=complex)
        buf[:, np.mod(cidx, P)] = W
        u = P * np.fft.ifft(buf, axis=1)
        total += w * dvol * np.sum(np.abs(u) ** 4)
    return total


def _gapped_packet(seed):
    """Five nodes spread over far-apart rows and columns of a wide grid."""
    grid = st.FrequencyGrid(h=0.5, xi1_extent=12.0, xi2_min=-9, xi2_max=9)
    rng = np.random.default_rng(seed)
    vals = np.zeros((19, 2 * grid.imax + 1), dtype=complex)
    vals[[0, 3, 3, 11, 18], [2, 3, 30, 47, 40]] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    return st.WavePacket(grid=grid, values=vals)


_ORACLE_PACKETS = {
    "centred": lambda: st.sparse_packet(11, 20, 5.0, 0.5),
    "off-centre": lambda: st.shift_packet_xi1(st.shift_packet_xi2(st.sparse_packet(12, 14, 4.0, 0.5), 6), 13),
    "gapped": lambda: _gapped_packet(13),
}


@pytest.mark.parametrize("x2_torus", [False, True])
@pytest.mark.parametrize("dispersion", ["elliptic", "hyperbolic"])
@pytest.mark.parametrize("name", sorted(_ORACLE_PACKETS))
def test_quartic_matches_direct_reference(name, dispersion, x2_torus):
    p = _ORACLE_PACKETS[name]()
    # 1025 and 301 nodes: neither is a multiple of the phase tables' step count S
    for w in [(-60.0, 60.0, 1024), (-7.0, 31.0, 300)]:
        got = st._weighted_quartic(p, 3, dispersion, w, x2_torus).quartic
        ref = _reference_quartic(p, 3, dispersion, w, x2_torus)
        assert abs(got - ref) <= 1e-12 * ref


def _rows_packet(rows, seed):
    """Random values on the xi2 rows ``rows`` of a grid with xi2 in [-4, 4]
    and xi1 in [-3, 3] at h = 0.5, on 9 of its 13 columns."""
    grid = st.FrequencyGrid(h=0.5, xi1_extent=3.0, xi2_min=-4, xi2_max=4)
    rng = np.random.default_rng(seed)
    vals = np.zeros((9, 13), dtype=complex)
    r = np.asarray(rows) + 4
    vals[r, 2:11] = rng.standard_normal((len(r), 9)) + 1j * rng.standard_normal((len(r), 9))
    return st.WavePacket(grid=grid, values=vals)


@pytest.mark.parametrize("t_window", [(-20.0, 20.0, 256), None], ids=["windowed", "periodic-exact"])
@pytest.mark.parametrize("dispersion", ["elliptic", "hyperbolic"])
@pytest.mark.parametrize("rows", [(-3, 0, 2), (-4, 4), (1,)], ids=["gaps", "two-ends", "one-row"])
def test_torus_fft_path_matches_reference(rows, dispersion, t_window):
    # the row span's dead rows stay zero in the xi2 FFT; a single live row
    # makes the torus FFT length Q = 1
    p = _rows_packet(rows, 41)
    got = st._weighted_quartic(p, 2, dispersion, t_window, x2_torus=True).quartic
    ref = _reference_quartic(p, 2, dispersion, t_window, True)
    assert abs(got - ref) <= 1e-12 * ref


def test_hyperbolic_n64_evaluation_stays_under_6_mib():
    # one N = 64 draw and torus evaluation: a 129 x 257 block, Q = 270 and
    # P = 540, so each time chunk holds one node, in one zeroed Q x P
    # buffer, two nodes at a time on two CPUs.  The traced peak reads about
    # 5.5 MiB on two CPUs and 3.1 MiB on one; it read 3.7 MiB with one node
    # at a time and both passes in fresh arrays, and 4.7 MiB with the x2
    # sum as a DFT-matrix product
    tracemalloc.start()
    try:
        _, best = st.hyperbolic_l4_quotient(64, 1, 9, t_window=(-60.0, 60.0, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert best["max_quotient"] > 0.0
    assert peak <= 6 * 2**20


def test_box_quartic_at_anti_alias_nt_matches_reference():
    # 39192 intervals of the N = 16 box span 159 time chunks of 248 nodes, the
    # last one short; S = 198 steps, so each full chunk has a partial base block
    p = st.box_packet(16, h=0.25)
    n_t = st.anti_alias_nt(p, 0, "elliptic", -60.0, 60.0)
    got = st.evolve_l4_norm(p, 0, "elliptic", (-60.0, 60.0, n_t)).quartic
    ref = _reference_quartic(p, 0, "elliptic", (-60.0, 60.0, n_t), False)
    assert abs(got - ref) <= 1e-12 * ref


@pytest.mark.parametrize("dispersion", ["elliptic", "hyperbolic"])
def test_one_node_chunks_match_reference(dispersion):
    # rows span 40 and columns 1620: Q P = 81 * 3267 exceeds the chunk
    # budget, so every time chunk holds a single node
    grid = st.FrequencyGrid(h=0.5, xi1_extent=405.0, xi2_min=-20, xi2_max=20)
    rng = np.random.default_rng(17)
    vals = np.zeros((41, 1621), dtype=complex)
    vals[[0, 5, 20, 33, 40], [0, 400, 810, 1300, 1620]] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    p = st.WavePacket(grid=grid, values=vals)
    assert 81 * sfft.next_fast_len(2 * 1620 + 1) > st._CHUNK_ENTRIES
    w = (-10.0, 10.0, 64)
    got = st._weighted_quartic(p, 1, dispersion, w, x2_torus=True).quartic
    assert abs(got - _reference_quartic(p, 1, dispersion, w, True)) <= 1e-12 * got


def _slab_slice_quartic():
    slab = st.SlabSpec(xi0=(0.0, 0), a=(0.6, 0.8), c=0.2, M=3.0, N=8.0)
    p = st.sample_slab_packet(slab, st.grid_for_slab(slab, h=0.25), "gaussian-random", 3)
    return st.evolve_l4_norm(p, 2, "elliptic", (-60.0, 60.0, 2048))


_BUDGET_CASES = {
    # nodes per chunk at budgets 2^10, 2^16 and 2^20: the slice's 2049 in
    # chunks of 8, 546 or all; the torus's 513 in chunks of 1, 110 or all;
    # the periodic-exact rule's 4800 in chunks of 5, 346 or all
    "slice": _slab_slice_quartic,
    "torus": lambda: st._weighted_quartic(
        st.box_packet(4, h=0.5), 0, "hyperbolic", (-30.0, 30.0, 512), x2_torus=True),
    "periodic-exact": lambda: st.evolve_l4_norm_exact(st.sparse_packet(3, 64, 12.0, 0.25), 1),
}


@pytest.mark.parametrize("case", sorted(_BUDGET_CASES))
def test_chunk_budget_does_not_change_the_quartic(monkeypatch, case):
    quartics = []
    for budget in (2**10, 2**16, 2**20):
        monkeypatch.setattr(st, "_CHUNK_ENTRIES", budget)
        quartics.append(_BUDGET_CASES[case]().quartic)
    assert max(quartics) - min(quartics) <= 1e-13 * max(quartics)


def test_slab_packet_draw_and_evaluation_stay_under_8_mib():
    # an N = 64, M = N slab at h = 0.125: 129 live rows and FFT length P =
    # 2000, the size of the elliptic scan's largest packets.  The traced
    # peak reads about 6.1 MiB with 1 MiB time chunks, 10.1 MiB with 4 MiB
    slab = st.SlabSpec(xi0=(0.0, 0), a=(1.0, 0.0), c=3.125, M=64.0, N=64.0)
    grid = st.grid_for_slab(slab, h=0.125)
    tracemalloc.start()
    try:
        p = st.sample_slab_packet(slab, grid, "gaussian-random", 5)
        res = st.evolve_l4_norm(p, 0, "elliptic", (-60.0, 60.0, 1024))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    live = p.values[np.any(p.values != 0, axis=1)]
    cols = np.flatnonzero(np.any(live != 0, axis=0))
    assert len(live) == 129 and sfft.next_fast_len(2 * int(cols[-1] - cols[0]) + 1) == 2000
    assert res.quartic > 0.0
    assert peak <= 8 * 2**20


@pytest.mark.parametrize("x2_torus", [False, True])
def test_single_column_packet(x2_torus):
    # one xi1 column gives FFT length P = 1; |u| does not depend on x1
    grid = st.FrequencyGrid(h=0.5, xi1_extent=4.0, xi2_min=-3, xi2_max=3)
    vals = np.zeros((7, 17), dtype=complex)
    vals[[1, 2, 6], 11] = [0.4 - 0.3j, 1.1, -0.2 + 0.9j]
    p = st.WavePacket(grid=grid, values=vals)
    w = (-20.0, 20.0, 256)
    got = st._weighted_quartic(p, 2, "elliptic", w, x2_torus).quartic
    assert abs(got - _reference_quartic(p, 2, "elliptic", w, x2_torus)) <= 1e-12 * got


@pytest.mark.parametrize("dispersion", ["elliptic", "hyperbolic"])
def test_torus_row_span_away_from_zero(dispersion):
    # rows xi2 in {2, 3, 5}: the span 3 sets Q, not max|xi2| = 5
    grid = st.FrequencyGrid(h=0.5, xi1_extent=3.0, xi2_min=-1, xi2_max=6)
    rng = np.random.default_rng(5)
    vals = np.zeros((8, 13), dtype=complex)
    vals[[3, 4, 6]] = rng.standard_normal((3, 13)) + 1j * rng.standard_normal((3, 13))
    vals[:, :4] = 0.0
    p = st.WavePacket(grid=grid, values=vals)
    w = (-10.0, 10.0, 64)
    got = st._weighted_quartic(p, 1, dispersion, w, x2_torus=True).quartic
    assert abs(got - _reference_quartic(p, 1, dispersion, w, True)) <= 1e-12 * got
    assert got == pytest.approx(_direct_torus_quartic(p, 1, dispersion, w), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 10, 65, 4097])
def test_phase_table_matches_exp(n):
    # S = ceil(sqrt(n)) divides none of 2, 10, 65, 4097: the last block is
    # partial; chunks of 2 S + 1 nodes start between two base rows
    ts = np.linspace(-60.0, 60.0, 4097)[:n]
    lam = np.array([-4096.0, -3.5, 0.0, 0.25, 17.0, 4160.0])
    S = math.isqrt(n - 1) + 1
    table = st._phase_chunks(ts, 120.0 / 4096, lam, S, 0.5)
    ref = 0.5 * np.exp(-1j * ts[:, None] * lam)
    assert table(0, n).shape == (n, len(lam))
    assert np.max(np.abs(table(0, n) - ref)) <= 1e-11
    chunked = np.concatenate([table(j0, min(j0 + 2 * S + 1, n)) for j0 in range(0, n, 2 * S + 1)])
    assert np.max(np.abs(chunked - ref)) <= 1e-11


@pytest.mark.parametrize("window", [
    (60.0, -60.0, 256), (5.0, 5.0, 256), (float("nan"), 60.0, 256),
    (-60.0, float("inf"), 256), (-float("inf"), float("inf"), 256),
])
@pytest.mark.parametrize("x2_torus", [False, True])
def test_window_refused_before_any_work(monkeypatch, window, x2_torus):
    calls = []
    monkeypatch.setattr(st, "_simpson_weights", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="t_min < t_max"):
        st._weighted_quartic(st.box_packet(2, 0.5), 0, "elliptic", window, x2_torus)
    assert calls == []


def test_fejer_tail_at_zero_is_the_total():
    assert st.fejer_tail(0.0) == st.FEJER_TOTAL
    assert st.fejer_tail(1e-9) == pytest.approx(st.FEJER_TOTAL, rel=1e-8)


@pytest.mark.parametrize("t0,t1", [(10.0, 60.0), (0.0, 60.0), (-30.0, 5.0), (-60.0, -2.0),
                                   (-60.0, 60.0), (-3.0, 40.0)])
def test_truncation_matches_quadrature(t0, t1):
    from scipy.integrate import quad

    inside = quad(st.fejer_weight, t0, t1, limit=400, epsabs=1e-13, epsrel=1e-13)[0]
    res = st.evolve_l4_norm(_single_node_packet(), 0, "elliptic", (t0, t1, 128))
    assert res.truncation_rel == pytest.approx(1.0 - inside / st.FEJER_TOTAL, abs=1e-10)


@pytest.mark.parametrize("T", [10.0, 60.0, 240.0, 7.3])
def test_symmetric_truncation_is_the_two_sided_tail(T):
    res = st.evolve_l4_norm(_single_node_packet(), 0, "elliptic", (-T, T, 128))
    assert res.truncation_rel == st.fejer_tail(T) / st.FEJER_TOTAL


def test_single_node_quadrilinear_closed_form():
    p = _single_node_packet()
    h = p.grid.h
    expected = (2 * np.pi) ** 2 * h**3 * st.fejer_hat(0.0) * (1 / np.sqrt(h)) ** 4
    assert st.quadrilinear_form_frequency(p, 5) == pytest.approx(expected, rel=1e-12)


def brute_quadrilinear(p, k):
    """Exhaustive four-fold loop oracle (hand-computation harness)."""
    cols, rows, vals = p.support()
    lam = (p.grid.h * cols) ** 2 + rows.astype(float) ** 2 + k * rows
    n = len(cols)
    total = 0.0 + 0.0j
    for i1 in range(n):
        for i3 in range(n):
            for i2 in range(n):
                for i4 in range(n):
                    if cols[i1] + cols[i3] != cols[i2] + cols[i4]:
                        continue
                    tau = lam[i1] + lam[i3] - lam[i2] - lam[i4]
                    total += (
                        st.fejer_hat(tau)
                        * vals[i1] * vals[i3] * np.conj(vals[i2] * vals[i4])
                    )
    return float(((2 * np.pi) ** 2 * p.grid.h**3 * total).real)


def test_empty_packet_has_no_pairs():
    grid = st.FrequencyGrid(h=0.5, xi1_extent=3.0, xi2_min=-2, xi2_max=2)
    p = st.WavePacket(grid=grid, values=np.zeros((5, 13)))
    assert st.quadrilinear_form_frequency(p, 0) == 0.0
    assert st.kernel_split_diagnostics(p, 0) == st.KernelSplitReport(0.0, 0.0, 0.0, 0, 0, 0, True, (0, 0, 0, 0))


def test_quadrilinear_two_node_hand_check():
    grid = st.FrequencyGrid(h=0.5, xi1_extent=3.0, xi2_min=-2, xi2_max=2)
    vals = np.zeros((5, 13), dtype=complex)
    vals[2 + 1, 6 + 2] = 0.7 + 0.2j
    vals[2 - 1, 6 - 1] = -0.3 + 0.9j
    p = st.WavePacket(grid=grid, values=vals)
    assert st.quadrilinear_form_frequency(p, 2) == pytest.approx(brute_quadrilinear(p, 2), rel=1e-12)


def test_quadrilinear_random_small_vs_brute():
    rng = np.random.default_rng(8)
    grid = st.FrequencyGrid(h=0.5, xi1_extent=3.0, xi2_min=-3, xi2_max=3)
    vals = np.zeros((7, 13), dtype=complex)
    sel = rng.choice(7 * 13, size=10, replace=False)
    vals.flat[sel] = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    p = st.WavePacket(grid=grid, values=vals)
    for k in (0, 3):
        assert st.quadrilinear_form_frequency(p, k) == pytest.approx(
            brute_quadrilinear(p, k), rel=1e-10
        )


def test_quadrilinear_support_cap(monkeypatch):
    grid = st.FrequencyGrid(h=0.5, xi1_extent=8.0, xi2_min=-8, xi2_max=8)
    vals = np.ones((17, 33), dtype=complex)
    p = st.WavePacket(grid=grid, values=vals)
    # the frequency side evaluates the 561-node box; the kernel split refuses it
    freq = st.quadrilinear_form_frequency(p, 0)
    assert abs(st.evolve_l4_norm_exact(p, 0).quartic - freq) <= 1e-12 * freq
    big = st.box_packet(64, h=0.5)
    assert big.support_count() == 33153
    one_column = st.WavePacket(grid=st.FrequencyGrid(h=0.5, xi1_extent=0.0, xi2_min=0, xi2_max=1448),
                               values=np.ones((1449, 1)))
    calls = []
    monkeypatch.setattr(st, "_support_lambda", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="561 nodes, exceeding the 64-node enumeration cap"):
        st.kernel_split_diagnostics(p, 0)
    for refused in (big, one_column):
        with pytest.raises(ValueError, match="8192-node or 2097152-pair frequency-side cap"):
            st.quadrilinear_form_frequency(refused, 0)
    assert calls == []


def test_sparse_packet():
    for n_nodes, N, h in [(24, 5.0, 0.5), (14, 3.0, 0.5), (1000, 2.0, 0.5)]:
        p = st.sparse_packet(9, n_nodes, N, h)
        disk = int(st.slab_mask(st.SlabSpec(xi0=(0.0, 0), a=(1.0, 0.0), c=0.0, M=N, N=N),
                                p.grid).sum())
        assert p.support_count() == min(n_nodes, disk)
        assert p.l2_norm() == pytest.approx(1.0, abs=1e-14)
        assert np.array_equal(st.sparse_packet(9, n_nodes, N, h).values, p.values)
    assert not np.array_equal(st.sparse_packet(10, 24, 5.0, 0.5).values,
                              st.sparse_packet(9, 24, 5.0, 0.5).values)


def test_plancherel_identity_and_refinement():
    p = st.sparse_packet(7, 24, 5.0, 0.5)
    freq = st.quadrilinear_form_frequency(p, 0)
    n_t = st.anti_alias_nt(p, 0, "elliptic", -240.0, 240.0)
    res = st.evolve_l4_norm(p, 0, "elliptic", (-240.0, 240.0, n_t))
    assert abs(res.quartic - freq) / freq <= 0.02
    # doubling n_t and halving h keeps the identity within 0.5%
    p2 = st.sparse_packet(7, 24, 5.0, 0.25)
    freq2 = st.quadrilinear_form_frequency(p2, 0)
    n_t2 = 2 * st.anti_alias_nt(p2, 0, "elliptic", -240.0, 240.0)
    res2 = st.evolve_l4_norm(p2, 0, "elliptic", (-240.0, 240.0, n_t2))
    assert abs(res2.quartic - freq2) / freq2 <= 0.005


# -- the periodic-exact time rule -------------------------------------------------

@pytest.mark.parametrize("seed,n_nodes,N,h,k", [
    # criterion 7's Plancherel packets, then the benchmark's 64-node ones
    (7, 28, 5.0, 0.5, 0), (8, 28, 5.0, 0.5, 0), (9, 28, 5.0, 0.5, 0), (7, 28, 5.0, 0.25, 0),
    (1, 64, 6.0, 0.5, 0), (2, 64, 6.0, 0.5, 3), (3, 64, 6.0, 0.25, -2),
    # q = 64: a period of 402 and a Lambda spread of 141 (18 112 nodes)
    (7, 64, 12.0, 0.125, 0),
    # a support at the size of the elliptic scan's packets
    (3, 2000, 24.0, 0.5, 0),
])
def test_exact_rule_equals_frequency_side(seed, n_nodes, N, h, k):
    p = st.sparse_packet(seed, n_nodes, N, h)
    res = st.evolve_l4_norm_exact(p, k)
    freq = st.quadrilinear_form_frequency(p, k)
    assert abs(res.quartic - freq) <= 1e-12 * freq
    assert res.truncation_rel == 0.0 and res.warnings == ()
    q = round(1 / h**2)
    assert res.n_nodes == round(q * (2 * st.lambda_spread(p, k, "elliptic") + 1))


@pytest.mark.parametrize("q,n", [(1, 5), (4, 36), (16, 80), (64, 192)])
def test_periodized_weight_is_the_poisson_sum_of_the_fejer_weight(q, n):
    T = 2 * np.pi * q
    ts = T * np.arange(n) / n
    got = st._periodized_fejer(q, n)
    K = 20_000
    partial = np.zeros(n)
    for k in range(-K, K + 1):
        partial += st.fejer_weight(ts + k * T)
    # phi_w(t) <= 8 / t^2 and |t + kT| >= (|k| - 1) T on [0, T), so the
    # terms with |k| > K add at most 16 / (T^2 (K - 1))
    tail = 16.0 / (T**2 * (K - 1))
    assert np.all(got - partial >= -1e-12)
    assert np.all(got - partial <= tail + 1e-12)
    # the trapezoid rule integrates W_T exactly: its integral is that of phi_w
    assert (T / n) * got.sum() == pytest.approx(st.FEJER_TOTAL, rel=1e-14)


def _torus_frequency_side(p, k, dispersion):
    """Oracle: (2 pi)^3 h^3 sum of phi_w_hat(<Lambda>) v1 v3 conj(v2 v4) over
    all quadruples with xi1 and xi2 conserved, by a four-fold broadcast."""
    cols, rows, vals = p.support()
    xi2 = rows.astype(float)
    lam = (p.grid.h * cols) ** 2 + (xi2**2 + k * xi2 if dispersion == "elliptic" else -(xi2**2))
    a, b, c, d = np.ix_(*[np.arange(len(cols))] * 4)
    keep = (cols[a] + cols[c] == cols[b] + cols[d]) & (rows[a] + rows[c] == rows[b] + rows[d])
    terms = st.fejer_hat(lam[a] + lam[c] - lam[b] - lam[d]) * vals[a] * vals[c] * np.conj(vals[b] * vals[d])
    return float(((2 * np.pi) ** 3 * p.grid.h**3 * np.sum(terms * keep)).real)


@pytest.mark.parametrize("dispersion", ["elliptic", "hyperbolic"])
@pytest.mark.parametrize("seed,h", [(21, 0.5), (22, 0.5), (23, 0.25)])
def test_exact_torus_rule_equals_brute_force_frequency_side(seed, h, dispersion):
    p = st.sparse_packet(seed, 12, 3.0, h)
    res = st._weighted_quartic(p, 1, dispersion, None, x2_torus=True)
    ref = _torus_frequency_side(p, 1, dispersion)
    assert abs(res.quartic - ref) <= 1e-12 * ref


def test_exact_rule_galilean_shifts():
    slab = st.SlabSpec(xi0=(0.0, 0), a=(0.6, 0.8), c=0.2, M=2.0, N=6.0)
    grid = st.grid_for_slab(slab, h=0.25)
    p = st.sample_slab_packet(slab, grid, "gaussian-random", 11)
    base = st.evolve_l4_norm_exact(p, 4).quartic
    for j in (1, -2):
        shifted = st.evolve_l4_norm_exact(st.shift_packet_xi2(p, j), 4 - 2 * j).quartic
        assert abs(shifted - base) <= 1e-12 * base
    for steps in (3, -5):
        shifted = st.evolve_l4_norm_exact(st.shift_packet_xi1(p, steps), 4).quartic
        assert abs(shifted - base) <= 1e-12 * base


@pytest.mark.parametrize("h,q", [(1.0, 1), (0.5, 4), (2**-0.5, 2), (0.125, 64), (1 / 3, 9)])
def test_lattice_q(h, q):
    assert st.lattice_q(h) == q


@pytest.mark.parametrize("h", [0.3, 2.0, 0.0, -0.5, float("nan"), float("inf")])
def test_lattice_q_refuses_steps_off_the_lattice(h):
    with pytest.raises(ValueError, match="h\\^2 = 1/q"):
        st.lattice_q(h)


def test_exact_rule_refuses_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(st, "_support_lambda", lambda *a: calls.append(a))
    monkeypatch.setattr(st, "_dft_phase_chunks", lambda *a: calls.append(a))
    off = st.FrequencyGrid(h=0.3, xi1_extent=3.0, xi2_min=-2, xi2_max=2)
    vals = np.zeros((5, 21), dtype=complex)
    vals[2, 10] = 1.0
    with pytest.raises(ValueError, match="h\\^2 = 1/q"):
        st.evolve_l4_norm_exact(st.WavePacket(grid=off, values=vals))
    empty = st.FrequencyGrid(h=0.5, xi1_extent=3.0, xi2_min=-2, xi2_max=2)
    with pytest.raises(ValueError, match="empty packet"):
        st.evolve_l4_norm_exact(st.WavePacket(grid=empty, values=np.zeros((5, 13))))
    with pytest.raises(ValueError, match="empty packet"):
        st._weighted_quartic(st.WavePacket(grid=empty, values=np.zeros((5, 13))), 0, "hyperbolic",
                             None, x2_torus=True)
    monkeypatch.setattr(st, "box_packet", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="h\\^2 = 1/q"):
        st.box_scaling_probe([2, 4], h=0.3)
    assert calls == []


def test_evolve_l4_norm_needs_a_window():
    with pytest.raises(ValueError, match="evolve_l4_norm_exact"):
        st.evolve_l4_norm(_single_node_packet(), 0, "elliptic", None)


@pytest.mark.parametrize("n,j0,j1", [(7, 0, 7), (4100, 0, 65), (4100, 4000, 4100), ((1 << 20) + 7, 999_000, 1_000_001)])
def test_dft_phase_table_is_exact(n, j0, j1):
    # the reference reduces j m mod n with Python integers, then takes one
    # exp; S is the evaluator's min(chunk, ceil(sqrt(n))) with the chunk
    # j1 - j0, so the last base block is partial in all but (4100, 0, 65)
    m = np.array([0, 1, -3, 17, n - 1, 5 * n + 2, -(1 << 50) - 7], dtype=np.int64)
    S = min(j1 - j0, math.isqrt(n - 1) + 1)
    table = st._dft_phase_chunks(n, m, S, 0.5)(j0, j1)
    ref = np.array([[0.5 * np.exp(-2j * np.pi * ((j * int(mm)) % n) / n) for mm in m]
                    for j in range(j0, j1)])
    assert table.shape == (j1 - j0, len(m))
    assert np.max(np.abs(table - ref)) <= 1e-14


def test_galilean_invariance():
    slab = st.SlabSpec(xi0=(0.0, 0), a=(0.6, 0.8), c=0.2, M=2.0, N=6.0)
    grid = st.grid_for_slab(slab, h=0.25)
    p = st.sample_slab_packet(slab, grid, "gaussian-random", 11)
    w = (-60.0, 60.0, 2048)
    base = st.evolve_l4_norm(p, 4, "elliptic", w).value
    for j in (1, -2):
        shifted = st.evolve_l4_norm(st.shift_packet_xi2(p, j), 4 - 2 * j, "elliptic", w).value
        assert abs(shifted - base) / base <= 1e-6
    for steps in (3, -5):
        shifted = st.evolve_l4_norm(st.shift_packet_xi1(p, steps), 4, "elliptic", w).value
        assert abs(shifted - base) / base <= 1e-6


def test_kernel_split_cover_and_parts():
    p = st.sparse_packet(3, 16, 5.0, 0.5)
    rep = st.kernel_split_diagnostics(p, 2)
    assert rep.cover_ok
    assert rep.tuple_count > 0
    assert rep.k1_tuples + rep.k2_tuples >= rep.tuple_count
    assert rep.K1_part + rep.K2_part >= rep.gamma_total - 1e-12


def _brute_kernel_split(p, k):
    """Oracle: Gamma's tuples, clause counts and masses by a loop over the
    ordered pairs (1, 3) and (2, 4) with equal xi1 sums."""
    cols, rows, vals = p.support()
    lam = (p.grid.h * cols) ** 2 + rows.astype(float) ** 2 + k * rows
    n = len(cols)
    pairs = [(i, j) for i in range(n) for j in range(n) if cols[i] >= cols[j]]
    tuples, clauses, gamma, k1_part, k2_part = 0, [0, 0, 0, 0], 0.0, 0.0, 0.0
    for i1, i3 in pairs:
        for i2, i4 in pairs:
            if cols[i1] + cols[i3] != cols[i2] + cols[i4]:
                continue
            if abs(lam[i1] + lam[i3] - lam[i2] - lam[i4]) > 1.0:
                continue
            hit = [rows[i1] == rows[i4], rows[i3] == rows[i2],
                   rows[i1] + rows[i4] + k == 0, rows[i3] + rows[i2] + k == 0]
            mass = abs(vals[i1] * vals[i3]) * abs(vals[i2] * vals[i4])
            tuples += 1
            clauses = [c + int(x) for c, x in zip(clauses, hit)]
            gamma += mass
            k1_part += sum(hit) * mass
            k2_part += (not any(hit)) * mass
    return tuples, tuple(clauses), gamma, k1_part, k2_part


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [0, 2])
def test_kernel_split_matches_a_brute_force_count(seed, k):
    # small rows (|xi2| <= 2) so every clause occurs
    p = st.sparse_packet(seed, 12, 2.5, 0.5)
    rep = st.kernel_split_diagnostics(p, k)
    tuples, clauses, gamma, k1_part, k2_part = _brute_kernel_split(p, k)
    assert rep.tuple_count == tuples and rep.clause_counts == clauses
    assert rep.gamma_total == pytest.approx(gamma, rel=1e-12)
    assert rep.K1_part == pytest.approx(k1_part, rel=1e-12)
    assert rep.K2_part == pytest.approx(k2_part, rel=1e-12)


def _wide_packet():
    """Six nodes over 100 001 xi1 columns (h = 0.5, extent 25 000): three
    rows at one end, two at the other and one in the middle, so the rows
    swapped between the ends give resonant tuples that hit every clause."""
    grid = st.FrequencyGrid(h=0.5, xi1_extent=25000.0, xi2_min=-1, xi2_max=1)
    rng = np.random.default_rng(5)
    vals = np.zeros((3, 100001), dtype=complex)
    for row, col in [(0, 0), (1, 0), (2, 0), (0, 100000), (2, 100000), (1, 50000)]:
        vals[row, col] = rng.standard_normal() + 1j * rng.standard_normal()
    return st.WavePacket(grid=grid, values=vals)


@pytest.mark.parametrize("k", [0, 2])
def test_a_wide_packet_matches_the_brute_force_oracles(k):
    # the pair groups visit only the xi1 sums that occur, not the 200 001
    # sums of the column span
    p = _wide_packet()
    assert st.quadrilinear_form_frequency(p, k) == pytest.approx(brute_quadrilinear(p, k),
                                                                 rel=1e-12)
    rep = st.kernel_split_diagnostics(p, k)
    tuples, clauses, gamma, k1_part, k2_part = _brute_kernel_split(p, k)
    assert rep.tuple_count == tuples and rep.clause_counts == clauses
    assert rep.gamma_total == pytest.approx(gamma, rel=1e-12)
    assert rep.K1_part == pytest.approx(k1_part, rel=1e-12)
    assert rep.K2_part == pytest.approx(k2_part, rel=1e-12)
    assert len(list(st._pair_groups(p, k))) == 5  # column sums 0, 0.5, 1, 1.5 and 2 x 10^5


def test_kernel_split_single_row_all_k1():
    grid = st.FrequencyGrid(h=0.5, xi1_extent=4.0, xi2_min=3, xi2_max=3)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((1, 17)) + 1j * rng.standard_normal((1, 17))
    vals /= np.sqrt(0.5) * np.linalg.norm(vals)
    rep = st.kernel_split_diagnostics(st.WavePacket(grid=grid, values=vals), 0)
    assert rep.k2_tuples == 0
    assert rep.k1_tuples == rep.tuple_count


def test_kernel_split_large_k_clauses_silent():
    p = st.sparse_packet(5, 12, 4.0, 0.5)
    rep = st.kernel_split_diagnostics(p, 1000)  # k > 4N
    assert rep.clause_counts[2] == 0 and rep.clause_counts[3] == 0


def test_evolve_validation_and_flags():
    p = _single_node_packet()
    with pytest.raises(ValueError):
        st.evolve_l4_norm(p, 0, "elliptic", (-60.0, 60.0, 32))
    with pytest.raises(ValueError):
        st.evolve_l4_norm(p, 0, "parabolic", (-60.0, 60.0, 128))
    res = st.evolve_l4_norm(p, 0, "elliptic", (-10.0, 10.0, 128))
    assert any(w.startswith("window-truncation") for w in res.warnings)


def test_strichartz_quotient_basics():
    slab = st.SlabSpec(xi0=(0.0, 0), a=(1.0, 0.0), c=0.0, M=4.0, N=4.0)
    with pytest.raises(ValueError):
        st.strichartz_quotient(slab, 0.2, 1, 0)
    _, best = st.strichartz_quotient(slab, 0.1, 2, 0, h=0.5, t_window=(-60.0, 60.0, 1024))
    assert best["max_quotient"] > 0
    _, best2 = st.strichartz_quotient(slab, 0.1, 2, 0, h=0.5, t_window=(-60.0, 60.0, 1024))
    assert best["max_quotient"] == best2["max_quotient"]  # determinism


def test_quotient_invariant_under_center_translation():
    # xi0 -> xi0 + (r, j) with r on-grid: same packet relative to the slab,
    # evolved with the reduced k, reproduces the quotient
    h = 0.25
    slab = st.SlabSpec(xi0=(0.0, 0), a=(0.8, 0.6), c=0.1, M=2.0, N=5.0)
    grid = st.grid_for_slab(slab, h=h)
    p = st.sample_slab_packet(slab, grid, "gaussian-random", 9)
    w = (-60.0, 60.0, 2048)
    base = st.evolve_l4_norm(p, 0, "elliptic", w).value
    moved = st.evolve_l4_norm(st.shift_packet_xi1(st.shift_packet_xi2(p, 4), 8), -8, "elliptic", w).value
    assert abs(moved - base) / base <= 1e-6


def test_box_packet_and_probe():
    p = st.box_packet(4, h=0.5)
    assert p.l2_norm() == pytest.approx(1.0)
    cols, rows, _ = p.support()
    assert rows.min() == -4 and rows.max() == 4
    assert abs(p.grid.h * cols).max() == pytest.approx(4.0)
    rows_, summary = st.box_scaling_probe([2, 4], h=0.5)
    assert summary["spread_factor"] < 2.0


def test_hyperbolic_quotient_cap_and_determinism():
    with pytest.raises(ValueError):
        st.hyperbolic_l4_quotient(128, 1, 0)
    _, r1 = st.hyperbolic_l4_quotient(4, 1, 3, h=0.5, t_window=(-30.0, 30.0, 512))
    _, r2 = st.hyperbolic_l4_quotient(4, 1, 3, h=0.5, t_window=(-30.0, 30.0, 512))
    assert r1["max_quotient"] == r2["max_quotient"]
    assert r1["max_quotient"] > 0


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("scan", [
    lambda t: st.strichartz_quotient(st.SlabSpec(xi0=(0.0, 0), a=(1.0, 0.0), c=0.0, M=2.0, N=4.0),
                                     0.1, t, 0, h=0.5),
    lambda t: st.scan_strichartz_quotients([2, 4], 0.1, t, 0, h=0.5),
    lambda t: st.hyperbolic_l4_quotient(2, t, 0),
    lambda t: st.scan_hyperbolic_quotients([2, 4], t, 0),
], ids=["strichartz_quotient", "scan_strichartz_quotients", "hyperbolic_l4_quotient",
        "scan_hyperbolic_quotients"])
def test_quotients_refuse_no_trials_before_any_work(monkeypatch, scan, trials):
    # a maximum over no trials would read 0.0 and pass every gate
    calls = []
    monkeypatch.setattr(st, "_weighted_quartic", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=f"trials must be >= 1; got {trials}"):
        scan(trials)
    assert calls == []


@pytest.mark.parametrize("scan,message", [
    (lambda: st.strichartz_quotient(st.SlabSpec(xi0=(0.0, 0), a=(1.0, 0.0), c=0.0, M=2.0, N=4.0),
                                    0.2, 1, 0, h=0.5), r"delta .* got 0.2"),
    (lambda: st.scan_strichartz_quotients([2, 4], 0.125, 1, 0, h=0.5), r"delta .* got 0.125"),
    (lambda: st.scan_strichartz_quotients([2, 4], 0.0, 1, 0, h=0.5), r"delta .* got 0.0"),
    (lambda: st.hyperbolic_l4_quotient(128, 1, 0), "N is capped at 64; got 128"),
    (lambda: st.scan_hyperbolic_quotients([2, 128], 1, 0), "N is capped at 64; got 128"),
    (lambda: st.strichartz_quotient(st.SlabSpec(xi0=(0.0, 0), a=(1.0, 0.0), c=0.0, M=2.0, N=128.0),
                                    0.1, 1, 0, h=0.5), "N is capped at 64; got 128.0"),
    (lambda: st.scan_strichartz_quotients([2, 128], 0.1, 1, 0, h=0.5), "N is capped at 64; got 128"),
    (lambda: st.box_scaling_probe([2, 128], h=0.5), "N is capped at 64; got 128"),
], ids=["strichartz_quotient", "scan_strichartz_quotients", "scan_strichartz_quotients_zero",
        "hyperbolic_l4_quotient", "scan_hyperbolic_quotients", "strichartz_quotient_large_n",
        "scan_strichartz_quotients_large_n", "box_scaling_probe_large_n"])
def test_quotients_refuse_bad_delta_and_large_n_before_any_work(monkeypatch, scan, message):
    # the scans check every argument before their first N, not when they reach it
    calls = []
    monkeypatch.setattr(st, "_weighted_quartic", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=message):
        scan()
    assert calls == []


@pytest.mark.parametrize("scan,message", [
    (lambda: st.box_scaling_probe([0, 4], h=0.5), "N must be >= 1; got 0"),
    (lambda: st.box_scaling_probe([], h=0.5), "need at least one N"),
    (lambda: st.box_scaling_probe([2.5, 4], h=0.5), "N must be a whole number; got 2.5"),
    (lambda: st.box_scaling_probe([4, float("nan")], h=0.5), "N is capped at 64; got nan"),
    (lambda: st.box_scaling_probe(4, h=0.5), "Ns must be a list of numbers; got 4"),
    # one N used to read spread_factor 1.0 and pass its gate on nothing
    (lambda: st.box_scaling_probe([4, 4.0], h=0.5),
     "a slope needs at least two distinct x values; got [4.0]"),
    (lambda: st.hyperbolic_l4_quotient(0, 1, 0), "N must be >= 1; got 0"),
    (lambda: st.hyperbolic_l4_quotient(2.5, 1, 0), "N must be a whole number; got 2.5"),
    (lambda: st.hyperbolic_l4_quotient(True, 1, 0), "N must be a number; got True"),
    (lambda: st.scan_hyperbolic_quotients([0, 4], 1, 0), "N must be >= 1; got 0"),
    (lambda: st.scan_hyperbolic_quotients([-1, 4], 1, 0), "N must be >= 1; got -1"),
    (lambda: st.scan_hyperbolic_quotients([4, 8.5], 1, 0), "N must be a whole number; got 8.5"),
    (lambda: st.scan_strichartz_quotients([0, 8], 0.1, 1, 0), "N must be >= 1; got 0"),
    (lambda: st.scan_strichartz_quotients([-math.inf, 8], 0.1, 1, 0), "N must be >= 1; got -inf"),
    (lambda: st.scan_strichartz_quotients([8, math.inf], 0.1, 1, 0), "N is capped at 64; got inf"),
    (lambda: st.scan_strichartz_quotients(["8", 16], 0.1, 1, 0), "N must be a number; got '8'"),
])
def test_quotients_refuse_an_n_they_cannot_run_before_any_work(monkeypatch, scan, message):
    # N = 0 used to divide by zero in the box probe and fail on a NaN slope
    # after every hyperbolic trial; N = 2.5 measured box_packet(2)
    calls = []
    monkeypatch.setattr(st, "_weighted_quartic", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=re.escape(message)):
        scan()
    assert calls == []


def test_whole_ns_may_be_floats_and_the_elliptic_radius_fractional():
    assert st.check_ns([4.0, np.int64(8)], integral=True) == [4.0, np.int64(8)]
    assert st.check_ns((2.5, 64.0)) == (2.5, 64.0)
    a, _ = st.hyperbolic_l4_quotient(4.0, 1, 3, t_window=(-10.0, 10.0, 64))
    b, _ = st.hyperbolic_l4_quotient(4, 1, 3, t_window=(-10.0, 10.0, 64))
    assert a == b and a[0]["N"] == 4


def test_worst_warnings_keep_the_largest_value_per_flag():
    merged = st._worst_warnings([
        "window-truncation:0.0200", "time-aliasing-risk:need_nt=300",
        "window-truncation:0.0500", "time-aliasing-risk:need_nt=900",
        "time-aliasing-risk:need_nt=500", "window-truncation:0.0100",
    ])
    assert merged == ("time-aliasing-risk:need_nt=900", "window-truncation:0.0500")
    assert st._worst_warnings([]) == ()


def _varying_warnings(monkeypatch, name, values):
    """Wrap an integrator so that call i reports the warnings values[i]."""
    orig = getattr(st, name)
    calls = iter(values)

    def wrapped(*args, **kwargs):
        return dataclasses.replace(orig(*args, **kwargs), warnings=next(calls))

    monkeypatch.setattr(st, name, wrapped)


def test_quotient_reports_keep_warning_values(monkeypatch):
    per_trial = [("window-truncation:0.0200", "time-aliasing-risk:need_nt=300"),
                 ("window-truncation:0.0500", "time-aliasing-risk:need_nt=900"),
                 ("time-aliasing-risk:need_nt=500",)]
    worst = ("time-aliasing-risk:need_nt=900", "window-truncation:0.0500")
    slab = st.SlabSpec(xi0=(0.0, 0), a=(1.0, 0.0), c=0.0, M=4.0, N=4.0)
    _varying_warnings(monkeypatch, "evolve_l4_norm", per_trial)
    _, summary = st.strichartz_quotient(slab, 0.1, 3, 0, h=0.5, t_window=(-10.0, 10.0, 64))
    assert summary["flags"] == list(worst)
    _varying_warnings(monkeypatch, "_weighted_quartic", per_trial)
    _, summary = st.hyperbolic_l4_quotient(2, 3, 0, h=0.5, t_window=(-10.0, 10.0, 64))
    assert summary["flags"] == list(worst)


def test_elliptic_scan_flags_keep_worst_values(monkeypatch):
    seen = []
    orig = st.evolve_l4_norm

    def spy(*args, **kwargs):
        res = orig(*args, **kwargs)
        seen.extend(res.warnings)
        return res

    monkeypatch.setattr(st, "evolve_l4_norm", spy)
    _, summary = st.scan_strichartz_quotients([4, 8], 0.1, 1, 2, h=0.5,
                                              t_window=(-10.0, 10.0, 64))
    need = max(int(w.split("=")[1]) for w in seen if w.startswith("time-aliasing-risk"))
    assert f"time-aliasing-risk:need_nt={need}" in summary["flags"]
    assert any(f.startswith("window-truncation:") for f in summary["flags"])
    assert len(summary["flags"]) == 2


def test_hyperbolic_scan_flags_keep_worst_values(monkeypatch):
    seen = []
    orig = st._weighted_quartic

    def spy(p, k_shift, dispersion, t_window, x2_torus):
        seen.append(p)
        return orig(p, k_shift, dispersion, t_window, x2_torus)

    monkeypatch.setattr(st, "_weighted_quartic", spy)
    _, summary = st.scan_hyperbolic_quotients([2, 4], 2, 1, h=0.5,
                                              t_window=(-10.0, 10.0, 64))
    assert len(seen) == 4
    need = max(st.anti_alias_nt(p, 0, "hyperbolic", -10.0, 10.0) for p in seen)
    assert f"time-aliasing-risk:need_nt={need}" in summary["flags"]
    assert any(f.startswith("window-truncation:") for f in summary["flags"])
    assert len(summary["flags"]) == 2


@pytest.mark.parametrize("scan,kernel", [
    (lambda: st.scan_strichartz_quotients([8], 0.1, 1, 0), "evolve_l4_norm"),
    (lambda: st.scan_strichartz_quotients([8, 8.0], 0.1, 1, 0), "evolve_l4_norm"),
    (lambda: st.scan_hyperbolic_quotients([4], 1, 0), "_weighted_quartic"),
])
def test_quotient_scans_refuse_a_single_N_before_any_work(monkeypatch, scan, kernel):
    calls = []
    monkeypatch.setattr(st, kernel, lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="two distinct"):
        scan()
    assert calls == []
