import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as stn

from s3lab import bilinear
from s3lab.su2 import GroupElement, haar_quadrature, haar_samples
from s3lab.clebsch import cg_table, change_of_basis
from s3lab.bilinear import (
    Eigenfunction,
    UnderResolvedQuadratureWarning,
    bilinear_ratio,
    bilinear_ratio_scan,
    evaluate,
    evaluate_on_grid,
    fit_slope,
    multilinear_l2_quadrature,
    product_decompose,
    product_l2_exact,
    product_l2_quadrature,
    product_norm2_batch,
    random_eigenfunction,
    recommended_levels,
    sampling_plan,
    scan_cells,
    zonal,
    zonal_pair_ratio,
    zonal_ratio,
)

SETTINGS = dict(max_examples=15, deadline=None, database=None, derandomize=True)


def test_constant_eigenfunction():
    f = Eigenfunction(0, np.array([[2.5 - 1.0j]]))
    for g in haar_samples(5, 0):
        assert evaluate(f, g) == pytest.approx(2.5 - 1.0j)
    assert f.l2_norm() == pytest.approx(abs(2.5 - 1.0j))


def test_zonal_is_the_character():
    from s3lab.su2 import character

    n = 5
    z = zonal(n)
    assert z.l2_norm() == pytest.approx(1.0)
    for g in haar_samples(8, 1):
        assert evaluate(z, g) == pytest.approx(character(n, g), abs=1e-12)
    # the sup bound ||f||_inf <= (n+1) ||f||_2, attained at the identity
    assert evaluate(z, GroupElement.identity()) == pytest.approx(n + 1.0)


def test_parseval_on_quadrature():
    # quadrature of |f|^2 equals the squared coefficient norm
    for m in (2, 4, 6):
        f = random_eigenfunction(m, m)
        q = haar_quadrature(recommended_levels(m))
        vals = evaluate_on_grid(f, q)
        assert q.integrate(np.abs(vals) ** 2).real == pytest.approx(1.0, abs=1e-6)


def test_grid_evaluation_matches_pointwise():
    from s3lab.su2 import from_angles

    f = random_eigenfunction(3, 9)
    q = haar_quadrature((8, 8, 8))
    vals = evaluate_on_grid(f, q)
    for it, ip1, ip2 in [(0, 0, 0), (3, 5, 2), (7, 7, 7)]:
        g = from_angles(q.theta[it], q.phi1()[ip1], q.phi2()[ip2])
        assert vals[it, ip1, ip2] == pytest.approx(evaluate(f, g), abs=1e-12)


@pytest.mark.parametrize("m,levels,chunk", [
    (3, (4, 7, 7), None),      # n1 = n2 = 2m+1: the rows p = j+j'-m wrap
    (2, (3, 5, 9), None),      # the minimum phi1 level, n1 != n2
    (3, (5, 11, 8), None),     # n1 > n2
    (2, (5, 7, 5), 70),        # two slices per chunk: a chunk boundary and a short last chunk
    (1, (3, 3, 4), 5),         # a chunk budget below one slice: one slice per chunk
])
def test_grid_evaluation_matches_evaluate_at_every_node(monkeypatch, m, levels, chunk):
    if chunk is not None:
        monkeypatch.setattr(bilinear, "_FFT_CHUNK", chunk)
    f = random_eigenfunction(m, [11, m])
    q = haar_quadrature(levels)
    want = np.array([evaluate(f, g) for g in q.nodes()]).reshape(levels)
    assert np.max(np.abs(evaluate_on_grid(f, q) - want)) <= 1e-12


@pytest.mark.parametrize("levels", [(4, 6, 7), (4, 7, 6)])
def test_grid_evaluation_refuses_phi_levels_below_the_degree(levels):
    with pytest.raises(ValueError, match="cannot hold degree-3 modes"):
        evaluate_on_grid(random_eigenfunction(3, 0), haar_quadrature(levels))


def test_product_decompose_triangle_and_pointwise():
    f, g = random_eigenfunction(6, 3), random_eigenfunction(4, 4)
    dec = product_decompose(f, g)
    assert sorted(dec.components) == [2, 4, 6, 8, 10]
    pts = haar_samples(50, 5)
    for pt in pts:
        lhs = evaluate(f, pt) * evaluate(g, pt)
        assert abs(lhs - dec.evaluate(pt)) <= 1e-8


def test_product_decompose_parseval_split():
    # the component norms split ||fg||, here measured by Haar quadrature
    f, g = random_eigenfunction(5, 1), random_eigenfunction(5, 2)
    dec = product_decompose(f, g)
    total = product_l2_quadrature(f, g, haar_quadrature(recommended_levels(10)))
    assert dec.total_norm() == pytest.approx(total, rel=1e-9)


def test_exact_norm_refuses_a_cell_beyond_the_dense_cap(monkeypatch):
    # (65, 64): (m+1)(n+1) = 4290 > 4225; refused before a table or U is built
    calls = []
    monkeypatch.setattr("s3lab.bilinear.cg_table", lambda *a: calls.append(a))
    monkeypatch.setattr("s3lab.bilinear._degree_blocks", lambda *a: calls.append(a))
    f, g = zonal(65), zonal(64)
    for oracle in (product_decompose, product_l2_exact):
        with pytest.raises(ValueError, match="4290"):
            oracle(f, g)
        with pytest.raises(ValueError, match="4290"):
            oracle(f, g, object())
    assert calls == []


def test_degree_order_enforced():
    with pytest.raises(ValueError):
        product_decompose(random_eigenfunction(2, 0), random_eigenfunction(3, 1))
    with pytest.raises(ValueError):
        bilinear_ratio(zonal(1), zonal(2))


def test_zonal_products_character_rule():
    # chi_1^2 = chi_2 + chi_0 and chi_2^2 = chi_4 + chi_2 + chi_0
    assert product_l2_exact(zonal(1), zonal(1)) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    dec = product_decompose(zonal(1), zonal(1))
    assert dec.components[2].l2_norm() == pytest.approx(1.0, abs=1e-12)
    assert dec.components[0].l2_norm() == pytest.approx(1.0, abs=1e-12)
    q = haar_quadrature(recommended_levels(4))
    assert product_l2_quadrature(zonal(2), zonal(2), q) == pytest.approx(np.sqrt(3.0), abs=1e-10)


def test_constants_product():
    c = Eigenfunction(0, np.array([[1.5 + 0.5j]]))
    d = Eigenfunction(0, np.array([[-0.25j]]))
    assert product_l2_exact(c, d) == pytest.approx(abs((1.5 + 0.5j) * (-0.25j)))
    assert bilinear_ratio(c, d) == pytest.approx(1.0)


def test_zero_input_rejected():
    z = Eigenfunction(2, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        bilinear_ratio(random_eigenfunction(3, 0), z)


@given(stn.integers(min_value=0, max_value=7), stn.integers(min_value=0, max_value=7),
       stn.integers(min_value=0, max_value=1000))
@settings(**SETTINGS)
def test_exact_vs_quadrature_oracle(m, n, seed):
    if m < n:
        m, n = n, m
    f = random_eigenfunction(m, seed)
    g = random_eigenfunction(n, seed + 1)
    exact = product_l2_exact(f, g)
    quad = product_l2_quadrature(f, g, haar_quadrature(recommended_levels(m + n)))
    assert quad == pytest.approx(exact, rel=1e-6)


def test_quadrature_warns_when_under_resolved():
    f, g = random_eigenfunction(8, 0), random_eigenfunction(8, 1)
    with pytest.warns(UnderResolvedQuadratureWarning, match=r"for degrees \(8, 8\)"):
        product_l2_quadrature(f, g, haar_quadrature((17, 17, 17)))
    with pytest.warns(UnderResolvedQuadratureWarning, match=r"for degrees \(8, 8, 0\)"):
        multilinear_l2_quadrature([f, g, zonal(0)], haar_quadrature((17, 17, 17)))


def _full_grid_l2(fs, quad):
    # the full-grid reference: every factor's whole (theta, phi1, phi2) grid at once
    vals = evaluate_on_grid(fs[0], quad)
    for f in fs[1:]:
        vals = vals * evaluate_on_grid(f, quad)
    return float(np.sqrt(quad.integrate(np.abs(vals) ** 2).real))


@pytest.mark.parametrize("degrees,L", [
    ((3, 2), 32),          # one chunk holds every theta slice
    ((6, 6), 56),          # 20 slices per chunk: a short last chunk
    ((8, 8), 72),          # 12 slices per chunk, 6 full chunks
    ((4, 3), 41),          # 38 slices per chunk: one full chunk and a 3-slice tail
    ((8, 8, 8), 104),      # a triple, 6 slices per chunk and a 2-slice tail
])
def test_streamed_quadrature_matches_full_grid(degrees, L):
    q = haar_quadrature((L, L, L))
    for s in range(3):
        fs = [random_eigenfunction(m, [17, L, s, k]) for k, m in enumerate(degrees)]
        want = _full_grid_l2(fs, q)
        got = (product_l2_quadrature(*fs, q) if len(fs) == 2
               else multilinear_l2_quadrature(fs, q))
        assert abs(got - want) <= 1e-14 * want


def test_product_quadrature_holds_less_than_one_grid():
    import tracemalloc

    L = 104
    q = haar_quadrature((L, L, L))
    f, g = random_eigenfunction(12, 1), random_eigenfunction(12, 2)
    product_l2_quadrature(f, g, q)                   # fill su2's cached tables first
    tracemalloc.start()
    try:
        product_l2_quadrature(f, g, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < L**3 * 16                          # one complex grid, about 18 MB


def test_multilinear_quadrature_refuses_no_factors(monkeypatch):
    monkeypatch.setattr(bilinear, "_grid_chunks", lambda *a: pytest.fail("work started"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least one factor"):
            multilinear_l2_quadrature([], haar_quadrature((8, 8, 8)))


def test_batch_matches_single():
    m, n = 9, 5
    table = cg_table(m, n)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, m + 1, m + 1)) + 1j * rng.standard_normal((3, m + 1, m + 1))
    B = rng.standard_normal((3, n + 1, n + 1)) + 1j * rng.standard_normal((3, n + 1, n + 1))
    batch = product_norm2_batch(sampling_plan(m, n), A, B)
    for i in range(3):
        single = product_l2_exact(Eigenfunction(m, A[i]), Eigenfunction(n, B[i]), table)
        assert np.sqrt(batch[i]) == pytest.approx(single, rel=1e-12)


# The cells the scans run, an n = 0 cell, and both parities of m + n.  One
# sampling node fewer than (m+n)//2 + 1 leaves errors of 1e-4 or more.
@pytest.mark.parametrize("m,n,pairs", [
    (8, 4, 3), (16, 9, 3), (32, 32, 2), (64, 32, 2), (64, 64, 1), (12, 0, 2), (9, 0, 2),
])
def test_sampling_engine_matches_ssum_oracle(m, n, pairs):
    table = cg_table(m, n)
    rng = np.random.default_rng([m, n])
    A = rng.standard_normal((pairs, m + 1, m + 1)) + 1j * rng.standard_normal((pairs, m + 1, m + 1))
    B = rng.standard_normal((pairs, n + 1, n + 1)) + 1j * rng.standard_normal((pairs, n + 1, n + 1))
    batch = product_norm2_batch(sampling_plan(m, n), A, B)
    for i in range(pairs):
        oracle = product_l2_exact(Eigenfunction(m, A[i]), Eigenfunction(n, B[i]), table)
        assert np.sqrt(batch[i]) == pytest.approx(oracle, rel=1e-12)


def test_sampling_engine_chunks_a_batch_of_16():
    # 16 pairs x 65 nodes of 135 x 135 FFTs span many node chunks; scaled
    # zonal pairs give ||f_i g_i||^2 = (i+1)^2 (n+1) exactly, so each result
    # must land on its own pair
    m = n = 64
    a = np.eye(m + 1) / np.sqrt(m + 1.0)
    b = np.eye(n + 1) / np.sqrt(n + 1.0)
    scale = np.arange(1.0, 17.0)
    A = scale[:, None, None] * np.broadcast_to(a, (16, m + 1, m + 1))
    B = np.broadcast_to(b, (16, n + 1, n + 1))
    got = product_norm2_batch(sampling_plan(m, n), A, B)
    assert np.max(np.abs(got / (scale ** 2 * (n + 1.0)) - 1.0)) <= 1e-12


def test_sampling_engine_rejects_mismatched_batches():
    plan = sampling_plan(6, 3)
    a = np.zeros((2, 7, 7), dtype=complex)
    b = np.zeros((2, 4, 4), dtype=complex)
    with pytest.raises(ValueError):
        product_norm2_batch(plan, a[:, :6, :6], b)
    with pytest.raises(ValueError):
        product_norm2_batch(plan, a, b[:1])
    with pytest.raises(ValueError):
        product_norm2_batch(plan, a[0], b[0])


def test_sampling_plan_contents():
    m, n = 9, 4
    plan = sampling_plan(m, n)
    assert (plan.m, plan.n) == (m, n) and plan.fft_len >= m + n + 1
    assert len(plan.weights) == (m + n) // 2 + 1 == len(plan.dm) == len(plan.dn)
    assert plan.dm.shape[1:] == (m + 1, m + 1) and plan.dn.shape[1:] == (n + 1, n + 1)
    # weights w/2 of the Gauss-Legendre rule on [-1, 1] sum to 1 (Haar mass)
    assert plan.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert not plan.dm.flags.writeable and not plan.weights.flags.writeable
    # no plan cache: a second plan is a fresh, equal one
    again = sampling_plan(m, n)
    assert again is not plan and again.fft_len == plan.fft_len
    for name in ("weights", "dm", "dn"):
        np.testing.assert_array_equal(getattr(again, name), getattr(plan, name))
    with pytest.raises(ValueError):
        sampling_plan(-1, 0)


def test_scans_build_no_cg_table():
    cg_table.cache_clear()
    bilinear_ratio_scan(64, 32, 2, 0)
    zonal_pair_ratio(64, 32)
    scan_cells(8, 4, 2, 0, zonal=True, zonal_n_max=2)
    assert cg_table.cache_info().misses == 0


@pytest.mark.parametrize("m_max,n_max,seeds,message", [
    (8, 8, 0, "seeds must be >= 1; got 0"),
    (8, 8, -3, "seeds must be >= 1; got -3"),
    (8, 3, 5, "the no-growth fit needs cells at two or more n"),
    (2, 64, 5, "the no-growth fit needs cells at two or more n"),
])
def test_scan_cells_refuses_before_any_work(monkeypatch, m_max, n_max, seeds, message):
    # no random pair, or cells at n = 0 only, would leave a gate on nothing
    calls = []
    monkeypatch.setattr(bilinear, "sampling_plan", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match=message):
        scan_cells(m_max, n_max, seeds, 1)
    assert calls == []


def test_scan_cells_fails_closed_on_a_nan_witness(monkeypatch):
    # the builtin max may drop a NaN; C*, the slope and the argmax keep it
    monkeypatch.setattr(bilinear, "zonal_pair_ratio",
                        lambda m, n: float("nan") if n == 4 else 1.0)
    _, summary = scan_cells(16, 4, 2, 1)
    assert np.isnan(summary["C_star"]) and np.isnan(summary["fitted_slope"])
    assert summary["argmax_cell"] == "8,4"
    assert np.isnan(summary["cell_max"]["16,4"])


def test_scan_cells_argmax_cell_indexes_cell_max():
    # argmax_cell used to read "(16, 4)" beside the cell_max key "16,4"
    _, summary = scan_cells(16, 8, 2, 0)
    assert summary["cell_max"][summary["argmax_cell"]] == summary["C_star"]


# Criterion 4's scan cells and the (2n, n) cells of the zonal sweep.
_SCAN_CELLS = [(m, n) for m in (8, 16, 32, 64) for n in (4, 8, 16, 32, 64) if n <= m]
_SWEEP_CELLS = [(2 * n, n) for n in (10, 20, 30, 40, 50, 60)]


def _zonal_engine_ratio(m, n):
    a = np.eye(m + 1) / np.sqrt(m + 1.0)
    b = np.eye(n + 1) / np.sqrt(n + 1.0)
    return float(np.sqrt(product_norm2_batch(sampling_plan(m, n), a[None], b[None])[0] / (n + 1.0)))


@pytest.mark.parametrize("m,n", _SCAN_CELLS + _SWEEP_CELLS)
def test_zonal_witness_matches_the_engine(m, n):
    # the diagonal convolution uses the 2-D engine's nodes, weights and
    # eigensystem, so it carries the same node-borne deviation from 1, not
    # just a similar one
    assert abs(zonal_pair_ratio(m, n) - _zonal_engine_ratio(m, n)) <= 1e-13


def test_engine_keeps_the_zonal_identity_at_the_largest_cell():
    # the witness no longer runs the engine; this keeps the engine checked
    # on exact data at the largest cell the scans build
    assert abs(_zonal_engine_ratio(120, 60) ** 2 - 1.0) <= 1e-11


def test_zonal_witness_runs_no_2d_engine(monkeypatch):
    calls = []
    monkeypatch.setattr("s3lab.bilinear.product_norm2_batch", lambda *a: calls.append(a))
    assert zonal_pair_ratio(16, 8) == pytest.approx(1.0, abs=1e-13)
    assert zonal_ratio(5) == pytest.approx(1.0, abs=1e-13)
    assert calls == []


def test_zonal_witness_builds_no_plan_and_no_d_stack(monkeypatch):
    calls = []
    spy = lambda *a: calls.append(a)  # noqa: E731
    monkeypatch.setattr("s3lab.bilinear.sampling_plan", spy)
    monkeypatch.setattr("s3lab.bilinear.wigner_d", spy)
    monkeypatch.setattr("s3lab.su2.wigner_d", spy)
    assert zonal_pair_ratio(64, 32) == pytest.approx(1.0, abs=1e-11)
    assert zonal_ratio(60) == pytest.approx(1.0, abs=1e-11)
    assert calls == []


def test_zonal_witness_memory_is_linear_in_the_degree():
    # the (120, 60) plan's d-matrix stacks alone hold over 13 MB; the
    # witness reads diagonals only, O(nodes L) floats
    tracemalloc.start()
    try:
        zonal_ratio(60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _dense_s_sums(f, g, table):
    """S_k by slicing the dense change of basis, the route before degree blocks."""
    m, n = f.m, g.m
    U = change_of_basis(table)
    out, off = {}, 0
    for k in table.kvals.tolist():
        Uk = U[:, off:off + k + 1].reshape(m + 1, n + 1, k + 1)
        off += k + 1
        X = np.tensordot(g.coeffs, np.tensordot(f.coeffs, Uk, axes=(0, 0)), axes=(0, 1))
        out[k] = np.tensordot(X, Uk, axes=([1, 0], [0, 1]))
    return out


@pytest.mark.parametrize("m,n", [(8, 4), (16, 9), (32, 32)])
def test_block_route_matches_the_dense_route(m, n):
    f, g = random_eigenfunction(m, [11, m, n]), random_eigenfunction(n, [12, m, n])
    table = cg_table(m, n)
    dec = product_decompose(f, g, table)
    ref = _dense_s_sums(f, g, table)
    assert set(dec.s_sums) == set(ref)
    for k, S in ref.items():
        assert np.max(np.abs(dec.s_sums[k] - S)) <= 1e-15 * np.max(np.abs(S))


def test_exact_norm_never_holds_the_dense_change_of_basis():
    # at (64, 64) the dense T x T change of basis alone is 143 MB
    f, g = random_eigenfunction(64, 13), random_eigenfunction(64, 14)
    cg_table.cache_clear()
    tracemalloc.start()
    try:
        value = product_l2_exact(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value) and peak < 60 * 2**20


def test_ratio_one_when_small_degree_is_zero():
    # with n = 0 the product just rescales f, so the ratio is exactly 1
    for seed in range(5):
        f = random_eigenfunction(6, seed)
        g = random_eigenfunction(0, seed + 50)
        assert bilinear_ratio(f, g) == pytest.approx(1.0, abs=1e-9)


def test_zonal_saturation():
    for n in (1, 3, 8):
        assert zonal_ratio(n) == pytest.approx(1.0, abs=1e-9)


def test_ratio_scan_deterministic():
    r1 = bilinear_ratio_scan(8, 4, 12, seed=3)
    r2 = bilinear_ratio_scan(8, 4, 12, seed=3)
    assert np.array_equal(r1, r2)
    assert (r1 > 0).all()


@pytest.mark.parametrize("n_pairs", [0, -3])
def test_ratio_scan_refuses_no_pairs(monkeypatch, n_pairs):
    calls = []
    monkeypatch.setattr("s3lab.bilinear.sampling_plan", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match=f"n_pairs must be >= 1; got {n_pairs}"):
        bilinear_ratio_scan(8, 4, n_pairs, 0)
    assert calls == []


def test_multilinear_quadrature_constants():
    fs = [Eigenfunction(0, np.array([[2.0]])), Eigenfunction(0, np.array([[0.5j]]))]
    q = haar_quadrature((32, 32, 32))
    assert multilinear_l2_quadrature(fs, q) == pytest.approx(1.0)


def test_fit_slope():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    assert fit_slope(x, 2.0 * x + 1.0) == pytest.approx(2.0)
    assert fit_slope(x, np.ones(4)) == pytest.approx(0.0)


def test_fit_slope_needs_two_distinct_x():
    with pytest.raises(ValueError):
        fit_slope(np.array([1.0]), np.array([2.0]))
    with pytest.raises(ValueError):
        fit_slope(np.array([1.0, 1.0, 1.0]), np.array([2.0, 3.0, 4.0]))
    with pytest.raises(ValueError):
        fit_slope(np.array([]), np.array([]))
    assert np.isnan(fit_slope(np.array([0.0, 1.0]), np.array([1.0, np.nan])))
