import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as stn

from s3lab.su2 import (
    GroupElement,
    character,
    from_angles,
    group_mul,
    haar_quadrature,
    haar_sample,
    haar_samples,
    irrep_matrix,
    is_valid_weight,
    ladder_coeff,
    weights,
    wigner_d,
    wigner_d_diagonal,
)
from s3lab.su2 import _irrep_stacks, _ladder_coeffs, _rotation_block

SETTINGS = dict(max_examples=30, deadline=None, database=None, derandomize=True)


def test_normalization_on_construction():
    g = GroupElement(3.0 + 4.0j, 1.0 - 2.0j)
    assert abs(abs(g.a) ** 2 + abs(g.b) ** 2 - 1.0) < 1e-12


def test_zero_element_rejected():
    with pytest.raises(ValueError):
        GroupElement(0.0, 0.0)


def test_identity_and_inverse():
    g = haar_sample(17)
    gi = g.inverse()
    prod = group_mul(g, gi)
    assert abs(prod.a - 1.0) < 1e-12 and abs(prod.b) < 1e-12
    ge = group_mul(g, GroupElement.identity())
    assert abs(ge.a - g.a) < 1e-15 and abs(ge.b - g.b) < 1e-15


def test_group_mul_against_2x2_oracle():
    # direct 2x2 complex matrix multiply as the oracle
    g = GroupElement(1 / np.sqrt(2), 1j / np.sqrt(2))
    sq = group_mul(g, g)
    oracle = g.matrix() @ g.matrix()
    assert abs(sq.a - oracle[0, 0]) < 1e-15
    assert abs(sq.b - oracle[0, 1]) < 1e-15
    assert abs(sq.a) < 1e-15 and abs(sq.b - 1j) < 1e-15


@given(stn.integers(min_value=0, max_value=2**32 - 1), stn.integers(min_value=0, max_value=2**32 - 1))
@settings(**SETTINGS)
def test_group_mul_random_pairs_match_matrix_product(s1, s2):
    g, h = haar_sample(s1), haar_sample(s2)
    gh = group_mul(g, h)
    oracle = g.matrix() @ h.matrix()
    assert abs(gh.a - oracle[0, 0]) < 1e-14
    assert abs(gh.b - oracle[0, 1]) < 1e-14


def test_ladder_values():
    assert ladder_coeff(1, 1, "lower") == pytest.approx(1.0)
    assert ladder_coeff(5, 5, "raise") == 0.0
    assert ladder_coeff(2, 0, "lower") == pytest.approx(np.sqrt(2.0))


@given(stn.integers(min_value=0, max_value=40))
@settings(**SETTINGS)
def test_ladder_edges_vanish(m):
    assert ladder_coeff(m, m, "raise") == 0.0
    assert ladder_coeff(m, -m, "lower") == 0.0


@given(stn.integers(min_value=0, max_value=20), stn.integers(min_value=-25, max_value=25))
@settings(**SETTINGS)
def test_ladder_rejects_invalid_weights(m, alpha):
    if is_valid_weight(m, alpha):
        ladder_coeff(m, alpha, "raise")
    else:
        with pytest.raises(ValueError):
            ladder_coeff(m, alpha, "lower")


def test_irrep_identity_and_trivial():
    for m in (0, 1, 4, 9):
        D = irrep_matrix(m, GroupElement.identity())
        assert np.max(np.abs(D - np.eye(m + 1))) < 1e-14
    g = haar_sample(5)
    assert irrep_matrix(0, g).shape == (1, 1)
    assert abs(irrep_matrix(0, g)[0, 0] - 1.0) < 1e-15


def test_irrep_m1_entries():
    g = haar_sample(23)
    D = irrep_matrix(1, g)
    expected = np.array([[np.conj(g.a), g.b], [-np.conj(g.b), g.a]])
    assert np.max(np.abs(D - expected)) < 1e-15


def test_unitarity_sweep():
    worst = 0.0
    for s in range(200):
        g = haar_sample(1000 + s)
        for m in (3, 17, 40):
            D = irrep_matrix(m, g)
            worst = max(worst, np.max(np.abs(D.conj().T @ D - np.eye(m + 1))))
    assert worst <= 1e-10


def test_product_rule_transpose_convention():
    # rows are indexed by the input vector, so the matrix map reverses
    # products: D(gh) = D(h) D(g).
    for s in range(100):
        g, h = haar_sample(2 * s), haar_sample(2 * s + 1)
        for m in (2, 9, 30):
            lhs = irrep_matrix(m, group_mul(g, h))
            rhs = irrep_matrix(m, h) @ irrep_matrix(m, g)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_irrep_routes_agree():
    # eigensystem route vs direct binomial expansion (independent oracle)
    from s3lab.su2 import irrep_matrix_binomial

    for s in range(10):
        g = haar_sample(s)
        for m in (2, 7, 16):
            diff = np.max(np.abs(irrep_matrix(m, g) - irrep_matrix_binomial(m, g)))
            assert diff < 1e-11


def test_character_closed_form():
    for s in range(50):
        g = haar_sample(s)
        theta = g.rotation_angle()
        for m in (1, 3, 12):
            tr = np.trace(irrep_matrix(m, g))
            assert abs(tr.imag) < 1e-10
            assert abs(character(m, g) - tr.real) <= 1e-9
    # dimension at the identity, zero of the geometric sum at theta = pi/2
    assert character(6, GroupElement.identity()) == pytest.approx(7.0)
    g90 = from_angles(np.pi / 2, 0.0, 0.3)  # a = 0 so theta = pi/2
    assert abs(character(3, g90)) < 1e-12
    g = haar_sample(77)
    assert character(1, g) == pytest.approx(2.0 * g.a.real)


def test_character_near_singular_angles():
    g = GroupElement(np.cos(1e-10) + 0j, np.sin(1e-10) + 0j)
    assert character(5, g) == pytest.approx(6.0, abs=1e-6)
    gneg = GroupElement(-1.0 + 0j, 1e-11 + 0j)
    assert character(4, gneg) == pytest.approx(5.0, abs=1e-6)


@pytest.mark.parametrize("m,theta", [(200, 0.013), (200, np.pi - 0.013), (400, 1e-4),
                                     (400, 9e-9), (1000, 3e-9), (400, np.pi - 2e-8)])
def test_character_is_accurate_near_zero_and_pi(m, theta):
    # the reference takes chi_m at pi - d as (-1)^m chi_m at d, with d = pi - theta
    # to full precision (np.pi - theta is exact; pi - np.pi = 1.2246467991473532e-16):
    # the product (m+1) theta rounds by up to (m+1) ulp(pi) / 2 near pi, which
    # sin((m+1) theta) / sin(theta) turns into an error of 4e-12 at (200, pi - 0.013)
    near_pi = theta > 1.0
    delta = (np.pi - theta) + 1.2246467991473532e-16 if near_pi else theta
    sign = (-1) ** m if near_pi else 1
    if delta > 1e-6:
        want = np.sin((m + 1) * delta) / np.sin(delta)
        assert abs(character(m, from_angles(theta, 0.0, 0.0)) - sign * want) <= 1e-12
        return
    # sin((m+1) d) / sin(d) = (m+1) (1 - ((m+1)^2 - 1) d^2 / 6) + O((m+1)^5 d^4); the
    # reflection (-cos d, sin d) of a small angle d is built exactly
    series = (m + 1) * (1.0 - ((m + 1) ** 2 - 1) * delta**2 / 6.0)
    assert abs(character(m, from_angles(theta, 0.0, 0.0)) - sign * series) <= 1e-11
    if not near_pi:
        reflection = GroupElement(complex(-np.cos(delta)), complex(np.sin(delta)))
        assert abs(character(m, reflection) - (-1) ** m * series) <= 1e-11


def test_haar_sample_deterministic_and_normalized():
    g1, g2 = haar_sample(42), haar_sample(42)
    assert g1 == g2
    assert abs(abs(g1.a) ** 2 + abs(g1.b) ** 2 - 1.0) < 1e-12


def test_haar_sample_character_moments():
    # Schur orthogonality: E chi_1 = 0 and E |chi_1|^2 = 1, within 3 sigma
    gs = haar_samples(100_000, 7)
    chi = np.array([character(1, g) for g in gs])
    assert abs(chi.mean()) <= 3.0 / np.sqrt(len(chi))
    var_sigma = np.std(chi**2) / np.sqrt(len(chi))
    assert abs((chi**2).mean() - 1.0) <= 3.0 * var_sigma


def test_quadrature_normalization_and_positivity():
    for levels in ((2, 2, 2), (5, 8, 3), (16, 16, 16)):
        q = haar_quadrature(levels)
        assert abs(q.weights.sum() - 1.0) < 1e-12
        assert (q.theta_weight > 0).all()


def test_quadrature_rejects_low_levels():
    with pytest.raises(ValueError):
        haar_quadrature((1, 8, 8))


@pytest.mark.parametrize("levels", [(8, 8.5, 8), (8.0, 8, 8), (8, 8, 8.0), (True, 8, 8),
                                    (8, np.float64(8), 8), (8, 8, "8")])
def test_quadrature_rejects_non_integer_levels(levels):
    with pytest.raises(ValueError, match="must be integers"):
        haar_quadrature(levels)


def test_quadrature_weights_on_request():
    q = haar_quadrature((4, 3, np.int64(5)))
    assert q.levels == (4, 3, 5)
    assert q.weights.shape == (q.node_count,)
    np.testing.assert_allclose(q.weights.reshape(q.levels).sum(axis=(1, 2)), q.theta_weight,
                               rtol=1e-14)


def test_quadrature_schur_relations():
    # both Schur statements at levels (32, 32, 32), m, m' <= 6
    q = haar_quadrature((32, 32, 32))
    nphi = q.nphi1
    grids = {}
    for m in range(7):
        d = wigner_d(m, q.theta)
        j = np.arange(m + 1)
        P = (j[:, None] + j[None, :] - m) % nphi
        Q = (j[None, :] - j[:, None]) % nphi
        vals = np.zeros((len(q.theta), nphi, nphi, m + 1, m + 1), dtype=complex)
        e1 = np.exp(2j * np.pi * np.arange(nphi) / nphi)
        for a in range(m + 1):
            for b in range(m + 1):
                mode = np.outer(e1 ** P[a, b], e1 ** Q[a, b])
                vals[:, :, :, a, b] = d[:, a, b][:, None, None] * mode[None, :, :]
        grids[m] = vals
    # same-representation relation: <D[a,b], D[c,e]> = delta_ac delta_be/(m+1)
    for m in (1, 4, 6):
        vals = grids[m]
        for a, b, c, e in [(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0), (m, m, m, m), (0, 0, 1, 1)]:
            integral = q.integrate(vals[:, :, :, a, b] * np.conj(vals[:, :, :, c, e]))
            expected = (1.0 if (a == c and b == e) else 0.0) / (m + 1)
            assert abs(integral - expected) <= 1e-8
    # cross-representation orthogonality
    for m, mp in [(0, 2), (1, 2), (3, 6), (5, 6)]:
        va, vb = grids[m], grids[mp]
        integral = q.integrate(va[:, :, :, 0, 0] * np.conj(vb[:, :, :, 0, 0]))
        assert abs(integral) <= 1e-8


@pytest.mark.parametrize("m", [0, 1, 8, 63, 64, 120])
def test_wigner_d_matches_per_angle_block(m):
    # odd m has no zero eigenvalue, even m has one; 120 is the largest degree
    # the scans evaluate (the zonal cell (120, 60)), where 23 angles span
    # several chunks
    thetas = np.linspace(0.0, np.pi / 2, 23)
    d = wigner_d(m, thetas)
    assert d.shape == (len(thetas), m + 1, m + 1)
    for i, th in enumerate(thetas):
        assert np.max(np.abs(d[i] - _rotation_block(m, th))) <= 1e-13
    eye = np.eye(m + 1)
    assert np.max(np.abs(d @ d.transpose(0, 2, 1) - eye)) <= 1e-13


def test_ladder_coeffs_are_the_closed_forms_bit_for_bit():
    # both arrays against the formulas in Python floats, one weight at a time
    for m in range(65):
        c_plus, c_minus = _ladder_coeffs(m)
        alphas = range(-m, m + 1, 2)
        want_plus = [0.5 * math.sqrt((m + a + 2.0) * (m - a)) for a in alphas]
        want_minus = [0.5 * math.sqrt((m - a + 2.0) * (m + a)) for a in alphas]
        np.testing.assert_array_equal(c_plus, np.array(want_plus))
        np.testing.assert_array_equal(c_minus, np.array(want_minus))
        assert c_plus[-1] == 0.0 and c_minus[0] == 0.0


_DIAGONAL_ANGLES = np.concatenate([[0.0, np.pi / 2], np.linspace(0.013, 3.1, 35)])


@pytest.mark.parametrize("m", [0, 1, 2, 7, 64, 120, 200])
def test_wigner_d_diagonal_matches_the_full_stack(m):
    diag = wigner_d_diagonal(m, _DIAGONAL_ANGLES)
    assert diag.shape == (37, m + 1)
    full = np.diagonal(wigner_d(m, _DIAGONAL_ANGLES), axis1=1, axis2=2)
    assert np.max(np.abs(diag - full)) <= 1e-15
    # the trace at a = cos(theta), b = sin(theta) is the character; the
    # tolerance scales with the character's size m+1
    chars = [character(m, from_angles(th, 0.0, 0.0)) for th in _DIAGONAL_ANGLES]
    assert np.max(np.abs(diag.sum(axis=1) - chars)) <= 1e-12 * (m + 1)


def test_wigner_d_diagonal_rejects_negative_degree():
    with pytest.raises(ValueError):
        wigner_d_diagonal(-1, [0.0])


def test_irrep_stacks_match_irrep_matrix():
    # the block check's stacks: one wigner_d call per degree plus phases
    gs = [haar_sample(s) for s in range(6)] + [from_angles(0.0, 0.3, 1.1),
                                               from_angles(np.pi / 2, -2.0, 0.4)]
    stacks = _irrep_stacks([0, 1, 5, 12, 20], gs)
    for d, stack in stacks.items():
        assert stack.shape == (len(gs), d + 1, d + 1)
        for i, g in enumerate(gs):
            assert np.max(np.abs(stack[i] - irrep_matrix(d, g))) <= 1e-13


def test_weights_helper():
    assert list(weights(3)) == [-3, -1, 1, 3]
    assert list(weights(0)) == [0]
