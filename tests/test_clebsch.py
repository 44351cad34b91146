import math
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as stn

from s3lab import clebsch
from s3lab.bilinear import product_decompose, random_eigenfunction
from s3lab.su2 import haar_sample, irrep_matrix
from s3lab.clebsch import (
    CGConstructionError,
    casimir_matrix,
    casimir_projectors,
    cg_decompose,
    chain_projectors,
    change_of_basis,
    block_diagonalization_defect,
    expand_in_product_basis,
    verify_orthogonality,
)

SETTINGS = dict(max_examples=20, deadline=None, database=None, derandomize=True)
ROOT2 = 1.0 / np.sqrt(2.0)


def test_tensor_with_trivial_is_identity():
    t = cg_decompose(7, 0)
    for alpha in range(-7, 8, 2):
        assert t.coefficient(7, alpha, alpha, 0) == pytest.approx(1.0)
    rep = verify_orthogonality(t)
    assert rep["max_row_defect"] == 0.0 and rep["max_col_defect"] == 0.0
    assert len(list(t.records())) == 8


def test_one_one_table_values():
    t = cg_decompose(1, 1)
    assert t.coefficient(2, 2, 1, 1) == pytest.approx(1.0)
    assert t.coefficient(2, 0, 1, -1) == pytest.approx(ROOT2)
    assert t.coefficient(2, 0, -1, 1) == pytest.approx(ROOT2)
    assert t.coefficient(0, 0, 1, -1) == pytest.approx(ROOT2)
    assert t.coefficient(0, 0, -1, 1) == pytest.approx(-ROOT2)
    assert len(list(t.records())) == 6


def test_two_one_dimensions():
    t = cg_decompose(2, 1)
    assert list(t.kvals) == [3, 1]
    assert t.dimension_identity()
    assert sum(int(k) + 1 for k in t.kvals) == 6


def test_weight_conservation_and_triangle_lookups():
    t = cg_decompose(4, 2)
    assert t.coefficient(4, 2, 2, -2) == 0.0  # alpha + beta != gamma
    assert t.coefficient(8, 0, 2, -2) == 0.0  # k outside the triangle range
    assert t.coefficient(2, 4, 4, 0) == 0.0  # gamma beyond k
    assert t.coefficient(4, 2, 1, 1) == 0.0  # alpha and beta of the wrong parity
    assert t.coefficient(6, 4, 6, -2) == 0.0  # |alpha| > m
    assert t.coefficient(6, 2, -2, 4) == 0.0  # |beta| > n
    assert t.coefficient(6, -6, -4, -2) == pytest.approx(1.0)  # the corner, on the support


@pytest.mark.parametrize("mn", [(4, 2), (7, 4), (9, 0), (5, 5)])
def test_table_is_one_array_by_beta_slot(mn):
    m, n = mn
    t = cg_decompose(m, n)
    assert not hasattr(t, "alphas")
    assert isinstance(t.blocks, np.ndarray) and t.blocks.shape == (m + n + 1, n + 1, n + 1)
    for tt, gamma in enumerate(t.gammas.tolist()):
        for kappa, k in enumerate(t.kvals.tolist()):
            for j in range(n + 1):
                alpha, beta = gamma - (2 * j - n), 2 * j - n
                want = t.coefficient(k, gamma, alpha, beta)
                assert t.blocks[tt, kappa, j] == want
                if abs(gamma) > k or abs(alpha) > m:
                    assert want == 0.0


@pytest.mark.parametrize("mn", [(12, 6), (9, 4), (3, 0), (8, 8)])
def test_reflected_half_is_exact_on_the_array(mn):
    # blocks[G-1-t, kappa, n-j] == (-1)^kappa blocks[t, kappa, j]; at m + n
    # even the middle weight gamma = 0 is lowered, not reflected
    m, n = mn
    B = cg_decompose(m, n).blocks
    G = len(B)
    sign = (-1.0) ** np.arange(n + 1)[:, None]
    for t in range(G):
        if t != G - 1 - t:
            np.testing.assert_array_equal(B[G - 1 - t][:, ::-1], sign * B[t])


def test_cg_decompose_peak_stays_small():
    # one (m+n+1, n+1, n+1) table plus per-weight columns: 64 KB at
    # (2000, 1); a (weights x alpha slots) grid is 16 MB at this size
    tracemalloc.start()
    try:
        cg_decompose(2000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_invalid_order_rejected():
    with pytest.raises(ValueError):
        cg_decompose(2, 4)


@given(stn.integers(min_value=0, max_value=14), stn.integers(min_value=0, max_value=14))
@settings(**SETTINGS)
def test_orthogonality_random_pairs(m, n):
    if m < n:
        m, n = n, m
    rep = verify_orthogonality(cg_decompose(m, n))
    assert rep["max_row_defect"] <= 1e-9
    assert rep["max_col_defect"] <= 1e-9


def test_orthogonality_medium_table():
    rep = verify_orthogonality(cg_decompose(12, 8))
    assert rep["max_row_defect"] <= 1e-9 and rep["max_col_defect"] <= 1e-9


def test_casimir_small_spectra():
    evals = np.sort(np.linalg.eigvalsh(casimir_matrix(1, 1)))
    assert np.allclose(evals, [0.0, 8.0, 8.0, 8.0], atol=1e-12)
    evals10 = np.linalg.eigvalsh(casimir_matrix(1, 0))
    assert np.allclose(evals10, [3.0, 3.0], atol=1e-12)


def test_casimir_spectrum_multiplicities():
    m, n = 6, 4
    evals = np.linalg.eigvalsh(casimir_matrix(m, n))
    for k in range(m - n, m + n + 1, 2):
        hits = np.sum(np.abs(evals - k * (k + 2.0)) < 1e-8)
        assert hits == k + 1


def test_casimir_dimension_guard():
    with pytest.raises(ValueError):
        casimir_matrix(80, 80)


def literal_casimir(m, n):
    """H^2 + 2EF + 2FE on the dense Kronecker products of the ladder matrices."""
    Hm, Em, Fm = clebsch._ladder_matrices(m)
    Hn, En, Fn = clebsch._ladder_matrices(n)
    Im, In = np.eye(m + 1), np.eye(n + 1)
    H = np.kron(Hm, In) + np.kron(Im, Hn)
    E = np.kron(Em, In) + np.kron(Im, En)
    F = np.kron(Fm, In) + np.kron(Im, Fn)
    return H @ H + 2.0 * (E @ F) + 2.0 * (F @ E)


@pytest.mark.parametrize("mn", [(0, 0), (1, 0), (3, 3), (6, 4), (20, 2)])
def test_casimir_matrix_matches_the_literal_operator(mn):
    m, n = mn
    literal = literal_casimir(m, n)
    # Omega keeps the weight: every entry between two weights is exactly 0
    i, j = np.divmod(np.arange((m + 1) * (n + 1)), n + 1)
    assert np.all(literal[(i + j)[:, None] != (i + j)[None, :]] == 0.0)
    assert np.max(np.abs(casimir_matrix(m, n) - literal)) <= 1e-12


def test_casimir_projectors_refuse_a_shifted_eigenvalue(monkeypatch):
    eigh = np.linalg.eigh
    scattered = []

    def shifted(a):
        vals, vecs = eigh(a)
        vals[3, -1] += 4.0      # the block gamma = 1 of (3, 2): its k = 5 value 35 moves to 39
        return vals, vecs

    monkeypatch.setattr(clebsch.np.linalg, "eigh", shifted)
    monkeypatch.setattr(clebsch, "_scatter_blocks", lambda *a: scattered.append(a))
    # the multiplicity check runs at the call, before any projector is built
    with pytest.raises(RuntimeError, match="k=5 has multiplicity 5, expected 6"):
        casimir_projectors(3, 2)
    assert scattered == []


def test_projector_mappings_keys_order_and_misses():
    t = cg_decompose(5, 3)
    chain, oracle = chain_projectors(t), casimir_projectors(5, 3)
    for proj, order in ((chain, [8, 6, 4, 2]), (oracle, [2, 4, 6, 8])):
        assert isinstance(proj, Mapping)
        assert list(proj) == list(proj.keys()) == order and len(proj) == 4
        # outside the triangle (10, 0) or of the wrong parity (5)
        for k in (10, 0, 5):
            assert k not in proj
            with pytest.raises(KeyError):
                proj[k]
        assert [k for k, _ in proj.items()] == order


def test_projector_mappings_return_fresh_arrays():
    t = cg_decompose(6, 4)
    for proj in (chain_projectors(t), casimir_projectors(6, 4)):
        first = proj[6]
        kept = first.copy()
        first[...] = 0.0
        np.testing.assert_array_equal(proj[6], kept)
        assert proj[6] is not proj[6]


def test_chain_projectors_are_the_degree_block_products():
    t = cg_decompose(9, 7)
    chain = chain_projectors(t)
    for k, Uk in clebsch._degree_blocks(t):
        np.testing.assert_array_equal(chain[k], Uk @ Uk.T)


def test_projector_oracles_hold_one_degree_at_a_time():
    # all 16 dense 256 x 256 projectors of (15, 15) at once, per oracle,
    # would be 8 MiB; read one k at a time, a comparison holds at most
    # four of them (2 MiB) plus the index arrays and eigenvectors
    t = cg_decompose(15, 15)
    casimir_projectors(15, 15)                       # fill su2's cached tables first
    tracemalloc.start()
    try:
        chain, oracle = chain_projectors(t), casimir_projectors(15, 15)
        worst = max(float(np.max(np.abs(chain[k] - oracle[k]))) for k in chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert worst <= 1e-8
    assert peak < 4 * 256**2 * 8 + 2**18


@pytest.mark.parametrize("mn", [(1, 1), (5, 3), (9, 7), (15, 15), (255, 0), (127, 1), (84, 2)])
def test_projectors_match_casimir_oracle(mn):
    t = cg_decompose(*mn)
    P_cg = chain_projectors(t)
    P_or = casimir_projectors(*mn)
    assert set(P_cg) == set(P_or)
    for k in P_cg:
        assert np.max(np.abs(P_cg[k] - P_or[k])) <= 1e-8


@pytest.mark.parametrize("mn", [(3, 2), (6, 6), (10, 4)])
def test_equivariance_block_diagonalization(mn):
    t = cg_decompose(*mn)
    gs = [haar_sample(s) for s in range(5)]
    stacked = block_diagonalization_defect(t, gs)
    assert stacked <= 1e-8
    # the stack pairs D^m(g) with D^n(g) of the same element
    single = max(block_diagonalization_defect(t, [g]) for g in gs)
    assert stacked == pytest.approx(single, rel=0.0, abs=1e-15)


@pytest.mark.parametrize("m", [0, 1, 4, 9])
def test_block_diagonalization_with_trivial_factor(m):
    # (m, 0) tables have one block and no off-block entries: the change of
    # basis is the identity, the block is D^m itself and the leakage is 0
    assert block_diagonalization_defect(cg_decompose(m, 0), [haar_sample(s) for s in range(3)]) == 0.0


def test_cached_table_is_read_only():
    # cg_table hands one table to every caller: a NaN written into its
    # blocks used to reach every later verify_orthogonality and product norm
    table = clebsch.cg_table(3, 2)
    before = [arr.copy() for arr in (table.gammas, table.kvals, table.blocks)]
    for arr, index in ((table.gammas, 0), (table.kvals, 0), (table.blocks, (2, 0, 1))):
        with pytest.raises(ValueError, match="read-only"):
            arr[index] = np.nan if arr.dtype.kind == "f" else 99
    again = clebsch.cg_table(3, 2)
    assert again is table
    for arr, ref in zip((again.gammas, again.kvals, again.blocks), before):
        assert np.array_equal(arr, ref)
    rep = verify_orthogonality(again)
    assert rep["max_row_defect"] <= 1e-13 and rep["max_col_defect"] <= 1e-13


def test_block_diagonalization_propagates_nan():
    t = cg_decompose(4, 2)
    blocks = t.blocks.copy()
    blocks[3, 0, 2] = np.nan  # k = 6, gamma = 0, beta = 2, alpha = -2: on the support
    bad = clebsch.CGTable(m=t.m, n=t.n, gammas=t.gammas, kvals=t.kvals, blocks=blocks)
    assert np.isnan(block_diagonalization_defect(bad, [haar_sample(0), haar_sample(1)]))


@pytest.mark.parametrize("mn", [(8, 4), (16, 9), (20, 20)])
def test_degree_blocks_concatenate_to_the_change_of_basis(mn):
    t = cg_decompose(*mn)
    blocks = list(clebsch._degree_blocks(t))
    assert [k for k, _ in blocks] == t.kvals.tolist()
    np.testing.assert_array_equal(np.concatenate([Uk for _, Uk in blocks], axis=1),
                                  change_of_basis(t))


def test_base_change_inversion():
    # reconstructing each pure tensor from the table reproduces it
    m, n = 6, 4
    t = cg_decompose(m, n)
    U = change_of_basis(t)
    assert np.max(np.abs(U @ U.T - np.eye((m + 1) * (n + 1)))) <= 1e-10


def test_expand_in_product_basis():
    t = cg_decompose(3, 2)
    top = expand_in_product_basis(t, 5, 5)
    expect = np.zeros((4, 3))
    expect[3, 2] = 1.0
    assert top.shape == (4, 3) and np.max(np.abs(top - expect)) < 1e-14
    for k in (5, 3, 1):
        for gamma in range(-k, k + 1, 2):
            v = expand_in_product_basis(t, k, gamma)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(KeyError):
        expand_in_product_basis(t, 7, 1)
    with pytest.raises(KeyError):
        expand_in_product_basis(t, 3, 5)


def test_antisymmetric_singlet():
    t = cg_decompose(1, 1)
    v = expand_in_product_basis(t, 0, 0)
    assert v[1, 0] == pytest.approx(ROOT2)   # alpha=+1, beta=-1
    assert v[0, 1] == pytest.approx(-ROOT2)  # alpha=-1, beta=+1


def test_serialization_round_trip(tmp_path):
    from s3lab import cli

    t = cg_decompose(3, 1)
    assert cli.main(["cg-table", "3", "1", "--out", str(tmp_path)]) == 0
    csv_path = tmp_path / "cg_table_m3_n1.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "m,n,k,gamma,alpha,beta,value"
    assert len(lines) - 1 == len(list(t.records()))
    # values carry enough digits to round-trip exactly
    for line in lines[1:]:
        parts = line.split(",")
        k, gamma, alpha, beta = map(int, parts[2:6])
        assert float(parts[6]) == t.coefficient(k, gamma, alpha, beta)


def test_construction_stability_long_chain():
    rep = verify_orthogonality(cg_decompose(40, 20))
    assert rep["max_row_defect"] <= 1e-12
    assert rep["max_col_defect"] <= 1e-12


# -- exact values: the Racah formula ------------------------------------------

def racah_cg(m, n, k, alpha, beta):
    """<j1 m1 j2 m2 | J M> in the Condon-Shortley convention by the Racah
    formula, exactly in rationals and rounded once; every argument doubled
    (j1 = m/2, m1 = alpha/2, j2 = n/2, m2 = beta/2, J = k/2)."""
    f = math.factorial
    gamma = alpha + beta
    a, b, c = (m + n - k) // 2, (m - n + k) // 2, (n - m + k) // 2
    square = Fraction((k + 1) * f(a) * f(b) * f(c), f((m + n + k) // 2 + 1))
    square *= (f((m + alpha) // 2) * f((m - alpha) // 2) * f((n + beta) // 2)
               * f((n - beta) // 2) * f((k + gamma) // 2) * f((k - gamma) // 2))
    total = Fraction(0)
    for z in range(a + 1):
        args = (z, a - z, (m - alpha) // 2 - z, (n + beta) // 2 - z,
                (k - n + alpha) // 2 + z, (k - m - beta) // 2 + z)
        if min(args) >= 0:
            term = Fraction(1, math.prod(f(x) for x in args))
            total += -term if z % 2 else term
    return math.copysign(math.sqrt(square * total * total), total)


def table_entries(table):
    """(k, gamma, alpha, beta) of every stored coefficient."""
    return [rec[2:6] for rec in table.records()]


def test_racah_oracle_small_values():
    assert racah_cg(1, 1, 0, 1, -1) == pytest.approx(ROOT2, abs=1e-15)
    assert racah_cg(1, 1, 0, -1, 1) == pytest.approx(-ROOT2, abs=1e-15)
    assert racah_cg(2, 2, 2, 0, 0) == 0.0   # <1 0 1 0 | 1 0> vanishes


@pytest.mark.parametrize("mn", [(9, 5), (16, 16), (20, 7)])
def test_whole_tables_match_racah(mn):
    t = cg_decompose(*mn)
    worst = max(abs(t.coefficient(k, g, a, b) - racah_cg(*mn, k, a, b))
                for k, g, a, b in table_entries(t))
    assert worst <= 1e-13


@pytest.mark.parametrize("mn", [(60, 30), (90, 90), (150, 50)])
def test_sampled_entries_match_racah(mn):
    # the sizes that criterion 1 and the cg-table command build
    t = cg_decompose(*mn)
    entries = table_entries(t)
    rng = np.random.default_rng(sum(mn))
    picks = [entries[i] for i in rng.choice(len(entries), size=50, replace=False)]
    worst = max(abs(t.coefficient(k, g, a, b) - racah_cg(*mn, k, a, b))
                for k, g, a, b in picks)
    assert worst <= 1e-13


def test_reflection_symmetry():
    # m + n even: the gamma = 0 block is lowered, not reflected, so the
    # symmetry holds there to rounding only
    m, n = 12, 6
    t = cg_decompose(m, n)
    for k, g, a, b in table_entries(t):
        sign = (-1) ** ((m + n - k) // 2)
        assert abs(t.coefficient(k, -g, -a, -b) - sign * t.coefficient(k, g, a, b)) <= 1e-15


# -- fail closed --------------------------------------------------------------

def off_complement_tops(chain_tops, m, n, eps=1e-3):
    """The chain tops of (m, n) with the top of k = m+n-2 moved eps off the
    orthogonal complement of the first chain: at weight m+n-2 that chain is
    (sqrt(m), sqrt(n)) / sqrt(m+n) on alpha = m-2, m."""
    tops = chain_tops(m, n)
    lowered = np.sqrt([m, n]) / np.sqrt(m + n)
    row = tops[1, :2] + eps * lowered
    tops[1, :2] = row / np.linalg.norm(row)
    return tops


def test_construction_error_on_a_top_off_the_complement(monkeypatch):
    tops = clebsch._chain_tops
    monkeypatch.setattr(clebsch, "_chain_tops", lambda m, n: off_complement_tops(tops, m, n))
    with pytest.raises(CGConstructionError, match="Gram defect"):
        cg_decompose(12, 8)
    # the unperturbed tops are orthogonal to the first chain to rounding
    assert abs(tops(12, 8)[1, :2] @ (np.sqrt([12, 8]) / np.sqrt(20))) <= 1e-15


def test_nan_table_reads_nan_defects():
    t = cg_decompose(9, 5)
    nan = clebsch.CGTable(m=t.m, n=t.n, gammas=t.gammas, kvals=t.kvals,
                          blocks=np.full_like(t.blocks, np.nan))
    rep = verify_orthogonality(nan)
    assert np.isnan(rep["max_row_defect"]) and np.isnan(rep["max_col_defect"])


# -- the change of basis against its column-by-column construction ------------

@pytest.mark.parametrize("mn", [(6, 4), (15, 15), (40, 3)])
def test_change_of_basis_matches_expansion(mn):
    t = cg_decompose(*mn)
    cols = [expand_in_product_basis(t, int(k), g).ravel()
            for k in t.kvals for g in range(-int(k), int(k) + 1, 2)]
    np.testing.assert_array_equal(change_of_basis(t), np.column_stack(cols))


def direct_s_sums(table, a, b):
    """S(k, gamma, gamma') by the per-(gamma, gamma') double loop."""
    m, n = table.m, table.n
    out = {}
    for k in table.kvals:
        k = int(k)
        vecs = []
        for gamma in range(-k, k + 1, 2):
            alphas, coeffs = table.chain_vector(k, gamma)
            vecs.append(((alphas + m) // 2, (gamma - alphas + n) // 2, coeffs))
        S = np.zeros((k + 1, k + 1), dtype=complex)
        for i, (ar1, br1, c1) in enumerate(vecs):
            for j, (ar2, br2, c2) in enumerate(vecs):
                S[i, j] = c1 @ (a[np.ix_(ar1, ar2)] * b[np.ix_(br1, br2)]) @ c2
        out[k] = S
    return out


@pytest.mark.parametrize("mn", [(0, 0), (3, 1), (4, 4), (6, 2), (6, 5)])
def test_product_decompose_matches_direct_s_sums(mn):
    m, n = mn
    f, g = random_eigenfunction(m, [7, m, n]), random_eigenfunction(n, [8, m, n])
    t = cg_decompose(m, n)
    dec = product_decompose(f, g, t)
    ref = direct_s_sums(t, f.coeffs, g.coeffs)
    assert set(dec.s_sums) == set(ref)
    for k, S in ref.items():
        assert np.max(np.abs(dec.s_sums[k] - S)) <= 1e-14
