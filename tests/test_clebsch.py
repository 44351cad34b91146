import numpy as np
import pytest
from hypothesis import given, settings, strategies as stn

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


@pytest.mark.parametrize("mn", [(1, 1), (5, 3), (9, 7), (15, 15)])
def test_projectors_match_casimir_oracle(mn):
    t = cg_decompose(*mn)
    P_cg = chain_projectors(t)
    P_or = casimir_projectors(*mn)
    assert set(P_cg) == set(P_or)
    for k in P_cg:
        assert np.max(np.abs(P_cg[k] - P_or[k])) <= 1e-8


@pytest.mark.parametrize("mn", [(3, 2), (6, 6), (10, 4)])
def test_equivariance_block_diagonalization(mn):
    for s in range(5):
        assert block_diagonalization_defect(cg_decompose(*mn), haar_sample(s)) <= 1e-8


@pytest.mark.parametrize("m", [0, 1, 4, 9])
def test_block_diagonalization_with_trivial_factor(m):
    # (m, 0) tables have one block and no off-block entries: leakage is 0
    for s in range(3):
        assert block_diagonalization_defect(cg_decompose(m, 0), haar_sample(s)) <= 1e-12


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
    assert np.max(np.abs(top.entries - expect)) < 1e-14
    for k in (5, 3, 1):
        for gamma in range(-k, k + 1, 2):
            v = expand_in_product_basis(t, k, gamma)
            assert v.norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(KeyError):
        expand_in_product_basis(t, 7, 1)
    with pytest.raises(KeyError):
        expand_in_product_basis(t, 3, 5)


def test_antisymmetric_singlet():
    t = cg_decompose(1, 1)
    v = expand_in_product_basis(t, 0, 0)
    assert v.entries[1, 0] == pytest.approx(ROOT2)   # alpha=+1, beta=-1
    assert v.entries[0, 1] == pytest.approx(-ROOT2)  # alpha=-1, beta=+1


def test_serialization_round_trip(tmp_path):
    t = cg_decompose(3, 1)
    csv_path = tmp_path / "t.csv"
    json_path = tmp_path / "t.json"
    t.to_csv(csv_path)
    t.to_json(json_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "m,n,k,gamma,alpha,beta,value"
    assert len(lines) - 1 == len(list(t.records()))
    # values carry enough digits to round-trip exactly
    for line in lines[1:]:
        parts = line.split(",")
        k, gamma, alpha, beta = map(int, parts[2:6])
        assert float(parts[6]) == t.coefficient(k, gamma, alpha, beta)
    import json

    rows = json.loads(json_path.read_text())
    assert len(rows) == len(lines) - 1


def test_construction_stability_long_chain():
    rep = verify_orthogonality(cg_decompose(40, 20))
    assert rep["max_row_defect"] <= 1e-12
    assert rep["max_col_defect"] <= 1e-12
