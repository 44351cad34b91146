"""Clebsch-Gordan tables for tensor products of SU(2) irreducibles.

The table for a pair (m, n), m >= n, is built by the lowering-chain plus
orthogonal-complement algorithm: the chain for the top block k = m+n starts
from the highest-weight pure tensor; each subsequent chain top is the (unique
up to phase) vector of the largest remaining weight eigenvalue annihilated by
the raising operator inside the orthogonal complement of the chains built so
far.  Tops are lowered step by step with

    F (v_{m,alpha} x v_{n,beta}) = c_-(m,alpha) v_{m,alpha-2} x v_{n,beta}
                                 + c_-(n,beta)  v_{m,alpha} x v_{n,beta-2},

normalizing each step.  Phase convention: the chain-top coefficient on the
product-basis element with the largest alpha is real and strictly positive.
Under this convention every stored coefficient is real.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .su2 import GroupElement, irrep_matrix

_ORTH_TOL = 1e-8


class CGConstructionError(RuntimeError):
    """Raised when a chain top cannot be orthogonalized to tolerance."""


@dataclass(frozen=True)
class TensorVector:
    """Vector in the product basis, stored as an (m+1) x (n+1) matrix of
    coefficients on v_{m,alpha} x v_{n,beta} (slots alpha = 2i - m, beta = 2j - n)."""

    m: int
    n: int
    entries: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))


@dataclass(frozen=True)
class CGTable:
    """All Clebsch-Gordan coefficients for one pair (m, n), m >= n.

    Storage is per weight gamma: ``blocks[t]`` has shape (K, d_t) where
    K = n + 1 rows follow ``kvals`` (k = m+n, m+n-2, ..., m-n) and the d_t
    columns follow ``alphas[t]`` (ascending alpha with beta = gamma - alpha).
    Rows with k < |gamma| are structural zeros.
    """

    m: int
    n: int
    gammas: np.ndarray          # m+n, m+n-2, ..., -(m+n)
    kvals: np.ndarray           # m+n, m+n-2, ..., m-n
    alphas: list                # per gamma: ascending alpha values
    blocks: list                # per gamma: (K, d_t) float array
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- basic lookups ------------------------------------------------------

    def gamma_index(self, gamma: int) -> int:
        t = (self.m + self.n - gamma) // 2
        if t < 0 or t >= len(self.gammas) or (gamma - self.m - self.n) % 2 != 0:
            raise KeyError(f"gamma={gamma} outside table range")
        return t

    def k_index(self, k: int) -> int:
        kappa = (self.m + self.n - k) // 2
        if kappa < 0 or kappa >= len(self.kvals) or (k - self.m - self.n) % 2 != 0:
            raise KeyError(f"k={k} outside triangle range")
        return kappa

    def coefficient(self, k: int, gamma: int, alpha: int, beta: int) -> float:
        """Keyed lookup; structurally absent entries return 0."""
        if alpha + beta != gamma:
            return 0.0
        try:
            kappa = self.k_index(k)
            t = self.gamma_index(gamma)
        except KeyError:
            return 0.0
        if abs(gamma) > k:
            return 0.0
        idx = np.searchsorted(self.alphas[t], alpha)
        if idx >= len(self.alphas[t]) or self.alphas[t][idx] != alpha:
            return 0.0
        return float(self.blocks[t][kappa, idx])

    def chain_vector(self, k: int, gamma: int) -> tuple[np.ndarray, np.ndarray]:
        """(alphas, coefficients) of u_{k,gamma} on the product basis."""
        kappa = self.k_index(k)
        if abs(gamma) > k:
            raise KeyError(f"(k={k}, gamma={gamma}) outside table range")
        t = self.gamma_index(gamma)
        return self.alphas[t], self.blocks[t][kappa].copy()

    def dimension_identity(self) -> bool:
        return int(np.sum(self.kvals + 1)) == (self.m + 1) * (self.n + 1)

    # -- serialization ------------------------------------------------------

    def records(self):
        """Flat (m, n, k, gamma, alpha, beta, value) stream; k descending,
        gamma descending within k, alpha descending within gamma."""
        for kappa, k in enumerate(self.kvals):
            for gamma in range(k, -k - 1, -2):
                t = self.gamma_index(gamma)
                alphas = self.alphas[t]
                vals = self.blocks[t][kappa]
                for idx in range(len(alphas) - 1, -1, -1):
                    alpha = int(alphas[idx])
                    yield (self.m, self.n, int(k), int(gamma), alpha,
                           int(gamma - alpha), float(vals[idx]))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("m,n,k,gamma,alpha,beta,value\n")
            for rec in self.records():
                fh.write("%d,%d,%d,%d,%d,%d,%.17g\n" % rec)

    def to_json(self, path) -> None:
        rows = [
            {"m": r[0], "n": r[1], "k": r[2], "gamma": r[3],
             "alpha": r[4], "beta": r[5], "value": float(f"{r[6]:.17g}")}
            for r in self.records()
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _alpha_support(m: int, n: int, gamma: int) -> np.ndarray:
    lo = max(-m, gamma - n)
    hi = min(m, gamma + n)
    return np.arange(lo, hi + 1, 2)


def _chain_top(m: int, n: int, k: int) -> np.ndarray:
    """Unit vector in V_k annihilated by the raising operator, on the
    ascending-alpha support, with positive coefficient at the largest alpha.

    Annihilation gives the two-term recursion
    u[alpha+2] = -(c_+(m,alpha) / c_+(n,k-alpha-2)) u[alpha]; both ladder
    factors are strictly positive inside the triangle range, so every entry
    is nonzero and the signs alternate.
    """
    alphas = _alpha_support(m, n, k)
    d = len(alphas)
    u = np.empty(d)
    u[0] = 1.0
    for i in range(d - 1):
        alpha = alphas[i]
        cm = 0.5 * np.sqrt((m + alpha + 2.0) * (m - alpha))
        beta = k - alpha - 2
        cn = 0.5 * np.sqrt((n + beta + 2.0) * (n - beta))
        u[i + 1] = -cm / cn * u[i]
        if abs(u[i + 1]) > 1e200:
            u[: i + 2] *= 1e-200
    u /= np.linalg.norm(u)
    if u[-1] < 0:
        u = -u
    return u


def _orthonormalize_columns(U: np.ndarray, m: int, n: int, gamma: int) -> np.ndarray:
    """Gram-Schmidt on the chain columns inside V_gamma, decreasing k order.

    In exact arithmetic the columns are already orthonormal; the pass exists
    to stop roundoff from compounding along long lowering chains.  One
    re-orthogonalization pass is allowed, after which residual defect is a
    construction failure.
    """
    for attempt in range(2):
        for i in range(U.shape[1]):
            if i:
                U[:, i] -= U[:, :i] @ (U[:, :i].T @ U[:, i])
            nrm = np.linalg.norm(U[:, i])
            if nrm < 1e-14:
                raise CGConstructionError(
                    f"degenerate chain column at gamma={gamma} for (m={m}, n={n})"
                )
            U[:, i] /= nrm
        gram = U.T @ U
        defect = np.max(np.abs(gram - np.eye(U.shape[1])))
        if defect <= _ORTH_TOL:
            return U
    raise CGConstructionError(
        f"orthogonality defect {defect:.3g} beyond {_ORTH_TOL} persists at "
        f"gamma={gamma} for (m={m}, n={n}) after one re-orthogonalization"
    )


def cg_decompose(m: int, n: int) -> CGTable:
    """Construct the Clebsch-Gordan table for (m, n) with m >= n >= 0."""
    if not (m >= n >= 0):
        raise ValueError(f"need m >= n >= 0, got (m={m}, n={n})")
    kvals = np.arange(m + n, m - n - 1, -2)
    gammas = np.arange(m + n, -(m + n) - 1, -2)
    K = len(kvals)

    slots_alpha = np.arange(-m, m + 1, 2)            # alpha on the full slot grid
    cm_lower = 0.5 * np.sqrt(
        np.maximum((m - slots_alpha + 2.0) * (m + slots_alpha), 0.0)
    )                                                # c_-(m, alpha) per slot

    alphas: list = []
    blocks: list = []
    # Columns of U live on the full alpha-slot grid; column order is k descending.
    U = np.zeros((m + 1, 0))
    active: list[int] = []                           # kappa indices of live chains

    for gamma in gammas:
        sup = _alpha_support(m, n, gamma)
        sup_slots = (sup + m) // 2
        new_chain = gamma >= m - n and gamma in kvals
        if new_chain:
            # a new chain starts at gamma = k; the Gram-Schmidt pass below
            # realizes it inside the orthogonal complement of the earlier chains
            top = _chain_top(m, n, int(gamma))
            col = np.zeros(m + 1)
            col[sup_slots] = top
            U = np.column_stack([U, col])
            active.append(len(active))

        U = _orthonormalize_columns(U, m, n, int(gamma))
        if new_chain and U[sup_slots[-1], -1] < 0:
            U[:, -1] = -U[:, -1]

        block = np.zeros((K, len(sup)))
        block[np.array(active), :] = U[sup_slots, :].T
        alphas.append(sup)
        blocks.append(block)

        if gamma - 2 < -(m + n):
            break
        # lower every live chain: V_gamma -> V_{gamma-2}
        beta = gamma - slots_alpha
        cn = np.where(
            (beta >= -n + 2) & (beta <= n),
            0.5 * np.sqrt(np.maximum((n - beta + 2.0) * (n + beta), 0.0)),
            0.0,
        )
        W = cn[:, None] * U
        W[:-1, :] += cm_lower[1:, None] * U[1:, :]
        # chains with k < |gamma - 2| end here
        keep = [j for j, kap in enumerate(active) if kvals[kap] >= abs(gamma - 2)]
        U = W[:, keep]
        active = [active[j] for j in keep]
        norms = np.linalg.norm(U, axis=0)
        if U.shape[1] and norms.min() < 1e-14:
            raise CGConstructionError(
                f"degenerate lowering norm at gamma={gamma - 2} for (m={m}, n={n})"
            )
        if U.shape[1]:
            U = U / norms

    return CGTable(m=m, n=n, gammas=gammas, kvals=kvals, alphas=alphas, blocks=blocks)


@lru_cache(maxsize=512)
def cg_table(m: int, n: int) -> CGTable:
    """Cached table constructor; scans share tables read-only."""
    return cg_decompose(m, n)


def verify_orthogonality(table: CGTable) -> dict:
    """Defects of the two orthogonality identities.

    Weight conservation makes cross-gamma terms vanish exactly, so both
    identities reduce to per-gamma Gram matrices: with B the (K, d) block at
    gamma, the row identity is B^T B = I over product-basis pairs and the
    column identity is B B^T = I over the k values with k >= |gamma|.
    """
    max_row = 0.0
    max_col = 0.0
    for t, gamma in enumerate(table.gammas):
        B = table.blocks[t]
        d = B.shape[1]
        row_defect = np.max(np.abs(B.T @ B - np.eye(d)))
        valid = np.abs(gamma) <= table.kvals
        Bv = B[valid]
        col_defect = np.max(np.abs(Bv @ Bv.T - np.eye(Bv.shape[0])))
        max_row = max(max_row, float(row_defect))
        max_col = max(max_col, float(col_defect))
    return {"max_row_defect": max_row, "max_col_defect": max_col}


def expand_in_product_basis(table: CGTable, k: int, gamma: int) -> TensorVector:
    """u_{k,gamma} as a dense coefficient matrix on the product basis."""
    alphas, coeffs = table.chain_vector(k, gamma)
    entries = np.zeros((table.m + 1, table.n + 1))
    for alpha, c in zip(alphas, coeffs):
        entries[(alpha + table.m) // 2, (gamma - alpha + table.n) // 2] = c
    return TensorVector(m=table.m, n=table.n, entries=entries)


# -- Casimir oracle ---------------------------------------------------------

def _ladder_matrices(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense matrices of H, E, F on the degree-m weight basis (column = input)."""
    alphas = np.arange(-m, m + 1, 2)
    H = np.diag(alphas.astype(float))
    E = np.zeros((m + 1, m + 1))
    F = np.zeros((m + 1, m + 1))
    for i, alpha in enumerate(alphas):
        if i + 1 <= m:
            E[i + 1, i] = 0.5 * np.sqrt((m + alpha + 2.0) * (m - alpha))
        if i - 1 >= 0:
            F[i - 1, i] = 0.5 * np.sqrt((m - alpha + 2.0) * (m + alpha))
    return H, E, F


def casimir_matrix(m: int, n: int) -> np.ndarray:
    """Matrix of Omega = H^2 + 2EF + 2FE under the tensor-product action.

    Independent oracle for the table: it uses only the weight and ladder
    formulas, never the constructed coefficients.  Hermitian with eigenvalues
    k(k+2), each of multiplicity k+1.
    """
    if not (m >= n >= 0):
        raise ValueError("need m >= n >= 0")
    dim = (m + 1) * (n + 1)
    if dim > 4096:
        raise ValueError(f"tensor dimension {dim} exceeds the 4096 cap")
    Hm, Em, Fm = _ladder_matrices(m)
    Hn, En, Fn = _ladder_matrices(n)
    Im, In = np.eye(m + 1), np.eye(n + 1)
    H = np.kron(Hm, In) + np.kron(Im, Hn)
    E = np.kron(Em, In) + np.kron(Im, En)
    F = np.kron(Fm, In) + np.kron(Im, Fn)
    return H @ H + 2.0 * (E @ F) + 2.0 * (F @ E)


def tensor_slot(table: CGTable, alpha: int, beta: int) -> int:
    """Row-major index of v_{m,alpha} x v_{n,beta} in the Kronecker ordering."""
    return ((alpha + table.m) // 2) * (table.n + 1) + (beta + table.n) // 2


def chain_projectors(table: CGTable) -> dict[int, np.ndarray]:
    """Per-k projectors sum_gamma u_{k,gamma} u_{k,gamma}^T on the tensor space."""
    dim = (table.m + 1) * (table.n + 1)
    out = {}
    for k in table.kvals:
        P = np.zeros((dim, dim))
        for gamma in range(-k, k + 1, 2):
            alphas, coeffs = table.chain_vector(int(k), gamma)
            idx = np.array([tensor_slot(table, int(a), int(gamma - a)) for a in alphas])
            P[np.ix_(idx, idx)] += np.outer(coeffs, coeffs)
        out[int(k)] = P
    return out


def casimir_projectors(m: int, n: int) -> dict[int, np.ndarray]:
    """Eigenprojectors of the Casimir oracle, keyed by k with k(k+2) eigenvalue."""
    omega = casimir_matrix(m, n)
    vals, vecs = np.linalg.eigh(omega)
    out = {}
    for k in range(m - n, m + n + 1, 2):
        sel = np.abs(vals - k * (k + 2.0)) < 1.0
        if int(sel.sum()) != k + 1:
            raise RuntimeError(
                f"Casimir eigenvalue k(k+2) for k={k} has multiplicity "
                f"{int(sel.sum())}, expected {k + 1}"
            )
        V = vecs[:, sel]
        out[k] = V @ V.T
    return out


def change_of_basis(table: CGTable) -> np.ndarray:
    """Orthogonal matrix whose columns are the u_{k,gamma} in the Kronecker
    ordering; columns grouped by k (descending), gamma ascending within k."""
    dim = (table.m + 1) * (table.n + 1)
    cols = []
    for k in table.kvals:
        for gamma in range(-int(k), int(k) + 1, 2):
            alphas, coeffs = table.chain_vector(int(k), gamma)
            v = np.zeros(dim)
            for a, c in zip(alphas, coeffs):
                v[tensor_slot(table, int(a), int(gamma - a))] = c
            cols.append(v)
    return np.column_stack(cols)


def block_diagonalization_defect(table: CGTable, g: GroupElement) -> float:
    """Max deviation of U^T (D^m x D^n) U from blockdiag(D^k), k descending.

    Off-block leakage counts as 0 when there is no off-block entry (n = 0,
    a single block); a NaN anywhere propagates to the result.
    """
    U = change_of_basis(table)
    Dm = irrep_matrix(table.m, g)
    Dn = irrep_matrix(table.n, g)
    big = U.T @ np.kron(Dm, Dn) @ U
    defect = 0.0
    off = 0
    for k in table.kvals:
        size = int(k) + 1
        blk = big[off:off + size, off:off + size]
        defect = np.maximum(defect, np.max(np.abs(blk - irrep_matrix(int(k), g))))
        off += size
    # off-diagonal leakage
    mask = np.ones_like(big, dtype=bool)
    off = 0
    for k in table.kvals:
        size = int(k) + 1
        mask[off:off + size, off:off + size] = False
        off += size
    return float(np.maximum(defect, np.max(np.abs(big[mask]), initial=0.0)))
