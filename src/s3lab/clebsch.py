"""Clebsch-Gordan tables for tensor products of SU(2) irreducibles.

The table for a pair (m, n), m >= n, is built by the lowering-chain plus
orthogonal-complement algorithm: the chain for the top block k = m+n starts
from the highest-weight pure tensor; each subsequent chain top is the (unique
up to phase) vector of the largest remaining weight eigenvalue annihilated by
the raising operator, which lies in the orthogonal complement of the chains
built so far.  All tops come at once from a two-term recursion
(``_chain_tops``).  Tops are lowered step by step with

    F (v_{m,alpha} x v_{n,beta}) = c_-(m,alpha) v_{m,alpha-2} x v_{n,beta}
                                 + c_-(n,beta)  v_{m,alpha} x v_{n,beta-2},

normalizing each step, over the weights gamma >= 0 only; the blocks at
gamma < 0 follow by the reflection symmetry of the coefficients.  At each
weight one matrix Gram-Schmidt step (``_gram_schmidt_step``) removes the
roundoff of the lowering, and a Gram defect above ``_ORTH_TOL`` before it
raises ``CGConstructionError``.  Phase convention: the chain-top
coefficient on the product-basis element with the largest alpha is real and
strictly positive.  Under this convention every stored coefficient is real.
A table is one (weights, K, n+1) array indexed by beta slot, so a weight
costs one slice write, and the gamma < 0 half is one reflected copy.

The tables are checked against an independent oracle: the eigenprojectors
of the Casimir operator Omega = H^2 + 2EF + 2FE under the tensor-product
action, whose k(k+2) eigenspace is the degree-k summand.  Omega commutes
with the total weight, so in the Kronecker basis it is block diagonal over
gamma = alpha + beta, with blocks of size at most n+1 (tridiagonal, in
ascending alpha).  ``_casimir_blocks`` builds only those in-block entries,
from the ladder matrices through the mixed-product form
Omega = Omega_m x 1 + 1 x Omega_n + 2 H_m x H_n + 4 (E_m x F_n + F_m x E_n);
``casimir_matrix`` places them densely and ``casimir_projectors``
diagonalizes all blocks in one batched eigensolver call.  The oracle stays
independent of the construction: it uses the weight and ladder formulas
and an eigensolver, never a lowering chain or a stored coefficient.
Both projector families, ``chain_projectors`` and ``casimir_projectors``,
are read-only mappings k -> dim x dim projector that build one degree's
projector on each access and keep nothing dense, so a comparison that
reads one k at a time holds two projectors, not all 2(n+1).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fitting import check_integer, checked
from .su2 import _irrep_stacks, _ladder_coeffs

_ORTH_TOL = 1e-8


class CGConstructionError(RuntimeError):
    """Raised when the chain columns at a weight are not orthonormal to
    ``_ORTH_TOL``, or a lowering step degenerates."""


@dataclass(frozen=True)
class CGTable:
    """All Clebsch-Gordan coefficients for one pair (m, n), m >= n.

    One float array ``blocks`` of shape (len(gammas), K, n+1), K = n + 1:
    ``blocks[t, kappa, j]`` is the coefficient of k = kvals[kappa] at weight
    gamma = gammas[t] on beta = 2j - n, alpha = gamma - beta, so ``blocks[t]``
    is weight t's (K, n+1) block.  Entries with k < |gamma| or |alpha| > m
    are structural zeros.  Indexed by beta slot, the storage is at most
    (m+n+1)/(m+1) <= 2 times the support, and gamma -> -gamma maps j to n - j.
    """

    m: int
    n: int
    gammas: np.ndarray          # m+n, m+n-2, ..., -(m+n)
    kvals: np.ndarray           # m+n, m+n-2, ..., m-n
    blocks: np.ndarray          # (len(gammas), K, n+1), by beta slot

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
        # gamma has the parity of m + n, so beta has that of n iff alpha has that of m
        if abs(gamma) > k or abs(alpha) > self.m or abs(beta) > self.n or (beta - self.n) % 2:
            return 0.0
        return float(self.blocks[t, kappa, (beta + self.n) // 2])

    def chain_vector(self, k: int, gamma: int) -> tuple[np.ndarray, np.ndarray]:
        """(alphas, coefficients) of u_{k,gamma} on the product basis, alpha ascending."""
        kappa = self.k_index(k)
        if abs(gamma) > k:
            raise KeyError(f"(k={k}, gamma={gamma}) outside table range")
        t = self.gamma_index(gamma)
        # the support max(-m, gamma-n) <= alpha <= min(m, gamma+n)
        alphas = np.arange(max(-self.m, gamma - self.n), min(self.m, gamma + self.n) + 1, 2)
        return alphas, self.blocks[t, kappa, (gamma - alphas + self.n) // 2]

    def dimension_identity(self) -> bool:
        return int(np.sum(self.kvals + 1)) == (self.m + 1) * (self.n + 1)

    # -- serialization ------------------------------------------------------

    def records(self):
        """Flat (m, n, k, gamma, alpha, beta, value) stream; k descending,
        gamma descending within k, alpha descending within gamma."""
        for k in self.kvals.tolist():
            for gamma in range(k, -k - 1, -2):
                alphas, vals = self.chain_vector(k, gamma)
                for alpha, v in zip(alphas[::-1].tolist(), vals[::-1].tolist()):
                    yield (self.m, self.n, k, gamma, alpha, gamma - alpha, v)


def _chain_tops(m: int, n: int) -> np.ndarray:
    """All chain tops at once, shape (n+1, n+1).

    Row kappa is the unit vector of weight k = m+n-2 kappa annihilated by the
    raising operator, on its ascending-alpha support alpha = m - 2 kappa + 2i,
    i = 0..kappa (entries beyond i = kappa are 0), with a positive coefficient
    at the largest alpha.  Annihilation gives the two-term recursion

        u[i+1] / u[i] = -sqrt((m-kappa+i+1)(kappa-i) / ((n-i)(i+1))),

    whose factors are strictly positive inside the triangle range, so every
    entry is nonzero and the signs alternate.  The magnitudes are the
    exponentials of the cumulative sums of the log-ratios, shifted so that
    the largest is 1: no overflow at any (m, n).
    """
    kappa = np.arange(n + 1)[:, None]
    i = np.arange(n + 1)[None, :]
    step = i[:, :-1]                                  # the step i -> i+1
    live = step < kappa
    ratio = np.where(live, (m - kappa + step + 1.0) * (kappa - step)
                     / ((n - step) * (step + 1.0)), 1.0)
    logs = np.zeros((n + 1, n + 1))
    np.cumsum(0.5 * np.log(ratio), axis=1, out=logs[:, 1:])
    logs[i > kappa] = -np.inf
    tops = np.exp(logs - logs.max(axis=1, keepdims=True))
    tops /= np.sqrt((tops * tops).sum(axis=1, keepdims=True))   # the row norms
    tops[(kappa - i) % 2 == 1] *= -1.0
    return tops


def _gram_schmidt_step(U: np.ndarray, upper: np.ndarray, m: int, n: int,
                       gamma: int) -> np.ndarray:
    """One matrix Gram-Schmidt step on the chain columns at weight gamma.

    With D = U^T U - I the step is U - U (triu(D, 1) + diag(D) / 2): column j
    loses its components along the columns before it (k descending) and is
    rescaled to unit norm, which is classical Gram-Schmidt to second order in
    the defect (Bjorck, Linear Algebra Appl. 197-198, 1994).  ``upper`` is
    the mask with 1 above the diagonal, 1/2 on it and 0 below, so D * upper
    is that triangle exactly.  The incoming columns, a fresh chain top and
    the lowered chains, are orthonormal in exact arithmetic, so the step
    only removes roundoff.  A defect above ``_ORTH_TOL`` (NaN included)
    means a wrong chain top or lowering step, and raises.
    """
    D = U.T @ U
    diag = D.reshape(-1)[::D.shape[0] + 1]            # a view of D's diagonal
    diag -= 1.0
    defect = np.abs(D).max()
    if not defect <= _ORTH_TOL:
        raise CGConstructionError(
            f"Gram defect {defect:.3g} beyond {_ORTH_TOL} in the chain columns "
            f"at gamma={gamma} for (m={m}, n={n})"
        )
    return U - U @ (D * upper)


def check_degrees(m: int, n: int) -> None:
    """ValueError unless m >= n >= 0 and m + n <= 200, the degrees of the
    tables ``s3lab cg-table`` builds and verifies."""
    if not (m >= n >= 0) or m + n > 200:
        raise ValueError("need m >= n >= 0 and m + n <= 200")


def cg_decompose(m: int, n: int) -> CGTable:
    """Construct the Clebsch-Gordan table for (m, n) with m >= n >= 0.

    The lowering chains run over the weights gamma >= 0 only.  At each of
    them, after the new chain top (if any) joins the lowered chains, one
    ``_gram_schmidt_step`` removes roundoff; it raises
    ``CGConstructionError`` when the incoming Gram defect is above
    ``_ORTH_TOL``.  The blocks at gamma < 0 follow from the reflection
    symmetry C^{k,-gamma}_{-alpha,-beta} = (-1)^((m+n-k)/2) C^{k,gamma}_{alpha,beta}
    (Varshalovich, Moskalev & Khersonskii 1988, sec. 8.4): the block at
    -gamma is the block at gamma with its beta slots reversed and row kappa
    multiplied by (-1)^kappa, one copy for the whole half.
    """
    if not (m >= n >= 0):
        raise ValueError(f"need m >= n >= 0, got (m={m}, n={n})")
    kvals = np.arange(m + n, m - n - 1, -2)
    gammas = np.arange(m + n, -(m + n) - 1, -2)
    K, G = len(kvals), len(gammas)
    tops = _chain_tops(m, n)

    cm_shift = _ladder_coeffs(m)[1][1:, None]        # c_-(m, alpha+2) per alpha slot
    # c_-(n, beta) at beta slot j sits at m + j; at weight gammas[t] alpha slot
    # i has beta slot m+n-t-i, so its column is ladder[m+n-t : 2m+n-t+1] reversed
    ladder = np.pad(_ladder_coeffs(n)[1], m)
    half = (m + n) // 2 + 1                          # the weights gamma >= 0
    upper = np.tri(K).T - 0.5 * np.eye(K)            # the mask of _gram_schmidt_step

    blocks = np.zeros((G, K, n + 1))
    # Column c of ``chains`` is the chain of k = kvals[c] on the full
    # alpha-slot grid; the first min(t+1, K) are live at weight gammas[t],
    # and no chain ends at a weight gamma >= 0.
    chains = np.zeros((m + 1, K))
    for t, gamma in enumerate(gammas[:half].tolist()):
        # the support max(-m, gamma-n) <= alpha <= min(m, gamma+n) as alpha
        # slots a:b, beta slots m+n-t-b+1 : m+n-t-a+1
        a, b = max(m - t, 0), min(m + n - t, m) + 1
        live = min(t + 1, K)
        if t < K:
            # the chain of k = gamma starts here, on the support of its top
            chains[a:b, t] = tops[t, :t + 1]

        U = _gram_schmidt_step(chains[:, :live], upper[:live, :live], m, n, gamma)
        if t < K and U[b - 1, -1] < 0:
            U[:, -1] = -U[:, -1]
        blocks[t, :live, m + n - t - b + 1:m + n - t - a + 1] = U[a:b][::-1].T

        if t + 1 == half:
            break
        # lower every chain: V_gamma -> V_{gamma-2}
        W = ladder[m + n - t:2 * m + n - t + 1][::-1, None] * U
        W[:-1, :] += cm_shift * U[1:, :]
        norms = np.sqrt((W * W).sum(axis=0))         # np.linalg.norm(W, axis=0)
        if norms.min() < 1e-14:
            raise CGConstructionError(
                f"degenerate lowering norm at gamma={gamma - 2} for (m={m}, n={n})"
            )
        np.divide(W, norms, out=chains[:, :live])

    # blocks[G-1-t] from blocks[t]; the source t < G - half lies below half
    sign = (-1.0) ** np.arange(K)
    np.multiply(blocks[:G - half][::-1, :, ::-1], sign[:, None], out=blocks[half:])
    # cg_table hands one table to every caller: a write into it raises
    for arr in (gammas, kvals, blocks):
        arr.flags.writeable = False
    return CGTable(m=m, n=n, gammas=gammas, kvals=kvals, blocks=blocks)


@lru_cache(maxsize=512)
def cg_table(m: int, n: int) -> CGTable:
    """Cached table constructor; every caller shares one table, whose
    arrays ``cg_decompose`` made read-only."""
    return cg_decompose(m, n)


def verify_orthogonality(table: CGTable) -> dict:
    """Defects of the two orthogonality identities.

    Weight conservation makes cross-gamma terms vanish exactly, so both
    identities reduce to per-gamma Gram matrices: with B the (K, n+1) block
    at gamma, the row identity is B^T B = I over the product-basis pairs in
    the support (0 on the beta slots outside it) and the column identity is
    B B^T = I over the k values with k >= |gamma| (0 on the structural-zero
    rows).  Both Gram matrices of every gamma come from one batched product
    each over ``table.blocks``, and a NaN anywhere in the table is the
    reported defect.
    """
    P, K = table.blocks, len(table.kvals)
    eye_row = np.eye(P.shape[2]) * _support(table)[:, :, None]
    row = np.abs(P.transpose(0, 2, 1) @ P - eye_row)
    valid = np.abs(table.gammas)[:, None] <= table.kvals[None, :]
    col = np.abs(P @ P.transpose(0, 2, 1) - np.eye(K) * valid[:, :, None])
    return {"max_row_defect": float(np.max(row)), "max_col_defect": float(np.max(col))}


@checked({"m": check_integer, "n": check_integer, ("m", "n"): check_degrees})
def cg_table_check(m: int, n: int) -> tuple[list, dict]:
    """The table of ``s3lab cg-table``, built by ``cg_decompose`` (uncached)
    and verified: one row per ``records`` entry, and the row count, the
    dimension identity and the ``verify_orthogonality`` defects."""
    table = cg_decompose(m, n)
    rows = [dict(zip(("m", "n", "k", "gamma", "alpha", "beta", "value"), r))
            for r in table.records()]
    return rows, {"rows": len(rows), "dimension_identity": table.dimension_identity(),
                  **verify_orthogonality(table)}


def _support(table: CGTable) -> np.ndarray:
    """(len(gammas), n+1) mask of the beta slots j with |gamma - (2j - n)| <= m."""
    beta = 2 * np.arange(table.n + 1) - table.n
    return np.abs(table.gammas[:, None] - beta) <= table.m


def expand_in_product_basis(table: CGTable, k: int, gamma: int) -> np.ndarray:
    """u_{k,gamma} as a dense (m+1, n+1) coefficient matrix on the product
    basis v_{m,alpha} x v_{n,beta}, slots alpha = 2i - m and beta = 2j - n."""
    alphas, coeffs = table.chain_vector(k, gamma)
    entries = np.zeros((table.m + 1, table.n + 1))
    entries[(alphas + table.m) // 2, (gamma - alphas + table.n) // 2] = coeffs
    return entries


# -- Casimir oracle ---------------------------------------------------------

def _ladder_matrices(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense matrices of H, E, F on the degree-m weight basis (column = input):
    E v_alpha = c_+(m, alpha) v_{alpha+2} and F v_alpha = c_-(m, alpha) v_{alpha-2},
    with the coefficients of ``su2._ladder_coeffs``, the formulas alone."""
    c_plus, c_minus = _ladder_coeffs(m)
    H = np.diag(np.arange(-m, m + 1, 2).astype(float))
    return H, np.diag(c_plus[:-1], -1), np.diag(c_minus[1:], 1)


def _casimir_dim(m: int, n: int) -> int:
    if not (m >= n >= 0):
        raise ValueError("need m >= n >= 0")
    dim = (m + 1) * (n + 1)
    if dim > 4096:
        raise ValueError(f"tensor dimension {dim} exceeds the 4096 cap")
    return dim


def _casimir_blocks(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weight blocks of Omega, zero-padded to one (m+n+1, n+1, n+1) stack.

    Block s holds the product vectors v_{m,alpha} x v_{n,beta} of weight
    gamma = 2s - m - n; its member r has alpha slot i = max(0, s-n) + r and
    beta slot s - i.  In the mixed-product form

        Omega = Omega_m x 1 + 1 x Omega_n + 2 H_m x H_n + 4 (E_m x F_n + F_m x E_n),

    with Omega_m = H_m^2 + 2 E_m F_m + 2 F_m E_m from ``_ladder_matrices``,
    the first three terms are diagonal on the block (the off-diagonal
    entries of Omega_m x 1 change the weight, and are 0 anyway) and the
    last two join the neighbouring members r and r+1.  Pad members get
    diagonal -1, below every eigenvalue k(k+2), and no coupling.  Returns
    (rows, live, blocks): rows[s, r] is the Kronecker index (i (n+1) + j)
    of member r, live[s, r] says whether r is a member, not a pad.
    """
    Hm, Em, Fm = _ladder_matrices(m)
    Hn, En, Fn = _ladder_matrices(n)
    # the diagonals of Omega_m and Omega_n
    om = (np.einsum("ij,ji->i", Hm, Hm) + 2.0 * np.einsum("ij,ji->i", Em, Fm)
          + 2.0 * np.einsum("ij,ji->i", Fm, Em))
    on = (np.einsum("ij,ji->i", Hn, Hn) + 2.0 * np.einsum("ij,ji->i", En, Fn)
          + 2.0 * np.einsum("ij,ji->i", Fn, En))
    s = np.arange(m + n + 1)[:, None]
    i = np.maximum(s - n, 0) + np.arange(n + 1)      # alpha slot per member
    live = i <= np.minimum(s, m)
    i = np.minimum(i, np.minimum(s, m))              # pads clipped onto the last member
    j = s - i                                        # beta slot
    blocks = np.zeros((m + n + 1, n + 1, n + 1))
    r = np.arange(n + 1)
    blocks[:, r, r] = np.where(live, om[i] + on[j] + 2.0 * Hm[i, i] * Hn[j, j], -1.0)
    # E_m x F_n takes member r = (i, j) to r+1 = (i+1, j-1), F_m x E_n back
    ir, jr = i[:, :-1], j[:, :-1]
    up, down = np.minimum(ir + 1, m), np.maximum(jr - 1, 0)
    pair = live[:, 1:]                               # members r and r+1 both live
    blocks[:, r[1:], r[:-1]] = np.where(pair, 4.0 * Em[up, ir] * Fn[down, jr], 0.0)
    blocks[:, r[:-1], r[1:]] = np.where(pair, 4.0 * Fm[ir, up] * En[jr, down], 0.0)
    return i * (n + 1) + j, live, blocks


def _scatter_blocks(dim: int, rows: np.ndarray, live: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The dense dim x dim matrix whose weight blocks are ``blocks`` (pads dropped)."""
    pair = live[:, :, None] & live[:, None, :]
    R = np.broadcast_to(rows[:, :, None], blocks.shape)
    out = np.zeros((dim, dim))
    out[R[pair], R.transpose(0, 2, 1)[pair]] = blocks[pair]
    return out


def casimir_matrix(m: int, n: int) -> np.ndarray:
    """Matrix of Omega = H^2 + 2EF + 2FE under the tensor-product action.

    Independent oracle for the table: it uses only the weight and ladder
    formulas, never the constructed coefficients.  Omega commutes with the
    total weight, so in the Kronecker basis it is block diagonal over
    gamma = alpha + beta; its entries are those of ``_casimir_blocks``, in
    the mixed-product form, placed densely.  Hermitian with eigenvalues
    k(k+2), each of multiplicity k+1.  Dimensions above 4096 raise
    ValueError.
    """
    dim = _casimir_dim(m, n)
    return _scatter_blocks(dim, *_casimir_blocks(m, n))


class _Projectors(Mapping):
    """Read-only mapping k -> projector that builds the projector on each
    access and keeps nothing dense: ``build(i)`` returns a fresh array for
    the i-th key.  Membership, ``len`` and iteration read the keys alone."""

    def __init__(self, keys, build):
        self._index = {k: i for i, k in enumerate(keys)}
        self._build = build

    def __getitem__(self, k) -> np.ndarray:
        return self._build(self._index[k])

    def __contains__(self, k) -> bool:
        return k in self._index

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


def chain_projectors(table: CGTable) -> Mapping[int, np.ndarray]:
    """Per-k projectors sum_gamma u_{k,gamma} u_{k,gamma}^T on the tensor
    space, keyed by k descending: U_k U_k^T with U_k the degree-k columns of
    ``change_of_basis``.  The index arrays of ``_degree_block_builder`` are
    computed once, here; U_k and its projector are built on each access, so
    a caller that reads one k at a time holds at most one dense projector."""
    block = _degree_block_builder(table)

    def projector(kappa):
        Uk = block(kappa)
        return Uk @ Uk.T
    return _Projectors(table.kvals.tolist(), projector)


def casimir_projectors(m: int, n: int) -> Mapping[int, np.ndarray]:
    """Eigenprojectors of the Casimir oracle, keyed by k ascending, with
    k(k+2) eigenvalue.

    Omega is block diagonal over the weight gamma, with blocks of size at
    most n+1 (``_casimir_blocks``), so one batched ``np.linalg.eigh`` of
    the zero-padded block stack gives its spectrum.  Each k(k+2) must
    appear exactly once in every block with |gamma| <= k, and in no other,
    so k+1 times in all; otherwise RuntimeError, naming k.  The eigensolver
    and every such check run here, at the call; the mapping keeps only each
    k's eigenvectors, one per weight block.  The projector onto the k(k+2)
    eigenspace, the sum of their outer products scattered densely, is built
    on each access.  The oracle stays independent of the table: it uses
    only the weight and ladder formulas and an eigensolver, never a
    Clebsch-Gordan coefficient.  Dimensions above 4096 raise ValueError.
    """
    dim = _casimir_dim(m, n)
    rows, live, blocks = _casimir_blocks(m, n)
    vals, vecs = np.linalg.eigh(blocks)
    gammas = 2 * np.arange(m + n + 1) - m - n
    kvals = list(range(m - n, m + n + 1, 2))
    picked = []
    for k in kvals:
        hits = np.abs(vals - k * (k + 2.0)) < 1.0
        want = np.abs(gammas) <= k
        if not np.array_equal(hits.sum(axis=1), want):
            raise RuntimeError(
                f"Casimir eigenvalue k(k+2) for k={k} has multiplicity "
                f"{int(hits.sum())}, expected {k + 1}, once per weight |gamma| <= {k}"
            )
        s = np.flatnonzero(want)
        # block s's eigenvector, (len(s), n+1)
        picked.append((s, vecs[s, :, hits[s].argmax(axis=1)]))

    def projector(i):
        s, v = picked[i]
        return _scatter_blocks(dim, rows[s], live[s], v[:, :, None] * v[:, None, :])
    return _Projectors(kvals, projector)


def _degree_block_builder(table: CGTable):
    """The function kappa -> U_k, k = kvals[kappa], with U_k the
    (m+1)(n+1) x (k+1) degree-k columns of ``change_of_basis``: u_{k,gamma}
    for gamma ascending, rows in the Kronecker ordering.  The row and column
    of every stored coefficient come from one index computation over the
    support, made here once; each call builds one fresh U_k."""
    m, n, kvals = table.m, table.n, table.kvals
    t, j = np.nonzero(_support(table))
    gamma = table.gammas[t]
    rows = (gamma - 2 * j + n + m) // 2 * (n + 1) + j    # alpha = gamma - (2j - n)
    cols = (gamma + kvals[:, None]) // 2             # the column within U_k
    live = np.abs(gamma) <= kvals[:, None]           # not a structural zero
    dim = (m + 1) * (n + 1)

    def block(kappa):
        Uk = np.zeros((dim, int(kvals[kappa]) + 1))
        sel = live[kappa]
        Uk[rows[sel], cols[kappa, sel]] = table.blocks[t[sel], kappa, j[sel]]
        return Uk
    return block


def _degree_blocks(table: CGTable):
    """Yield (k, U_k) for k descending, the blocks of
    ``_degree_block_builder``; only one U_k is built per step, so a caller
    that contracts and drops it never holds the dense matrix."""
    block = _degree_block_builder(table)
    for kappa, k in enumerate(table.kvals.tolist()):
        yield k, block(kappa)


def change_of_basis(table: CGTable) -> np.ndarray:
    """Orthogonal matrix whose columns are the u_{k,gamma} in the Kronecker
    ordering (row ((alpha+m)/2)(n+1) + (beta+n)/2 for v_{m,alpha} x v_{n,beta});
    columns grouped by k (descending), gamma ascending within k.  It is
    ((m+1)(n+1))^2 floats, filled from the degree blocks of
    ``_degree_blocks``; the oracles that only contract it (``chain_projectors``,
    ``bilinear.product_decompose``) read those blocks instead."""
    dim = (table.m + 1) * (table.n + 1)
    U = np.zeros((dim, dim))
    off = 0
    for k, Uk in _degree_blocks(table):
        U[:, off:off + k + 1] = Uk
        off += k + 1
    return U


def block_diagonalization_defect(table: CGTable, gs) -> float:
    """Max deviation of U^T (D^m(g) x D^n(g)) U from blockdiag(D^k(g)), k
    descending, over the group elements ``gs``.

    Each degree's stack of D^d(g) over all of ``gs`` comes from one
    ``wigner_d`` call plus phase factors (``su2._irrep_stacks``), and the
    Kronecker products of all elements are stacked, so U^T kron U is one
    batched product per table.  Each diagonal block is zeroed once compared,
    so what remains is the off-block leakage: exactly 0 when n = 0 (a single
    block).  A NaN anywhere propagates to the result.
    """
    m, n = table.m, table.n
    U = change_of_basis(table)
    D = _irrep_stacks(sorted({m, n, *table.kvals.tolist()}), gs)
    dim = (m + 1) * (n + 1)
    kron = (D[m][:, :, None, :, None] * D[n][:, None, :, None, :]).reshape(-1, dim, dim)
    big = U.T @ kron @ U
    defect, off = 0.0, 0
    for k in table.kvals.tolist():
        blk = big[:, off:off + k + 1, off:off + k + 1]
        defect = np.maximum(defect, np.max(np.abs(blk - D[k])))
        blk[...] = 0.0
        off += k + 1
    return float(np.maximum(defect, np.max(np.abs(big))))
