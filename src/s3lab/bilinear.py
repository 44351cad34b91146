"""Eigenfunctions of the three-sphere Laplacian in the matrix-entry basis,
their pointwise products, exact product L2 norms, quadrature oracles, and
sharpness/ratio experiments.

A degree-m eigenfunction (eigenvalue -m(m+2)) is

    f(g) = sum_{alpha, alpha'} a_{alpha,alpha'} sqrt(m+1) D^m(g)[alpha, alpha'],

so ||f||_{L2} equals the Frobenius norm of the coefficient matrix.  For
f of degree m and g of degree n <= m the product decomposes over degrees
k = m+n, m+n-2, ..., m-n with component coefficients

    b^{(k)}_{gamma,gamma'} = sqrt((m+1)(n+1)/(k+1)) S(k, gamma, gamma'),
    S(k, M, M') = sum_{alpha+beta=M, alpha'+beta'=M'}
                  a_{alpha,alpha'} b_{beta,beta'} C^{k,M} C^{k,M'},

and ||fg||^2 = (n+1) sum_{k,M,M'} (m+1)/(k+1) |S(k,M,M')|^2.  That S-sum
is the Clebsch-Gordan oracle: ``product_decompose`` contracts the change
of basis of ``clebsch.change_of_basis`` into every S(k, ., .), one degree
block U_k of (m+1)(n+1) x (k+1) columns at a time, so the dense matrix is
never live, and the exact norm ``product_l2_exact`` is the total norm of
that decomposition.  Both refuse (m+1)(n+1) > 4225 = 65^2, the (64, 64)
cell, before any work.

The scans use a sampling-theorem engine instead (``product_norm2_batch``),
which depends on (m, n) only, never on a Clebsch-Gordan table.  Haar
measure is uniform in x = cos(2 theta), and after averaging over the two
phases |fg|^2 is a polynomial of degree m+n in x, so (m+n)//2 + 1
Gauss-Legendre nodes integrate it exactly.  At a node the phase average is
the squared norm of a 2-D linear convolution of coefficient-times-d(theta)
arrays, which a zero-padded 2-D FFT gives through Parseval.  The nodes,
weights, scaled d-matrices and FFT length of a cell form its
``SamplingPlan``, built once by ``sampling_plan(m, n)``.  See Kostelec
and Rockmore, "FFTs on the rotation group" (J. Fourier Anal. Appl. 14,
2008), and McEwen et al., "A novel sampling theorem on the rotation group"
(IEEE Signal Process. Lett. 22, 2015).

The zonal witness (``zonal_pair_ratio``) needs no plan.  Its coefficient
matrices are diagonal, so at each node the 2-D convolution lies on the
diagonal and equals the 1-D linear convolution of the d-matrix diagonals.
It takes the plan's nodes and weights from the same rule (``_cell_nodes``)
and only the diagonals d^k_jj (``su2.wigner_d_diagonal``), from the same
eigensystem as ``wigner_d``: O(nodes L log L) time and O(nodes L) memory
per cell, against O(nodes L^2 log L) and the O(nodes L^2) d-matrix stacks
of the 2-D path, with the same exactness.

The Haar-quadrature oracles (``product_l2_quadrature``,
``multilinear_l2_quadrature``) are independent of both: they evaluate every
factor on a (theta, phi1, phi2) tensor grid of ``HaarQuadrature`` by one
inverse FFT per theta slice.  They work in theta chunks of at most
``_FFT_CHUNK`` grid entries per factor, multiplying the factors and summing
|.|^2 per slice chunk by chunk, so no full L^3 grid is ever held; only
``evaluate_on_grid`` returns one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.fft

from . import gates
from ._chunks import chunk_map
from .clebsch import CGTable, _degree_blocks, cg_table, verify_orthogonality
from .fitting import check_count, check_integer, check_one_of, checked, fit_slope, largest
from .su2 import (GroupElement, HaarQuadrature, haar_quadrature, irrep_matrix, wigner_d,
                  wigner_d_diagonal)


class UnderResolvedQuadratureWarning(UserWarning):
    pass


@dataclass(frozen=True)
class Eigenfunction:
    """Degree m plus the (m+1) x (m+1) coefficient matrix a_{alpha,alpha'}."""

    m: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.m + 1, self.m + 1):
            raise ValueError(f"coefficient matrix must be {self.m + 1} x {self.m + 1}")
        object.__setattr__(self, "coeffs", c)

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def zonal(n: int) -> Eigenfunction:
    """Unit-norm central eigenfunction; evaluates to the degree-n character."""
    return Eigenfunction(n, np.eye(n + 1) / np.sqrt(n + 1.0))


def random_eigenfunction(m: int, rng) -> Eigenfunction:
    """i.i.d. complex standard Gaussian coefficients, normalized to unit L2."""
    rng = np.random.default_rng(rng)
    c = rng.standard_normal((m + 1, m + 1)) + 1j * rng.standard_normal((m + 1, m + 1))
    return Eigenfunction(m, c / np.linalg.norm(c))


def evaluate(f: Eigenfunction, g: GroupElement) -> complex:
    return complex(np.sqrt(f.m + 1.0) * np.sum(f.coeffs * irrep_matrix(f.m, g)))


def evaluate_on_grid(f: Eigenfunction, quad: HaarQuadrature) -> np.ndarray:
    """Values on the quadrature's (theta, phi1, phi2) tensor grid.

    Uses the single-Fourier-mode structure of the matrix entries in the
    angles: D[j, j'] = d[j, j'](theta) e^{i (j+j'-m) phi1} e^{i (j'-j) phi2},
    so each theta slice is one zero-padded 2-D inverse FFT whose nonzero
    entries lie in the 2m+1 rows p = j+j'-m (mod nphi1).  The short axis
    goes first, as in ``product_norm2_batch``: those rows are
    inverse-transformed along phi2, placed, and then every column is
    inverse-transformed along phi1.  Both passes run on chunks of at most
    ``_FFT_CHUNK`` complex grid entries (at least one slice), which
    ``_grid_chunks`` yields and this function copies into the output.
    Levels below 2m+1 in either phi raise ValueError.
    """
    out = np.empty(quad.levels, dtype=complex)
    for s, vals in _grid_chunks(f, quad):
        out[s:s + len(vals)] = vals
    return out


def _grid_chunks(f: Eigenfunction, quad: HaarQuadrature):
    """Yield (s, values of f on theta slices s, s+1, ...) chunk by chunk.

    Each chunk holds at most ``_FFT_CHUNK`` complex grid entries (at least
    one slice).  Every chunk is a view of one buffer that the next chunk
    overwrites, so a caller uses or copies it before advancing, and may
    write to it.  (A fresh array per chunk made the three-factor oracle
    about 1.45x slower at L = 44-72.)  The phi-level check runs before the
    first chunk is yielded.
    """
    m = f.m
    n1, n2 = quad.nphi1, quad.nphi2
    if n1 < 2 * m + 1 or n2 < 2 * m + 1:
        raise ValueError(f"phi levels ({n1}, {n2}) cannot hold degree-{m} modes")
    dmats = wigner_d(m, quad.theta)
    j = np.arange(m + 1)
    ridx = j[:, None] + j[None, :]                   # the row p + m, before the wrap
    qidx = (j[None, :] - j[:, None]) % n2
    prow = (np.arange(2 * m + 1) - m) % n1
    coeffs = np.sqrt(m + 1.0) * f.coeffs
    nt = len(quad.theta)
    step = max(1, _FFT_CHUNK // (n1 * n2))
    rows = np.zeros((min(step, nt), 2 * m + 1, n2), dtype=complex)
    buf = np.empty((min(step, nt), n1, n2), dtype=complex)
    for s in range(0, nt, step):
        part, chunk = rows[:nt - s], buf[:nt - s]
        part[:, ridx, qidx] = coeffs * dmats[s:s + step]
        chunk.fill(0)
        chunk[:, prow, :] = scipy.fft.ifft(part, axis=2, norm="forward")
        yield s, scipy.fft.ifft(chunk, axis=1, norm="forward", overwrite_x=True)


def recommended_levels(degree_sum: int) -> tuple[int, int, int]:
    """Resolution rule: levels = max(32, 4 * degree_sum + 8) in each angle."""
    size = max(32, 4 * degree_sum + 8)
    return (size, size, size)


def product_l2_quadrature(f: Eigenfunction, g: Eigenfunction, quad: HaarQuadrature) -> float:
    """Haar-quadrature oracle for ||fg||_{L2}: ``multilinear_l2_quadrature([f, g], quad)``."""
    return multilinear_l2_quadrature([f, g], quad)


def multilinear_l2_quadrature(fs: list[Eigenfunction], quad: HaarQuadrature) -> float:
    """Quadrature value of || f_1 ... f_k ||_{L2}; an empty list raises ValueError,
    levels below ``recommended_levels`` of the degree sum warn.

    One theta chunk at a time: the factors' chunks are multiplied in place
    into the first factor's, |.|^2 is taken in place as re^2 + im^2 on the
    float view and summed per theta slice, and the slice sums get the
    theta-weight dot of ``HaarQuadrature.integrate``.  Only chunks are live,
    never a full grid.
    """
    if not fs:
        raise ValueError("multilinear_l2_quadrature needs at least one factor")
    degrees = tuple(f.m for f in fs)
    need = recommended_levels(sum(degrees))[0]
    if min(quad.levels) < need:
        warnings.warn(f"quadrature levels {quad.levels} below the resolution rule "
                      f"({need}) for degrees {degrees}", UnderResolvedQuadratureWarning)
    per_slice = np.empty(len(quad.theta))
    for chunks in zip(*(_grid_chunks(f, quad) for f in fs)):
        s, prod = chunks[0]
        for _, vals in chunks[1:]:
            prod *= vals
        flat = prod.view(np.float64).reshape(len(prod), -1)
        # numpy's pairwise sum; an einsum dot here was off the full-grid
        # value by up to 1.3e-14 relative on criterion 3's pairs
        per_slice[s:s + len(prod)] = np.square(flat, out=flat).sum(axis=1)
    per_phi = per_slice / (quad.nphi1 * quad.nphi2)
    return float(np.sqrt(np.dot(quad.theta_weight, per_phi)))


# -- exact product machinery --------------------------------------------------

@dataclass(frozen=True)
class ProductDecomposition:
    """Components of fg per degree k, plus the intermediate sums S(k, M, M')."""

    m: int
    n: int
    components: dict          # k -> Eigenfunction
    s_sums: dict              # k -> (k+1, k+1) complex matrix over gamma ascending

    def total_norm(self) -> float:
        return float(np.sqrt(sum(c.l2_norm() ** 2 for c in self.components.values())))

    def evaluate(self, g: GroupElement) -> complex:
        return sum(evaluate(comp, g) for comp in self.components.values())


# Largest tensor dimension (m+1)(n+1) of ``product_decompose``: 65^2, the
# (64, 64) cell, the largest that the scans run and the oracle is checked at.
_DECOMPOSE_DIM_MAX = 4225


def _check_degree_order(f: Eigenfunction, g: Eigenfunction) -> None:
    if f.m < g.m:
        raise ValueError(f"need deg(f) >= deg(g); got ({f.m}, {g.m}); swap the arguments")


def product_decompose(f: Eigenfunction, g: Eigenfunction, table: CGTable | None = None) -> ProductDecomposition:
    """Decompose fg into eigenfunction components of degree k.

    Pointwise, evaluate(f, .) * evaluate(g, .) equals the sum of the
    component evaluations.  The degree-k columns of ``change_of_basis``,
    reshaped to the chain tensor U_k[alpha, beta, gamma], give every S-sum
    of that degree at once: S_k = U_k^T (a x b) U_k, contracted one factor
    at a time.  The blocks U_k come one degree at a time from
    ``clebsch._degree_blocks``, so at most one (m+1)(n+1) x (k+1) block is
    live, never the dense ((m+1)(n+1))^2 matrix.  This is the oracle, not a
    scan path, and (m+1)(n+1) above ``_DECOMPOSE_DIM_MAX`` raises ValueError
    before the table or any block is built.
    """
    _check_degree_order(f, g)
    m, n = f.m, g.m
    dim = (m + 1) * (n + 1)
    if dim > _DECOMPOSE_DIM_MAX:
        raise ValueError(f"tensor dimension (m+1)(n+1) = {dim} exceeds the "
                         f"{_DECOMPOSE_DIM_MAX} cap of the dense change of basis")
    table = table if table is not None else cg_table(m, n)
    a, b = f.coeffs, g.coeffs
    components, s_sums = {}, {}
    for k, Uk in _degree_blocks(table):
        Uk = Uk.reshape(m + 1, n + 1, k + 1)
        X = np.tensordot(a, Uk, axes=(0, 0))          # [alpha', beta, gamma]
        X = np.tensordot(b, X, axes=(0, 1))           # [beta', alpha', gamma]
        S = np.tensordot(X, Uk, axes=([1, 0], [0, 1]))  # [gamma, gamma']
        s_sums[k] = S
        bk = np.sqrt((m + 1.0) * (n + 1.0) / (k + 1.0)) * S
        components[k] = Eigenfunction(k, bk)
    return ProductDecomposition(m=m, n=n, components=components, s_sums=s_sums)


# Complex entries per FFT buffer of the sampling engine and of
# ``evaluate_on_grid``.  Their (pair, node) and theta slices are transformed
# in chunks of at most this size, whatever the batch or grid size; a chunk
# holds at least one slice.
_FFT_CHUNK = 1 << 16


@dataclass(frozen=True)
class SamplingPlan:
    """What the sampling engine needs at degrees (m, n), built once per cell.

    ``weights`` are the Gauss-Legendre weights w/2 at the (m+n)//2 + 1 nodes
    x_i = cos(2 theta_i); ``dm`` and ``dn`` are sqrt(m+1) d^m(theta_i) and
    sqrt(n+1) d^n(theta_i), of shapes (nodes, m+1, m+1) and (nodes, n+1, n+1);
    ``fft_len`` is next_fast_len(m+n+1).  The arrays are read-only: a plan
    is a value that its scan passes to every batch.
    """

    m: int
    n: int
    weights: np.ndarray
    dm: np.ndarray
    dn: np.ndarray
    fft_len: int


def _cell_nodes(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(theta_i, w_i / 2) at the (m+n)//2 + 1 Gauss-Legendre nodes
    x_i = cos(2 theta_i) of the cell (m, n); m, n < 0 raise ValueError."""
    if m < 0 or n < 0:
        raise ValueError(f"degrees must be nonnegative; got ({m}, {n})")
    x, w = np.polynomial.legendre.leggauss((m + n) // 2 + 1)
    return 0.5 * np.arccos(x), 0.5 * w


def sampling_plan(m: int, n: int) -> SamplingPlan:
    """The ``SamplingPlan`` of the cell (m, n); needs m, n >= 0."""
    m, n = int(m), int(n)
    theta, weights = _cell_nodes(m, n)
    dm, dn = wigner_d(m, theta), wigner_d(n, theta)
    dm *= np.sqrt(m + 1.0)  # in place: no second copy of the largest array
    dn *= np.sqrt(n + 1.0)
    arrays = (weights, dm, dn)
    for arr in arrays:
        arr.flags.writeable = False
    return SamplingPlan(m, n, *arrays, fft_len=scipy.fft.next_fast_len(m + n + 1))


def _check_batch(m: int, n: int, abatch: np.ndarray, bbatch: np.ndarray):
    abatch = np.asarray(abatch, dtype=complex)
    bbatch = np.asarray(bbatch, dtype=complex)
    if (abatch.ndim != 3 or abatch.shape[1:] != (m + 1, m + 1)
            or bbatch.shape != (abatch.shape[0], n + 1, n + 1)):
        raise ValueError(
            f"batches of shape {abatch.shape} and {bbatch.shape} do not match "
            f"(m, n) = ({m}, {n}): need (B, {m + 1}, {m + 1}) and (B, {n + 1}, {n + 1})"
        )
    return abatch, bbatch


def product_norm2_batch(plan: SamplingPlan, abatch: np.ndarray, bbatch: np.ndarray) -> np.ndarray:
    """||f_i g_i||^2 for a batch of coefficient matrices, by the sampling engine.

    ``plan`` is ``sampling_plan(m, n)``; abatch has shape (B, m+1, m+1) and
    bbatch (B, n+1, n+1), other shapes raise ValueError.  The integral over
    x = cos(2 theta) uses the plan's (m+n)//2 + 1 Gauss-Legendre nodes with
    weights w/2, exact for the degree-(m+n) polynomial that the phase average
    of |fg|^2 is.  At node theta_i, with F = sqrt(m+1) a * d^m(theta_i) and
    G = sqrt(n+1) b * d^n(theta_i) entrywise, the phase average is the
    squared norm of the linear convolution F * G over (j, j'), computed as
    sum |fft2(F, L) fft2(G, L)|^2 / L^2 with L = plan.fft_len >= m+n+1 so
    the circular convolution is the linear one.  All in float64: the result
    matches the S-sum oracle to rounding (~1e-15 relative).  Cost per pair is
    ~(m+n) 2-D FFTs of size L, against a dense T x T change of basis,
    T = (m+1)(n+1), for the S-sums.

    The (pair, node) slices go through the FFTs in chunks of at most
    ``_FFT_CHUNK`` entries per factor (at least one slice), through
    ``_chunks.chunk_map``: the first half on the calling thread and the
    second on one pool thread, so at most two chunks are live; when one
    slice alone is over the budget (L^2 > ``_FFT_CHUNK``) every chunk runs
    on the calling thread.  Each chunk's per-pair sums are added in chunk
    order, so the result is bit-identical to the one-thread loop's.  BLAS
    threading is not changed.
    """
    abatch, bbatch = _check_batch(plan.m, plan.n, abatch, bbatch)
    w, dm, dn, L = plan.weights, plan.dm, plan.dn, plan.fft_len
    nbatch, nodes = abatch.shape[0], len(w)
    pair = np.repeat(np.arange(nbatch), nodes)
    node = np.tile(np.arange(nodes), nbatch)
    step = max(1, _FFT_CHUNK // (L * L))

    def chunk_sums(s: int):
        p, q = pair[s:s + step], node[s:s + step]
        # transform the short axis first: only m+1 (n+1) rows are nonzero
        F = scipy.fft.fft(scipy.fft.fft(abatch[p] * dm[q], n=L, axis=2), n=L, axis=1)
        G = scipy.fft.fft(scipy.fft.fft(bbatch[p] * dn[q], n=L, axis=2), n=L, axis=1)
        F *= G
        v = F.view(np.float64).reshape(len(p), -1)
        # the sums of the chunk's pairs p[0], ..., p[-1], a contiguous run
        return p[0], np.bincount(p - p[0], weights=w[q] * np.einsum("ij,ij->i", v, v))

    acc = np.zeros(nbatch)
    for p0, sums in chunk_map([partial(chunk_sums, s) for s in range(0, nbatch * nodes, step)],
                              serial=L * L > _FFT_CHUNK):
        acc[p0:p0 + len(sums)] += sums
    return acc / (L * L)


def product_l2_exact(f: Eigenfunction, g: Eigenfunction, table: CGTable | None = None) -> float:
    """Exact ||fg||_{L2}: the total norm of ``product_decompose`` (the oracle)."""
    return product_decompose(f, g, table).total_norm()


def bilinear_ratio(f: Eigenfunction, g: Eigenfunction, table: CGTable | None = None) -> float:
    """||fg|| / (||f|| ||g|| sqrt(n+1)) with n the smaller degree."""
    _check_degree_order(f, g)
    nf, ng = f.l2_norm(), g.l2_norm()
    if nf == 0.0 or ng == 0.0:
        raise ValueError("bilinear ratio undefined for zero eigenfunctions")
    return product_l2_exact(f, g, table) / (nf * ng * np.sqrt(g.m + 1.0))


# -- scans --------------------------------------------------------------------

# Pairs per ``product_norm2_batch`` call of ``bilinear_ratio_scan``; each batch
# draws its A, then its B, so the ratios of a seed depend on this value too.
_SCAN_BATCH = 16


def bilinear_ratio_scan(m: int, n: int, n_pairs: int, seed) -> np.ndarray:
    """Ratios for n_pairs random unit-norm coefficient pairs at degrees (m, n).

    Pairs go through ``product_norm2_batch`` (the sampling engine, float64)
    in batches of ``_SCAN_BATCH``; the ratios are exact to rounding at every
    cell.  An n_pairs below 1 raises ValueError before any work.
    """
    n_pairs = check_count("n_pairs", n_pairs)
    plan = sampling_plan(m, n)
    rng = np.random.default_rng(seed)
    out = np.empty(n_pairs)
    done = 0
    while done < n_pairs:
        b = min(_SCAN_BATCH, n_pairs - done)
        A = rng.standard_normal((b, m + 1, m + 1)) + 1j * rng.standard_normal((b, m + 1, m + 1))
        B = rng.standard_normal((b, n + 1, n + 1)) + 1j * rng.standard_normal((b, n + 1, n + 1))
        A /= np.linalg.norm(A, axis=(1, 2))[:, None, None]
        B /= np.linalg.norm(B, axis=(1, 2))[:, None, None]
        out[done:done + b] = np.sqrt(product_norm2_batch(plan, A, B) / (n + 1.0))
        done += b
    return out


def zonal_pair_ratio(m: int, n: int) -> float:
    """Ratio of the zonal witness pair at degrees (m, n), on the cell's nodes.

    The character product rule makes chi_m chi_n a sum of n+1 orthonormal
    characters, so this equals 1 at every (m, n): the sharpness witness for
    the bilinear bound template and the flat reference the no-growth fit
    runs against.  Its deviation from 1 is rounding only.

    Both zonal coefficient matrices are diagonal, so at each node theta_i
    of the sampling engine the arrays F and G of ``product_norm2_batch``
    are the diagonals of d^m(theta_i) and d^n(theta_i), and their 2-D
    linear convolution is the 1-D linear convolution of those diagonals,
    placed on the diagonal.  The engine's nodes and weights (``_cell_nodes``)
    and the diagonals alone (``wigner_d_diagonal``, from the eigensystem
    of ``wigner_d``) then give the value through one batched real FFT of
    length next_fast_len(m+n+1) per node, with no ``SamplingPlan``:
    O(nodes L log L) time and O(nodes L) memory.
    """
    theta, weights = _cell_nodes(m, n)
    L = scipy.fft.next_fast_len(m + n + 1)
    # the zonal coefficient 1/sqrt(k+1) times sqrt(k+1) d^k: the bare diagonal
    dm, dn = wigner_d_diagonal(m, theta), wigner_d_diagonal(n, theta)
    # L >= m+n+1, so the circular convolution is the linear one
    conv = scipy.fft.irfft(scipy.fft.rfft(dm, n=L, axis=1) * scipy.fft.rfft(dn, n=L, axis=1),
                           n=L, axis=1)
    val = weights @ np.einsum("ij,ij->i", conv, conv)
    return float(np.sqrt(val / (n + 1.0)))


def zonal_ratio(n: int) -> float:
    """Saturation ratio of the zonal pair (m, n) = (2n, n)."""
    return zonal_pair_ratio(2 * n, n)


def scan_grid(m_max: int, n_max: int) -> list:
    """The (m, n) cells of ``scan_cells``: m in 8, 16, 32, 64 up to m_max
    (m_max alone below 8), n = 0 and n in 4, ..., 64 up to min(m, n_max);
    ValueError when they lie at one n, where the no-growth fit has no slope."""
    m_values = [m for m in (8, 16, 32, 64) if m <= m_max] or [m_max]
    cells = [(m, n) for m in m_values
             for n in [0] + [n for n in (4, 8, 16, 32, 64) if n <= min(m, n_max)]]
    fit_ns = sorted({n for (_, n) in cells})
    if len(fit_ns) < 2:
        raise ValueError(f"the no-growth fit needs cells at two or more n; "
                         f"--m-max {m_max} --n-max {n_max} gives n = {fit_ns}")
    return cells


# a gate over the zonal witnesses alone would pass on no random pair
@checked({"m_max": check_integer, "n_max": check_integer, ("m_max", "n_max"): scan_grid,
          "seeds": partial(check_count, "seeds"), "zonal": check_one_of(False, True),
          "cross_check": check_one_of(False, True),
          "zonal_n_max": lambda n: check_count("zonal_n_max", check_integer(n))})
def scan_cells(m_max: int = 64, n_max: int = 64, seeds: int = 500, seed=7, zonal: bool = False,
               zonal_n_max: int = 60, cross_check: bool = False) -> tuple[list, dict]:
    """The ratio scan of ``s3lab bilinear-verify``, with its defaults, over
    ``scan_grid``: per cell, the rows of seeds random pairs
    (``bilinear_ratio_scan``, seed [seed, m, n]) and of the zonal witness,
    which saturates the bound while random maxima decay like (n+1)^(-1/2);
    C*, ``argmax_cell`` (``largest``; a "m,n" key of ``cell_max``) and the
    no-growth slope against log(n+1) read the witness-included cell maxima.
    ``cross_check`` checks exact norms against Haar quadrature at m <= 8;
    ``zonal`` adds ``zonal_ratio`` at n = 1 .. zonal_n_max.  np.max and
    np.min keep a NaN; the builtins may not."""
    cells = scan_grid(m_max, n_max)
    rows, maxima, witnesses = [], [], []
    for m, n in cells:
        ratios = bilinear_ratio_scan(m, n, seeds, [seed, m, n])
        rows += [{"m": m, "n": n, "seed": i, "ratio": float(r)} for i, r in enumerate(ratios)]
        witnesses.append(zonal_pair_ratio(m, n))
        rows.append({"m": m, "n": n, "seed": "zonal", "ratio": witnesses[-1]})
        maxima.append(float(np.max([*ratios, witnesses[-1]])))
    c_star, index = largest(maxima)
    names = [f"{m},{n}" for m, n in cells]
    summary = {"C_star": c_star, "argmax_cell": None if index is None else names[index],
               "fitted_slope": fit_slope([np.log(n + 1.0) for (_, n) in cells], maxima),
               "cell_max": dict(zip(names, maxima))}
    if cross_check:
        rels, defects = [0.0], [0.0]
        for m, n in [(m, n) for (m, n) in cells if m <= 8]:
            report = verify_orthogonality(cg_table(m, n))
            defects += [report["max_row_defect"], report["max_col_defect"]]
            quad = haar_quadrature(recommended_levels(m + n))
            for s in range(3):
                f = random_eigenfunction(m, [seed, m, n, s, 0])
                g = random_eigenfunction(n, [seed, m, n, s, 1])
                exact = product_l2_exact(f, g)
                rels.append(abs(exact - product_l2_quadrature(f, g, quad)) / max(exact, 1e-300))
        summary["quadrature_cross_check_rel"] = worst = float(np.max(rels))
        summary["quadrature_cross_check_ok"] = bool(worst <= gates.CROSS_CHECK_TOL)
        summary["cg_defect_max"] = float(np.max(defects))
    if zonal:
        zr = [zonal_ratio(n) for n in range(1, zonal_n_max + 1)]
        summary.update(zonal_ratios={str(n): v for n, v in enumerate(zr, 1)},
                       zonal_min=float(np.min(zr)))
        witnesses += zr
    summary["witness_dev_max"] = float(np.max(np.abs(np.array(witnesses) - 1.0)))
    return rows, summary
