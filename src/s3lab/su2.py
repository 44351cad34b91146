"""Irreducible representations of SU(2): group elements, representation
matrices, Lie-algebra ladder coefficients, characters, and Haar quadrature.

Conventions
-----------
A group element is stored by its first row (a, b), i.e. the unitary matrix

    [[a, b], [-conj(b), conj(a)]],   |a|^2 + |b|^2 = 1,

which doubles as a point of the unit three-sphere.  The (m+1)-dimensional
irreducible representation acts on homogeneous polynomials of degree m in
two variables; weight labels run over alpha = -m, -m+2, ..., m with monomial
index j = (alpha + m) / 2.  Representation matrices are indexed

    D[alpha, alpha'] = <pi_m(g) v_{m,alpha}, v_{m,alpha'}>,

rows indexed by the input basis vector alpha, columns by alpha'.  This index
order is fixed here once and used by every downstream module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

_NORM_TOL = 1e-12
# d(theta) entries that ``wigner_d`` computes per chunk of angles (1 MiB of
# float64; its work buffers are at most about twice that); a chunk holds at
# least one angle.
_WIGNER_D_CHUNK = 1 << 17


@dataclass(frozen=True)
class GroupElement:
    """Point of SU(2) given by its first row (a, b), renormalized on construction."""

    a: complex
    b: complex

    def __post_init__(self):
        norm = np.sqrt(abs(self.a) ** 2 + abs(self.b) ** 2)
        if norm == 0.0 or not np.isfinite(norm):
            raise ValueError("cannot normalize zero or non-finite group element")
        if abs(norm - 1.0) > _NORM_TOL:
            object.__setattr__(self, "a", complex(self.a) / norm)
            object.__setattr__(self, "b", complex(self.b) / norm)
        else:
            object.__setattr__(self, "a", complex(self.a))
            object.__setattr__(self, "b", complex(self.b))

    @staticmethod
    def identity() -> "GroupElement":
        return GroupElement(1.0 + 0.0j, 0.0 + 0.0j)

    def inverse(self) -> "GroupElement":
        # Conjugate transpose of [[a, b], [-conj(b), conj(a)]] has first row
        # (conj(a), -b).
        return GroupElement(np.conj(self.a), -self.b)

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.a, self.b], [-np.conj(self.b), np.conj(self.a)]], dtype=complex
        )

    def rotation_angle(self) -> float:
        """Angle theta in [0, pi] such that the eigenvalues are exp(+-i theta), as
        arctan2(sin, cos): arccos(Re a) would lose digits near 0 and pi."""
        return float(np.arctan2(np.hypot(self.a.imag, abs(self.b)), self.a.real))


def from_angles(theta: float, phi1: float, phi2: float) -> GroupElement:
    """Element with a = cos(theta) e^{i phi1}, b = sin(theta) e^{i phi2}."""
    return GroupElement(
        np.cos(theta) * np.exp(1j * phi1), np.sin(theta) * np.exp(1j * phi2)
    )


def group_mul(g: GroupElement, h: GroupElement) -> GroupElement:
    """SU(2) matrix product, renormalized."""
    a = g.a * h.a - g.b * np.conj(h.b)
    b = g.a * h.b + g.b * np.conj(h.a)
    return GroupElement(a, b)


def haar_sample(seed) -> GroupElement:
    """Haar-distributed element from a normalized 4-dimensional standard Gaussian.

    ``seed`` may be an integer seed or a ``numpy.random.Generator``.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(4)
    return GroupElement(complex(x[0], x[1]), complex(x[2], x[3]))


def haar_samples(count: int, seed) -> list[GroupElement]:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, 4))
    return [GroupElement(complex(r[0], r[1]), complex(r[2], r[3])) for r in x]


def weights(m: int) -> np.ndarray:
    """Weight labels -m, -m+2, ..., m of the degree-m representation."""
    return np.arange(-m, m + 1, 2)


def is_valid_weight(m: int, alpha: int) -> bool:
    return m >= 0 and -m <= alpha <= m and (alpha - m) % 2 == 0


def ladder_coeff(m: int, alpha: int, direction: str) -> float:
    """Ladder coefficient c_+(m, alpha) ("raise") or c_-(m, alpha) ("lower") of
    the generators on the orthonormal weight basis: the entry of
    ``_ladder_coeffs(m)`` at slot (alpha + m) / 2."""
    if not is_valid_weight(m, alpha):
        raise ValueError(f"invalid weight (m={m}, alpha={alpha})")
    if direction not in ("raise", "lower"):
        raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")
    c_plus, c_minus = _ladder_coeffs(m)
    return (c_minus if direction == "lower" else c_plus)[(alpha + m) // 2]


@lru_cache(maxsize=None)
def _ladder_coeffs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(c_plus, c_minus) over alpha = -m, ..., m, read-only, the one evaluation of

        c_+(m, alpha) = sqrt((m + alpha + 2) (m - alpha)) / 2,
        c_-(m, alpha) = sqrt((m - alpha + 2) (m + alpha)) / 2

    (Edmonds, Angular Momentum in Quantum Mechanics, 1957); c_+(m, m) = c_-(m, -m) = 0."""
    alpha = weights(m)
    c_plus = 0.5 * np.sqrt((m + alpha + 2.0) * (m - alpha))
    c_minus = 0.5 * np.sqrt((m - alpha + 2.0) * (m + alpha))
    c_plus.flags.writeable = c_minus.flags.writeable = False
    return c_plus, c_minus


@lru_cache(maxsize=None)
def _log_factorials(n: int) -> np.ndarray:
    return gammaln(np.arange(n + 1) + 1.0)


@lru_cache(maxsize=None)
def _binom_rows(m: int) -> tuple:
    lf = _log_factorials(m)
    return tuple(
        np.exp(lf[j] - lf[np.arange(j + 1)] - lf[j - np.arange(j + 1)]) for j in range(m + 1)
    )


@lru_cache(maxsize=None)
def _rotation_eig(m: int) -> tuple:
    """Eigendecomposition of i (E - F)^T on the weight basis.

    At a = cos(theta), b = sin(theta) the representation matrix is
    exp(theta K) with K the transposed skew generator, so exp is evaluated
    through this Hermitian tridiagonal eigensystem; the result is orthogonal
    to machine precision at every m.
    """
    sup = _ladder_coeffs(m)[0][:-1]  # c_+ over alpha = -m, ..., m-2
    H = np.zeros((m + 1, m + 1), dtype=complex)
    idx = np.arange(m)
    H[idx, idx + 1] = 1j * sup
    H[idx + 1, idx] = -1j * sup
    evals, evecs = np.linalg.eigh(H)
    return evals, evecs


@lru_cache(maxsize=None)
def _rotation_eig_real(m: int) -> tuple:
    """The real form of ``_rotation_eig`` that ``wigner_d`` evaluates.

    With D = diag(i^j), T = D^* H D is real tridiagonal with off-diagonal
    -c_+ and the same eigenvalues lambda = -m, -m+2, ..., m; let Q be its
    orthogonal eigenvectors.  Then d(theta) = Re(D Q e^{-i theta lambda}
    Q^T D^*), and the sign of i^{j-j'} is absorbed by W = diag(u) Q with
    u_j = (-1)^{floor(j/2)}.  Split by the parity of the row index, with
    W0, W1 the even and odd rows of W, c = cos(theta lambda) and
    s = sin(theta lambda):

        d[even, even] = W0 c W0^T,    d[odd, odd] = W1 c W1^T,
        d[even, odd] = -W0 s W1^T,    d[odd, even] = -d[even, odd]^T.

    The eigenvector of -lambda is +-P q with P = diag((-1)^j), so each
    block is twice its sum over lambda > 0 plus the lambda = 0 term: only
    the columns with lambda >= 0 are kept, those with lambda > 0 scaled by
    sqrt(2).  Returns (lambda, W0, W1) over the kept columns.
    """
    sup = _ladder_coeffs(m)[0][:-1]  # c_+ over alpha = -m, ..., m-2
    T = np.zeros((m + 1, m + 1))
    idx = np.arange(m)
    T[idx, idx + 1] = T[idx + 1, idx] = -sup
    evals, evecs = np.linalg.eigh(T)
    j = np.arange(m + 1)
    W = np.where((j // 2) % 2 == 0, 1.0, -1.0)[:, None] * evecs
    keep = evals > -0.5  # the eigenvalues are integers up to rounding
    W = W[:, keep] * np.where(evals[keep] > 0.5, np.sqrt(2.0), 1.0)
    return evals[keep], W[0::2], W[1::2]


def _rotation_block(m: int, theta: float) -> np.ndarray:
    evals, evecs = _rotation_eig(m)
    return ((evecs * np.exp(-1j * theta * evals)) @ evecs.conj().T).real


def irrep_matrix(m: int, g: GroupElement) -> np.ndarray:
    """Matrix of the degree-m irreducible representation at g.

    Entries come from expanding (a u + c v)^j (b u + d v)^{m-j} with
    (c, d) = (-conj(b), conj(a)) and rescaling by the Gaussian-integral
    monomial norms; that expansion factors exactly as

        D[j, j'] = exp(i (j+j'-m) phi1) exp(i (j'-j) phi2) d[j, j'](theta)

    with a = cos(theta) e^{i phi1}, b = sin(theta) e^{i phi2}, and the real
    block d(theta) is evaluated as a one-parameter rotation group (see
    ``_rotation_eig``): no factorial ratio is ever formed, and unitarity
    holds to machine precision through m ~ 60 and beyond.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return np.ones((1, 1), dtype=complex)
    theta = np.arctan2(abs(g.b), abs(g.a))
    phi1, phi2 = np.angle(g.a), np.angle(g.b)
    return _rotation_block(m, theta) * _irrep_phases(m, phi1, phi2)


def _irrep_phases(m: int, phi1, phi2) -> np.ndarray:
    """exp(i (j+j'-m) phi1) exp(i (j'-j) phi2) over (j, j'), the phase factor
    of ``irrep_matrix``; the shape of phi1 and phi2 leads, (m+1, m+1) trails."""
    j = np.arange(m + 1)
    phi1, phi2 = np.asarray(phi1)[..., None, None], np.asarray(phi2)[..., None, None]
    return np.exp(1j * ((j[:, None] + j[None, :] - m) * phi1 + (j[None, :] - j[:, None]) * phi2))


def _irrep_stacks(degrees, gs) -> dict[int, np.ndarray]:
    """{d: the (len(gs), d+1, d+1) stack of ``irrep_matrix(d, g)`` over ``gs``}.

    Each degree takes one ``wigner_d`` call for the angles theta of all
    elements, times ``_irrep_phases``: the factorization of ``irrep_matrix``
    evaluated for many elements at once.
    """
    a = np.array([g.a for g in gs], dtype=complex)
    b = np.array([g.b for g in gs], dtype=complex)
    theta = np.arctan2(np.abs(b), np.abs(a))
    phi1, phi2 = np.angle(a), np.angle(b)
    return {d: wigner_d(d, theta) * _irrep_phases(d, phi1, phi2) for d in degrees}


def irrep_matrix_binomial(m: int, g: GroupElement) -> np.ndarray:
    """Direct binomial-expansion evaluation of the same matrix.

    Slightly less accurate for large m (term cancellation); kept as an
    independent cross-check of ``irrep_matrix``.  Factorial ratios are
    accumulated in log space.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    a, b = g.a, g.b
    c, d = -np.conj(b), np.conj(a)
    lf = _log_factorials(m)
    binoms = _binom_rows(m)
    apow = a ** np.arange(m + 1)
    bpow = b ** np.arange(m + 1)
    cpow = c ** np.arange(m + 1)
    dpow = d ** np.arange(m + 1)
    half_lognorm = 0.5 * (lf + lf[::-1])  # log sqrt(j! (m-j)!)
    out = np.empty((m + 1, m + 1), dtype=complex)
    for j in range(m + 1):
        pa = binoms[j] * apow[: j + 1] * cpow[: j + 1][::-1]
        pb = binoms[m - j] * bpow[: m - j + 1] * dpow[: m - j + 1][::-1]
        row = np.convolve(pa, pb)
        out[j, :] = row * np.exp(half_lognorm - half_lognorm[j])
    return out


def wigner_d(m: int, thetas: np.ndarray) -> np.ndarray:
    """Real reduced matrices d^m(theta) at a = cos(theta), b = sin(theta).

    At these elements the full matrix factors as
    D[j, j'] = d[j, j'](theta) * exp(i (j+j'-m) phi1) * exp(i (j'-j) phi2),
    which is what the tensor-grid evaluation paths rely on.

    Returns an array of shape (len(thetas), m+1, m+1).  All angles come
    from one real eigensystem of the rotation generator (see
    ``_rotation_eig_real``), in real arithmetic: per chunk of angles, at
    most ``_WIGNER_D_CHUNK`` entries, two real matrix products give the
    four parity blocks of d(theta), about 3 (m+1)^3 / 8 multiply-adds per
    angle.  ``_rotation_block``, the per-angle path of ``irrep_matrix``
    through the complex eigensystem, is its independent check.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    evals, w0, w1 = _rotation_eig_real(m)
    size, n1 = m + 1, w1.shape[0]
    out = np.empty((len(thetas), size, size))
    step = max(1, _WIGNER_D_CHUNK // (size * size))
    for s0 in range(0, len(thetas), step):
        phase = thetas[s0:s0 + step, None, None] * evals
        c, s = np.cos(phase), np.sin(phase)
        d = out[s0:s0 + step]
        d[:, 0::2, 0::2] = (w0 * c) @ w0.T
        # the odd-odd block and the even-odd block share the right factor W1^T
        rows = np.concatenate([w1 * c, -(w0 * s)], axis=1) @ w1.T
        d[:, 1::2, 1::2] = rows[:, :n1]
        d[:, 0::2, 1::2] = rows[:, n1:]
        d[:, 1::2, 0::2] = -rows[:, n1:].transpose(0, 2, 1)
    return out


def wigner_d_diagonal(m: int, thetas: np.ndarray) -> np.ndarray:
    """Diagonals d^m[j, j](theta) of ``wigner_d``, shape (len(thetas), m+1).

    From the same real eigensystem (``_rotation_eig_real``): the even
    diagonal of W0 c W0^T is c @ (W0 * W0)^T and the odd one c @ (W1 * W1)^T,
    c = cos(theta lambda), one matrix product per parity and
    O(len(thetas) (m+1)) memory.  Each entry is a Jacobi polynomial in
    cos(2 theta) (Edmonds, Angular Momentum in Quantum Mechanics, 1957).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    evals, w0, w1 = _rotation_eig_real(m)
    c = np.cos(thetas[:, None] * evals)
    out = np.empty((len(thetas), m + 1))
    out[:, 0::2] = c @ (w0 * w0).T
    out[:, 1::2] = c @ (w1 * w1).T
    return out


def character(m: int, g: GroupElement) -> float:
    """Trace of the degree-m representation: sin((m+1) theta) / sin(theta)
    with exp(+-i theta) the eigenvalues of g.

    Where Re a < 0 it is taken as (-1)^m chi_m(-g), so the angle delta of
    g or -g lies in [0, pi/2] and sin((m+1) delta) / sin(delta) keeps full
    relative precision near theta = 0 and pi; only delta = 0 exactly is
    replaced by the limit m + 1."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    sign = -1.0 if g.a.real < 0.0 and m % 2 else 1.0
    delta = np.arctan2(np.hypot(g.a.imag, abs(g.b)), abs(g.a.real))
    if delta == 0.0:
        return sign * (m + 1)
    return float(sign * np.sin((m + 1) * delta) / np.sin(delta))


@dataclass(frozen=True)
class HaarQuadrature:
    """Tensor-product quadrature for the normalized Haar measure.

    Parameterization a = cos(theta) e^{i phi1}, b = sin(theta) e^{i phi2},
    theta in [0, pi/2], phi_i in [0, 2 pi), density cos(theta) sin(theta) / (2 pi^2):
    Gauss-Legendre in theta, uniform (trapezoid on the circle) in phi1, phi2.
    Weights are normalized to sum to exactly 1.  Only the theta weights are
    stored; ``weights``, the flat per-node array of ``node_count`` entries,
    is computed on request.
    """

    theta: np.ndarray
    theta_weight: np.ndarray  # sums to 1; per-node weight is theta_weight/(nphi1*nphi2)
    nphi1: int
    nphi2: int

    @property
    def levels(self) -> tuple[int, int, int]:
        return (len(self.theta), self.nphi1, self.nphi2)

    @property
    def weights(self) -> np.ndarray:
        return np.repeat(self.theta_weight / (self.nphi1 * self.nphi2), self.nphi1 * self.nphi2)

    @property
    def node_count(self) -> int:
        return len(self.theta) * self.nphi1 * self.nphi2

    def phi1(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.nphi1) / self.nphi1

    def phi2(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.nphi2) / self.nphi2

    def nodes(self) -> list[GroupElement]:
        """Materialized node list; intended for small levels only."""
        out = []
        for th in self.theta:
            for p1 in self.phi1():
                for p2 in self.phi2():
                    out.append(from_angles(th, p1, p2))
        return out

    def integrate(self, values: np.ndarray) -> complex:
        """Integrate values sampled on the (theta, phi1, phi2) tensor grid."""
        if values.shape != (len(self.theta), self.nphi1, self.nphi2):
            raise ValueError("values shape does not match quadrature grid")
        per_phi = values.sum(axis=(1, 2)) / (self.nphi1 * self.nphi2)
        return np.dot(self.theta_weight, per_phi)


def haar_quadrature(levels: tuple[int, int, int]) -> HaarQuadrature:
    """Quadrature at (ntheta, nphi1, nphi2); each level an integer >= 2, else ValueError."""
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in levels):
        raise ValueError(f"quadrature levels must be integers, got {levels!r}")
    ntheta, nphi1, nphi2 = levels
    if min(ntheta, nphi1, nphi2) < 2:
        raise ValueError("all quadrature levels must be >= 2")
    x, w = np.polynomial.legendre.leggauss(ntheta)
    theta = 0.25 * np.pi * (x + 1.0)
    wt = w * np.cos(theta) * np.sin(theta)
    wt /= wt.sum()
    return HaarQuadrature(theta=theta, theta_weight=wt, nphi1=nphi1, nphi2=nphi2)
