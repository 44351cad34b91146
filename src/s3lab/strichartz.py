"""Discretized linear Schrodinger evolution on R x T for slab-supported
spectral data: weighted L4 space-time norms via FFT, the exact
frequency-side quadrilinear form, kernel-decomposition diagnostics, the
hyperbolic variant, and sharpness probes.  Every quotient, scan and probe
returns one shape, (rows, summary): the rows are the CSV rows of its trials
or N, the summary a dict of the values its gates read.

Discretization conventions
--------------------------
The xi1 integral over R is an h-step Riemann sum, which periodizes x1 to a
torus of circumference 2 pi / h.  The packet mass convention is
||phi||^2 = h sum |values|^2 (the fixed 2 pi Plancherel constant of the
continuum transform is dropped; every reported quotient is normalized by
the same convention so measured constants absorb it).  With

    u(t, x1) = sum_{xi2} h sum_{xi1} e^{i x1 xi1 - i t Lambda(xi)} v(xi),
    Lambda = xi1^2 + xi2^2 + k xi2   (elliptic; xi1^2 - xi2^2 hyperbolic),

the weighted quartic satisfies the exact on-grid identity

    || phi_w(t)^{1/4} u ||_{L4(R x period)}^4
      = (2 pi)^2 h^3 sum_{<xi1> = 0} phi_w_hat(<Lambda>) v1 v3 conj(v2 v4)

where <.> is the four-term alternating sum and the x1 Riemann sum is
exact once the FFT length exceeds twice the span of the occupied xi1
indices (|u|^4 has no x1 frequency beyond it).  The weight is the
Fejer-type window phi_w(t) = 2 (sin(t/2)/(t/2))^2, whose transform is the
triangle 2 (1_[-1/2,1/2] * 1_[-1/2,1/2]) on [-1, 1]; so the frequency side
is a sum of squares, 2 int |S|^2 per xi1 sum with S a step function.

Two time rules evaluate the t integral.  The windowed rule is composite
Simpson on a finite window, which misses the Fejer tail outside it.  The
periodic-exact rule needs h^2 = 1/q for an integer q: then every Lambda
lies on (1/q)Z, so F(t) = int |u|^4 dx has period T = 2 pi q, and by
Poisson summation the T-periodization of phi_w is the finite sum

    W_T(t) = sum_k phi_w(t + kT) = (1/q) sum_{|j|<q} 2 (1 - |j|/q) e^{ijt/q}
           = 2 (sin(t/2) / (q sin(t/(2q))))^2,

so int_R phi_w F dt = int_0^T W_T F dt.  W_T F is a trigonometric
polynomial in t/q of degree below q (2 spread + 1), so the trapezoid rule
on n = q (2 spread + 1) equispaced nodes of one period integrates it
exactly: no truncation, no Simpson error, no aliasing.

The same quartic is measured in x2 either at the point x2 = 0 (the slice
norm of the refined L^inf_{x2} L4_{t,x1} estimate) or over the torus
[0, 2 pi) (the L4 norm on R x T of the hyperbolic estimate), where u
carries the factor e^{i x2 xi2} and the identity gains the constraint
<xi2> = 0 and a factor 2 pi.  One evaluator computes both: the torus is
sampled at equispaced points, exact once their number exceeds twice the
span of the occupied xi2 rows.  At the slice the rows are summed (one BLAS
product per time chunk); on the torus u is a two-dimensional inverse FFT,
one pass along xi1 and one along xi2, so each time node costs
O(N^2 log N) for data on [-N, N]^2.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.fft as sfft
from scipy.special import sici

from . import fitting, gates
from ._chunks import sum_into, tiles
from .fitting import (check_count, check_delta, check_fit_xs, check_integer, check_seed, checked,
                      fit_slope, largest)

FEJER_TOTAL = 4.0 * np.pi  # integral of the weight over R


def fejer_weight(t):
    """phi_w(t) = 2 (sin(t/2) / (t/2))^2; phi_w(0) = 2, >= 1 on [0, 1]."""
    t = np.asarray(t, dtype=float)
    out = 2.0 * np.sinc(t / (2.0 * np.pi)) ** 2
    return out if out.ndim else float(out)


def fejer_hat(tau):
    """Transform 2 max(0, 1 - |tau|): nonnegative, supported in [-1, 1]."""
    tau = np.asarray(tau, dtype=float)
    out = 2.0 * np.maximum(0.0, 1.0 - np.abs(tau))
    return out if out.ndim else float(out)


def fejer_tail(T: float) -> float:
    """Exact two-sided tail integral of the weight beyond |t| > T >= 0;
    fejer_tail(0) is its limit, the total 4 pi."""
    if T == 0:
        return FEJER_TOTAL
    si = sici(T)[0]
    return float(8.0 * ((1.0 - math.cos(T)) / T + math.pi / 2.0 - si))


def _fejer_upper_tail(T: float) -> float:
    """Integral of the weight over (T, inf) for any real T.  The window
    (t_min, t_max) misses the fraction
    (_fejer_upper_tail(t_max) + _fejer_upper_tail(-t_min)) / (4 pi), that is
    1 - (Phi(t_max) - Phi(t_min)) / (4 pi) with Phi the odd antiderivative;
    for a symmetric window the sum is exactly fejer_tail(t_max)."""
    half = fejer_tail(abs(T)) / 2.0
    return half if T >= 0 else FEJER_TOTAL - half


@dataclass(frozen=True)
class SlabSpec:
    """Spectral region {xi in R x Z : |xi - xi0| <= N, |a . xi - c| <= M}."""

    xi0: tuple
    a: tuple
    c: float
    M: float
    N: float

    def __post_init__(self):
        norm = math.hypot(self.a[0], self.a[1])
        if norm == 0.0:
            raise ValueError("direction vector must be nonzero")
        if abs(norm - 1.0) > 1e-12:
            object.__setattr__(self, "a", (self.a[0] / norm, self.a[1] / norm))
        if not (1.0 <= self.M <= self.N):
            raise ValueError("need 1 <= M <= N")
        if self.xi0[1] != int(self.xi0[1]):
            raise ValueError("xi0 second coordinate must be an integer")


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform xi1 grid of step h on [-extent, extent] times integer rows."""

    h: float
    xi1_extent: float
    xi2_min: int
    xi2_max: int

    def __post_init__(self):
        check_h(self.h)
        if self.xi2_max < self.xi2_min:
            raise ValueError("empty xi2 range")

    @property
    def imax(self) -> int:
        return int(math.floor(self.xi1_extent / self.h + 1e-9))

    @property
    def xi1(self) -> np.ndarray:
        return self.h * np.arange(-self.imax, self.imax + 1)

    @property
    def xi2(self) -> np.ndarray:
        return np.arange(self.xi2_min, self.xi2_max + 1)

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.h

    def covers(self, slab: SlabSpec) -> bool:
        return (
            abs(slab.xi0[0]) + slab.N <= self.xi1_extent + 1e-9
            and self.xi2_min <= slab.xi0[1] - slab.N
            and slab.xi0[1] + slab.N <= self.xi2_max
        )


def grid_for_slab(slab: SlabSpec, h: float = 0.125) -> FrequencyGrid:
    extent = abs(slab.xi0[0]) + slab.N + h
    return FrequencyGrid(
        h=h,
        xi1_extent=extent,
        xi2_min=int(math.floor(slab.xi0[1] - slab.N)) - 1,
        xi2_max=int(math.ceil(slab.xi0[1] + slab.N)) + 1,
    )


@dataclass(frozen=True)
class WavePacket:
    """Sampled spectral data on a frequency grid; rows follow xi2, columns xi1.

    Mass convention: ||phi||^2_{L2} = h * sum |values|^2.
    """

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        rows = self.grid.xi2_max - self.grid.xi2_min + 1
        cols = 2 * self.grid.imax + 1
        if v.shape != (rows, cols):
            raise ValueError(f"values must have shape {(rows, cols)}")
        object.__setattr__(self, "values", v)

    def l2_norm(self) -> float:
        return float(np.sqrt(self.grid.h * np.sum(np.abs(self.values) ** 2)))

    def support_count(self) -> int:
        return int(np.count_nonzero(self.values))

    def support(self):
        """(col index array relative to grid center, xi2 array, value array)."""
        rows, cols = np.nonzero(self.values)
        return (
            cols - self.grid.imax,
            rows + self.grid.xi2_min,
            self.values[rows, cols],
        )


# entries of one block: a time chunk's (node, x2 point, x1 point) buffer
# in ``_weighted_quartic``, its largest (on the torus both FFT passes run
# in it; a chunk holds at least one node, so a node over the budget is a
# chunk of its own), and a row block of ``slab_mask``, 1 MiB as complex.
# The phase tables compute their step rows once per evaluation, so a
# chunk costs only its own base rows of exp and the budget sets memory, not
# time: on a 2-vCPU Xeon the strichartz-suite benchmark peaked at 78.5 MB
# RSS with 2^18 entries (4 MiB) and at about 72 MB with 2^16, and a
# 4e6-entry (64 MiB) buffer fell out of cache on every chunk
_CHUNK_ENTRIES = 2**16


def slab_mask(slab: SlabSpec, grid: FrequencyGrid) -> np.ndarray:
    """The grid nodes of the slab, a bool array of the grid's shape.  The
    elementwise test runs on the ``_chunks.tiles`` of at most
    ``_CHUNK_ENTRIES`` entries, so its float temporaries stay that small."""
    xi1 = grid.xi1
    xi2 = grid.xi2.astype(float)
    mask = np.empty((len(xi2), len(xi1)), dtype=bool)
    for rows, cols in tiles(len(xi2), len(xi1), _CHUNK_ENTRIES):
        x1, x2 = xi1[None, cols], xi2[rows, None]
        d2 = (x1 - slab.xi0[0]) ** 2 + (x2 - slab.xi0[1]) ** 2
        band = np.abs(slab.a[0] * x1 + slab.a[1] * x2 - slab.c)
        mask[rows, cols] = (d2 <= slab.N**2 + 1e-9) & (band <= slab.M + 1e-9)
    return mask


def _unit_packet(grid: FrequencyGrid, vals: np.ndarray) -> WavePacket:
    """The packet of vals, a complex array of the grid's shape, divided in
    place by its L2 norm sqrt(h) ||vals||."""
    vals /= np.sqrt(grid.h) * np.linalg.norm(vals)
    return WavePacket(grid=grid, values=vals)


def _gaussian_packet(grid: FrequencyGrid, nodes, count: int, rng) -> WavePacket:
    """Unit-norm packet with i.i.d. complex standard Gaussian values at
    ``nodes``, a bool mask of the grid's shape or an index tuple, count
    nodes either way, and zero elsewhere.  The real parts are drawn first,
    as in a + 1j b, and both are written in place: no complex temporary of
    the drawn nodes."""
    vals = np.zeros((grid.xi2_max - grid.xi2_min + 1, 2 * grid.imax + 1), dtype=complex)
    vals.real[nodes] = rng.standard_normal(count)
    vals.imag[nodes] = rng.standard_normal(count)
    return _unit_packet(grid, vals)


def sample_slab_packet(slab: SlabSpec, grid: FrequencyGrid, mode: str, seed=None) -> WavePacket:
    """Unit-norm packet supported on the slab's grid nodes.

    ``indicator`` sets ones, ``gaussian-random`` draws i.i.d. complex
    standard Gaussians; either way the result is normalized to unit L2.
    """
    if not grid.covers(slab):
        raise ValueError("grid does not cover the slab")
    mask = slab_mask(slab, grid)
    count = int(mask.sum())
    if count == 0:
        raise ValueError("slab contains no grid nodes")
    if mode == "indicator":
        return _unit_packet(grid, mask.astype(complex))
    if mode == "gaussian-random":
        return _gaussian_packet(grid, mask, count, np.random.default_rng(seed))
    raise ValueError(f"unknown mode {mode!r}")


def sparse_packet(seed, n_nodes: int, N: float, h: float) -> WavePacket:
    """Unit-norm packet on min(n_nodes, disk nodes) nodes of the disk
    |xi| <= N, drawn without replacement, with i.i.d. complex standard
    Gaussian values."""
    slab = SlabSpec(xi0=(0.0, 0), a=(1.0, 0.0), c=0.0, M=N, N=N)
    grid = grid_for_slab(slab, h=h)
    rng = np.random.default_rng(seed)
    idx = np.argwhere(slab_mask(slab, grid))
    pick = idx[rng.choice(len(idx), size=min(n_nodes, len(idx)), replace=False)]
    return _gaussian_packet(grid, tuple(pick.T), len(pick), rng)


def box_packet(N: int, h: float = 0.25) -> WavePacket:
    """Unit-norm indicator of the square [-N, N]^2 (the sharpness example)."""
    grid = FrequencyGrid(h=h, xi1_extent=float(N), xi2_min=-N, xi2_max=N)
    return _unit_packet(grid, np.ones((2 * N + 1, 2 * grid.imax + 1), dtype=complex))


def _lambda_rows_cols(p: WavePacket, k_shift: int, dispersion: str):
    xi2 = p.grid.xi2.astype(float)
    xi1 = p.grid.xi1
    if dispersion == "elliptic":
        mu = xi2**2 + k_shift * xi2
    elif dispersion == "hyperbolic":
        mu = -(xi2**2)
    else:
        raise ValueError(f"dispersion must be 'elliptic' or 'hyperbolic', got {dispersion!r}")
    return mu, xi1**2


def _support_lambda(p: WavePacket, k_shift: int, dispersion: str) -> np.ndarray:
    """Lambda at the support nodes, in the order of ``p.support()``."""
    mu, colsq = _lambda_rows_cols(p, k_shift, dispersion)
    rows, cols = np.nonzero(p.values)
    return colsq[cols] + mu[rows]


def lambda_spread(p: WavePacket, k_shift: int, dispersion: str) -> float:
    """Spread of Lambda over the packet support (drives time resolution)."""
    lam = _support_lambda(p, k_shift, dispersion)
    if len(lam) == 0:
        return 0.0
    return float(lam.max() - lam.min())


def check_h(h):
    """Return h; ValueError unless it is a positive real in float range, not a bool."""
    if isinstance(h, bool) or not isinstance(h, numbers.Real) or not 0.0 < h <= sys.float_info.max:
        raise ValueError("h must be a finite positive number")
    return h


def lattice_q(h: float) -> int:
    """The integer q = 1/h^2 of a grid step on the lattice of the
    periodic-exact time rule; ValueError when 1/h^2 is not an integer."""
    q = 1.0 / (h * h) if h > 0 else math.nan
    qi = round(q) if math.isfinite(q) else 0
    if qi < 1 or abs(q - qi) > 1e-9 * q:
        raise ValueError(f"the periodic-exact time rule needs h^2 = 1/q for an integer q, got h = {h}")
    return qi


def anti_alias_nt(p: WavePacket, k_shift: int, dispersion: str, t_min: float, t_max: float) -> int:
    """Smallest even Simpson interval count that resolves every oscillation
    of phi_w |u|^4 on the window (the Simpson weight pattern folds at
    pi / dt, so dt <= pi / (2 spread + 2))."""
    spread = lambda_spread(p, k_shift, dispersion)
    dt = np.pi / (2.0 * spread + 2.0)
    n = int(math.ceil((t_max - t_min) / dt))
    return max(64, n + (n % 2))


def _simpson_weights(t0: float, t1: float, n_t: int) -> tuple[np.ndarray, np.ndarray]:
    ts = np.linspace(t0, t1, n_t + 1)
    w = np.ones(n_t + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (t1 - t0) / n_t / 3.0
    return ts, w


# Most time nodes of one evaluation, by either rule, checked before any
# node array is built.  The largest count a test, script, acceptance
# criterion or benchmark workload uses is 65 552 (the box probe at N = 32,
# h = 1/4); 2^21 is 32 times that.
_TIME_NODE_BUDGET = 2**21


def check_time_nodes(n: int) -> int:
    """Return n; ValueError naming it when n time nodes are over
    ``_TIME_NODE_BUDGET``."""
    if n > _TIME_NODE_BUDGET:
        raise ValueError(f"{n} time nodes are over the budget of {_TIME_NODE_BUDGET}")
    return n


def check_window(t_window) -> tuple[float, float, int]:
    """(t_min, t_max, n_t) of a windowed time rule; ValueError unless the
    window has three real numbers, none a bool, with t_min < t_max finite
    and n_t a whole number >= 64 (64.0 runs as 64) whose n_t + 1 nodes (an
    odd n_t runs as n_t + 1) are within ``_TIME_NODE_BUDGET``."""
    try:
        entries = list(t_window)
        if len(entries) != 3 or any(isinstance(v, bool) or not isinstance(v, numbers.Real)
                                    for v in entries):
            raise TypeError
        t0, t1, n_t = (float(v) for v in entries)
    except (TypeError, OverflowError):
        raise ValueError(f"time window needs three numbers (t_min, t_max, n_t), got {t_window!r}") from None
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
        raise ValueError(f"time window needs finite t_min < t_max, got ({t0}, {t1})")
    if not (math.isfinite(n_t) and n_t >= 64 and n_t.is_integer()):
        raise ValueError(f"need a whole number of at least 64 time intervals, got n_t = {n_t}")
    n_t = int(n_t)
    check_time_nodes(n_t + n_t % 2 + 1)
    return t0, t1, n_t


@dataclass(frozen=True)
class EvolveResult:
    value: float
    quartic: float
    truncation_rel: float
    n_nodes: int
    warnings: tuple = field(default_factory=tuple)


def _stepped(base, step: np.ndarray):
    """The chunk maker table(j0, j1) of a phase table from its step rows:
    row j = j0 + b S + s (s < S = len(step)) is base(j0 + b S) * step[s], so
    a chunk of c nodes takes ceil(c / S) base rows, each a row of complex
    exp, and one complex multiply per entry."""
    S = len(step)

    def table(j0: int, j1: int) -> np.ndarray:
        rows = base(np.arange(j0, j1, S))
        return (rows[:, None, :] * step[None, :, :]).reshape(-1, step.shape[1])[:j1 - j0]

    return table


def _phase_chunks(ts: np.ndarray, dt: float, lam: np.ndarray, S: int, scale: float = 1.0):
    """table(j0, j1) = scale * e^{-i t lam} on the nodes ts[j0:j1] of the
    equispaced nodes ts (step dt), shape (j1 - j0, len(lam)).  The S step
    rows e^{-i s dt lam} are computed here, once; each table(j0, j1)
    computes its own base rows (``_stepped``)."""
    step = np.exp(-1j * (dt * np.arange(S))[:, None] * lam[None, :])
    return _stepped(lambda j: scale * np.exp(-1j * ts[j, None] * lam[None, :]), step)


def _dft_phase_chunks(n: int, m: np.ndarray, S: int, scale: float = 1.0):
    """table(j0, j1) = scale * e^{-2 pi i j m / n} on the nodes j0 <= j < j1
    for integer m, shape (j1 - j0, len(m)), from S step rows computed once
    and base rows per chunk as in ``_phase_chunks``.  Each j m is reduced mod n
    in integers before the exp, so the angles stay in [0, 2 pi) and the
    phases are exact at any j m."""
    m = m % n

    def phase(j):
        return np.exp((-2j * np.pi / n) * ((j[:, None] * m) % n))

    return _stepped(lambda j: scale * phase(j), phase(np.arange(S)))


def _windowed_rule(p: WavePacket, k_shift: int, dispersion: str, t_window: tuple):
    """Composite Simpson on the window: node weights (Simpson times phi_w),
    the phase-table maker phases(lam, S, scale) (``_phase_chunks``: S rows
    of steps e^{-i s dt lam}, then one base row per S nodes), the truncated
    Fejer fraction and the warnings."""
    t0, t1, n_t = check_window(t_window)
    n_t += n_t % 2
    ts, sw = _simpson_weights(t0, t1, n_t)
    dt = (t1 - t0) / n_t

    def phases(lam, S, scale=1.0):
        return _phase_chunks(ts, dt, lam, S, scale)

    trunc_rel = (_fejer_upper_tail(t1) + _fejer_upper_tail(-t0)) / FEJER_TOTAL
    warn = []
    if trunc_rel > 0.01:
        warn.append(f"window-truncation:{trunc_rel:.4f}")
    needed = anti_alias_nt(p, k_shift, dispersion, t0, t1)
    if n_t < needed:
        warn.append(f"time-aliasing-risk:need_nt={needed}")
    return sw * fejer_weight(ts), phases, trunc_rel, tuple(warn)


def _periodized_fejer(q: int, n: int) -> np.ndarray:
    """W_T(t) = sum_k phi_w(t + kT) = 2 (sin(t/2) / (q sin(t/(2q))))^2,
    T = 2 pi q, at the n nodes t_j = j T / n of one period.  Both angles
    pi q j / n and pi j / n are folded into [0, pi/2] in integers (W_T is
    even in each sine), so no node loses digits near a multiple of pi; the
    limit at j = 0 is 2."""
    j = np.arange(1, n)
    a = (q * j) % n
    num = np.sin(np.pi / n * np.minimum(a, n - a))
    den = q * np.sin(np.pi / n * np.minimum(j, n - j))
    w = np.empty(n)
    w[0] = 2.0
    w[1:] = 2.0 * (num / den) ** 2
    return w


def _periodic_rule(p: WavePacket, k_shift: int, dispersion: str):
    """The periodic-exact rule on one period T = 2 pi q: n = q (2 spread + 1)
    nodes t_j = j T / n with weights (T/n) W_T(t_j), the phase-table maker
    phases(lam, S, scale) (``_dft_phase_chunks``, exact: q Lambda is an
    integer, so t_j Lambda = 2 pi j (q Lambda) / n, reduced mod n in
    integers; S step rows, then one base row per S nodes), zero truncation
    and no warnings.  ValueError before the nodes are built when some
    |q Lambda| is not below 2^53 or n is over ``_TIME_NODE_BUDGET``."""
    q = lattice_q(p.grid.h)
    qlam = q * _support_lambda(p, k_shift, dispersion)
    if not np.max(np.abs(qlam)) < 2.0**53:  # past it np.rint is no longer the exact integer
        raise ValueError(f"q Lambda reaches {np.max(np.abs(qlam)):.4g}, not below 2^53")
    m = np.rint(qlam).astype(np.int64)
    n = check_time_nodes(2 * int(m.max() - m.min()) + q)
    weights = (2.0 * np.pi * q / n) * _periodized_fejer(q, n)

    def phases(lam, S, scale=1.0):
        return _dft_phase_chunks(n, np.rint(q * lam).astype(np.int64), S, scale)

    return weights, phases, 0.0, ()


def _weighted_quartic(
    p: WavePacket, k_shift: int, dispersion: str, t_window, x2_torus: bool
) -> EvolveResult:
    """Integral of phi_w(t) |u|^4 over t x (one x1 period) x (x2 measure).

    The time rule is the windowed one on ``t_window = (t_min, t_max, n_t)``
    (composite Simpson over the window, finite with t_min < t_max and
    n_t >= 64; truncation and time-resolution risks are surfaced as
    warnings, never silently ignored) or, with ``t_window=None``, the
    periodic-exact one over the whole line (h^2 = 1/q for an integer q,
    n = q (2 spread + 1) nodes on one period 2 pi q with the Poisson-
    periodized weight W_T; see the module docstring).  Both refuse their
    input before any work.

    The x2 measure is the point x2 = 0 with weight 1 (the slice) or, with
    ``x2_torus``, Q equispaced points y_q on [0, 2 pi) with weight 2 pi / Q.
    The live block is a view of the contiguous spans [lo, hi] of live
    columns and [r0, r1] of live rows (dead rows inside the span stay zero),
    shifted to frequency 0 in both; the shifts multiply u by a unimodular
    factor, so |u| is unchanged and |u|^4 carries x1 frequencies within
    +-2 (hi - lo) and x2 frequencies within +-2 (r1 - r0).  The equispaced
    sums are therefore exact once the FFT length P exceeds twice the column
    span and Q twice the row span.  Per time chunk of at most
    ``_CHUNK_ENTRIES`` (node, x2, x1) entries, the block takes the time
    phases e^{-i t mu} per row and h e^{-i t xi1^2} per column.  At the
    slice the rows are summed with their phases (a single BLAS product),
    then one zero-padded FFT of length P in xi1 gives u on the x1 grid.  On
    the torus the phased block goes into the corner of one zeroed (Q, P)
    buffer per node, and in place one FFT of length P in xi1 per live row,
    then one of length Q in xi2 per x1 point, give u on the (x2, x1) grid:
    per node R FFTs of length P and P of length Q for R = r1 - r0 + 1 rows,
    where a product with the Q x R matrix of e^{i y_q xi2} would take
    Q R (hi - lo + 1) multiply-adds, and Q P complex entries live.  The
    time phases come from the rule's phase tables: S = min(chunk,
    ceil(sqrt(n_nodes))) step rows per table, built once per evaluation,
    then ceil(count / S) base rows per chunk of count nodes, so one
    evaluation takes about S + n_nodes / S rows of complex exp whatever the
    chunk size.

    The chunks run through ``_chunks.sum_into``: the first half on the
    calling thread and the second on one pool thread, so at most two
    chunks are live, also when one node alone is over the budget (Q P >
    ``_CHUNK_ENTRIES``, the torus at N = 64: two nodes of Q P entries at a
    time).  The chunk quartics are added in chunk order, so the result is
    bit-identical to the one-thread loop's.  BLAS threading is not
    changed: with BLAS pinned to one thread, each caller's slice product
    runs on one thread.
    """
    V = p.values
    row_live = np.flatnonzero(np.any(V != 0, axis=1))
    if len(row_live) == 0:
        raise ValueError("empty packet")
    if t_window is None:
        weights, phases, trunc_rel, warn = _periodic_rule(p, k_shift, dispersion)
    else:
        weights, phases, trunc_rel, warn = _windowed_rule(p, k_shift, dispersion, t_window)

    mu, colsq = _lambda_rows_cols(p, k_shift, dispersion)
    col_live = np.flatnonzero(np.any(V != 0, axis=0))
    lo, hi = int(col_live[0]), int(col_live[-1])
    r0, r1 = int(row_live[0]), int(row_live[-1])
    # a view of the live span: its dead rows stay zero, so row r keeps its
    # x2 frequency r - r0 in the torus FFT
    V = V[r0:r1 + 1, lo:hi + 1]
    R, C = V.shape
    mu = mu[r0:r1 + 1]
    colsq = colsq[lo:hi + 1]
    P = sfft.next_fast_len(2 * (hi - lo) + 1)
    h = p.grid.h
    dvol = p.grid.period / P
    if x2_torus:
        Q = sfft.next_fast_len(2 * (r1 - r0) + 1)
        dvol *= 2.0 * np.pi / Q
    else:
        Q = 1

    n_nodes = len(weights)
    chunk = max(1, _CHUNK_ENTRIES // (Q * P))
    S = min(chunk, math.isqrt(n_nodes - 1) + 1)
    row_phases, col_phases = phases(mu, S), phases(colsq, S, h)

    def chunk_quartic(j0: int, j1: int) -> float:
        # u on the (x2, x1) points, then as float (re, im) pairs
        if x2_torus:
            # one zeroed (Q, P) buffer per node: the phased block in its
            # corner, then both transforms in place
            u = np.zeros((j1 - j0, Q, P), dtype=complex)
            W = np.multiply(row_phases(j0, j1)[:, :, None], V, out=u[:, :R, :C])
            W *= col_phases(j0, j1)[:, None, :]
            rows = sfft.ifft(u[:, :R], axis=2, norm="forward", overwrite_x=True)
            if not np.may_share_memory(rows, u):  # a backend that returned a copy
                u[:, :R] = rows
            del rows
            u = sfft.ifft(u, axis=1, norm="forward", overwrite_x=True)
        else:
            # a chunk's buffers live one at a time: W before the x1 FFT, u after it
            W = row_phases(j0, j1) @ V
            W *= col_phases(j0, j1)
            u = sfft.ifft(W, n=P, axis=1, norm="forward")
            del W
        u = u.view(np.float64).reshape(j1 - j0, -1, 2)
        np.square(u, out=u)
        au2 = u[..., 0]
        au2 += u[..., 1]
        return dvol * float(np.einsum("tx,tx->t", au2, au2) @ weights[j0:j1])

    quartic = float(sum_into(np.zeros(1), [(0, partial(chunk_quartic, j, min(j + chunk, n_nodes)))
                                           for j in range(0, n_nodes, chunk)])[0])

    return EvolveResult(
        value=float(max(quartic, 0.0) ** 0.25),
        quartic=float(quartic),
        truncation_rel=float(trunc_rel),
        n_nodes=n_nodes,
        warnings=warn,
    )


def evolve_l4_norm(
    p: WavePacket,
    k_shift: int = 0,
    dispersion: str = "elliptic",
    t_window: tuple = (-60.0, 60.0, 1024),
) -> EvolveResult:
    """L4 norm of phi_w(t)^{1/4} u over (window) x (one x1 period) at the
    slice x2 = 0; the weighted quartic evaluator with the point x2 measure
    and the windowed time rule."""
    if t_window is None:
        raise ValueError("evolve_l4_norm needs a time window; evolve_l4_norm_exact integrates over all t")
    return _weighted_quartic(p, k_shift, dispersion, t_window, x2_torus=False)


def evolve_l4_norm_exact(p: WavePacket, k_shift: int = 0, dispersion: str = "elliptic") -> EvolveResult:
    """L4 norm of phi_w(t)^{1/4} u over all t x (one x1 period) at the slice
    x2 = 0, by the periodic-exact time rule: equal to the frequency side
    up to rounding.  It uses q (2 spread + 1) time nodes, and needs
    h^2 = 1/q for an integer q, |q Lambda| < 2^53 and at most
    ``_TIME_NODE_BUDGET`` nodes (ValueError before any work otherwise)."""
    return _weighted_quartic(p, k_shift, dispersion, None, x2_torus=False)


# -- frequency-side quartic ----------------------------------------------------

# Largest supports.  The kernel split enumerates resonant tuples (cubic in
# n).  The frequency side's time grows like n^2 (8000 nodes: 4 s on one
# Xeon core) and its memory like its largest xi1-sum group, at most n times
# the most nodes in one xi1 column (322 MiB at the group cap).
_KERNEL_SPLIT_MAX_NODES = 64
_FREQUENCY_MAX_NODES = 8192
_FREQUENCY_MAX_GROUP = 2**21


def _pair_groups(p: WavePacket, k_shift: int):
    """Ordered node pairs (a, b) with xi1_a >= xi1_b, one xi1 index sum at a
    time, ascending: yields (lambda_a + lambda_b, v_a v_b, xi2_a, xi2_b,
    xi1_a > xi1_b), pairs in (a, b) order of ``p.support()``.  Groups are
    read off per-column buckets, so memory is that of the largest group;
    only the sums that occur are visited, read off the self-convolution of
    the column occupancy."""
    cols, rows, vals = p.support()
    if len(cols) == 0:
        return
    lam = _support_lambda(p, k_shift, "elliptic")
    c = cols - cols.min()
    order = np.argsort(c, kind="stable")
    count = np.bincount(c)
    start = np.cumsum(count) - count
    # the convolution counts column pairs, integers at most n: 1/2 separates them
    span = 2 * len(count) - 1
    L = sfft.next_fast_len(span, real=True)
    occupied = sfft.rfft((count > 0).astype(float), L)
    for s in np.flatnonzero(sfft.irfft(occupied * occupied, L)[:span] > 0.5):
        a = np.flatnonzero((2 * c >= s) & (c <= s))
        nb = count[s - c[a]]
        a, nb = a[nb > 0], nb[nb > 0]
        if len(a) == 0:
            continue
        # a's partners are the bucket of column s - c[a], in node order
        b = order[np.repeat(start[s - c[a]] - np.cumsum(nb) + nb, nb) + np.arange(nb.sum())]
        a = np.repeat(a, nb)
        yield lam[a] + lam[b], vals[a] * vals[b], rows[a], rows[b], c[a] > c[b]


def quadrilinear_form_frequency(p: WavePacket, k_shift: int = 0) -> float:
    """Exact frequency-side value of the weighted quartic:

        (2 pi)^2 h^3 sum over on-grid quadruples with xi1^(1) + xi1^(3) =
        xi1^(2) + xi1^(4) of phi_w_hat(<Lambda>) v1 v3 conj(v2 v4).

    As phi_w_hat = 2 (1_[-1/2, 1/2] * 1_[-1/2, 1/2]), each xi1-sum group
    gives 2 int |S|^2 with S(sigma) the sum of v_a v_b over its pairs with
    |lambda_a + lambda_b - sigma| <= 1/2 (a pair with xi1_a > xi1_b stands
    for its mirror too): one sort of the interval ends and one cumsum, real
    and nonnegative by construction.  A support above 8192 nodes, or with
    n x (most nodes in one xi1 column) above 2^21, raises ValueError before
    any work."""
    n, column = p.support_count(), int(np.count_nonzero(p.values, axis=0).max())
    if n > _FREQUENCY_MAX_NODES or n * column > _FREQUENCY_MAX_GROUP:
        raise ValueError(f"support has {n} nodes, {column} in one xi1 column, exceeding the "
                         f"{_FREQUENCY_MAX_NODES}-node or {_FREQUENCY_MAX_GROUP}-pair frequency-side cap")
    total = 0.0
    for lam2, w, _, _, mirrored in _pair_groups(p, k_shift):
        w = w * (1 + mirrored)
        ends = np.concatenate((lam2 - 0.5, lam2 + 0.5))
        at = np.argsort(ends)
        S = np.cumsum(np.concatenate((w, -w))[at])[:-1]
        total += float((S.real**2 + S.imag**2) @ np.diff(ends[at]))
    return 2.0 * (2.0 * np.pi) ** 2 * p.grid.h**3 * total


@dataclass(frozen=True)
class KernelSplitReport:
    gamma_total: float
    K1_part: float
    K2_part: float
    tuple_count: int
    k1_tuples: int
    k2_tuples: int
    cover_ok: bool
    clause_counts: tuple


_RESONANCE_SLACK = 1.0  # the "up to a constant" resonance cutoff of Gamma
# the split adds k_shift to int64 sums of two rows: within 2^62 none overflows
_K_SHIFT_BOUND = 2**62


def kernel_split_diagnostics(p: WavePacket, k_shift: int = 0) -> KernelSplitReport:
    """Enumerate the ordered resonant quadruples and classify them by the
    four degenerate-row indicator clauses versus the generic remainder.

    A quadruple lies in Gamma when xi1^(1) + xi1^(3) = xi1^(2) + xi1^(4)
    (exact on the grid), xi1^(1) >= xi1^(3), xi1^(2) >= xi1^(4), and
    |<|xi|^2 + k xi2>| <= ``_RESONANCE_SLACK``.  The first part counts clause multiplicity
    (row collisions and the two +k = 0 collisions); the remainder indicator
    is 1 exactly when all four clauses fail, so the cover
    1_Gamma <= K1 + K2 holds pointwise; the report asserts it on every
    enumerated tuple and returns the |v1 v3 v2 v4|-weighted masses.  A
    support above 64 nodes, or a k_shift that is not an integer of
    magnitude at most 2^62, raises ValueError before any work.
    """
    check_integer(k_shift, bound=_K_SHIFT_BOUND)
    if p.support_count() > _KERNEL_SPLIT_MAX_NODES:
        raise ValueError(f"support has {p.support_count()} nodes, exceeding the "
                         f"{_KERNEL_SPLIT_MAX_NODES}-node enumeration cap")
    gamma_total = 0.0
    k1_part = 0.0
    k2_part = 0.0
    tuples = 0
    k1_tuples = 0
    k2_tuples = 0
    clause_counts = np.zeros(4, dtype=np.int64)
    cover_ok = True
    for lam2, w, jf, js, _ in _pair_groups(p, k_shift):
        pos, neg = np.nonzero(np.abs(lam2[:, None] - lam2[None, :]) <= _RESONANCE_SLACK)
        j1, j3 = jf[pos], js[pos]
        j2, j4 = jf[neg], js[neg]
        c1 = j1 == j4
        c2 = j3 == j2
        c3 = j1 + j4 + k_shift == 0
        c4 = j3 + j2 + k_shift == 0
        k1 = c1.astype(int) + c2.astype(int) + c3.astype(int) + c4.astype(int)
        k2 = (k1 == 0).astype(int)
        cover_ok &= bool(np.all(k1 + k2 >= 1))
        mass = np.abs(w[pos]) * np.abs(w[neg])
        gamma_total += float(mass.sum())
        k1_part += float((k1 * mass).sum())
        k2_part += float((k2 * mass).sum())
        tuples += len(pos)
        k1_tuples += int((k1 > 0).sum())
        k2_tuples += int(k2.sum())
        clause_counts += np.array([c1.sum(), c2.sum(), c3.sum(), c4.sum()])
    return KernelSplitReport(
        gamma_total=gamma_total,
        K1_part=k1_part,
        K2_part=k2_part,
        tuple_count=tuples,
        k1_tuples=k1_tuples,
        k2_tuples=k2_tuples,
        cover_ok=cover_ok,
        clause_counts=tuple(int(c) for c in clause_counts),
    )


# Sparse packets of the Plancherel check and of the kernel split: nodes on
# xi1 in [-6, 6] at h = 0.5, within the frequency side's and the split's caps.
_PLANCHEREL_NODES, _SPLIT_NODES = 24, 16


@checked({"seed": check_seed})
def quadrilinear_check(seed=3) -> tuple[list, dict]:
    """The Plancherel identity on one sparse packet, the frequency-side form
    against the periodic-exact time side: one row and its summary.  The
    default is that of ``s3lab strichartz --mode quadrilinear``."""
    pkt = sparse_packet(seed, _PLANCHEREL_NODES, 6.0, 0.5)
    freq = quadrilinear_form_frequency(pkt, 0)
    res = evolve_l4_norm_exact(pkt, 0, "elliptic")
    mismatch = abs(res.quartic - freq) / freq
    return ([{"trial": 0, "frequency_side": freq, "time_side": res.quartic,
              "relative_mismatch": mismatch}],
            {"relative_mismatch": mismatch, "time_rule": "periodic-exact",
             "n_nodes": res.n_nodes, "flags": list(res.warnings)})


@checked({"seed": check_seed, "k_shift": partial(check_integer, bound=_K_SHIFT_BOUND)})
def kernel_split_check(seed=3, k_shift: int = 0) -> tuple[list, dict]:
    """``kernel_split_diagnostics`` on one sparse packet: one row of masses,
    and the cover and the Gamma mass beyond K1 + K2 (rounding only).  The
    defaults are those of ``s3lab strichartz --mode kernel-split``."""
    rep = kernel_split_diagnostics(sparse_packet(seed, _SPLIT_NODES, 6.0, 0.5), k_shift)
    k12 = rep.K1_part + rep.K2_part
    return ([{"gamma_total": rep.gamma_total, "K1_part": rep.K1_part, "K2_part": rep.K2_part,
              "tuples": rep.tuple_count, "cover_ok": rep.cover_ok}],
            {"cover_ok": rep.cover_ok,
             "K1_plus_K2_ge_gamma": k12 >= rep.gamma_total - gates.GAMMA_MASS_TOL,
             "gamma_mass_excess": rep.gamma_total - k12})


# -- Galilean translations -----------------------------------------------------

def shift_packet_xi2(p: WavePacket, j: int) -> WavePacket:
    """Translate the packet by j integer rows; evolving the result with
    k - 2j reproduces the original weighted norms exactly."""
    grid = FrequencyGrid(
        h=p.grid.h,
        xi1_extent=p.grid.xi1_extent,
        xi2_min=p.grid.xi2_min + j,
        xi2_max=p.grid.xi2_max + j,
    )
    return WavePacket(grid=grid, values=p.values.copy())


def shift_packet_xi1(p: WavePacket, steps: int) -> WavePacket:
    """Translate the packet by steps * h in xi1 (norms are invariant)."""
    grow = abs(steps) * p.grid.h
    grid = FrequencyGrid(
        h=p.grid.h,
        xi1_extent=p.grid.xi1_extent + grow,
        xi2_min=p.grid.xi2_min,
        xi2_max=p.grid.xi2_max,
    )
    old_cols = p.values.shape[1]
    pad = grid.imax - p.grid.imax
    vals = np.zeros((p.values.shape[0], 2 * grid.imax + 1), dtype=complex)
    vals[:, pad + steps:pad + steps + old_cols] = p.values
    return WavePacket(grid=grid, values=vals)


# -- quotient scans -------------------------------------------------------------

def _worst_warnings(warnings) -> tuple:
    """Merge warnings of the form "flag:value" or "flag:name=value", keeping
    per flag the one with the largest value (the largest truncation
    fraction, the largest needed n_t), sorted by flag."""
    worst = {}
    for w in warnings:
        flag, _, value = w.partition(":")
        num = float(value.rpartition("=")[2])
        if flag not in worst or num > worst[flag][0]:
            worst[flag] = (num, w)
    return tuple(worst[flag][1] for flag in sorted(worst))


def _best_of(trials: int, draw) -> tuple[list, dict]:
    """The rows of draw(trial) -> (row, warnings) over the trials and their
    summary: the largest quotient and its trial (``fitting.largest``: 0.0
    and None when none is positive, a NaN when one is NaN), and the worst
    value per warning flag."""
    drawn = [draw(trial) for trial in range(trials)]
    rows = [row for row, _ in drawn]
    best, trial = largest([row["quotient"] for row in rows])
    return rows, {"max_quotient": best, "argmax": {"trial": trial},
                  "flags": list(_worst_warnings(w for _, ws in drawn for w in ws))}


def _trend(Ns, per_n: dict, warn) -> dict:
    """The summary of a quotient scan: the maximum per N, the slope fitted
    to those maxima against log N, and the worst value per warning flag."""
    slope = fit_slope(np.log(np.asarray(Ns, dtype=float)), [per_n[N] for N in Ns])
    return {"Ns": list(Ns), "max_per_N": {str(N): per_n[N] for N in Ns},
            "fitted_slope": slope, "flags": list(_worst_warnings(warn))}


# Largest N of every quotient, scan and probe.  The grids grow like N^2 /
# h^2: the hyperbolic data fill [-N, N]^2, and an elliptic slab at N = 4096
# and h = 0.125 would need 8195 x 65539 masks, 4.3 GB per float64 array.
_N_MAX = 64


# the check every quotient, scan and the box probe make on their N first;
# the box probe and the hyperbolic quotients build their grids from int(N)
check_ns = partial(fitting.check_ns, cap=_N_MAX)
_whole_ns = partial(check_ns, integral=True)

_SLAB_FIELDS = ("xi0", "a", "c", "M", "N")


def check_slab(slab) -> SlabSpec:
    """slab, a SlabSpec or a config's record of its fields, as a SlabSpec;
    ValueError naming a missing record, a missing or unknown key, a value
    SlabSpec refuses, or an N that ``check_ns`` refuses."""
    if not isinstance(slab, SlabSpec):
        problems = ([f"missing {key}" for key in _SLAB_FIELDS if key not in slab]
                    + [f"unknown {key}" for key in sorted(set(slab) - set(_SLAB_FIELDS))]
                    if isinstance(slab, dict) else ["not a record"])
        if problems:
            raise ValueError(f"{', '.join(problems)}; a slab record has the keys "
                             f"{', '.join(_SLAB_FIELDS)}")
        try:
            slab = SlabSpec(**{**slab, "xi0": tuple(slab["xi0"]), "a": tuple(slab["a"])})
        except (TypeError, IndexError) as exc:
            raise ValueError(str(exc)) from None
    check_ns([slab.N])
    return slab


# the checks of every quotient and scan of random trials in a time window
_TRIAL_CHECKS = {"trials": partial(check_count, "trials"), "h": check_h, "t_window": check_window}


@checked({"seed": check_seed, "slab": check_slab, "delta": check_delta, **_TRIAL_CHECKS})
def strichartz_quotient(
    slab: SlabSpec,
    delta: float = 0.1,
    trials: int = 8,
    seed=3,
    h: float = 0.125,
    t_window: tuple = (-60.0, 60.0, 8192),
) -> tuple[list, dict]:
    """Max over random slab packets of

        evolve_l4_norm / ((M/N)^delta N^{1/4} ||phi||_{L2}):

    one row per trial, and the summary of ``_best_of``, with the defaults of
    ``s3lab strichartz --mode slab``; slab is a SlabSpec or its record.
    """
    rng = np.random.default_rng(seed)
    grid = grid_for_slab(slab, h)
    scale = (slab.M / slab.N) ** delta * slab.N**0.25

    def draw(trial):
        pkt = sample_slab_packet(slab, grid, "gaussian-random", rng)
        res = evolve_l4_norm(pkt, 0, "elliptic", t_window)
        return {"trial": trial, "quotient": res.value / (scale * pkt.l2_norm())}, res.warnings

    return _best_of(trials, draw)


def _random_slab(N: float, M: float, delta: float, rng, h: float, boundary: bool) -> SlabSpec:
    if boundary:
        a2 = (M / N) ** (1.0 - 4.0 * delta) * (1.0 if rng.random() < 0.5 else -1.0)
        a = (math.sqrt(max(1.0 - a2 * a2, 0.0)), a2)
    else:
        v = rng.standard_normal(2)
        while np.hypot(v[0], v[1]) < 1e-6:
            v = rng.standard_normal(2)
        a = (v[0], v[1])
    r = h * int(rng.integers(-int(N / (2 * h)), int(N / (2 * h)) + 1))
    j = int(rng.integers(-int(N / 2), int(N / 2) + 1))
    norm = math.hypot(a[0], a[1])
    a = (a[0] / norm, a[1] / norm)
    c = a[0] * r + a[1] * j + float(rng.uniform(-M / 2.0, M / 2.0))
    return SlabSpec(xi0=(r, j), a=a, c=c, M=M, N=N)


@checked({"seed": check_seed, "Ns": lambda Ns: check_ns(check_fit_xs(Ns)), **_TRIAL_CHECKS,
          "delta": check_delta})
def scan_strichartz_quotients(
    Ns: tuple = (8, 16, 32, 64),
    delta: float = 0.1,
    trials: int = 6,
    seed=3,
    h: float = 0.125,
    t_window: tuple = (-60.0, 60.0, 8192),
) -> tuple[list, dict]:
    """Quotient scan over N in Ns and M in {1, sqrt(N), N} with random
    directions, offsets and centers; every third trial pins the direction
    to the Case 1 / Case 2 boundary |a2| = (M/N)^(1-4 delta).  The
    summary's flags keep the worst value per warning flag.  The defaults are
    those of ``s3lab strichartz --mode elliptic``."""
    rows = []
    per_n_max = {}
    warn = []
    for ni, N in enumerate(Ns):
        quotients = []
        for mi, mkind in enumerate(("1", "sqrt", "N")):
            M = {"1": 1.0, "sqrt": math.sqrt(N), "N": float(N)}[mkind]
            for trial in range(trials):
                rng = np.random.default_rng([seed, ni, mi, trial])
                # never empty: the center xi0 is a grid node inside the band
                slab = _random_slab(float(N), M, delta, rng, h, boundary=(trial % 3 == 2))
                _, best = strichartz_quotient(slab, delta, 1, rng, h=h, t_window=t_window)
                q = best["max_quotient"]
                warn.extend(best["flags"])
                rows.append({"N": N, "M_kind": mkind, "M": M, "trial": trial,
                             "a2": slab.a[1], "quotient": q})
                quotients.append(q)
        # np.max propagates a NaN; the builtin max may drop it
        per_n_max[N] = float(np.max(quotients))
    return rows, {**_trend(Ns, per_n_max, warn), "delta": delta}


def check_box_nodes(Ns, h) -> int:
    """The box probe's largest time-node count, q (4 N^2 + 1) over its N with
    q = 1/h^2; ValueError when it is over ``_TIME_NODE_BUDGET``."""
    return check_time_nodes(max(lattice_q(h) * (4 * int(N) ** 2 + 1) for N in Ns))


@checked({"Ns": lambda Ns: check_fit_xs(_whole_ns(Ns)), "h": check_h, ("h",): lattice_q,
          ("Ns", "h"): check_box_nodes})
def box_scaling_probe(Ns: tuple = (4, 8, 16, 32), h: float = 0.25) -> tuple[list, dict]:
    """Weighted L4 norms of the square-indicator example over all t; the
    norms should track N^{1/4} within a bounded factor.  Each norm is exact
    by the periodic-exact time rule (the Fejer weight periodized by Poisson
    summation): with q = 1/h^2 the box's Lambda spread is 2 N^2, so it uses
    q (4 N^2 + 1) nodes, the rows' ``n_t``, within ``_TIME_NODE_BUDGET``
    (``check_box_nodes``).  The defaults are those of ``s3lab strichartz
    --mode box-scaling``."""
    rows = []
    ratios = []
    for N in Ns:
        res = evolve_l4_norm_exact(box_packet(int(N), h=h))
        ratio = res.value / float(N) ** 0.25
        rows.append({"N": N, "n_t": res.n_nodes, "norm": res.value, "ratio": ratio})
        ratios.append(ratio)
    # np.max and np.min keep a NaN; the builtins may drop it
    summary = {"Ns": list(Ns), "ratios": ratios,
               "spread_factor": float(np.max(ratios) / np.min(ratios))}
    return rows, summary


@checked({"seed": check_seed, "N": lambda N: _whole_ns([N])[0], **_TRIAL_CHECKS})
def hyperbolic_l4_quotient(
    N: int,
    trials: int,
    seed,
    h: float = 0.5,
    t_window: tuple = (-60.0, 60.0, 4096),
) -> tuple[list, dict]:
    """Max over random unit-norm data on [-N, N]^2 of the windowed
    space-time L4 norm in (t, x1, x2) divided by the data's L2 norm: the
    weighted quartic evaluator under the hyperbolic Lambda = xi1^2 - xi2^2,
    with x2 integrated over the torus.  One row per trial, and the summary
    of ``_best_of``."""
    N = int(N)
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid(h=h, xi1_extent=float(N), xi2_min=-N, xi2_max=N)
    everywhere = np.ones((2 * N + 1, 2 * grid.imax + 1), dtype=bool)

    def draw(trial):
        pkt = _gaussian_packet(grid, everywhere, everywhere.size, rng)
        res = _weighted_quartic(pkt, 0, "hyperbolic", t_window, x2_torus=True)
        return {"trial": trial, "N": N, "quotient": res.value / pkt.l2_norm()}, res.warnings

    return _best_of(trials, draw)


@checked({"seed": check_seed, "Ns": lambda Ns: _whole_ns(check_fit_xs(Ns)), **_TRIAL_CHECKS})
def scan_hyperbolic_quotients(
    Ns: tuple = (4, 8, 16, 32, 64),
    trials: int = 3,
    seed=3,
    h: float = 0.5,
    t_window: tuple = (-60.0, 60.0, 4096),
) -> tuple[list, dict]:
    """Hyperbolic quotient scan over N in Ns; the summary's flags keep the
    worst value per warning flag.  The defaults are those of ``s3lab
    strichartz --mode hyperbolic``."""
    rows = []
    per_n = {}
    warn = []
    for ni, N in enumerate(Ns):
        more, best = hyperbolic_l4_quotient(int(N), trials, [seed, ni], h=h, t_window=t_window)
        rows += more
        per_n[N] = best["max_quotient"]
        warn.extend(best["flags"])
    return rows, _trend(Ns, per_n, warn)
