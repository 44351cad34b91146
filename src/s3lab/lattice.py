"""Exact verification of the measure and counting estimates on R x Z and
Z^2: annulus measures, quadric and hyperbola lattice counts, the
resonant-set measure, and one worst-case constant scan per lemma
(scan_lemma51, scan_lemma52, scan_lemma53).

The measure on R x Z is one-dimensional Lebesgue in the first coordinate
times counting measure in the second.  Every kernel works on arrays, in
blocks of at most ``_BLOCK`` entries per temporary, and each scalar function
is the one-element call of its kernel:

* annulus measures are closed-form interval lengths summed over the
  integer rows of a batch of queries;
* the quadric and hyperbola counters take a batch of (k, C) pairs at one N
  and enumerate one coordinate exactly in int64 (O(N) per pair, whatever
  |C| is; inputs outside the int64-safe range are refused up front);
* the resonant-set measure takes a batch of (l, k, C) queries at one N and
  sums, over a (queries x rows m) grid at once, a trapezoid in n in closed
  form (O(N) per query).

The scans draw their samples from one seeded generator: lemma 5.1 draws
each parameter as one array, lemmas 5.2 and 5.3 one query at a time, and
every scan measures its samples in one kernel call, or one per N.  A
sample count below 1, an N list that ``check_ns`` refuses, a delta
outside (0, 1/8) and a 5.2 or 5.3 scan whose estimated kernel work is over
``_WORK_BUDGET`` are refused before any work.

The "up to a constant" cutoffs in the set definitions are instantiated as
1 (only the resonant-set measures expose theirs, as slack), and
|m - k| <~ N is instantiated as |m - k| <= N.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import fitting
from .fitting import (check_count, check_delta, check_fit_xs, check_one_of, checked, fit_slope,
                      largest)

# most entries in any temporary array of a kernel (128 KiB of float64); on
# lattice-cli, 2^16 measured 5% more peak RSS and no less time
_BLOCK = 1 << 14
# int64 arithmetic in the counters stays exact below this bound
_INT64_SAFE = 1 << 62
# Most O(N) kernel entries (2N + 1 per query) a 5.2 or 5.3 scan may ask for.
# On one Xeon core setB_measures ran about 1e7 entries/s and the counters
# 8e7-1.4e8, so this bounds a scan's kernel time at about 100 s; criterion
# 6's 5.2 scans, the largest the repository runs, ask for 1.9e6.
_WORK_BUDGET = 10**9


def _tiles(n_rows: int, n_cols: int):
    """(row slice, column slice) tiles covering an n_rows x n_cols grid,
    each of at most _BLOCK entries."""
    cols = max(1, min(n_cols, _BLOCK))
    rows = max(1, _BLOCK // cols)
    for r0 in range(0, n_rows, rows):
        for c0 in range(0, n_cols, cols):
            yield slice(r0, min(r0 + rows, n_rows)), slice(c0, min(c0 + cols, n_cols))


@dataclass(frozen=True)
class AnnulusQuery:
    """Row-measure query for {xi in R x Z : C <= |xi - center|^2 <= C + K}."""

    C: float
    K: float
    center: tuple[float, int]

    def __post_init__(self):
        if self.K < 1.0:
            raise ValueError("K must be >= 1")


def annulus_measures(C, K) -> np.ndarray:
    """Exact measures of a batch of annuli {C <= |xi - center|^2 <= C + K}.

    The center drops out: on the integer row at distance d from it, with
    b = C - d^2 and a = b + K, the set is two symmetric intervals of total
    length 2 (sqrt(a) - sqrt(b)) (a negative radicand reads as 0), and rows
    d and -d agree, so rows d >= 0 are summed with weight 2 for d > 0.
    Where b > 0 the difference is taken as K / (sqrt(a) + sqrt(b)): the
    plain difference of two roots near sqrt(C) would lose about
    log10(C/K) digits.  Queries are taken in order of decreasing row count,
    so each block of at most _BLOCK entries is padded only to its widest
    query; padded rows lie beyond sqrt(C + K) and add exact zeros.
    """
    C = np.asarray(C, dtype=float).ravel()
    K = np.asarray(K, dtype=float).ravel()
    if not np.all(K >= 1.0):
        raise ValueError("K must be >= 1")
    if not (np.all(np.isfinite(C)) and np.all(np.isfinite(K))):
        raise ValueError("C and K must be finite")
    out = np.zeros(len(C))
    dmax = np.floor(np.sqrt(np.maximum(C + K, 0.0))).astype(np.int64)
    order = np.argsort(-dmax, kind="stable")
    i = 0
    while i < len(order):
        width = int(dmax[order[i]]) + 1
        idx = order[i:i + max(1, _BLOCK // width)]
        i += len(idx)
        Cb, Kb = C[idx, None], K[idx, None]
        for c0 in range(0, width, _BLOCK):
            d = np.arange(c0, min(c0 + _BLOCK, width), dtype=float)
            # two block-sized float arrays at a time: b turns into sqrt(a) + sqrt(b)
            b = Cb - d * d
            ra = np.sqrt(np.maximum(b + Kb, 0.0))
            inner = b > 0.0
            np.sqrt(np.maximum(b, 0.0, out=b), out=b)
            b += ra
            rows = np.divide(Kb, b, out=ra, where=inner)
            rows *= np.where(d > 0.0, 4.0, 2.0)
            out[idx] += rows.sum(axis=1)
    return out


def annulus_measure(q: AnnulusQuery) -> float:
    """Exact measure of one annulus; the one-query call of annulus_measures."""
    return float(annulus_measures([q.C], [q.K])[0])


def _int64_pairs(ks, Cs, N: int, unsafe, bound: str):
    """The integer (k, C) pairs as int64 arrays, after refusing N < 1 and
    any pair for which unsafe(k, C) holds; bound states the int64-safe
    range."""
    if N < 1:
        raise ValueError("N must be >= 1")
    ks = [operator.index(k) for k in ks]
    Cs = [operator.index(C) for C in Cs]
    if len(ks) != len(Cs):
        raise ValueError(f"{len(ks)} k values against {len(Cs)} C values")
    for k, C in zip(ks, Cs):
        if unsafe(k, C):
            raise ValueError(f"(k, C, N) = ({k}, {C}, {N}) is outside the int64-safe range "
                             f"{bound}")
    return np.array(ks, dtype=np.int64), np.array(Cs, dtype=np.int64)


def count_quadric_batch(ks, Cs, N: int) -> np.ndarray:
    """Exact counts of (m, n) in [-N, N]^2 with m^2 + n^2 + km + kn = C, one
    per (k, C) pair, in int64.

    For every m the quadratic in n has discriminant
    disc = k^2 - 4(m^2 + km - C) and integer roots (-k +- r)/2 exactly when
    disc = r^2 (then r^2 = k^2 mod 4, so r and k have the same parity).  The
    candidate r is the rounded float square root: for a perfect square
    s^2 < 2^62 that root is within 4e-7 of s, so rounding recovers s, and
    r^2 == disc is then tested exactly.  Pairs with
    k^2 + 4(N^2 + |k|N + |C|) >= 2^62 are refused before any work.
    """
    N = int(N)
    ks, Cs = _int64_pairs(
        ks, Cs, N, lambda k, C: k * k + 4 * (N * N + abs(k) * N + abs(C)) >= _INT64_SAFE,
        "k^2 + 4(N^2 + |k|N + |C|) < 2^62")
    m = np.arange(-N, N + 1, dtype=np.int64)
    counts = np.zeros(len(ks), dtype=np.int64)
    for rows, cols in _tiles(len(ks), len(m)):
        k, C, mm = ks[rows, None], Cs[rows, None], m[None, cols]
        disc = k * mm
        disc += mm * mm
        disc -= C
        disc *= -4
        disc += k * k
        r = np.maximum(disc, 0).astype(float)
        r = np.rint(np.sqrt(r, out=r), out=r).astype(np.int64)
        ok = (disc >= 0) & (r * r == disc)
        # the roots n = (-k +- r)/2 lie in [-N, N] when |r -+ k| <= 2N; a
        # double root (r = 0) counts once
        counts[rows] += np.count_nonzero(ok & (r >= k - 2 * N) & (r <= k + 2 * N), axis=1)
        counts[rows] += np.count_nonzero(ok & (r > 0) & (r >= -k - 2 * N) & (r <= 2 * N - k),
                                         axis=1)
    return counts


def count_quadric(k: int, C: int, N: int) -> int:
    """Exact count of (m, n) in [-N, N]^2 with m^2 + n^2 + km + kn = C; the
    one-pair call of count_quadric_batch."""
    return int(count_quadric_batch([k], [C], N)[0])


def count_hyperbola_batch(ks, Cs, N: int) -> np.ndarray:
    """Exact counts of (m, n), m, n != 0, |m - k| <= N, |n| <= N, mn = C,
    one per (k, C) pair, in int64.

    Enumerates the box m in [k - N, k + N] minus 0 and keeps C % m == 0 with
    0 < |C / m| <= N: O(N) per pair whatever |C| is.  Pairs with |C| or
    |k| + N above 2^62 are refused before any work.
    """
    N = int(N)
    ks, Cs = _int64_pairs(
        ks, Cs, N, lambda k, C: max(abs(C), abs(k) + N) > _INT64_SAFE,
        "|C| <= 2^62 and |k| + N <= 2^62")
    j = np.arange(-N, N + 1, dtype=np.int64)
    counts = np.zeros(len(ks), dtype=np.int64)
    for rows, cols in _tiles(len(ks), len(j)):
        m, C = ks[rows, None] + j[None, cols], Cs[rows, None]
        row = m != 0
        m[~row] = 1  # a stand-in divisor; row masks it out
        n, rem = np.divmod(C, m)
        hits = row & (rem == 0) & (n != 0) & (n >= -N) & (n <= N)
        counts[rows] += np.count_nonzero(hits, axis=1)
    return counts


def count_hyperbola(k: int, C: int, N: int) -> int:
    """Exact count of (m, n), m, n != 0, |m - k| <= N, |n| <= N, mn = C; the
    one-pair call of count_hyperbola_batch."""
    return int(count_hyperbola_batch([k], [C], N)[0])


@dataclass(frozen=True)
class SetBQuery:
    """Parameters of the resonant set
    {(x, m, n) : |x| <= 2l, m, n != 0, |m - k| <= N, |n| <= N, |lx + mn + C| <= slack}."""

    l: float
    k: int
    C: float
    M: float
    N: float
    delta: float = 0.1

    def __post_init__(self):
        if self.l < 1.0:
            raise ValueError("l must be >= 1")
        if not (1.0 <= self.M <= self.N):
            raise ValueError("need 1 <= M <= N")
        cap = self.M ** (1.0 - 4.0 * self.delta) * self.N ** (4.0 * self.delta)
        if self.l > cap * (1.0 + 1e-9):
            raise ValueError(f"l={self.l} exceeds the cap M^(1-4d) N^(4d) = {cap:.6g}")


def _n_range(m: np.ndarray, lo, hi, n_min: int, n_max: int):
    """First n and count of the n in [n_min, n_max] with lo <= m n < hi, per
    row m != 0; lo and hi broadcast against m."""
    mf = m.astype(float)
    pos = m > 0
    first = np.where(pos, np.ceil(lo / mf), np.floor(hi / mf) + 1.0)
    last = np.where(pos, np.ceil(hi / mf) - 1.0, np.floor(lo / mf))
    first = np.clip(first, n_min, n_max + 1).astype(np.int64)
    last = np.clip(last, n_min - 1, n_max).astype(np.int64)
    return first, np.maximum(last - first + 1, 0).astype(float)


def setB_measures(ls, ks, Cs, N: int, slack: float = 1.0) -> np.ndarray:
    """Exact measures of a batch of resonant sets at one N, one per query
    (l, k, C): the sum over admissible (m, n) of the length of {|x| <= 2l}
    intersected with {|lx + mn + C| <= slack}.

    Closed form, O(N) per query with no loop over m.  With c = -(mn + C)/l
    and h = slack/l a pair contributes the trapezoid
    f(c) = clip(2l + h - |c|, 0, 2 min(h, 2l)).  In u = mn the rising ramp,
    the plateau and the falling ramp are the half-open ranges
    [U2, U1), [U3, U2) and [U4, U3) with U1 = 2l^2 + slack - C,
    U2 = |2l^2 - slack| - C, U3 = -|2l^2 - slack| - C and
    U4 = -2l^2 - slack - C, on which f is (U1 - u)/l, 2 min(h, 2l) and
    (u - U4)/l.  For every row m at once each range maps to an integer
    range of n, separately for n < 0 and n > 0 (so n = 0 is left out
    without subtracting it); adjacent pieces share their breakpoint, so they
    partition the n.  A ramp sums as an arithmetic series taken from its
    first n, cnt v_first + s cnt (cnt - 1)/2 with s = -+m/l, so no
    |C|/l-sized terms cancel.  The rows m = k - N .. k + N of all queries
    form one (queries x rows) grid, taken in tiles of at most _BLOCK
    entries; m = 0 is not a row and is masked out.  N < 1 or slack <= 0
    gives zeros.
    """
    ls = np.asarray(ls, dtype=float).ravel()
    Cs = np.asarray(Cs, dtype=float).ravel()
    ks = np.array([operator.index(k) for k in ks], dtype=np.int64)
    if not len(ls) == len(ks) == len(Cs):
        raise ValueError(f"{len(ls)} l values, {len(ks)} k values and {len(Cs)} C values")
    N = int(N)
    out = np.zeros(len(ls))
    if N < 1 or not slack > 0.0:
        return out
    top = 2.0 * ls * ls + slack
    gap = np.abs(2.0 * ls * ls - slack)
    plateau = 2.0 * np.minimum(slack, 2.0 * ls * ls) / ls
    U1, U2, U3, U4 = top - Cs, gap - Cs, -gap - Cs, -top - Cs
    j = np.arange(-N, N + 1, dtype=np.int64)
    for rows, cols in _tiles(len(ls), len(j)):
        l, p = ls[rows, None], plateau[rows, None]
        u1, u2, u3, u4 = U1[rows, None], U2[rows, None], U3[rows, None], U4[rows, None]
        m = ks[rows, None] + j[None, cols]
        row = m != 0
        m[~row] = 1  # a stand-in row; row masks it out
        step = m / l
        total = np.zeros(m.shape)
        for n_min, n_max in ((-N, -1), (1, N)):
            first, cnt = _n_range(m, u2, u1, n_min, n_max)
            total += cnt * ((u1 - (m * first)) / l) - step * (cnt * (cnt - 1.0) / 2.0)
            _, flat = _n_range(m, u3, u2, n_min, n_max)
            total += p * flat
            first, cnt = _n_range(m, u4, u3, n_min, n_max)
            total += cnt * (((m * first) - u4) / l) + step * (cnt * (cnt - 1.0) / 2.0)
        out[rows] += np.sum(total, axis=1, where=row)
    return out


def setB_measure(q: SetBQuery, slack: float = 1.0) -> float:
    """Exact measure of one resonant set; the one-query call of setB_measures."""
    return float(setB_measures([q.l], [q.k], [q.C], q.N, slack)[0])


def setB_measure_monte_carlo(q: SetBQuery, slack: float, n_samples: int, seed) -> tuple[float, float]:
    """Monte-Carlo estimate (value, sigma) of the same measure, as an
    independent cross-check of the closed form."""
    rng = np.random.default_rng(seed)
    N = int(q.N)
    x = rng.uniform(-2.0 * q.l, 2.0 * q.l, size=n_samples)
    m = rng.integers(q.k - N, q.k + N + 1, size=n_samples)
    n = rng.integers(-N, N + 1, size=n_samples)
    ok = (m != 0) & (n != 0) & (np.abs(q.l * x + m * n + q.C) <= slack)
    box = (4.0 * q.l) * (2 * N + 1) * (2 * N + 1)
    p = ok.mean()
    return float(p * box), float(box * np.sqrt(max(p * (1 - p), 1e-300) / n_samples))


# -- scans --------------------------------------------------------------------

def check_ns(Ns):
    """Return Ns; ValueError unless it holds two or more distinct N, each a
    whole number >= 1: the counters and measures take int(N), with no cap.
    The scans of lemmas 5.2 and 5.3 and their work checks check their N
    with it before any work."""
    return fitting.check_ns(check_fit_xs(Ns), integral=True)


@checked({"n_queries": partial(check_count, "n_queries")})
def scan_lemma51(n_queries: int = 10000, seed=11) -> tuple[list, dict]:
    """Worst-case ratio measure / K over random annulus queries.

    C ~ U(-10, 1e6), K ~ U(1, 1e3) and the integer xi2_center ~ U{-1000..1000}
    are each drawn as one array, in that order, and measured in one batch;
    the center drops out of the measure and is reported only.  The defaults
    are those of ``s3lab lattice-scan --lemma 5.1``.
    """
    rng = np.random.default_rng(seed)
    Cs = rng.uniform(-10.0, 1e6, n_queries)
    Ks = rng.uniform(1.0, 1e3, n_queries)
    xi2cs = rng.integers(-1000, 1001, n_queries)
    values = annulus_measures(Cs, Ks)
    ratios = values / Ks
    rows = [{"lemma": "5.1", "C": C, "K": K, "xi2_center": xi2c,
             "value": val, "normalized_ratio": ratio}
            for C, K, xi2c, val, ratio in zip(Cs.tolist(), Ks.tolist(), xi2cs.tolist(),
                                              values.tolist(), ratios.tolist())]
    worst, index = largest(ratios)
    summary = {"lemma": "5.1", "queries": n_queries, "max_ratio": worst, "argmax_index": index}
    return rows, summary


def _top_decile_mean(values, floor: float) -> float:
    """Mean of the largest tenth (at least one) of values, floored at floor;
    a NaN sorts last, so it reaches the mean."""
    vals = np.sort(values)
    return float(max(vals[-max(1, len(vals) // 10):].mean(), floor))


def _lemma52_samples(N: int, per_n: int, variant: str, rng) -> list:
    """Uniform random (k, C) draws; the scan measures the growth of the
    resulting counts, a desk-scale proxy for the epsilon-loss statement
    (deterministically smooth C would instead probe the divisor-bound
    worst case, which grows like N^0.5 at these ranges)."""
    out = []
    for _ in range(per_n):
        k = int(rng.integers(-4 * N, 4 * N + 1))
        if variant == "quadric":
            C = int(rng.integers(-4 * N * N, 4 * N * N + 1))
        else:
            C = 0
            while C == 0:
                C = int(rng.integers(-N * N, N * N + 1))
        out.append((k, C))
    return out


def check_lemma52_work(Ns, per_n: int) -> int:
    """The estimated kernel work of a 5.2 scan, per_n (2N + 1) summed over
    N; ValueError naming it when it is over ``_WORK_BUDGET``, or from
    ``check_ns`` first (an infinite N or one beyond float range)."""
    check_ns(Ns)
    return _check_work(sum(per_n * (2 * int(N) + 1) for N in Ns))


def _check_work(work: int) -> int:
    if work > _WORK_BUDGET:
        # a work beyond float range has no %g form; an int compares with 1e308 exactly
        size = f"{work:.3g}" if work < 1e308 else "over 1e308"
        raise ValueError(f"the estimated kernel work of {size} entries is over the "
                         f"budget of {_WORK_BUDGET:.3g}")
    return work


@checked({"variant": check_one_of("quadric", "hyperbola"), "per_n": partial(check_count, "per_n"),
          "Ns": check_ns, ("Ns", "per_n"): check_lemma52_work})
def scan_lemma52(Ns: tuple = (64, 128, 256, 512), per_n: int = 500, seed=11,
                 variant: str = "quadric") -> tuple[list, dict]:
    """Random-count scan per N with the fitted growth exponent.

    The epsilon-loss statement admits no single testable exponent.  Raw
    maxima of divisor-type counts are heavy-tailed (one smooth draw swings a
    four-point slope fit by +-0.3), so the reported exponent is fitted to the
    mean of the top decile of counts per N, a stabilized worst-case trend
    statistic; the per-N maxima are reported alongside.  The acceptance
    suite requires exponent <= 0.3 on the scanned range (desk-scale proxy).
    The defaults are those of ``s3lab lattice-scan --lemma 5.2a`` and ``5.2b``.
    """
    counter = count_quadric_batch if variant == "quadric" else count_hyperbola_batch
    lemma = "5.2" + ("a" if variant == "quadric" else "b")
    rng = np.random.default_rng(seed)
    rows = []
    max_per_n = []
    decile_per_n = []
    for N in Ns:
        pairs = _lemma52_samples(N, per_n, variant, rng)
        counts = counter([k for k, _ in pairs], [C for _, C in pairs], N).tolist()
        for (k, C), cnt in zip(pairs, counts):
            rows.append({"lemma": lemma, "N": N, "k": k, "C": C, "value": cnt,
                         "normalized_ratio": cnt / max(N, 1) ** 0.3})
        max_per_n.append(max(max(counts), 1))
        decile_per_n.append(_top_decile_mean(counts, 1.0))
    exponent = fit_slope(np.log(np.asarray(Ns, dtype=float)), np.log(np.asarray(decile_per_n)))
    summary = {"lemma": lemma, "Ns": list(Ns), "max_counts": max_per_n,
               "top_decile_means": decile_per_n, "fitted_exponent": exponent}
    return rows, summary


def _lemma53_configs(N, delta: float) -> list:
    """The (M, l, case) grid at N in scan order: M = 1, 2, 4, ... up to N,
    and at each M the l values of the three proof regimes: a) l ~ 1,
    b) 1 << l <~ sqrt(N), c) sqrt(N) << l <~ M^(1-4d) N^(4d)."""
    out = []
    root = math.sqrt(N)
    M = 1.0
    while M <= N:
        cap = M ** (1.0 - 4.0 * delta) * N ** (4.0 * delta)
        out.append((M, 1.0, "a"))
        l = 4.0
        while l <= min(root, cap):
            out.append((M, l, "b"))
            l *= 4.0
        l = 2.0 * root
        while l <= cap:
            out.append((M, l, "c"))
            l *= 4.0
        M *= 2.0
    return out


def check_lemma53_work(Ns, delta: float, per_config: int) -> int:
    """The same for a 5.3 scan: per_config queries per (M, l) of
    ``_lemma53_configs``, each of 2N + 1 entries.  ``check_ns`` runs first:
    the doubling of M up to an infinite N would never end."""
    check_ns(Ns)
    return _check_work(sum(per_config * len(_lemma53_configs(N, delta)) * (2 * int(N) + 1)
                           for N in Ns))


@checked({"per_config": partial(check_count, "per_config"), "Ns": check_ns, "delta": check_delta,
          ("Ns", "delta", "per_config"): check_lemma53_work})
def scan_lemma53(Ns: tuple = (64, 128, 256, 512, 1024), delta: float = 0.1, per_config: int = 3,
                 seed=11) -> tuple[list, dict]:
    """Worst-case scan of measure / ((M/N)^(4 delta) N) over the grid.

    The (k, C) draws are made one query at a time, in grid order, and each
    N's queries are measured in one setB_measures call.  Per-N maxima over a
    handful of random (k, C) draws are too noisy for a five-point trend fit
    (a lucky resonance window swings the slope by O(1)), so the reported
    slope is fitted in log space to the top-decile mean of the normalized
    ratios per N; the raw maxima per N and per proof case (a: l ~ 1, b: l up
    to sqrt(N), c: beyond) are reported alongside.  The defaults are those
    of ``s3lab lattice-scan --lemma 5.3``.
    """
    rng = np.random.default_rng(seed)
    rows = []
    per_n_ratios = {N: [] for N in Ns}
    case_ratios = {"a": [], "b": [], "c": []}
    for N in Ns:
        queries = []
        for M, l, case in _lemma53_configs(N, delta):
            for _ in range(per_config):
                k = int(rng.integers(0, 2 * N + 1))
                if rng.random() < 0.5:
                    C = float(rng.uniform(-float(N) ** 2, float(N) ** 2))
                else:
                    m0 = int(rng.integers(max(k - int(N), 1), k + int(N) + 1))
                    n0 = int(rng.integers(1, int(N) + 1))
                    x0 = float(rng.uniform(-2 * l, 2 * l))
                    C = -(l * x0 + m0 * n0) + float(rng.uniform(-0.5, 0.5))
                queries.append((SetBQuery(l=l, k=k, C=C, M=M, N=float(N), delta=delta), case))
        values = setB_measures([q.l for q, _ in queries], [q.k for q, _ in queries],
                               [q.C for q, _ in queries], N).tolist()
        for (q, case), val in zip(queries, values):
            ratio = val / ((q.M / N) ** (4.0 * delta) * N)
            rows.append({"lemma": "5.3", "case": case, "N": N, "M": q.M,
                         "l": q.l, "k": q.k, "C": q.C, "value": val,
                         "normalized_ratio": ratio})
            per_n_ratios[N].append(ratio)
            case_ratios[case].append(ratio)
    # np.max propagates a NaN; the builtin max may drop it
    max_per_n = {N: float(np.max(v)) for N, v in per_n_ratios.items()}
    case_max = {case: float(np.max(v, initial=0.0)) for case, v in case_ratios.items()}
    decile = [_top_decile_mean(per_n_ratios[N], 1e-12) for N in Ns]
    slope = fit_slope(np.log(np.asarray(Ns, dtype=float)), np.log(np.asarray(decile)))
    summary = {"lemma": "5.3", "Ns": list(Ns), "delta": delta,
               "max_ratio_per_N": {str(N): max_per_n[N] for N in Ns},
               "top_decile_means": decile,
               "case_max": case_max, "fitted_slope": slope}
    return rows, summary
