import decimal
import math
import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as stn

from s3lab import fitting, lattice
from s3lab.fitting import check_fit_xs
from s3lab.lattice import (
    AnnulusQuery,
    SetBQuery,
    annulus_measure,
    annulus_measures,
    count_hyperbola,
    count_hyperbola_batch,
    count_quadric,
    count_quadric_batch,
    scan_lemma51,
    scan_lemma52,
    scan_lemma53,
    setB_measure,
    setB_measure_monte_carlo,
    setB_measures,
)

SETTINGS = dict(max_examples=40, deadline=None, database=None, derandomize=True)

# the scan of each lemma label, with the variant and delta the CLI's lemma rows use
SCANS = {"5.1": scan_lemma51,
         "5.2a": partial(scan_lemma52, variant="quadric"),
         "5.2b": partial(scan_lemma52, variant="hyperbola"),
         "5.3": partial(scan_lemma53, delta=0.1)}


def brute_annulus(C, K, xi2c, nx=2_000_001, span=None):
    """Independent row-×-grid oracle for the annulus measure."""
    span = span or math.sqrt(max(C + K, 0.0)) + 1.0
    total = 0.0
    dmax = int(math.floor(math.sqrt(max(C + K, 0.0))))
    xs = np.linspace(-span, span, nx)
    dx = xs[1] - xs[0]
    for d in range(-dmax, dmax + 1):
        r2 = xs**2 + float(d) ** 2
        total += dx * np.count_nonzero((r2 >= C) & (r2 <= C + K))
    return total


def test_annulus_basic_row():
    q = AnnulusQuery(C=0.0, K=1.0, center=(0.0, 0))
    assert annulus_measure(q) == pytest.approx(2.0)


def test_annulus_empty():
    assert annulus_measure(AnnulusQuery(C=-10.0, K=2.0, center=(3.0, 1))) == 0.0


def test_annulus_against_grid_oracle():
    for C, K in [(2.5, 1.0), (10.0, 3.0), (0.0, 7.0)]:
        exact = annulus_measure(AnnulusQuery(C=C, K=K, center=(0.0, 0)))
        approx = brute_annulus(C, K, 0)
        assert exact == pytest.approx(approx, abs=5e-3)


def test_annulus_k_guard():
    with pytest.raises(ValueError):
        AnnulusQuery(C=0.0, K=0.5, center=(0.0, 0))


@given(stn.floats(min_value=-50, max_value=1e4), stn.floats(min_value=1, max_value=100),
       stn.floats(min_value=-1e3, max_value=1e3), stn.integers(min_value=-100, max_value=100))
@settings(**SETTINGS)
def test_annulus_translation_invariance(C, K, x1c, x2c):
    base = annulus_measure(AnnulusQuery(C=C, K=K, center=(0.0, 0)))
    shifted = annulus_measure(AnnulusQuery(C=C, K=K, center=(x1c, x2c)))
    assert shifted == base  # exact equality: row lengths never depend on the center


@given(stn.floats(min_value=0, max_value=1e4), stn.floats(min_value=1, max_value=50),
       stn.floats(min_value=0, max_value=50))
@settings(**SETTINGS)
def test_annulus_monotone_in_k(C, K, extra):
    a = annulus_measure(AnnulusQuery(C=C, K=K, center=(0.0, 0)))
    b = annulus_measure(AnnulusQuery(C=C, K=K + extra, center=(0.0, 0)))
    assert b >= a - 1e-12


def brute_quadric(k, C, N):
    return sum(
        1
        for m in range(-N, N + 1)
        for n in range(-N, N + 1)
        if m * m + n * n + k * m + k * n == C
    )


def test_quadric_circle():
    assert count_quadric(0, 25, 5) == 12
    assert count_quadric(0, 25, 5) == brute_quadric(0, 25, 5)


def test_quadric_negative_empty():
    assert count_quadric(0, -1, 100) == 0


@given(stn.integers(min_value=-200, max_value=200), stn.integers(min_value=-400, max_value=400),
       stn.integers(min_value=1, max_value=25))
@settings(**SETTINGS)
def test_quadric_matches_brute_force(k, C, N):
    assert count_quadric(k, C, N) == brute_quadric(k, C, N)


def test_quadric_symmetries():
    # (m, n) -> (n, m) always; sign flips at k = 0
    for k, C, N in [(3, 17, 12), (0, 40, 10)]:
        sols = [
            (m, n)
            for m in range(-N, N + 1)
            for n in range(-N, N + 1)
            if m * m + n * n + k * m + k * n == C
        ]
        assert len(sols) == count_quadric(k, C, N)
        assert all((n, m) in sols for (m, n) in sols)
        if k == 0:
            assert all((-m, -n) in sols for (m, n) in sols)


def brute_hyperbola(k, C, N):
    return sum(
        1
        for m in range(k - N, k + N + 1)
        for n in range(-N, N + 1)
        if m != 0 and n != 0 and m * n == C
    )


def test_hyperbola_divisors():
    assert count_hyperbola(0, 12, 12) == 12
    assert count_hyperbola(0, 12, 12) == brute_hyperbola(0, 12, 12)
    assert count_hyperbola(0, 0, 10) == 0


def test_hyperbola_far_offset_box():
    k, C, N = 10**6, 7 * 10**6, 16
    assert count_hyperbola(k, C, N) == 1  # only m = 10^6, n = 7 lands in the box


@given(stn.integers(min_value=-60, max_value=60), stn.integers(min_value=-500, max_value=500),
       stn.integers(min_value=1, max_value=20))
@settings(**SETTINGS)
def test_hyperbola_matches_brute_force(k, C, N):
    assert count_hyperbola(k, C, N) == brute_hyperbola(k, C, N)


def brute_setB(q: SetBQuery, slack: float, nx: int = 400_001) -> float:
    xs = np.linspace(-2 * q.l, 2 * q.l, nx)
    dx = xs[1] - xs[0]
    N = int(q.N)
    total = 0.0
    for m in range(q.k - N, q.k + N + 1):
        if m == 0:
            continue
        for n in range(-N, N + 1):
            if n == 0:
                continue
            total += dx * np.count_nonzero(np.abs(q.l * xs + m * n + q.C) <= slack)
    return total


def test_setB_small_case_against_oracle():
    q = SetBQuery(l=1.0, k=0, C=0.0, M=4.0, N=4.0)
    exact = setB_measure(q, slack=1.0)
    assert exact == pytest.approx(brute_setB(q, 1.0), abs=2e-2)
    # hand count: |x + mn| <= 1 on |x| <= 2 gives length 2 for |mn| <= 1
    # (4 pairs) and length 1 for |mn| = 2 (8 pairs)
    assert exact == pytest.approx(16.0)


def test_setB_monte_carlo_cross_check():
    q = SetBQuery(l=2.0, k=3, C=-5.0, M=8.0, N=8.0)
    exact = setB_measure(q, slack=1.0)
    mc, sigma = setB_measure_monte_carlo(q, 1.0, 400_000, 0)
    assert abs(mc - exact) <= 3.0 * sigma + 1e-9


def test_setB_upper_bound_by_interval_count():
    q = SetBQuery(l=3.0, k=1, C=2.0, M=4.0, N=4.0)
    val = setB_measure(q, slack=1.0)
    N = int(q.N)
    count = sum(
        1
        for m in range(q.k - N, q.k + N + 1)
        for n in range(-N, N + 1)
        if m != 0 and n != 0
    )
    assert val <= 4.0 * q.l * count + 1e-12


def test_setB_parameter_validation():
    with pytest.raises(ValueError):
        SetBQuery(l=0.5, k=0, C=0.0, M=2.0, N=4.0)
    with pytest.raises(ValueError):
        SetBQuery(l=1.0, k=0, C=0.0, M=8.0, N=4.0)
    with pytest.raises(ValueError):
        SetBQuery(l=100.0, k=0, C=0.0, M=2.0, N=4.0)  # above the cap


def test_scans_deterministic():
    r1, s1 = scan_lemma51(seed=5, n_queries=200)
    r2, s2 = scan_lemma51(seed=5, n_queries=200)
    assert s1 == s2 and r1 == r2
    r3, s3 = scan_lemma52(seed=5, Ns=[16, 32], per_n=20, variant="quadric")
    r4, s4 = scan_lemma52(seed=5, Ns=[16, 32], per_n=20, variant="quadric")
    assert s3 == s4 and r3 == r4


def test_scan_53_cases_present():
    rows, summary = scan_lemma53(seed=2, Ns=[64, 128], delta=0.1, per_config=2)
    cases = {r["case"] for r in rows}
    assert cases == {"a", "b", "c"}
    assert set(summary["case_max"]) == {"a", "b", "c"}


# -- array kernels against their oracles ----------------------------------------

def annulus_exact(C, K):
    """The per-row sum over every integer row d in [-dmax, dmax], in 40-digit
    decimal arithmetic from the exact binary values of C and K."""
    with decimal.localcontext(decimal.Context(prec=40)):
        lo, hi = decimal.Decimal(C), decimal.Decimal(C) + decimal.Decimal(K)
        total = decimal.Decimal(0)
        for d in range(-math.isqrt(max(int(hi), 0)) - 1, math.isqrt(max(int(hi), 0)) + 2):
            a, b = hi - d * d, lo - d * d
            total += 2 * ((a.sqrt() if a > 0 else 0) - (b.sqrt() if b > 0 else 0))
        return float(total)


def test_annulus_batch_matches_exact_rows_and_scalar(monkeypatch):
    rng = np.random.default_rng(4)
    # C up to 1e6 against K down to 1: the plain difference of the two roots
    # on a row would lose about six digits
    C = np.concatenate([rng.uniform(-10.0, 1e6, 30), [-20.0, 0.0, 3.5, 16.0, 999000.123]])
    K = np.concatenate([rng.uniform(1.0, 1e3, 30), [2.0, 1.0, 1.0, 9.0, 1.5]])
    batch = annulus_measures(C, K)
    for c, k, v in zip(C, K, batch):
        assert v == pytest.approx(annulus_exact(c, k), rel=1e-14, abs=0.0)
        assert v == pytest.approx(annulus_measure(AnnulusQuery(C=c, K=k, center=(0.0, 0))),
                                  rel=1e-14, abs=0.0)
    # blocks of 7 entries: every query split over many column blocks
    monkeypatch.setattr(lattice, "_BLOCK", 7)
    assert np.allclose(annulus_measures(C, K), batch, rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError):
        annulus_measures([0.0, 1.0], [2.0, 0.5])
    with pytest.raises(ValueError):
        annulus_measures([0.0, float("nan")], [2.0, 2.0])
    with pytest.raises(ValueError):
        annulus_measures([0.0], [float("inf")])


def brute_setB_exact(q: SetBQuery, slack: float) -> Fraction:
    """Exact rational sum over every admissible (m, n) of the interval length,
    from the exact binary values of l, C and slack."""
    l, C, h = Fraction(q.l), Fraction(q.C), Fraction(slack) / Fraction(q.l)
    N = int(q.N)
    total = Fraction(0)
    for m in range(q.k - N, q.k + N + 1):
        for n in range(-N, N + 1):
            if m == 0 or n == 0:
                continue
            c = -(m * n + C) / l
            total += max(min(c + h, 2 * l) - max(c - h, -2 * l), 0)
    return total


# l = 1 (case a), 4 = sqrt(N) (case b), 8 = 2 sqrt(N) and 16 = the cap (case c)
@pytest.mark.parametrize("l", [1.0, 4.0, 8.0, 16.0])
@pytest.mark.parametrize("slack_of_l", ["0.3", "1", "2l^2", "2l^2+50"])
def test_setB_closed_form_against_exact_sum(l, slack_of_l):
    slack = {"0.3": 0.3, "1": 1.0, "2l^2": 2.0 * l * l, "2l^2+50": 2.0 * l * l + 50.0}[slack_of_l]
    # k = 3: the m-range straddles 0; k = +-40: one sign of m only.  C = 0.7 and
    # C = -l^2 + 0.25 put the n = 0 term inside the support, C = 123.4 does not
    for k in (3, 40, -40):
        for C in (0.7, -l * l + 0.25, 123.4):
            q = SetBQuery(l=l, k=k, C=C, M=16.0, N=16.0)
            exact = float(brute_setB_exact(q, slack))
            assert setB_measure(q, slack) == pytest.approx(exact, rel=1e-13, abs=0.0)


def setB_rows(q: SetBQuery, slack: float) -> float:
    """The per-row sum: for each m, the clipped interval lengths over all n."""
    N = int(q.N)
    ms = np.arange(q.k - N, q.k + N + 1, dtype=float)
    ns = np.arange(-N, N + 1, dtype=float)
    ns = ns[ns != 0.0]
    total = 0.0
    for m in ms[ms != 0.0]:
        center = -(m * ns + q.C) / q.l
        lo = np.maximum(center - slack / q.l, -2.0 * q.l)
        hi = np.minimum(center + slack / q.l, 2.0 * q.l)
        total += float(np.maximum(hi - lo, 0.0).sum())
    return total


def test_setB_closed_form_against_row_sum_at_512(monkeypatch):
    rng = np.random.default_rng(8)
    for l, M in [(1.0, 1.0), (16.0, 512.0), (45.25, 512.0), (181.0, 256.0)]:
        k = int(rng.integers(0, 1025))
        m0, n0 = int(rng.integers(max(k - 512, 1), k + 513)), int(rng.integers(1, 513))
        for C in (float(rng.uniform(-512.0**2, 512.0**2)), -(m0 * n0) + 0.3):
            q = SetBQuery(l=l, k=k, C=C, M=M, N=512.0)
            value = setB_measure(q)
            assert value == pytest.approx(setB_rows(q, 1.0), rel=1e-10, abs=0.0)
            monkeypatch.setattr(lattice, "_BLOCK", 100)  # rows in blocks of 100
            assert setB_measure(q) == pytest.approx(value, rel=1e-14, abs=0.0)
            monkeypatch.undo()


def test_setB_without_slack_is_empty():
    q = SetBQuery(l=2.0, k=1, C=0.5, M=4.0, N=4.0)
    assert setB_measure(q, slack=0.0) == 0.0
    assert setB_measure(q, slack=-1.0) == 0.0


def test_counter_batches_match_scalar_and_brute_force(monkeypatch):
    rng = np.random.default_rng(12)
    N = 9
    ks = [int(k) for k in rng.integers(-30, 31, 40)]
    Cq = [int(c) for c in rng.integers(-150, 151, 40)]
    Ch = [int(c) for c in rng.integers(-80, 81, 40)]
    quad = count_quadric_batch(ks, Cq, N)
    hyp = count_hyperbola_batch(ks, Ch, N)
    assert quad.tolist() == [brute_quadric(k, C, N) for k, C in zip(ks, Cq)]
    assert quad.tolist() == [count_quadric(k, C, N) for k, C in zip(ks, Cq)]
    assert hyp.tolist() == [brute_hyperbola(k, C, N) for k, C in zip(ks, Ch)]
    assert hyp.tolist() == [count_hyperbola(k, C, N) for k, C in zip(ks, Ch)]
    # tiles of 5 entries: pairs and columns both split
    monkeypatch.setattr(lattice, "_BLOCK", 5)
    assert count_quadric_batch(ks, Cq, N).tolist() == quad.tolist()
    assert count_hyperbola_batch(ks, Ch, N).tolist() == hyp.tolist()


@pytest.mark.parametrize("lemma,brute", [("5.2a", brute_quadric), ("5.2b", brute_hyperbola)])
def test_lemma52_scan_counts_match_brute_force(lemma, brute):
    rows, summary = SCANS[lemma](seed=6, Ns=[6, 10], per_n=25)
    assert len(rows) == 50
    for r in rows:
        assert r["value"] == brute(r["k"], r["C"], r["N"])
    assert summary["max_counts"] == [
        max(1, max(r["value"] for r in rows if r["N"] == N)) for N in (6, 10)]


def test_counters_refuse_int64_unsafe_input():
    with pytest.raises(ValueError, match="2\\^62"):
        count_quadric(2**31, 0, 1)  # k^2 = 2^62
    with pytest.raises(ValueError, match="2\\^62"):
        count_quadric(0, 2**60, 1)  # 4|C| = 2^62
    assert count_quadric(0, 2**60 - 2, 1) == 0  # just inside: 2^62 - 4
    with pytest.raises(ValueError, match="2\\^62"):
        count_quadric_batch([0, 1], [5, 2**62], 4)  # the second pair alone is unsafe
    with pytest.raises(ValueError, match="2\\^62"):
        count_hyperbola(0, 2**62 + 1, 4)
    with pytest.raises(ValueError, match="2\\^62"):
        count_hyperbola(2**62, 6, 1)  # |k| + N = 2^62 + 1
    assert count_hyperbola(0, 2**62, 4) == 0
    with pytest.raises(ValueError):
        count_quadric_batch([1, 2], [3], 4)
    with pytest.raises(ValueError):
        count_hyperbola(0, 6, 0)


def test_hyperbola_work_is_capped_by_the_box():
    # the old divisor loop ran about 2.8e6 iterations here
    assert count_hyperbola(2**40, 7 * 2**40, 16) == 1


@pytest.mark.parametrize("lemma,kwargs,kernel", [
    ("5.3", dict(Ns=[256], per_config=2), "setB_measures"),
    ("5.2a", dict(Ns=[64, 64], per_n=5), "count_quadric_batch"),
    ("5.2b", dict(Ns=[64], per_n=5), "count_hyperbola_batch"),
])
def test_scans_refuse_a_single_N_before_any_work(monkeypatch, lemma, kwargs, kernel):
    calls = []
    monkeypatch.setattr(lattice, kernel, lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="two distinct"):
        SCANS[lemma](seed=3, **kwargs)
    assert calls == []


@pytest.mark.parametrize("lemma,kwargs,count,kernel", [
    ("5.1", dict(n_queries=0), "n_queries", "annulus_measures"),
    ("5.2a", dict(Ns=[16, 32], per_n=0), "per_n", "count_quadric_batch"),
    ("5.2b", dict(Ns=[16, 32], per_n=-1), "per_n", "count_hyperbola_batch"),
    ("5.3", dict(Ns=[16, 32], per_config=0), "per_config", "setB_measures"),
])
def test_scans_refuse_an_empty_sample_before_any_work(monkeypatch, lemma, kwargs, count, kernel):
    # a gate over no samples would pass on nothing
    calls = []
    monkeypatch.setattr(lattice, kernel, lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=f"{count} must be >= 1"):
        SCANS[lemma](seed=3, **kwargs)
    assert calls == []


@pytest.mark.parametrize("lemma,kwargs,message", [
    # 64.5 ran and fitted an exponent, 0.5 died in numpy on an empty
    # maximum, and 0 was refused only by the counter, after its draws
    ("5.2a", dict(Ns=[64.5, 128], per_n=5), "N must be a whole number; got 64.5"),
    ("5.3", dict(Ns=[0.5, 64], per_config=1), "N must be >= 1; got 0.5"),
    ("5.2a", dict(Ns=[0, 64], per_n=5), "N must be >= 1; got 0"),
])
def test_scans_refuse_an_n_they_cannot_run_before_any_work(monkeypatch, lemma, kwargs, message):
    calls = []
    for name in ("_lemma52_samples", "count_quadric_batch", "_lemma53_configs", "setB_measures"):
        monkeypatch.setattr(lattice, name, lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=re.escape(message)):
        SCANS[lemma](seed=1, **kwargs)
    assert calls == []


@pytest.mark.parametrize("delta,message", [
    ("0.1", "delta must be a number; got '0.1'"),
    (True, "delta must be a number; got True"),
    (float("nan"), "delta must lie in (0, 1/8); got nan"),
    (0.125, "delta must lie in (0, 1/8); got 0.125"),
])
def test_lemma53_refuses_a_bad_delta_before_any_work(monkeypatch, delta, message):
    # "0.1" used to end in a TypeError, true ran as delta = 1 and NaN ran
    # the whole scan to NaN gates
    calls = []
    for name in ("_lemma53_configs", "setB_measures"):
        monkeypatch.setattr(lattice, name, lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=re.escape(message)):
        scan_lemma53(Ns=[16, 32], delta=delta, per_config=1, seed=1)
    assert calls == []


@pytest.mark.parametrize("lemma,kwargs,work", [
    ("5.2a", dict(Ns=[64, 10**9], per_n=500), "1e+12"),
    ("5.2b", dict(Ns=[64, 10**9], per_n=1), "2e+09"),
    ("5.3", dict(Ns=[64, 10**9], per_config=3), "1.96e+12"),
])
def test_scans_refuse_work_over_the_budget_before_any_draw(monkeypatch, lemma, kwargs, work):
    # N = 10^9 at the default per_n is about 3 h of counting
    calls = []
    for name in ("_lemma52_samples", "count_quadric_batch", "count_hyperbola_batch",
                 "setB_measures"):
        monkeypatch.setattr(lattice, name, lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=re.escape(
            f"the estimated kernel work of {work} entries is over the budget of 1e+09")):
        SCANS[lemma](seed=1, **kwargs)
    assert calls == []


_HUGE = 10**400  # a whole N beyond float range


@pytest.mark.parametrize("check,message", [
    (lambda: check_fit_xs([64, _HUGE]), "x values must lie within float range"),
    (lambda: fitting.check_ns([64, _HUGE], integral=True),
     "N must lie within float range; got 401 digits"),
    (lambda: lattice.check_lemma52_work([64, _HUGE], 500),
     "the estimated kernel work of over 1e308 entries is over the budget of 1e+09"),
    (lambda: lattice.check_ns([64, _HUGE]), "x values must lie within float range"),
    (lambda: scan_lemma52(Ns=[64, _HUGE]), "x values must lie within float range"),
    (lambda: scan_lemma53(Ns=[64, _HUGE]), "x values must lie within float range"),
], ids=["check_fit_xs", "fitting.check_ns", "check_lemma52_work", "lattice.check_ns",
        "scan_lemma52", "scan_lemma53"])
def test_an_n_beyond_float_range_is_a_value_error(check, message):
    # each step used to raise an OverflowError, a traceback at the CLI
    with pytest.raises(ValueError, match=re.escape(message)):
        check()


@pytest.mark.parametrize("lemma,kwargs,check", [
    ("5.2a", dict(Ns=[16, 33], per_n=7), lambda: lattice.check_lemma52_work([16, 33], 7)),
    ("5.3", dict(Ns=[16, 33], per_config=2),
     lambda: lattice.check_lemma53_work([16, 33], 0.1, 2)),
])
def test_work_estimate_is_the_kernel_work_of_the_scan(lemma, kwargs, check):
    # one O(N) row of 2N + 1 entries per query, the queries being the rows
    rows, _ = SCANS[lemma](seed=2, **kwargs)
    assert check() == sum(2 * row["N"] + 1 for row in rows)


def test_lemma51_scan_rows_are_the_batch_measures_of_their_draws():
    rows, summary = scan_lemma51(seed=5, n_queries=300)
    assert len(rows) == summary["queries"] == 300
    values = annulus_measures([r["C"] for r in rows], [r["K"] for r in rows])
    for r, v in zip(rows, values):
        assert -10.0 <= r["C"] < 1e6 and 1.0 <= r["K"] < 1e3
        assert type(r["xi2_center"]) is int and -1000 <= r["xi2_center"] <= 1000
        assert r["value"] == pytest.approx(float(annulus_measures([r["C"]], [r["K"]])[0]),
                                           rel=1e-14, abs=0.0)
        assert r["value"] == v
        assert r["normalized_ratio"] == r["value"] / r["K"]
    ratios = [r["normalized_ratio"] for r in rows]
    assert summary["max_ratio"] == max(ratios)
    assert summary["argmax_index"] == ratios.index(max(ratios))
    assert scan_lemma51(seed=5, n_queries=300) == (rows, summary)
    assert scan_lemma51(seed=6, n_queries=300)[0] != rows


@pytest.mark.parametrize("N", [16, 64, 512])
def test_setB_batch_matches_one_query_calls(monkeypatch, N):
    rng = np.random.default_rng(N)
    queries = []
    # k = 0 and k = N: the m-range straddles 0 (or ends at it); k = -3N and
    # k = 3N: one sign of m only
    for k in (0, 5, N, -3 * N, 3 * N):
        for l in (1.0, 2.0, 0.5 * math.sqrt(N) + 1.0):
            m0, n0 = int(rng.integers(1, N + 1)), int(rng.integers(1, N + 1))
            for C in (float(rng.uniform(-N * N, N * N)), -(m0 * n0) + 0.3, 0.7):
                queries.append(SetBQuery(l=l, k=k, C=C, M=float(N), N=float(N)))
    ls, ks, Cs = ([getattr(q, f) for q in queries] for f in ("l", "k", "C"))
    for slack in (0.3, 1.0, 40.0):
        batch = setB_measures(ls, ks, Cs, N, slack)
        assert batch.shape == (len(queries),)
        for q, v in zip(queries, batch):
            assert v == pytest.approx(setB_measure(q, slack), rel=1e-14, abs=0.0)
        # tiles of N // 3 entries: each query's rows split over about six tiles
        monkeypatch.setattr(lattice, "_BLOCK", N // 3)
        assert np.allclose(setB_measures(ls, ks, Cs, N, slack), batch, rtol=1e-14, atol=0.0)
        monkeypatch.undo()
    if N == 16:
        for q, v in zip(queries, setB_measures(ls, ks, Cs, N, 1.0)):
            assert v == pytest.approx(float(brute_setB_exact(q, 1.0)), rel=1e-13, abs=0.0)
    for slack in (0.0, -1.0):
        assert setB_measures(ls, ks, Cs, N, slack).tolist() == [0.0] * len(queries)
    with pytest.raises(ValueError):
        setB_measures([1.0, 2.0], [0], [0.5, 0.5], N)
