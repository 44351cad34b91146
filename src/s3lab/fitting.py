"""The one least-squares slope fit behind every scan's trend statistic: the
bilinear no-growth fit, the lattice growth exponents and the Strichartz
quotient slopes; the one rule for a scan's largest value and its index; and
the checks a scan makes on its input before any work, so that no gate is
fitted to fewer than two points or passes on no samples, declared once
per scan with ``checked``."""

from __future__ import annotations

import functools
import inspect
import numbers

import numpy as np


class InputError(ValueError):
    """A refusal by ``checked``, before any work: the checked parameters
    ``keys``, their ``values`` as given, and why (the message)."""

    def __init__(self, keys: tuple, values: tuple, why: str):
        super().__init__(why)
        self.keys, self.values = keys, values


def checked(checks: dict):
    """Decorator running a scan's checks on its arguments, defaults filled,
    in order before its body: a parameter -> a check returning the value to
    run with, or a tuple of parameters -> a check across their values that
    converts nothing.  A check's ValueError becomes an ``InputError``.  The
    signature stays the body's (``functools.wraps``): the CLI reads it; the
    map is the scan's ``checks``."""
    def decorate(body):
        signature = inspect.signature(body)

        @functools.wraps(body)
        def scan(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            given = dict(bound.arguments)
            for key, check in checks.items():
                keys = key if isinstance(key, tuple) else (key,)
                try:
                    value = check(*(bound.arguments[k] for k in keys))
                except ValueError as exc:
                    raise InputError(keys, tuple(given[k] for k in keys), str(exc)) from None
                if key in given:
                    bound.arguments[key] = value
            return body(*bound.args, **bound.kwargs)
        scan.checks = checks
        return scan
    return decorate


def check_integer(value, bound=None):
    """Return value; ValueError unless it is an integer, not a bool, and at
    most bound in magnitude when a bound is given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError("need an integer")
    if bound is not None and abs(value) > bound:
        raise ValueError(f"need an integer of magnitude at most {bound}")
    return value


def check_seed(seed):
    """Return seed; ValueError unless it is what every scan hands to
    ``np.random.default_rng``: a non-negative integer, a sequence of them
    (a scan passes [seed, index] on) or a ``np.random.Generator`` (a scan
    passes its own); a bool is refused."""
    if isinstance(seed, np.random.Generator):
        return seed
    for value in seed if isinstance(seed, (list, tuple)) else [seed]:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise ValueError("seed must be a non-negative integer")
    return seed


def check_one_of(*allowed):
    """The check that a value is one of allowed, in type too (1 is not True)."""
    def check(value):
        if not any(type(value) is type(a) and value == a for a in allowed):
            raise ValueError(f"need one of {', '.join(map(repr, allowed))}")
        return value
    return check


def check_fit_xs(x):
    """Return x; ValueError unless it holds two or more distinct values in
    float range, where a slope is defined.  Scans call it on N before work."""
    try:
        distinct = np.unique(np.asarray(x, dtype=float))
    except OverflowError:
        raise ValueError("x values must lie within float range") from None
    if len(distinct) < 2:
        raise ValueError(f"a slope needs at least two distinct x values; got {distinct.tolist()}")
    return x


def check_ns(Ns, integral: bool = False, cap=None):
    """Return Ns; ValueError when it holds no N, or naming the first N that
    is not a real number, lies above ``cap`` unless it is None (a NaN or an
    infinity included) or below 1, lies beyond float range, or, with
    ``integral``, is not a whole number (the hyperbolic quotients and the box
    probe take int(N)).  ``strichartz.check_ns`` is this check with its cap;
    ``lattice.check_ns`` takes whole N with no cap."""
    try:
        given = list(Ns)
    except TypeError:
        raise ValueError(f"Ns must be a list of numbers; got {Ns!r}") from None
    if not given:
        raise ValueError("need at least one N")
    for N in given:
        if isinstance(N, bool) or not isinstance(N, numbers.Real):
            raise ValueError(f"N must be a number; got {N!r}")
        if cap is not None and not N <= cap:
            raise ValueError(f"N is capped at {cap}; got {N}")
        if not N >= 1:
            raise ValueError(f"N must be >= 1; got {N}")
        try:
            whole = float(N).is_integer()
        except OverflowError:
            raise ValueError(f"N must lie within float range; got {len(str(N))} digits") from None
        if integral and not whole:
            raise ValueError(f"N must be a whole number; got {N}")
    return Ns


def check_count(name: str, count):
    """Return a scan's sample count as an int; ValueError when it is not a
    real number (a string, None or a list), is a bool, is not integral
    (1.5, inf or NaN) or is below 1, where a gate over no samples would
    pass on nothing."""
    if not isinstance(count, numbers.Real):
        raise ValueError(f"{name} must be a number; got {count!r}")
    if isinstance(count, bool) or not (isinstance(count, numbers.Integral)
                                       or float(count).is_integer()):
        raise ValueError(f"{name} must be an integer; got {count!r}")
    if not count >= 1:
        raise ValueError(f"{name} must be >= 1; got {count}")
    return int(count)


def check_delta(delta):
    """Return delta; ValueError unless it is a real number, not a bool, with
    0 < delta < 1/8: the range of the exponent in the elliptic quotient's
    (M/N)^delta factor and in lemma 5.3's cap M^(1-4 delta) N^(4 delta)."""
    if isinstance(delta, bool) or not isinstance(delta, numbers.Real):
        raise ValueError(f"delta must be a number; got {delta!r}")
    if not 0.0 < delta < 0.125:
        raise ValueError(f"delta must lie in (0, 1/8); got {delta}")
    return delta


def largest(values) -> tuple:
    """(the largest of values, its index); (0.0, None) when none is
    positive.  np.argmax takes the first NaN, and "not <=" reports it, so a
    NaN is the largest and a gate on it fails closed."""
    i = int(np.argmax(values))
    return (float(values[i]), i) if not values[i] <= 0.0 else (0.0, None)


def fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x.

    Raises ValueError for fewer than two distinct x values, where no slope
    is defined.  Non-finite data give a non-finite slope, which callers
    treat as a breach.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    check_fit_xs(x)
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
