"""Every scan checks its own input, before any work: for each entry of each
scan's ``checked`` map, one bad value raises an ``InputError`` that names
the checked keys and their values as given, and no work function runs
(``work_calls``).  Every scan that takes a seed checks it with
``fitting.check_seed``."""

import inspect
import re

import numpy as np
import pytest

from s3lab import bilinear, cli, lattice, strichartz
from s3lab.fitting import InputError, check_seed

_SLAB = {"xi0": [0.0, 0], "a": [1.0, 0.0], "c": 0.0, "M": 2, "N": 4}
_WINDOW = (-10.0, 10.0, 64)

# each checked scan with arguments that pass every check
GOOD = {
    bilinear.scan_cells: {"m_max": 8, "n_max": 4, "seeds": 2},
    lattice.scan_lemma51: {"n_queries": 50},
    lattice.scan_lemma52: {"Ns": [16, 32], "per_n": 5},
    lattice.scan_lemma53: {"Ns": [16, 32], "per_config": 1},
    strichartz.scan_strichartz_quotients: {"Ns": [4, 8], "trials": 1, "t_window": _WINDOW},
    strichartz.strichartz_quotient: {"slab": _SLAB, "trials": 1, "t_window": _WINDOW},
    strichartz.hyperbolic_l4_quotient: {"N": 2, "trials": 1, "seed": 0, "t_window": _WINDOW},
    strichartz.scan_hyperbolic_quotients: {"Ns": [2, 4], "trials": 1, "t_window": _WINDOW},
    strichartz.quadrilinear_check: {},
    strichartz.kernel_split_check: {},
    strichartz.box_scaling_probe: {"Ns": [2, 4], "h": 0.5},
    cli._cg_table: {"m": 2, "n": 1},
}

_SEED = "seed must be a non-negative integer"

# (scan, bad arguments, the key of its checks map they break, the message)
CASES = [
    # numpy's "expected non-negative integer" from the first draw
    (lattice.scan_lemma51, {"seed": -1}, "seed", _SEED),
    # a TypeError from SeedSequence
    (strichartz.quadrilinear_check, {"seed": "x"}, "seed", _SEED),
    (bilinear.scan_cells, {"seed": True}, "seed", _SEED),
    (lattice.scan_lemma52, {"seed": [11, -2]}, "seed", _SEED),
    (lattice.scan_lemma53, {"seed": 1.5}, "seed", _SEED),
    (strichartz.scan_strichartz_quotients, {"seed": None}, "seed", _SEED),
    (strichartz.strichartz_quotient, {"seed": (3, True)}, "seed", _SEED),
    (strichartz.hyperbolic_l4_quotient, {"seed": [[3, 0]]}, "seed", _SEED),
    (strichartz.scan_hyperbolic_quotients, {"seed": "3"}, "seed", _SEED),
    (strichartz.kernel_split_check, {"seed": -3}, "seed", _SEED),
    (bilinear.scan_cells, {"m_max": "8"}, "m_max", "need an integer"),
    # ran as scan_grid(8.0, 4)
    (bilinear.scan_cells, {"n_max": 4.0}, "n_max", "need an integer"),
    (bilinear.scan_cells, {"n_max": 3}, ("m_max", "n_max"),
     "the no-growth fit needs cells at two or more n"),
    (bilinear.scan_cells, {"seeds": 0}, "seeds", "seeds must be >= 1; got 0"),
    # ran as zonal = True
    (bilinear.scan_cells, {"zonal": "no"}, "zonal", "need one of False, True"),
    (bilinear.scan_cells, {"cross_check": 1}, "cross_check", "need one of False, True"),
    # refused with or without zonal
    (bilinear.scan_cells, {"zonal_n_max": 0}, "zonal_n_max", "zonal_n_max must be >= 1; got 0"),
    (lattice.scan_lemma51, {"n_queries": 0}, "n_queries", "n_queries must be >= 1; got 0"),
    (lattice.scan_lemma52, {"variant": "cubic"}, "variant",
     "need one of 'quadric', 'hyperbola'"),
    (lattice.scan_lemma52, {"per_n": 0, "variant": "hyperbola"}, "per_n",
     "per_n must be >= 1; got 0"),
    (lattice.scan_lemma52, {"Ns": [0, 64]}, "Ns", "N must be >= 1; got 0"),
    (lattice.scan_lemma52, {"Ns": [64, 10**9]}, ("Ns", "per_n"), "is over the budget of 1e+09"),
    (lattice.scan_lemma53, {"per_config": 0}, "per_config", "per_config must be >= 1; got 0"),
    (lattice.scan_lemma53, {"Ns": [64.5, 128]}, "Ns", "N must be a whole number; got 64.5"),
    (lattice.scan_lemma53, {"delta": float("nan")}, "delta", "delta must lie in (0, 1/8); got nan"),
    (lattice.scan_lemma53, {"Ns": [64, 10**9]}, ("Ns", "delta", "per_config"),
     "is over the budget of 1e+09"),
    (strichartz.scan_strichartz_quotients, {"Ns": [4]}, "Ns",
     "a slope needs at least two distinct x values; got [4.0]"),
    (strichartz.scan_strichartz_quotients, {"trials": 0}, "trials", "trials must be >= 1; got 0"),
    # failed with "cannot convert float NaN to integer"
    (strichartz.scan_strichartz_quotients, {"h": float("nan")}, "h",
     "h must be a finite positive number"),
    # drew a packet first
    (strichartz.scan_strichartz_quotients, {"t_window": (60, -60, 256)}, "t_window",
     "time window needs finite t_min < t_max, got (60.0, -60.0)"),
    (strichartz.scan_strichartz_quotients, {"delta": 0.2}, "delta",
     "delta must lie in (0, 1/8); got 0.2"),
    (strichartz.strichartz_quotient, {"slab": {k: v for k, v in _SLAB.items() if k != "M"}},
     "slab", "missing M; a slab record has the keys xi0, a, c, M, N"),
    (strichartz.strichartz_quotient, {"delta": 0.2}, "delta", "delta must lie in (0, 1/8); got 0.2"),
    (strichartz.strichartz_quotient, {"trials": 0}, "trials", "trials must be >= 1; got 0"),
    (strichartz.strichartz_quotient, {"h": 0}, "h", "h must be a finite positive number"),
    # ran as n_t = 100
    (strichartz.strichartz_quotient, {"t_window": (-60, 60, 100.7)}, "t_window",
     "need a whole number of at least 64 time intervals, got n_t = 100.7"),
    (strichartz.hyperbolic_l4_quotient, {"N": 2.5}, "N", "N must be a whole number; got 2.5"),
    (strichartz.hyperbolic_l4_quotient, {"trials": 0}, "trials", "trials must be >= 1; got 0"),
    (strichartz.hyperbolic_l4_quotient, {"h": -0.5}, "h", "h must be a finite positive number"),
    # ran as t_min = 1.0
    (strichartz.hyperbolic_l4_quotient, {"t_window": (True, 60, 64)}, "t_window",
     "time window needs three numbers"),
    (strichartz.scan_hyperbolic_quotients, {"Ns": [2, 128]}, "Ns", "N is capped at 64; got 128"),
    (strichartz.scan_hyperbolic_quotients, {"trials": 1.5}, "trials",
     "trials must be an integer; got 1.5"),
    (strichartz.scan_hyperbolic_quotients, {"h": "0.5"}, "h", "h must be a finite positive number"),
    # entered _weighted_quartic first
    (strichartz.scan_hyperbolic_quotients, {"t_window": (-60, 60, 8)}, "t_window",
     "need a whole number of at least 64 time intervals, got n_t = 8.0"),
    (strichartz.kernel_split_check, {"k_shift": 0.5}, "k_shift", "need an integer"),
    # drew the packet, then overflowed int64
    (strichartz.kernel_split_check, {"k_shift": 10**30}, "k_shift",
     f"need an integer of magnitude at most {2**62}"),
    (strichartz.box_scaling_probe, {"Ns": [4, 4.0]}, "Ns",
     "a slope needs at least two distinct x values; got [4.0]"),
    # lattice_q(True) read q = 1
    (strichartz.box_scaling_probe, {"h": True}, "h", "h must be a finite positive number"),
    (strichartz.box_scaling_probe, {"h": 0.3}, ("h",), "needs h^2 = 1/q for an integer q"),
    (cli._cg_table, {"m": 6.5}, "m", "need an integer"),
    (cli._cg_table, {"n": True}, "n", "need an integer"),
    (cli._cg_table, {"m": 2, "n": 5}, ("m", "n"), "need m >= n >= 0 and m + n <= 200"),
    (cli._cg_table, {"format": "xml"}, "format", "need one of 'csv', 'json'"),
]


def _id(case):
    scan, bad, key, _ = case
    return f"{scan.__name__}-{'-'.join(key) if isinstance(key, tuple) else key}-{bad!r}"


@pytest.mark.parametrize("scan,bad,key,message", CASES, ids=[_id(c) for c in CASES])
def test_each_check_refuses_before_any_work(work_calls, scan, bad, key, message):
    args = {**GOOD[scan], **bad}
    with pytest.raises(InputError, match=re.escape(message)) as refused:
        scan(**args)
    keys = key if isinstance(key, tuple) else (key,)
    defaults = {name: p.default for name, p in inspect.signature(scan).parameters.items()}
    assert refused.value.keys == keys
    assert refused.value.values == tuple({**defaults, **args}[k] for k in keys)
    assert work_calls == []


@pytest.mark.parametrize("scan", GOOD, ids=[scan.__name__ for scan in GOOD])
def test_the_good_arguments_reach_the_work(work_calls, scan):
    # so each case above is refused for its bad value alone
    with pytest.raises(work_calls.Started):
        scan(**GOOD[scan])
    assert len(work_calls) == 1


def test_every_check_of_every_scan_has_a_case():
    scans = {f for module in (bilinear, lattice, strichartz, cli) for f in vars(module).values()
             if inspect.isfunction(f) and hasattr(f, "checks")}
    assert scans == set(GOOD)
    for scan in scans:
        assert {key for s, _, key, _ in CASES if s is scan} == set(scan.checks), scan.__name__


def test_whole_float_windows_and_the_largest_k_shift_run():
    assert strichartz.check_window((-60, 60, 64.0)) == (-60.0, 60.0, 64)
    assert type(strichartz.check_window((-60, 60, 64.0))[2]) is int
    for k_shift in (2**62, -2**62):
        rows, summary = strichartz.kernel_split_check(k_shift=k_shift)
        assert summary["cover_ok"] and rows[0]["tuples"] > 0


def test_the_slab_record_and_its_slabspec_give_the_same_quotients():
    spec = strichartz.SlabSpec(xi0=(0.0, 0), a=(1.0, 0.0), c=0.0, M=2, N=4)
    assert strichartz.check_slab(_SLAB) == spec and strichartz.check_slab(spec) is spec
    assert (strichartz.strichartz_quotient(_SLAB, trials=2, t_window=_WINDOW)
            == strichartz.strichartz_quotient(spec, trials=2, t_window=_WINDOW))


@pytest.mark.parametrize("seed", [0, 2**70, np.int64(7), [3, 0], (3, 0, 1), [],
                                  np.random.default_rng(1)])
def test_every_seed_a_scan_hands_on_is_accepted(seed):
    # the scans pass [seed, index] lists and their own generators on
    assert check_seed(seed) is seed
    np.random.default_rng(seed)


def test_the_kernel_split_refuses_a_shift_beyond_the_bound_before_any_work(monkeypatch):
    # an OverflowError at the int64 clause sums, after the pair groups
    monkeypatch.setattr(strichartz, "_pair_groups", lambda *a: pytest.fail("work started"))
    packet = strichartz.sparse_packet(3, 16, 6.0, 0.5)
    for k_shift, message in ((10**30, f"magnitude at most {2**62}"),
                             (-(2**62) - 1, f"magnitude at most {2**62}"),
                             (0.5, "need an integer")):
        with pytest.raises(ValueError, match=message):
            strichartz.kernel_split_diagnostics(packet, k_shift)
