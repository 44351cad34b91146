"""Single command-line entry point; every experiment is a subcommand with a
reproducible seed and machine-readable CSV + JSON output.

Exit codes: 0 success, 1 invariant or construction failure, 2 invalid
arguments.  Re-running a saved manifest (``s3lab rerun x.manifest.json``)
reproduces the data outputs byte for byte.

Every subcommand is a table of ``_Entry`` rows: ``cg-table`` and
``bilinear-verify`` one row each, ``lattice-scan`` one per lemma and
``strichartz`` one per mode.  A row holds the keys its run reads with their
defaults, the checks made before any work, the CSV header and the runner;
``_run`` checks the seed of every row that reads one.
The parser sets no default.  ``main`` and ``rerun`` share one resolver,
``_run``, so a command line, a config and a manifest are read the same way;
the manifest records the resolved keys.  Every exit code comes from
``_gate``.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import bilinear, gates, lattice, strichartz
from .clebsch import CGConstructionError, cg_decompose, cg_table, verify_orthogonality
from .fitting import check_count, check_fit_xs
from .reporting import build_manifest, default_out_dir, write_run_outputs


def _gate(checks) -> int:
    """1 if any check is breached, naming each breach with its value and
    bound on stderr; 0 otherwise.  A (what, value, bound) check needs
    value <= bound, a (what, value, bound, "floor") check value >= bound."""
    code = 0
    for what, value, bound, *floor in checks:
        # "not" of the comparison makes a NaN value a breach
        if not (value >= bound if floor else value <= bound):
            print(f"{what} {value:.4g} {'is below' if floor else 'exceeds'} {bound:g}",
                  file=sys.stderr)
            code = 1
    return code


class _Entry(NamedTuple):
    """One subcommand, strichartz mode or lattice lemma."""

    keys: dict  # every key the run reads, with its default
    header: list  # CSV header
    run: Callable  # args -> _Result, or its first three fields
    # key -> check run before any work, returning the value to run with; a
    # tuple of keys -> a check across their values, converting nothing
    checks: dict = {}


class _Result(NamedTuple):
    """A runner's CSV rows, summary and gate checks [(what, value, bound)];
    a note for the "wrote" line and extra files {suffix: writer(path)}."""

    rows: list
    summary: dict
    checks: list
    note: str = ""
    files: dict = {}


def _known(value, table: dict, what: str) -> bool:
    """Whether value is a key of table; if not, one stderr line names it.
    Manifests and configs are JSON, so value can be None, a number or a list."""
    if isinstance(value, str) and value in table:
        return True
    print(f"unknown {what} {value!r} (allowed: {', '.join(table)})", file=sys.stderr)
    return False


def _integer(value):
    # a manifest can carry a float, a string or a bool where argparse gives an int
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError("need an integer")
    return value


def _seed(value):
    # np.random.default_rng takes a non-negative integer; a bool is refused
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError("seed must be a non-negative integer")
    return value


def _one_of(*allowed):
    """The check that a value is one of allowed, in type too (1 is not True)."""
    def check(value):
        if not any(type(value) is type(a) and value == a for a in allowed):
            raise ValueError(f"need one of {', '.join(map(repr, allowed))}")
        return value
    return check


def _cg_degrees(m, n):
    if not (m >= n >= 0) or m + n > 200:
        raise ValueError("need m >= n >= 0 and m + n <= 200")


def _cg_table(a):
    table = cg_decompose(a["m"], a["n"])
    report = verify_orthogonality(table)
    rows = [
        {"m": r[0], "n": r[1], "k": r[2], "gamma": r[3], "alpha": r[4],
         "beta": r[5], "value": r[6]}
        for r in table.records()
    ]
    summary = {
        "rows": len(rows),
        "dimension_identity": table.dimension_identity(),
        **report,
    }
    # np.max propagates a NaN; the builtin may drop it
    worst = float(np.max([report["max_row_defect"], report["max_col_defect"]]))
    return _Result(rows, summary, [("orthogonality defect", worst, gates.CG_DEFECT_BOUND)],
                   f"  (defects: row {report['max_row_defect']:.3g}, "
                   f"col {report['max_col_defect']:.3g})",
                   {".table.json": table.to_json} if a["format"] == "json" else {})


def _bilinear_cells(m_max, n_max):
    m_values = [m for m in (8, 16, 32, 64) if m <= m_max] or [m_max]
    return [(m, n) for m in m_values
            for n in [0] + [n for n in (4, 8, 16, 32, 64) if n <= min(m, n_max)]]


def _two_fit_ns(m_max, n_max):
    # the no-growth fit runs over every cell, n = 0 included, and needs two
    # distinct n; refuse before any work rather than report a made-up slope
    fit_ns = sorted({n for (_, n) in _bilinear_cells(m_max, n_max)})
    if len(fit_ns) < 2:
        raise ValueError(f"the no-growth fit needs cells at two or more n; "
                         f"--m-max {m_max} --n-max {n_max} gives n = {fit_ns}")


def _bilinear_verify(a):
    seed = a["seed"]
    rows = []
    cell_max = {}
    witnesses = []
    for m, n in _bilinear_cells(a["m_max"], a["n_max"]):
        ratios = bilinear.bilinear_ratio_scan(m, n, a["seeds"], [seed, m, n])
        for i, r in enumerate(ratios):
            rows.append({"m": m, "n": n, "seed": i, "ratio": float(r)})
        # the zonal witness pair saturates the bound; random maxima decay
        # like (n+1)^(-1/2), so the flatness fit runs on witness-included
        # cell maxima
        witness = bilinear.zonal_pair_ratio(m, n)
        rows.append({"m": m, "n": n, "seed": "zonal", "ratio": witness})
        witnesses.append(witness)
        # np.max propagates a NaN; the builtin max may drop it
        cell_max[(m, n)] = float(np.max([*ratios, witness]))
    maxima = np.array(list(cell_max.values()))
    slope = bilinear.fit_slope([np.log(n + 1.0) for (_, n) in cell_max], maxima)
    c_star = float(np.max(maxima))
    summary = {
        "C_star": c_star,
        "argmax_cell": str(list(cell_max)[int(np.argmax(maxima))]),
        "fitted_slope": slope,
        "cell_max": {f"{m},{n}": v for (m, n), v in cell_max.items()},
    }
    checks = [("C*", c_star, gates.C_STAR_BOUND), ("|slope|", abs(slope), gates.SLOPE_BOUND)]
    if a["cross_check"]:
        from .su2 import haar_quadrature

        rels, defects = [0.0], [0.0]
        for (m, n) in cell_max:
            if m > 8:
                continue
            report = verify_orthogonality(cg_table(m, n))
            defects += [report["max_row_defect"], report["max_col_defect"]]
            quad = haar_quadrature(bilinear.recommended_levels(m + n))
            for s in range(3):
                f = bilinear.random_eigenfunction(m, [seed, m, n, s, 0])
                g = bilinear.random_eigenfunction(n, [seed, m, n, s, 1])
                exact = bilinear.product_l2_exact(f, g)
                approx = bilinear.product_l2_quadrature(f, g, quad)
                rels.append(abs(exact - approx) / max(exact, 1e-300))
        # np.max and np.min propagate a NaN; the builtins may drop it
        worst = float(np.max(rels))
        summary["quadrature_cross_check_rel"] = worst
        summary["quadrature_cross_check_ok"] = bool(worst <= gates.CROSS_CHECK_TOL)
        # the worst orthogonality defect of the CG tables behind the exact norms
        summary["cg_defect_max"] = float(np.max(defects))
        checks.append(("quadrature cross-check gap", worst, gates.CROSS_CHECK_TOL))
    if a["zonal"]:
        zr = {n: bilinear.zonal_ratio(n) for n in range(1, a["zonal_n_max"] + 1)}
        summary["zonal_ratios"] = {str(n): v for n, v in zr.items()}
        summary["zonal_min"] = float(np.min(list(zr.values())))
        checks.append(("zonal minimum", summary["zonal_min"], gates.ZONAL_FLOOR, "floor"))
        witnesses += zr.values()
    # each witness is 1 by the character product rule; np.max propagates a NaN
    summary["witness_dev_max"] = float(np.max(np.abs(np.array(witnesses) - 1.0)))
    return _Result(rows, summary, checks, f"  (C* = {c_star:.6g}, slope = {slope:.4f})")


def _scan(name: str, gate: Callable, **fixed) -> Callable:
    """The runner of one lattice lemma: lattice.<name>, looked up when the
    row runs, called with the row's keys and fixed, then gate(summary)."""
    def run(args):
        rows, summary = getattr(lattice, name)(**args, **fixed)
        return rows, summary, gate(summary)
    return run


def _lemma53_gate(summary):
    # np.max propagates a NaN; the builtin max may drop it
    worst = float(np.max(list(summary["max_ratio_per_N"].values())))
    return [("fitted slope", summary["fitted_slope"], gates.SLOPE_BOUND),
            ("largest normalized ratio", worst, gates.SETB_BOUND)]


def _lemma52(variant: str) -> _Entry:
    return _Entry({"seed": 11, "Ns": (64, 128, 256, 512), "per_n": 500},
                  ["lemma", "N", "k", "C", "value", "normalized_ratio"],
                  _scan("scan_lemma52", lambda s: [("fitted exponent", s["fitted_exponent"],
                                                    gates.EXPONENT_BOUND)], variant=variant),
                  {"per_n": partial(check_count, "per_n"), "Ns": check_fit_xs})


_LEMMAS = {
    "5.1": _Entry({"seed": 11, "n_queries": 10000},
                  ["lemma", "C", "K", "xi2_center", "value", "normalized_ratio"],
                  _scan("scan_lemma51",
                        lambda s: [("measure/K ratio", s["max_ratio"], gates.ANNULUS_BOUND)]),
                  {"n_queries": partial(check_count, "n_queries")}),
    "5.2a": _lemma52("quadric"),
    "5.2b": _lemma52("hyperbola"),
    "5.3": _Entry({"seed": 11, "Ns": (64, 128, 256, 512, 1024), "delta": 0.1, "per_config": 3},
                  ["lemma", "case", "N", "M", "l", "k", "C", "value", "normalized_ratio"],
                  _scan("scan_lemma53", _lemma53_gate),
                  {"per_config": partial(check_count, "per_config"), "Ns": check_fit_xs}),
}


_SLAB_FIELDS = ("xi0", "a", "c", "M", "N")


def _slab_spec(record) -> strichartz.SlabSpec:
    """The SlabSpec of a config's slab record; ValueError naming a missing
    record, a missing or unknown key, a value SlabSpec refuses, or an N
    above the cap of ``strichartz.check_ns``."""
    fields = f"a slab record has the keys {', '.join(_SLAB_FIELDS)}"
    if not isinstance(record, dict):
        raise ValueError(fields)
    problems = ([f"missing {key}" for key in _SLAB_FIELDS if key not in record]
                + [f"unknown {key}" for key in sorted(set(record) - set(_SLAB_FIELDS))])
    if problems:
        raise ValueError(f"{', '.join(problems)}; {fields}")
    try:
        spec = strichartz.SlabSpec(xi0=tuple(record["xi0"]), a=tuple(record["a"]),
                                   c=record["c"], M=record["M"], N=record["N"])
    except (TypeError, IndexError) as exc:
        raise ValueError(str(exc)) from None
    strichartz.check_ns([spec.N])
    return spec


def _lattice_h(h):
    strichartz.lattice_q(h)
    return h


def _grid_step(h):
    if isinstance(h, bool) or not isinstance(h, numbers.Real) or not (math.isfinite(h) and h > 0):
        raise ValueError("h must be a finite positive number")
    return h


def _fitted_slope(summary):
    return [("fitted slope", summary["fitted_slope"], gates.SLOPE_BOUND)]


def _elliptic(a):
    rows, summary = strichartz.scan_strichartz_quotients(
        a["Ns"], a["delta"], a["trials"], a["seed"], h=a["h"], t_window=a["window"])
    return rows, summary, _fitted_slope(summary)


def _slab(a):
    rep = strichartz.strichartz_quotient(a["slab"], a["delta"], a["trials"], a["seed"],
                                         h=a["h"], t_window=a["window"])
    summary = {"max_quotient": rep.max_quotient, "argmax": rep.argmax,
               "flags": list(rep.warnings)}
    return [dict(r) for r in rep.rows], summary, []


def _hyperbolic(a):
    rows, summary = strichartz.scan_hyperbolic_quotients(
        a["Ns"], a["trials"], a["seed"], h=a["h"], t_window=a["window"])
    return rows, summary, _fitted_slope(summary)


def _quadrilinear(a):
    pkt = strichartz.sparse_packet(a["seed"], 24, 6.0, 0.5)
    freq = strichartz.quadrilinear_form_frequency(pkt, 0)
    res = strichartz.evolve_l4_norm_exact(pkt, 0, "elliptic")
    mismatch = abs(res.quartic - freq) / freq
    rows = [{"trial": 0, "frequency_side": freq, "time_side": res.quartic,
             "relative_mismatch": mismatch}]
    summary = {"relative_mismatch": mismatch, "time_rule": "periodic-exact",
               "n_nodes": res.n_nodes, "flags": list(res.warnings)}
    return rows, summary, [("Plancherel mismatch", mismatch, gates.PLANCHEREL_EXACT_TOL)]


def _kernel_split(a):
    pkt = strichartz.sparse_packet(a["seed"], 16, 6.0, 0.5)
    rep = strichartz.kernel_split_diagnostics(pkt, a["k_shift"])
    rows = [{"gamma_total": rep.gamma_total, "K1_part": rep.K1_part,
             "K2_part": rep.K2_part, "tuples": rep.tuple_count,
             "cover_ok": rep.cover_ok}]
    summary = {"cover_ok": rep.cover_ok, "K1_plus_K2_ge_gamma":
               rep.K1_part + rep.K2_part >= rep.gamma_total - gates.GAMMA_MASS_TOL}
    return rows, summary, [("cover failure", int(not rep.cover_ok), 0),
                           ("Gamma mass beyond K1 + K2",
                            rep.gamma_total - (rep.K1_part + rep.K2_part), gates.GAMMA_MASS_TOL)]


def _box_scaling(a):
    rows, summary = strichartz.box_scaling_probe(a["Ns"], h=a["h"])
    return rows, summary, [("spread factor", summary["spread_factor"], gates.BOX_SPREAD_BOUND)]


_TRIALS = partial(check_count, "trials")
# the hyperbolic scan and the box probe build their grids from int(N)
_whole_ns = partial(strichartz.check_ns, integral=True)
_SCAN_CHECKS = {"Ns": lambda Ns: strichartz.check_ns(check_fit_xs(Ns)), "trials": _TRIALS,
                "h": _grid_step, "window": strichartz.check_window}


_MODES = {
    "elliptic": _Entry({"seed": 3, "Ns": (8, 16, 32, 64), "delta": 0.1, "trials": 6, "h": 0.125,
                        "window": (-60.0, 60.0, 8192)},
                       ["N", "M_kind", "M", "trial", "a2", "quotient"], _elliptic,
                       {**_SCAN_CHECKS, "delta": strichartz.check_delta}),
    "slab": _Entry({"seed": 3, "slab": None, "delta": 0.1, "trials": 8, "h": 0.125,
                    "window": (-60.0, 60.0, 8192)},
                   ["trial", "quotient"], _slab,
                   {"slab": _slab_spec, "delta": strichartz.check_delta, "trials": _TRIALS,
                    "h": _grid_step, "window": strichartz.check_window}),
    "hyperbolic": _Entry({"seed": 3, "Ns": (4, 8, 16, 32, 64), "trials": 3, "h": 0.5,
                          "window": (-60.0, 60.0, 4096)},
                         ["trial", "N", "quotient"], _hyperbolic,
                         {**_SCAN_CHECKS, "Ns": lambda Ns: _whole_ns(check_fit_xs(Ns))}),
    "quadrilinear": _Entry({"seed": 3},
                           ["trial", "frequency_side", "time_side", "relative_mismatch"],
                           _quadrilinear),
    "kernel-split": _Entry({"seed": 3, "k_shift": 0},
                           ["gamma_total", "K1_part", "K2_part", "tuples", "cover_ok"],
                           _kernel_split, {"k_shift": _integer}),
    "box-scaling": _Entry({"seed": 3, "Ns": (4, 8, 16, 32), "h": 0.25},
                          ["N", "n_t", "norm", "ratio"],
                          _box_scaling, {"Ns": _whole_ns, "h": _lattice_h}),
}


_SUBCOMMANDS = {  # subcommand -> (selector key, {its value: entry}, output name)
    "cg-table": (None, {None: _Entry(
        {"m": None, "n": None, "format": "csv"},
        ["m", "n", "k", "gamma", "alpha", "beta", "value"], _cg_table,
        {"m": _integer, "n": _integer, ("m", "n"): _cg_degrees, "format": _one_of("csv", "json")})},
        "cg_table_m{m}_n{n}"),
    "bilinear-verify": (None, {None: _Entry(
        {"m_max": 64, "n_max": 64, "seeds": 500, "seed": 7, "zonal": False,
         "zonal_n_max": 60, "cross_check": False},
        ["m", "n", "seed", "ratio"], _bilinear_verify,
        # a gate over the zonal witnesses alone would pass on no random pair
        {"m_max": _integer, "n_max": _integer, ("m_max", "n_max"): _two_fit_ns,
         "seeds": partial(check_count, "seeds"), "zonal": _one_of(False, True),
         "cross_check": _one_of(False, True),
         "zonal_n_max": lambda n: check_count("zonal_n_max", _integer(n))})},
        "bilinear_verify"),
    "lattice-scan": ("lemma", _LEMMAS, "lattice_{lemma}"),
    "strichartz": ("mode", _MODES, "strichartz_{mode}"),
}


def _run(subcommand: str, params: dict, out_dir: Path) -> int:
    """The one resolver of ``main`` and ``rerun``, then the run.  Before any
    work: pick the entry by its selector, refuse a key it does not read,
    fill each missing key from its default and run its checks (each refusal
    exits 2 with one stderr line).  Then run it, write the outputs with the
    resolved keys, as given, in the manifest, and gate."""
    selector, table, name = _SUBCOMMANDS[subcommand]
    choice = params.get(selector)
    if selector and not _known(choice, table, selector):
        return 2
    entry = table[choice]
    unknown = sorted(set(params) - {selector} - set(entry.keys))
    if unknown:
        print(f"unknown keys for {f'{selector} {choice}' if selector else subcommand}: "
              f"{', '.join(f'{k} {params[k]!r}' for k in unknown)} "
              f"(allowed: {', '.join(sorted(entry.keys))})", file=sys.stderr)
        return 2
    raw = {key: params.get(key, default) for key, default in entry.keys.items()}
    args = dict(raw)
    # every entry that reads a seed checks it first, the same way
    checks = {"seed": _seed, **entry.checks} if "seed" in entry.keys else entry.checks
    for key, check in checks.items():
        keys = key if isinstance(key, tuple) else (key,)
        try:
            value = check(*(args[k] for k in keys))
        except ValueError as exc:
            print(f"bad {', '.join(f'{k} {raw[k]!r}' for k in keys)}: {exc}", file=sys.stderr)
            return 2
        if key in args:
            args[key] = value
    if selector:
        raw[selector] = choice
    name = name.format(**raw).replace(".", "_").replace("-", "_")
    try:
        rows, summary, checks, note, files = _Result(*entry.run(args))
    except CGConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    paths = write_run_outputs(out_dir, name, entry.header, rows, summary,
                              build_manifest(subcommand, raw, seed=raw.get("seed")))
    print(f"wrote {paths['csv']}{note}")
    for suffix, write in files.items():
        write(out_dir / f"{name}{suffix}")
    return _gate(checks)


def run_manifest(manifest_path, out_dir=None) -> int:
    """Re-run a saved manifest; outputs are byte-identical to the original.
    A missing or unknown subcommand, or params that are missing or not an
    object, exit 2 before any work, naming what the manifest holds."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    sub, params = manifest.get("subcommand"), manifest.get("params")
    if not _known(sub, _SUBCOMMANDS, "manifest subcommand"):
        return 2
    if not isinstance(params, dict):
        print(f"manifest params {params!r} is not an object", file=sys.stderr)
        return 2
    return _run(sub, params, Path(out_dir) if out_dir is not None else Path(manifest_path).parent)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="s3lab")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cg-table", help="build and verify one Clebsch-Gordan table")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--out")

    p = sub.add_parser("bilinear-verify", help="bilinear ratio scan on the three-sphere")
    p.add_argument("--m-max", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--seeds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--zonal", action="store_true", default=None)
    p.add_argument("--zonal-n-max", type=int)
    p.add_argument("--cross-check", action="store_true", default=None,
                   help="verify exact norms against the quadrature oracle (m <= 8)")
    p.add_argument("--out")

    p = sub.add_parser("lattice-scan", help="measure/counting lemma scans; an option the "
                                            "lemma does not read exits 2")
    p.add_argument("--lemma", choices=list(_LEMMAS), required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--n-queries", type=int)
    p.add_argument("--per-n", type=int)
    p.add_argument("--per-config", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--N", type=int, action="append", dest="Ns")
    p.add_argument("--out")

    p = sub.add_parser("strichartz", help="space-time norm experiments on R x T")
    p.add_argument("--mode", required=True, choices=list(_MODES))
    p.add_argument("--config", help="JSON object overriding the mode's defaults")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = sub.add_parser("rerun", help="re-run a saved manifest")
    p.add_argument("manifest")
    p.add_argument("--out")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "rerun":
        return run_manifest(args.manifest, args.out)
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "out", "config") and v is not None}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        # a config may not switch the mode that --mode picked
        if not isinstance(config, dict) or "mode" in config:
            print(f"config {args.config} must be a JSON object without a mode key; "
                  f"got {config!r}", file=sys.stderr)
            return 2
        params.update(config)
    return _run(args.command, params, Path(args.out) if args.out else default_out_dir())


if __name__ == "__main__":
    sys.exit(main())
