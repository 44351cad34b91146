"""Single command-line entry point; every experiment is a subcommand with a
reproducible seed and machine-readable CSV + JSON output.

Exit codes: 0 success, 1 invariant or construction failure, 2 invalid
arguments.  Re-running a saved manifest (``s3lab rerun x.manifest.json``)
reproduces the data outputs byte for byte.

Every subcommand is a table of ``_Entry`` rows: ``cg-table`` and
``bilinear-verify`` one row each, ``lattice-scan`` one per lemma and
``strichartz`` one per mode.  A row holds its runner and the keys its run
reads with their defaults: its runner's parameters (``_keys``).  Every row
runs a library scan through ``_scan``: its (rows, summary) are the CSV
rows, whose first row's keys are the columns, and the summary, gated off
the summary, so a new parameter, row or summary key needs no CLI code.  A
value's refusals are its runner's own (``fitting.checked``), as for a
library caller, the seed's included (``fitting.check_seed``); the CLI
checks only the selector and unknown keys.  ``main`` and ``rerun`` share one resolver, ``_run``: a
command line, a config and a manifest are read alike, the manifest records
the resolved keys, and every exit code comes from ``_gate``.  The parser
sets no default.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import bilinear, clebsch, gates, lattice, strichartz
from .clebsch import CGConstructionError
from .fitting import InputError
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
    """One subcommand, strichartz mode or lattice lemma.  Its keys are its
    runner's parameters (``_keys``); its CSV columns are its rows' keys."""

    keys: dict  # every key the run reads, with its default (None: a required key)
    run: Callable  # args -> (CSV rows, summary, gate checks [(what, value, bound)])


def _known(value, table: dict, what: str) -> bool:
    """Whether value is a key of table; if not, one stderr line names it.
    Manifests and configs are JSON, so value can be None, a number or a list."""
    if isinstance(value, str) and value in table:
        return True
    print(f"unknown {what} {value!r} (allowed: {', '.join(table)})", file=sys.stderr)
    return False


def _keys(function, fixed=()) -> dict:
    """The parameters of function but fixed, ``t_window`` as ``window``,
    with their defaults; None for a required one."""
    return {"window" if p.name == "t_window" else p.name: None if p.default is p.empty
            else p.default for p in inspect.signature(function).parameters.values()
            if p.name not in fixed}


def _cg_gate(summary):
    # np.max propagates a NaN; the builtin may drop it
    worst = float(np.max([summary["max_row_defect"], summary["max_col_defect"]]))
    return [("orthogonality defect", worst, gates.CG_DEFECT_BOUND)]


def _bilinear_gate(summary):
    return [("C*", summary["C_star"], gates.C_STAR_BOUND),
            ("|slope|", abs(summary["fitted_slope"]), gates.SLOPE_BOUND),
            ("quadrature cross-check gap", summary["quadrature_cross_check_rel"],
             gates.CROSS_CHECK_TOL),
            ("zonal minimum", summary["zonal_min"], gates.ZONAL_FLOOR, "floor")]


def _scan(module, name: str, gate: Callable, **fixed) -> _Entry:
    """The row of library scan module.<name>, its keys read once by ``_keys``.
    Its runner looks the scan up when it runs (so a stub changes no key),
    calls it with the row's keys (``window`` as ``t_window``) and fixed,
    then gate(summary)."""
    def run(args):
        kwargs = {"t_window" if key == "window" else key: value for key, value in args.items()}
        rows, summary = getattr(module, name)(**kwargs, **fixed)
        return rows, summary, gate(summary)
    return _Entry(_keys(getattr(module, name), fixed), run)


def _lemma53_gate(summary):
    # np.max propagates a NaN; the builtin max may drop it
    worst = float(np.max(list(summary["max_ratio_per_N"].values())))
    return [("fitted slope", summary["fitted_slope"], gates.SLOPE_BOUND),
            ("largest normalized ratio", worst, gates.SETB_BOUND)]


def _lemma52(variant: str) -> _Entry:
    return _scan(lattice, "scan_lemma52",
                 lambda s: [("fitted exponent", s["fitted_exponent"], gates.EXPONENT_BOUND)],
                 variant=variant)


_LEMMAS = {
    "5.1": _scan(lattice, "scan_lemma51",
                 lambda s: [("measure/K ratio", s["max_ratio"], gates.ANNULUS_BOUND)]),
    "5.2a": _lemma52("quadric"),
    "5.2b": _lemma52("hyperbola"),
    "5.3": _scan(lattice, "scan_lemma53", _lemma53_gate),
}


def _fitted_slope(summary):
    return [("fitted slope", summary["fitted_slope"], gates.SLOPE_BOUND)]


_MODES = {
    "elliptic": _scan(strichartz, "scan_strichartz_quotients", _fitted_slope),
    "slab": _scan(strichartz, "strichartz_quotient", lambda s: []),
    "hyperbolic": _scan(strichartz, "scan_hyperbolic_quotients", _fitted_slope),
    "quadrilinear": _scan(strichartz, "quadrilinear_check",
                          lambda s: [("Plancherel mismatch", s["relative_mismatch"],
                                      gates.PLANCHEREL_EXACT_TOL)]),
    "kernel-split": _scan(strichartz, "kernel_split_check",
                          lambda s: [("cover failure", int(not s["cover_ok"]), 0),
                                     ("Gamma mass beyond K1 + K2",
                                      s["gamma_mass_excess"], gates.GAMMA_MASS_TOL)]),
    "box-scaling": _scan(strichartz, "box_scaling_probe",
                         lambda s: [("spread factor", s["spread_factor"], gates.BOX_SPREAD_BOUND)]),
}


_SUBCOMMANDS = {  # subcommand -> (selector key, {its value: entry}, output name)
    "cg-table": (None, {None: _scan(clebsch, "cg_table_check", _cg_gate)}, "cg_table_m{m}_n{n}"),
    "bilinear-verify": (None, {None: _scan(bilinear, "scan_cells", _bilinear_gate)},
                        "bilinear_verify"),
    "lattice-scan": ("lemma", _LEMMAS, "lattice_{lemma}"),
    "strichartz": ("mode", _MODES, "strichartz_{mode}"),
}


def _run(subcommand: str, params: dict, out_dir: Path) -> int:
    """The one resolver of ``main`` and ``rerun``, then the run: pick the
    entry by its selector, refuse a key it does not read, fill each missing
    key from its default and run it (its runner checks the values first).
    Each refusal exits 2 with one stderr line, before any work.  Then write
    the outputs, the resolved keys in the manifest, and gate."""
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
    args = {key: params.get(key, default) for key, default in entry.keys.items()}
    resolved = {**args, selector: choice} if selector else args
    name = name.format(**resolved).replace(".", "_").replace("-", "_")
    try:
        rows, summary, checks = entry.run(args)
    except InputError as exc:
        named = (f"{'window' if k == 't_window' else k} {v!r}" for k, v in zip(exc.keys, exc.values))
        print(f"bad {', '.join(named)}: {exc}", file=sys.stderr)
        return 2
    except CGConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    paths = write_run_outputs(out_dir, name, rows, summary,
                              build_manifest(subcommand, resolved, seed=resolved.get("seed")))
    print(f"wrote {paths['csv']}")
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
    out = argparse.ArgumentParser(add_help=False)  # every subcommand's --out
    out.add_argument("--out")

    p = sub.add_parser("cg-table", parents=[out], help="build and verify one Clebsch-Gordan table")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("bilinear-verify", parents=[out],
                       help="bilinear ratio scan on the three-sphere")
    for option in ("--m-max", "--n-max", "--seeds", "--seed"):
        p.add_argument(option, type=int)

    p = sub.add_parser("lattice-scan", parents=[out], help="measure/counting lemma scans; an "
                                                           "option the lemma does not read exits 2")
    p.add_argument("--lemma", choices=list(_LEMMAS), required=True)
    for option in ("--seed", "--n-queries", "--per-n", "--per-config"):
        p.add_argument(option, type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--N", type=int, action="append", dest="Ns")

    p = sub.add_parser("strichartz", parents=[out], help="space-time norm experiments on R x T")
    p.add_argument("--mode", required=True, choices=list(_MODES))
    p.add_argument("--config", help="JSON object overriding the mode's defaults")
    p.add_argument("--seed", type=int)

    sub.add_parser("rerun", parents=[out], help="re-run a saved manifest").add_argument("manifest")
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
