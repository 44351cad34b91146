"""Single command-line entry point; every experiment is a subcommand with a
reproducible seed and machine-readable CSV + JSON output.

Exit codes: 0 success, 1 invariant or construction failure, 2 invalid
arguments.  Re-running a saved manifest (``s3lab rerun x.manifest.json``)
reproduces the data outputs byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bilinear, gates, lattice, strichartz
from .clebsch import CGConstructionError, cg_decompose, verify_orthogonality
from .fitting import check_fit_xs
from .reporting import build_manifest, default_out_dir, write_run_outputs


def _fit_ns_ok(Ns) -> bool:
    """Whether a slope fitted over log N is defined: it needs two or more
    distinct N.  Says why on stderr when it is not."""
    try:
        check_fit_xs(Ns)
    except ValueError as exc:
        print(f"the fit over N = {list(Ns)} is undefined: {exc}", file=sys.stderr)
        return False
    return True


def _run_cg_table(params: dict, out_dir: Path) -> int:
    m, n = params["m"], params["n"]
    if not (m >= n >= 0) or m + n > 200:
        print("need m >= n >= 0 and m + n <= 200", file=sys.stderr)
        return 2
    try:
        table = cg_decompose(m, n)
    except CGConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
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
    manifest = build_manifest("cg-table", params, seed=None)
    name = f"cg_table_m{m}_n{n}"
    paths = write_run_outputs(out_dir, name, ["m", "n", "k", "gamma", "alpha", "beta", "value"],
                              rows, summary, manifest)
    if params.get("format") == "json":
        table.to_json(out_dir / f"{name}.table.json")
    print(f"wrote {paths['csv']}  (defects: row {report['max_row_defect']:.3g}, "
          f"col {report['max_col_defect']:.3g})")
    # np.max propagates a NaN; the builtin may drop it
    worst = float(np.max([report["max_row_defect"], report["max_col_defect"]]))
    if not worst <= gates.CG_DEFECT_BOUND:
        print(f"orthogonality defect {worst:.3g} beyond {gates.CG_DEFECT_BOUND:g}",
              file=sys.stderr)
        return 1
    return 0


def _run_bilinear_verify(params: dict, out_dir: Path) -> int:
    m_max, n_max = params["m_max"], params["n_max"]
    seeds, seed = params["seeds"], params["seed"]
    m_values = [m for m in (8, 16, 32, 64) if m <= m_max] or [m_max]
    cells = [(m, n) for m in m_values
             for n in [0] + [n for n in (4, 8, 16, 32, 64) if n <= min(m, n_max)]]
    # the no-growth fit runs over every cell, n = 0 included, and needs two
    # distinct n; refuse before any work rather than report a made-up slope
    fit_ns = sorted({n for (_, n) in cells})
    if len(fit_ns) < 2:
        print(f"the no-growth fit needs cells at two or more n; "
              f"--m-max {m_max} --n-max {n_max} gives n = {fit_ns}", file=sys.stderr)
        return 2
    if params.get("zonal") and params["zonal_n_max"] < 1:
        print(f"--zonal-n-max must be >= 1; got {params['zonal_n_max']}", file=sys.stderr)
        return 2
    rows = []
    cell_max = {}
    for m, n in cells:
        ratios = bilinear.bilinear_ratio_scan(m, n, seeds, [seed, m, n])
        for i, r in enumerate(ratios):
            rows.append({"m": m, "n": n, "seed": i, "ratio": float(r)})
        # the zonal witness pair saturates the bound; random maxima decay
        # like (n+1)^(-1/2), so the flatness fit runs on witness-included
        # cell maxima
        witness = bilinear.zonal_pair_ratio(m, n)
        rows.append({"m": m, "n": n, "seed": "zonal", "ratio": witness})
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
    if params.get("cross_check"):
        from .su2 import haar_quadrature

        rels = [0.0]
        for (m, n) in cell_max:
            if m > 8:
                continue
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
    if params.get("zonal"):
        zr = {n: bilinear.zonal_ratio(n) for n in range(1, params["zonal_n_max"] + 1)}
        summary["zonal_ratios"] = {str(n): v for n, v in zr.items()}
        summary["zonal_min"] = float(np.min(list(zr.values())))
    manifest = build_manifest("bilinear-verify", params, seed=seed)
    paths = write_run_outputs(out_dir, "bilinear_verify", ["m", "n", "seed", "ratio"],
                              rows, summary, manifest)
    print(f"wrote {paths['csv']}  (C* = {summary['C_star']:.6g}, slope = {slope:.4f})")
    if not (np.isfinite(c_star) and np.isfinite(slope)):
        print(f"non-finite result: C* = {c_star}, slope = {slope}", file=sys.stderr)
        return 1
    if abs(slope) > gates.SLOPE_BOUND:
        print(f"no-growth assertion failed: |slope| = {abs(slope):.4f} > {gates.SLOPE_BOUND}",
              file=sys.stderr)
        return 1
    if params.get("cross_check") and not summary["quadrature_cross_check_ok"]:
        print(f"quadrature cross-check failed: worst relative gap "
              f"{summary['quadrature_cross_check_rel']} (tolerance {gates.CROSS_CHECK_TOL})",
              file=sys.stderr)
        return 1
    if params.get("zonal") and not np.isfinite(summary["zonal_min"]):
        print(f"non-finite zonal minimum: {summary['zonal_min']}", file=sys.stderr)
        return 1
    return 0


_LATTICE_HEADERS = {
    "5.1": ["lemma", "C", "K", "xi2_center", "value", "normalized_ratio"],
    "5.2a": ["lemma", "N", "k", "C", "value", "normalized_ratio"],
    "5.2b": ["lemma", "N", "k", "C", "value", "normalized_ratio"],
    "5.3": ["lemma", "case", "N", "M", "l", "k", "C", "value", "normalized_ratio"],
}


def _run_lattice_scan(params: dict, out_dir: Path) -> int:
    lemma, seed = params["lemma"], params["seed"]
    kwargs = {}
    if lemma == "5.1":
        count = "n_queries"
        kwargs["n_queries"] = params.get("n_queries", 10000)
    elif lemma in ("5.2a", "5.2b"):
        count = "per_n"
        kwargs["Ns"] = params.get("Ns", [64, 128, 256, 512])
        kwargs["per_n"] = params.get("per_n", 500)
    else:
        count = "per_config"
        kwargs["Ns"] = params.get("Ns", [64, 128, 256, 512, 1024])
        kwargs["delta"] = params.get("delta", 0.1)
        kwargs["per_config"] = params.get("per_config", 3)
    # refuse before any work, as for a one-N fit: a gate over no samples
    # would pass on nothing
    try:
        lattice.check_count(count, kwargs[count])
    except ValueError as exc:
        print(f"the scan would gate on no samples: {exc}", file=sys.stderr)
        return 2
    if "Ns" in kwargs and not _fit_ns_ok(kwargs["Ns"]):
        return 2
    rows, summary = lattice.scan_constants(lemma, seed, **kwargs)
    manifest = build_manifest("lattice-scan", params, seed=seed)
    name = f"lattice_{lemma.replace('.', '_')}"
    paths = write_run_outputs(out_dir, name, _LATTICE_HEADERS[lemma], rows, summary, manifest)
    print(f"wrote {paths['csv']}")
    if lemma == "5.1":
        checks = [("measure/K ratio", summary["max_ratio"], gates.ANNULUS_BOUND)]
    elif lemma in ("5.2a", "5.2b"):
        checks = [("fitted exponent", summary["fitted_exponent"], gates.EXPONENT_BOUND)]
    else:
        # np.max propagates a NaN; the builtin max may drop it
        worst = float(np.max(list(summary["max_ratio_per_N"].values())))
        checks = [("fitted slope", summary["fitted_slope"], gates.SLOPE_BOUND),
                  ("largest normalized ratio", worst, gates.SETB_BOUND)]
    code = 0
    for what, value, bound in checks:
        # "not <=" makes a NaN value a breach
        if not value <= bound:
            print(f"{what} {value:.4g} exceeds {bound}", file=sys.stderr)
            code = 1
    return code


def _small_random_packet(seed, n_nodes: int = 24, N: float = 6.0, h: float = 0.5):
    slab = strichartz.SlabSpec(xi0=(0.0, 0), a=(1.0, 0.0), c=0.0, M=N, N=N)
    grid = strichartz.grid_for_slab(slab, h=h)
    rng = np.random.default_rng(seed)
    mask = strichartz.slab_mask(slab, grid)
    idx = np.argwhere(mask)
    pick = idx[rng.choice(len(idx), size=min(n_nodes, len(idx)), replace=False)]
    vals = np.zeros(mask.shape, dtype=complex)
    vals[pick[:, 0], pick[:, 1]] = rng.standard_normal(len(pick)) + 1j * rng.standard_normal(len(pick))
    vals /= np.sqrt(grid.h) * np.linalg.norm(vals)
    return strichartz.WavePacket(grid=grid, values=vals)


# the config keys each strichartz mode reads, besides "mode" and "seed"
_STRICHARTZ_KEYS = {
    "elliptic": {"Ns", "delta", "trials", "h", "window"},
    "hyperbolic": {"Ns", "trials", "h", "window"},
    "quadrilinear": set(),
    "kernel-split": {"k_shift"},
    "box-scaling": {"Ns", "h"},
}
# an elliptic config with a "slab" record is a single-slab run, which reads these
_SLAB_KEYS = {"slab", "delta", "trials", "grid", "window"}
# the scans read "window" as a list [t_min, t_max, n_t]; a single-slab run
# reads it as a record with these keys and defaults
_SCAN_WINDOWS = {"elliptic": (-60.0, 60.0, 8192), "hyperbolic": (-60.0, 60.0, 4096)}
_SLAB_WINDOW = {"t_min": -60.0, "t_max": 60.0, "n_t": 8192}


def _config_window(params: dict, mode: str):
    """The (t_min, t_max, n_t) window of an elliptic or hyperbolic run,
    checked before any work; None after naming the bad window on stderr."""
    given = params.get("window")
    if mode == "elliptic" and "slab" in params:
        record = {} if given is None else given
        if not isinstance(record, dict) or set(record) - set(_SLAB_WINDOW):
            print(f"bad window {given!r}: a single-slab run reads a record with keys "
                  f"{', '.join(_SLAB_WINDOW)}", file=sys.stderr)
            return None
        window = tuple(record.get(key, default) for key, default in _SLAB_WINDOW.items())
    else:
        window = _SCAN_WINDOWS[mode] if given is None else given
    try:
        return strichartz.check_window(window)
    except ValueError as exc:
        print(f"bad window {given!r}: {exc}", file=sys.stderr)
        return None


def _run_strichartz(params: dict, out_dir: Path) -> int:
    mode, seed = params["mode"], params["seed"]
    if mode not in _STRICHARTZ_KEYS:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    allowed = _SLAB_KEYS if mode == "elliptic" and "slab" in params else _STRICHARTZ_KEYS[mode]
    unknown = sorted(set(params) - {"mode", "seed"} - allowed)
    if unknown:
        print(f"unknown config keys for mode {mode!r}: {', '.join(unknown)} "
              f"(allowed: {', '.join(sorted(allowed))})", file=sys.stderr)
        return 2
    if mode in _SCAN_WINDOWS:
        t_window = _config_window(params, mode)
        if t_window is None:
            return 2
    if mode == "box-scaling":
        try:
            strichartz.lattice_q(params.get("h", 0.25))
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
    manifest = build_manifest("strichartz", params, seed=seed)
    name = f"strichartz_{mode.replace('-', '_')}"
    code = 0
    if mode == "elliptic":
        if "slab" in params:
            # single-slab run from a config record
            sl = params["slab"]
            slab = strichartz.SlabSpec(xi0=tuple(sl["xi0"]), a=tuple(sl["a"]),
                                       c=sl["c"], M=sl["M"], N=sl["N"])
            rep = strichartz.strichartz_quotient(
                slab, params.get("delta", 0.1), params.get("trials", 8), seed,
                h=params.get("grid", {}).get("h", 0.125), t_window=t_window)
            rows = [dict(r) for r in rep.rows]
            header = ["trial", "quotient"]
            summary = {"max_quotient": rep.max_quotient, "argmax": rep.argmax,
                       "flags": list(rep.warnings)}
        else:
            Ns = params.get("Ns", [8, 16, 32, 64])
            if not _fit_ns_ok(Ns):
                return 2
            rows, summary = strichartz.scan_strichartz_quotients(
                Ns, params.get("delta", 0.1), params.get("trials", 6), seed,
                h=params.get("h", 0.125), t_window=t_window)
            header = ["N", "M_kind", "M", "trial", "a2", "quotient"]
            if not summary["fitted_slope"] <= gates.SLOPE_BOUND:
                code = 1
    elif mode == "hyperbolic":
        Ns = params.get("Ns", [4, 8, 16, 32, 64])
        if not _fit_ns_ok(Ns):
            return 2
        rows, summary = strichartz.scan_hyperbolic_quotients(
            Ns, params.get("trials", 3), seed, h=params.get("h", 0.5), t_window=t_window)
        header = ["trial", "N", "quotient"]
        if not summary["fitted_slope"] <= gates.SLOPE_BOUND:
            code = 1
    elif mode == "quadrilinear":
        pkt = _small_random_packet(seed)
        freq = strichartz.quadrilinear_form_frequency(pkt, 0)
        res = strichartz.evolve_l4_norm_exact(pkt, 0, "elliptic")
        mismatch = abs(res.quartic - freq) / freq
        rows = [{"trial": 0, "frequency_side": freq, "time_side": res.quartic,
                 "relative_mismatch": mismatch}]
        header = ["trial", "frequency_side", "time_side", "relative_mismatch"]
        summary = {"relative_mismatch": mismatch, "time_rule": "periodic-exact",
                   "n_nodes": res.n_nodes, "flags": list(res.warnings)}
        if not mismatch <= gates.PLANCHEREL_EXACT_TOL:
            code = 1
    elif mode == "kernel-split":
        pkt = _small_random_packet(seed, n_nodes=16)
        rep = strichartz.kernel_split_diagnostics(pkt, params.get("k_shift", 0))
        rows = [{"gamma_total": rep.gamma_total, "K1_part": rep.K1_part,
                 "K2_part": rep.K2_part, "tuples": rep.tuple_count,
                 "cover_ok": rep.cover_ok}]
        header = ["gamma_total", "K1_part", "K2_part", "tuples", "cover_ok"]
        summary = {"cover_ok": rep.cover_ok,
                   "K1_plus_K2_ge_gamma": rep.K1_part + rep.K2_part >= rep.gamma_total - 1e-12}
        if not rep.cover_ok:
            code = 1
    elif mode == "box-scaling":
        Ns = params.get("Ns", [4, 8, 16, 32])
        rows, summary = strichartz.box_scaling_probe(Ns, h=params.get("h", 0.25))
        header = ["N", "n_t", "norm", "ratio"]
        if not summary["spread_factor"] <= gates.BOX_SPREAD_BOUND:
            code = 1
    paths = write_run_outputs(out_dir, name, header, rows, summary, manifest)
    print(f"wrote {paths['csv']}")
    if code:
        print("invariant breach detected; see summary", file=sys.stderr)
    return code


_HANDLERS = {
    "cg-table": _run_cg_table,
    "bilinear-verify": _run_bilinear_verify,
    "lattice-scan": _run_lattice_scan,
    "strichartz": _run_strichartz,
}


def run_manifest(manifest_path, out_dir=None) -> int:
    """Re-run a saved manifest; outputs are byte-identical to the original."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    sub = manifest["subcommand"]
    out = Path(out_dir) if out_dir is not None else Path(manifest_path).parent
    return _HANDLERS[sub](manifest["params"], out)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="s3lab")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cg-table", help="build and verify one Clebsch-Gordan table")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("bilinear-verify", help="bilinear ratio scan on the three-sphere")
    p.add_argument("--m-max", type=int, default=64)
    p.add_argument("--n-max", type=int, default=64)
    p.add_argument("--seeds", type=int, default=500)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--zonal", action="store_true")
    p.add_argument("--zonal-n-max", type=int, default=60)
    p.add_argument("--cross-check", action="store_true",
                   help="verify exact norms against the quadrature oracle (m <= 8)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("lattice-scan", help="measure/counting lemma scans")
    p.add_argument("--lemma", choices=["5.1", "5.2a", "5.2b", "5.3"], required=True)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--n-queries", type=int, default=10000)
    p.add_argument("--per-n", type=int, default=500)
    p.add_argument("--per-config", type=int, default=3)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--N", type=int, action="append", dest="Ns")
    p.add_argument("--out", default=None)

    p = sub.add_parser("strichartz", help="space-time norm experiments on R x T")
    p.add_argument("--mode", required=True,
                   choices=["elliptic", "hyperbolic", "quadrilinear", "kernel-split", "box-scaling"])
    p.add_argument("--config", default=None, help="JSON file overriding defaults")
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--out", default=None)

    p = sub.add_parser("rerun", help="re-run a saved manifest")
    p.add_argument("manifest")
    p.add_argument("--out", default=None)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "rerun":
        return run_manifest(args.manifest, args.out)
    out_dir = Path(args.out) if args.out else default_out_dir()
    if args.command == "cg-table":
        params = {"m": args.m, "n": args.n, "format": args.format}
    elif args.command == "bilinear-verify":
        params = {"m_max": args.m_max, "n_max": args.n_max, "seeds": args.seeds,
                  "seed": args.seed, "zonal": args.zonal, "zonal_n_max": args.zonal_n_max,
                  "cross_check": args.cross_check}
    elif args.command == "lattice-scan":
        params = {"lemma": args.lemma, "seed": args.seed,
                  "n_queries": args.n_queries, "per_n": args.per_n,
                  "per_config": args.per_config, "delta": args.delta}
        if args.Ns:
            params["Ns"] = args.Ns
    else:
        params = {"mode": args.mode, "seed": args.seed}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                params.update(json.load(fh))
    return _HANDLERS[args.command](params, out_dir)


if __name__ == "__main__":
    sys.exit(main())
