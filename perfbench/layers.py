"""Per-layer metrics of the traced run: the taggers and observers the tracer
attaches to s3lab's public functions, and the reduction of one traced round's
spans to named metrics.

Every metric is reported on every workload; a layer a workload does not
exercise reads 0 there.  Times and counts are per round.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.fft

from spans import ancestor, function_table, self_times

LAYER_NAMES = ("su2", "clebsch", "bilinear", "lattice", "strichartz", "cli", "reporting")

SCAN_CELLS = tuple((m, n) for m in (8, 16, 32, 64) for n in (4, 8, 16, 32, 64) if n <= m)
ELLIPTIC_NS = (8, 16, 32, 64)
HYPERBOLIC_NS = (4, 8, 16, 32)
MN_BUCKETS = ((0, 32), (33, 64), (65, 128), (129, 200))
LATTICE_FUNCTIONS = ("setB_measure", "count_quadric", "count_hyperbola", "annulus_measure")

PER_LAYER = (
    [("su2.wigner_d.calls", "count"), ("su2.wigner_d.s", "s"),
     ("su2.irrep_matrix.calls", "count"), ("su2.irrep_matrix.s", "s"),
     ("su2.haar_quadrature.s", "s"),
     ("clebsch.cg_decompose.calls", "count"), ("clebsch.cg_decompose.s", "s")]
    + [(f"clebsch.cg_decompose.s.mn_{lo}-{hi}", "s") for lo, hi in MN_BUCKETS]
    + [("clebsch.cg_table.hit_ratio", "ratio"),
       ("clebsch.verify_orthogonality.s", "s"), ("clebsch.chain_projectors.s", "s"),
       ("clebsch.casimir_projectors.s", "s"), ("clebsch.defect_max", "err"),
       ("bilinear.product_norm2_batch.calls", "count"),
       ("bilinear.product_norm2_batch.pairs", "count"),
       ("bilinear.product_norm2_batch.s", "s")]
    + [(f"bilinear.product_norm2_batch.ms_per_pair.m{m}n{n}", "ms") for m, n in SCAN_CELLS]
    + [("bilinear.bilinear_ratio_scan.self_s", "s"), ("bilinear.zonal_pair_ratio.s", "s"),
       ("bilinear.zonal_dev_max", "err"), ("bilinear.product_l2_exact.s", "s"),
       ("bilinear.product_l2_quadrature.s", "s"), ("bilinear.product_decompose.s", "s")]
    + [(f"lattice.{fn}.{key}", unit) for fn in LATTICE_FUNCTIONS
       for key, unit in (("calls", "count"), ("s", "s"))]
    + [("strichartz.evolve_l4_norm.calls", "count"), ("strichartz.evolve_l4_norm.s", "s")]
    + [(f"strichartz.evolve_l4_norm.s.N{N}", "s") for N in ELLIPTIC_NS]
    + [("strichartz.evolve_l4_norm.ns_per_sample", "ns"),
       ("strichartz.evolve_l4_norm.nt_ratio_min", "ratio"),
       ("strichartz.evolve_l4_norm.truncation_frac_max", "ratio")]
    + [(f"strichartz.hyperbolic_l4_quotient.s.N{N}", "s") for N in HYPERBOLIC_NS]
    + [("strichartz.quadrilinear_form_frequency.calls", "count"),
       ("strichartz.quadrilinear_form_frequency.s", "s"),
       ("strichartz.quadrilinear_form_frequency.nodes_max", "count"),
       ("strichartz.kernel_split_diagnostics.s", "s"),
       ("strichartz.kernel_split_diagnostics.tuples", "count"),
       ("cli.main.self_s", "s"), ("cli.run_manifest.self_s", "s"),
       ("reporting.write_run_outputs.s", "s"), ("reporting.write_run_outputs.bytes", "B")]
    + [(f"layer.{layer}.self_frac", "ratio") for layer in LAYER_NAMES]
    + [("process.cpu_s", "s"), ("process.cpu_util", "ratio"),
       ("process.wall_raw_s", "s"), ("process.calibration_s", "s"),
       ("trace.overhead_frac", "ratio"), ("fail_rate", "ratio")]
)

# How a metric combines over the traced rounds of one run; the rest are means.
_COMBINE_MAX = {"clebsch.defect_max", "bilinear.zonal_dev_max",
                "strichartz.quadrilinear_form_frequency.nodes_max",
                "strichartz.evolve_l4_norm.truncation_frac_max"}
_COMBINE_MIN = {"strichartz.evolve_l4_norm.nt_ratio_min"}


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _observe_evolve(args, kwargs, result, originals):
    """n_t used against the anti-aliasing n_t needed, truncation, FFT size."""
    packet = _arg(args, kwargs, 0, "p")
    k_shift = _arg(args, kwargs, 1, "k_shift", 0)
    dispersion = _arg(args, kwargs, 2, "dispersion", "elliptic")
    t0, t1, n_t = _arg(args, kwargs, 3, "t_window", (-60.0, 60.0, 1024))
    n_t = int(n_t) + int(n_t) % 2
    need = originals["strichartz.anti_alias_nt"](packet, k_shift, dispersion, t0, t1)
    cols = np.flatnonzero(np.any(packet.values != 0, axis=0)) - packet.grid.imax
    fft_len = scipy.fft.next_fast_len(4 * int(np.max(np.abs(cols))) + 2)
    return {"n_t": n_t, "need_nt": need, "nt_ratio": n_t / need,
            "samples": (n_t + 1) * fft_len, "fft_len": fft_len,
            "truncation": result.truncation_rel}


TAGGERS = {
    "clebsch.cg_decompose": lambda a, k: _arg(a, k, 0, "m") + _arg(a, k, 1, "n"),
    "bilinear.product_norm2_batch": lambda a, k: (
        _arg(a, k, 0, "table").m, _arg(a, k, 0, "table").n, len(_arg(a, k, 1, "abatch"))),
    "bilinear.zonal_pair_ratio": lambda a, k: (_arg(a, k, 0, "m"), _arg(a, k, 1, "n")),
    "strichartz.strichartz_quotient": lambda a, k: int(_arg(a, k, 0, "slab").N),
    "strichartz.hyperbolic_l4_quotient": lambda a, k: (
        int(_arg(a, k, 0, "N")), int(_arg(a, k, 1, "trials"))),
}

OBSERVERS = {
    "clebsch.cg_decompose": lambda a, k, result, o: result,
    "bilinear.zonal_pair_ratio": lambda a, k, result, o: abs(result - 1.0),
    "strichartz.evolve_l4_norm": _observe_evolve,
    "strichartz.quadrilinear_form_frequency": lambda a, k, result, o: _arg(a, k, 0, "p").support_count(),
    "strichartz.kernel_split_diagnostics": lambda a, k, result, o: result.tuple_count,
    "reporting.write_run_outputs": lambda a, k, result, o: sum(
        os.path.getsize(path) for path in result.values()),
}


def table_defects(spans: list, known: dict, verify) -> float:
    """Worst orthogonality defect among the CG tables built in this round.

    ``known`` caches the defect per (m, n) across rounds; ``verify`` is the
    untraced ``clebsch.verify_orthogonality``.
    """
    worst = 0.0
    for span in spans:
        if span[0] == "clebsch.cg_decompose" and span[5] is not None:
            table = span[5]
            key = (table.m, table.n)
            if key not in known:
                rep = verify(table)
                known[key] = max(rep["max_row_defect"], rep["max_col_defect"])
            worst = max(worst, known[key])
            span[5] = None
    return worst


def round_metrics(spans: list, wall: float, hit_ratio: float, defect_max: float) -> dict:
    """Per-layer metrics of one traced round lasting ``wall`` seconds."""
    table = function_table(spans)
    own = self_times(spans)

    def get(name, key):
        return table.get(name, {}).get(key, 0)

    out = {}
    for name in ("su2.wigner_d", "su2.irrep_matrix", "clebsch.cg_decompose",
                 "bilinear.product_norm2_batch", "strichartz.evolve_l4_norm",
                 "strichartz.quadrilinear_form_frequency",
                 *(f"lattice.{fn}" for fn in LATTICE_FUNCTIONS)):
        out[f"{name}.calls"] = get(name, "calls")
    for name in ("su2.wigner_d", "su2.irrep_matrix", "su2.haar_quadrature",
                 "clebsch.cg_decompose", "clebsch.verify_orthogonality",
                 "clebsch.chain_projectors", "clebsch.casimir_projectors",
                 "bilinear.product_norm2_batch", "bilinear.zonal_pair_ratio",
                 "bilinear.product_l2_exact", "bilinear.product_l2_quadrature",
                 "bilinear.product_decompose", "strichartz.evolve_l4_norm",
                 "strichartz.quadrilinear_form_frequency",
                 "strichartz.kernel_split_diagnostics", "reporting.write_run_outputs",
                 *(f"lattice.{fn}" for fn in LATTICE_FUNCTIONS)):
        out[f"{name}.s"] = get(name, "s")
    for name in ("bilinear.bilinear_ratio_scan", "cli.main", "cli.run_manifest"):
        out[f"{name}.self_s"] = get(name, "self_s")

    buckets = {bounds: 0.0 for bounds in MN_BUCKETS}
    cell_time = {cell: 0.0 for cell in SCAN_CELLS}
    cell_pairs = {cell: 0 for cell in SCAN_CELLS}
    per_n = {N: 0.0 for N in ELLIPTIC_NS}
    hyp_time = {N: 0.0 for N in HYPERBOLIC_NS}
    hyp_packets = {N: 0 for N in HYPERBOLIC_NS}
    pairs = samples = tuples = bytes_written = nodes_max = 0
    zonal_dev = truncation = 0.0
    nt_ratios = []
    for i, span in enumerate(spans):
        name, tag, dur, extra = span[0], span[1], span[3] - span[2], span[5]
        if name == "clebsch.cg_decompose":
            for lo, hi in MN_BUCKETS:
                if lo <= tag <= hi:
                    buckets[(lo, hi)] += dur
        elif name == "bilinear.product_norm2_batch":
            pairs += tag[2]
            if tag[:2] in cell_time and ancestor(spans, i, "bilinear.bilinear_ratio_scan"):
                cell_time[tag[:2]] += dur
                cell_pairs[tag[:2]] += tag[2]
        elif name == "bilinear.zonal_pair_ratio":
            zonal_dev = max(zonal_dev, extra)
        elif name == "strichartz.evolve_l4_norm":
            samples += extra["samples"]
            nt_ratios.append(extra["nt_ratio"])
            truncation = max(truncation, extra["truncation"])
            scan = ancestor(spans, i, "strichartz.strichartz_quotient")
            if scan is not None and scan[1] in per_n:
                per_n[scan[1]] += dur
        elif name == "strichartz.hyperbolic_l4_quotient" and tag[0] in hyp_time:
            hyp_time[tag[0]] += dur
            hyp_packets[tag[0]] += tag[1]
        elif name == "strichartz.quadrilinear_form_frequency":
            nodes_max = max(nodes_max, extra)
        elif name == "strichartz.kernel_split_diagnostics":
            tuples += extra
        elif name == "reporting.write_run_outputs":
            bytes_written += extra

    for (lo, hi), value in buckets.items():
        out[f"clebsch.cg_decompose.s.mn_{lo}-{hi}"] = value
    out["clebsch.cg_table.hit_ratio"] = hit_ratio
    out["clebsch.defect_max"] = defect_max
    out["bilinear.product_norm2_batch.pairs"] = pairs
    for (m, n) in SCAN_CELLS:
        out[f"bilinear.product_norm2_batch.ms_per_pair.m{m}n{n}"] = (
            1e3 * cell_time[(m, n)] / cell_pairs[(m, n)] if cell_pairs[(m, n)] else 0.0)
    out["bilinear.zonal_dev_max"] = zonal_dev
    for N in ELLIPTIC_NS:
        out[f"strichartz.evolve_l4_norm.s.N{N}"] = per_n[N]
    out["strichartz.evolve_l4_norm.ns_per_sample"] = (
        1e9 * get("strichartz.evolve_l4_norm", "s") / samples if samples else 0.0)
    out["strichartz.evolve_l4_norm.nt_ratio_min"] = min(nt_ratios, default=0.0)
    out["strichartz.evolve_l4_norm.truncation_frac_max"] = truncation
    for N in HYPERBOLIC_NS:
        out[f"strichartz.hyperbolic_l4_quotient.s.N{N}"] = (
            hyp_time[N] / hyp_packets[N] if hyp_packets[N] else 0.0)
    out["strichartz.quadrilinear_form_frequency.nodes_max"] = nodes_max
    out["strichartz.kernel_split_diagnostics.tuples"] = tuples
    out["reporting.write_run_outputs.bytes"] = bytes_written
    for layer in LAYER_NAMES:
        out[f"layer.{layer}.self_frac"] = sum(
            t for span, t in zip(spans, own) if span[0].startswith(layer + ".")) / wall
    return out


def health(spans: list) -> dict:
    """Per-call health figures of one traced round: |zonal - 1| per (m, n)
    cell, and per ``evolve_l4_norm`` call the n_t used, the n_t
    ``anti_alias_nt`` asks for, the FFT length and the window truncation."""
    zonal, evolve = {}, []
    for span in spans:
        if span[0] == "bilinear.zonal_pair_ratio":
            key = "%d,%d" % span[1]
            zonal[key] = max(zonal.get(key, 0.0), span[5])
        elif span[0] == "strichartz.evolve_l4_norm":
            evolve.append({k: span[5][k] for k in ("n_t", "need_nt", "fft_len", "truncation")})
    return {"zonal_dev_per_cell": zonal, "evolve_l4_norm_calls": evolve}


def combine(rounds: list) -> dict:
    """Reduce the per-round metric dicts of the traced rounds to one."""
    out = {}
    for key in rounds[0]:
        values = [r[key] for r in rounds]
        if key in _COMBINE_MAX:
            out[key] = max(values)
        elif key in _COMBINE_MIN:
            out[key] = min(values)
        else:
            out[key] = float(np.mean(values))
    return out
