"""Reproducible run artifacts: manifests, CSV and JSON emission, hashing.

Every CLI run writes three files: ``<name>.csv`` (data rows under the first
row's keys), ``<name>.summary.json`` (summary object embedding the
deterministic part of the manifest), and ``<name>.manifest.json`` (the
manifest plus a wall-clock timestamp and the environment).  The timestamp
and the environment live only in the manifest sidecar so that re-running a
manifest reproduces the data files byte for byte.  Summaries
are strict JSON: a non-finite float is written as the string "nan", "inf"
or "-inf".
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from ._chunks import threads

TOOL_VERSION = "0.1.0"
OUT_ENV_VAR = "S3LAB_OUT"


def default_out_dir() -> Path:
    return Path(os.environ.get(OUT_ENV_VAR, "."))


def build_manifest(subcommand: str, params: dict, seed) -> dict:
    return {
        "subcommand": subcommand,
        "params": params,
        "seed": seed,
        "tool_version": TOOL_VERSION,
    }


def environment() -> dict:
    """What a run's numbers were computed with: the Python, numpy and scipy
    versions and the threads of the chunk loops (``_chunks.threads``)."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "chunk_threads": threads()}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.17g}") if math.isfinite(obj) else repr(float(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def write_csv(path: Path, header: list, rows: list) -> None:
    """Write rows (dicts; a missing key writes an empty cell) under header.
    Each row goes through one %-format string, built once per tuple of cell
    types, that writes each cell as _fmt does: an int (a bool too) as %d, a
    float (numpy's float64 too) as %.17g, anything else as %s."""
    formats = {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = tuple([row.get(col, "") for col in header])
            types = tuple(map(type, cells))
            if types not in formats:
                formats[types] = ",".join(
                    "%d" if issubclass(t, int) else "%.17g" if issubclass(t, float) else "%s"
                    for t in types) + "\n"
            fh.write(formats[types] % cells)


def write_run_outputs(out_dir: Path, name: str, rows: list, summary: dict, manifest: dict) -> dict:
    """Write the CSV (its columns the first row's keys, in order), summary
    JSON and manifest sidecar (timestamp and environment); returns paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    summary_path = out_dir / f"{name}.summary.json"
    manifest_path = out_dir / f"{name}.manifest.json"
    write_csv(csv_path, list(rows[0]) if rows else [], rows)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(_round_floats({"manifest": manifest, "summary": summary}),
                  fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")
    stamped = dict(manifest)
    stamped["timestamp"] = datetime.now(timezone.utc).isoformat()
    stamped["environment"] = environment()
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(stamped, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return {"csv": csv_path, "summary": summary_path, "manifest": manifest_path}


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()
