"""Benchmark for s3lab: time to a checked, gated result, per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bilinear-scan --seed 1 --seconds 24 --trace 0

One process runs one workload.  It sets up (imports plus input generation)
once in-process and ``SETUP_PROBES`` more times in fresh interpreters, then
repeats rounds until ``--seconds`` are spent.  Every round starts with
s3lab's caches cleared, so CG tables are built inside it, as on every CLI
run.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics.  The last line of standard output is the result object;
the line before it holds the gate values, sample counts, environment and, when
traced, the per-function table.

The end-to-end times are scaled to a reference host speed.  A short
calibration slice of fixed work, independent of s3lab, is timed before and
after every set-up probe, and within a round at the workload's step
boundaries, at most once per ``LAP_S`` seconds.  Each stretch of timed work
is multiplied by ``REFERENCE_CALIBRATION_S`` over the mean of the two slices
around it; the slices themselves are not counted.  On shared hosts whose
speed changes by tens of percent in phases of seconds, the scaled times
repeat several times more closely than the raw ones, which the detail line
keeps next to them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# Pinned before numpy loads: measured on 2 cores, a second OpenBLAS thread
# raised CPU/wall to 1.58 with no wall-time gain on the scan cells.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAYER_NAMES = ("su2", "clebsch", "bilinear", "lattice", "strichartz", "cli", "reporting")
WORKLOAD_NAMES = ("bilinear-scan", "cg-exactness", "strichartz-suite", "lattice-cli")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("accuracy_digits", "digits"))
SETUP_PROBES = 5
# Time of one calibration slice taken as the reference host speed: about
# its median on the 2-core host the baseline was measured on, in a quiet phase.
REFERENCE_CALIBRATION_S = 0.019
LAP_S = 0.25
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4
MAX_ROUNDS = 40
DIGITS_CLIP = 16.0


def set_up(workload: str, seed: int, size: str, rounds: int):
    """Import numpy, scipy and s3lab and build the workload's inputs; returns
    (seconds taken, modules, workload, inputs)."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.fft  # noqa: F401
    import scipy.special  # noqa: F401

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import s3lab

    if Path(s3lab.__file__).resolve().parent != SRC / "s3lab":
        raise RuntimeError(f"imported s3lab from {s3lab.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    s3 = SimpleNamespace(**{name: importlib.import_module(f"s3lab.{name}")
                            for name in LAYER_NAMES})
    wl = WORKLOADS[workload](s3, size)
    inputs = wl.inputs(seed, rounds)
    return time.perf_counter() - t0, s3, wl, inputs


def _probe_setup(workload: str, seed: int, size: str) -> float:
    """Set-up time of a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed), "--size", size]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _calibrator():
    """A timer of one calibration slice: fixed interpreter, FFT and matrix
    work, independent of s3lab.  The slice is three equal parts and reads
    three times the median part, so a hiccup in one part does not count."""
    import numpy as np

    rng = np.random.default_rng(0)
    mat = rng.standard_normal((192, 192))
    vec = rng.standard_normal(1 << 14) + 0j

    def part() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(35_000):
            acc += (i * i) % 7
        for _ in range(2):
            acc += float(np.abs(np.fft.ifft(vec * np.exp(1j * vec.real))).sum())
        for _ in range(9):
            acc += float((mat @ mat)[0, 0])
        return time.perf_counter() - t0

    def calibrate() -> float:
        return 3.0 * statistics.median(part() for _ in range(3))

    return calibrate


def _scaled(samples: list, calibrations: list) -> list:
    """Each sample at reference speed; ``calibrations[i]`` and
    ``calibrations[i + 1]`` were timed just before and after ``samples[i]``."""
    return [x * 2.0 * REFERENCE_CALIBRATION_S / (calibrations[i] + calibrations[i + 1])
            for i, x in enumerate(samples)]


class Stopwatch:
    """Times one round as laps separated by calibration slices.

    ``lap`` is called by the workload between steps.  Once ``LAP_S`` seconds
    have passed since the last slice it ends the lap and times a slice;
    otherwise it does nothing.  ``stop`` ends the last lap."""

    def __init__(self, calibrate):
        self.calibrate = calibrate
        self.laps: list = []
        self.cals: list = []
        self._t0 = 0.0

    def start(self) -> None:
        self.laps, self.cals = [], [self.calibrate()]
        self._t0 = time.perf_counter()

    def lap(self, force: bool = False) -> None:
        elapsed = time.perf_counter() - self._t0
        if force or elapsed >= LAP_S:
            self.laps.append(elapsed)
            self.cals.append(self.calibrate())
            self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.lap(force=True)

    def raw(self) -> float:
        return sum(self.laps)

    def scaled(self) -> float:
        return sum(_scaled(self.laps, self.cals))


def _digits(defect: float) -> float:
    if not math.isfinite(defect):
        return 0.0
    if defect <= 10.0 ** -DIGITS_CLIP:
        return DIGITS_CLIP
    return min(DIGITS_CLIP, max(0.0, -math.log10(defect)))


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _git_commit() -> str:
    """HEAD of the checkout read from .git without running git; a checkout
    without .git reads 'unknown' (the source hash still identifies it)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "s3lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_name, "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(), "source_sha256": _source_sha256(),
    }


def _jsonable(value):
    """Strict-JSON form of a gate value: non-finite numbers become strings."""
    return value if math.isfinite(value) else repr(value)


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """Run one workload; returns (result, detail)."""
    load_start = os.getloadavg()
    setup_first, s3, wl, inputs = set_up(workload, seed, size, MAX_ROUNDS)
    calibrate = _calibrator()
    setup_cals = [calibrate()]
    setup_samples = []
    for _ in range(probes):
        setup_samples.append(_probe_setup(workload, seed, size))
        setup_cals.append(calibrate())
    if not setup_samples:  # without probes, the in-process set-up stands in
        setup_samples, setup_cals = [setup_first], setup_cals * 2
    setup_scaled = _scaled(setup_samples, setup_cals)

    from layers import (OBSERVERS, PER_LAYER, TAGGERS, combine, health, round_metrics,
                        table_defects)
    from spans import Tracer, function_table, self_times

    modules = {name: getattr(s3, name) for name in LAYER_NAMES}
    caches = [obj for mod in modules.values() for obj in vars(mod).values()
              if hasattr(obj, "cache_clear")]
    cg_table, verify = s3.clebsch.cg_table, s3.clebsch.verify_orthogonality
    tracer = Tracer(modules, TAGGERS, OBSERVERS) if trace else None
    scratch_root = ROOT / ".perfbench_out" / f"{workload}-{os.getpid()}"

    walls, traced_walls, raw_walls, cpus, layer_rounds, unattributed = [], [], [], [], [], []
    lap_samples: list = []
    functions: dict = {}
    health_first: dict = {}
    gates: dict = {}
    errors: list = []
    known_defects: dict = {}
    attempted = failed = 0
    digits = DIGITS_CLIP
    min_rounds = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
    watch = Stopwatch(calibrate)
    start = time.perf_counter()
    try:
        for r in range(MAX_ROUNDS):
            traced = trace and r % 2 == 1
            for cache in caches:
                cache.cache_clear()
            scratch = scratch_root / f"r{r}"
            scratch.mkdir(parents=True)
            if traced:
                tracer.install()
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            watch.start()
            try:
                checks, defects = wl.run_round(inputs[r], scratch, watch.lap)
            except Exception:  # a round that raises is one failed check
                checks, defects = None, []
                errors.append(traceback.format_exc(limit=4))
            finally:
                watch.stop()
                elapsed = time.perf_counter() - t0
                cpu = _cpu_seconds() - cpu0
                if traced:
                    tracer.uninstall()
            shutil.rmtree(scratch)
            wall = watch.raw()
            lap_samples.append({"laps": watch.laps, "calibrations": watch.cals})

            if checks is None:
                attempted, failed = attempted + 1, failed + 1
            else:
                for item in checks.items:
                    attempted += 1
                    failed += not item["ok"]
                    seen = gates.get(item["gate"])
                    worse = seen is None or not item["ok"] or (
                        seen["ok"] and (item["value"] > seen["value"] if item["op"] == "<="
                                        else item["value"] < seen["value"]))
                    if worse:
                        gates[item["gate"]] = item
            digits = min([digits, *(_digits(d) for d in defects)])

            if traced:
                info = cg_table.cache_info()
                lookups = info.hits + info.misses
                defect_max = table_defects(tracer.spans, known_defects, verify)
                layer_rounds.append(round_metrics(
                    tracer.spans, wall, info.hits / lookups if lookups else 0.0, defect_max))
                traced_walls.append(watch.scaled())
                health_first = health_first or health(tracer.spans)
                unattributed.append(1.0 - sum(self_times(tracer.spans)) / wall)
                for name, row in function_table(tracer.spans).items():
                    acc = functions.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                    for key in acc:
                        acc[key] += row[key]
                tracer.reset()
            else:
                walls.append(watch.scaled())
                raw_walls.append(wall)
                cpus.append((cpu, elapsed))
            if r + 1 >= min_rounds and time.perf_counter() - start + elapsed > seconds:
                break
    finally:
        shutil.rmtree(scratch_root, ignore_errors=True)
        if scratch_root.parent.is_dir() and not any(scratch_root.parent.iterdir()):
            scratch_root.parent.rmdir()

    if trace:
        per = combine(layer_rounds)
        per["process.cpu_s"] = statistics.median(c for c, _ in cpus)
        per["process.cpu_util"] = statistics.median(c / e for c, e in cpus)
        per["process.wall_raw_s"] = statistics.median(raw_walls)
        per["process.calibration_s"] = statistics.median(
            c for lap in lap_samples for c in lap["calibrations"])
        per["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        per["fail_rate"] = failed / attempted
        metrics = {name: {"value": float(per[name]), "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy_digits": digits,
        }
        metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}

    env = environment()
    env["loadavg_start"], env["loadavg_end"] = list(load_start), list(os.getloadavg())
    detail = {
        "workload": workload, "seed": seed, "trace": int(trace), "size": size,
        "rounds": len(lap_samples), "wall_samples": walls, "traced_wall_samples": traced_walls,
        "wall_raw_samples": raw_walls, "lap_samples": lap_samples,
        "setup_samples": setup_scaled, "setup_raw_samples": setup_samples,
        "setup_calibration_samples": setup_cals, "setup_in_process_raw_s": setup_first,
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "fail_rate": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "gates": {name: {**g, "value": _jsonable(g["value"])} for name, g in sorted(gates.items())},
        "errors": errors[:3], "environment": env,
    }
    if trace:
        traced_rounds = len(traced_walls)
        detail["unattributed_frac"] = unattributed
        detail["health_first_traced_round"] = health_first
        detail["functions_per_round"] = {
            name: {"calls": row["calls"] / traced_rounds, "s": row["s"] / traced_rounds,
                   "self_s": row["self_s"] / traced_rounds}
            for name, row in sorted(functions.items())}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every workload at toy sizes, for the smoke tests")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used for the set-up samples)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "s3lab" / "__init__.py").is_file():
        print(f"perfbench: no s3lab sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup_s = set_up(args.workload, args.seed, args.size, MAX_ROUNDS)[0]
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(detail, allow_nan=False, sort_keys=True))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
