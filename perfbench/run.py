"""Closed-loop benchmark of the wheeled-bicopter toolkit.

    python3 perfbench/run.py --workload aerial_eight --seed 0 --seconds 20 --trace 0

Runs one workload (see workloads.py) from the repository root's `src/`
for about `--seconds` seconds, checks its outputs, prints every metric by
name and unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

`--trace 0` gives the end-to-end metrics, measured untraced.  `--trace 1`
spends half the time untraced and half with every stage wrapped, and gives
the per-layer metrics plus the tracing overhead.  BLAS is pinned to one
thread: with default OpenBLAS threading the solve p99 varies several-fold
between identical runs.  The full record of a run, with the machine
fingerprint, is written to `.bench_out/`.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 9  # set-up-only calls per run, on top of the measured units


def _import_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "wheeled_bicopter" / "__init__.py").is_file():
        sys.exit(f"error: no wheeled_bicopter package under {SRC}")
    sys.path.insert(0, str(SRC))
    import wheeled_bicopter

    if Path(wheeled_bicopter.__file__).resolve().parent != SRC / "wheeled_bicopter":
        sys.exit(f"error: imported wheeled_bicopter from {wheeled_bicopter.__file__}")


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def fingerprint() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_build": blas.get("openblas configuration", ""),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
    }


def percentile(values, q):
    return float(numpy.percentile(values, q))


def end_to_end(units, setup, normalized: bool):
    """End-to-end metrics of the untraced units; setup holds (raw, norm) pairs."""
    k = 1 if normalized else 0
    lat = [x for u in units for x in (u.norm_latencies_ms if normalized else u.latencies_ms)]
    raw_lat = [x for u in units for x in u.latencies_ms]
    period = units[0].period_ms
    wall = sum(u.norm_wall_s if normalized else u.wall_s for u in units)
    return {
        "wall_per_sim_s": (wall / sum(u.sim_s for u in units), "s/s"),
        "solve_ms_p50": (percentile(lat, 50), "ms"),
        "solve_ms_p99": (percentile(lat, 99), "ms"),
        "deadline_miss_frac": (sum(1 for x in raw_lat if x > period) / len(raw_lat), "fraction"),
        "setup_s": (statistics.median(s[k] for s in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "rmse_m": (statistics.median([u.rmse_m for u in units if u.rmse_m is not None]
                                     or [math.nan]), "m"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads as W
    from stages import Tracer

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    wl = W.WORKLOADS[args.workload]
    bench_json = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench_json["per_layer" if args.trace else "end_to_end"]

    out_dir = ROOT / ".bench_out" / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)
    setup = [W.measure_setup(wl, args.seed, out_dir) for _ in range(SETUP_REPS)]

    budget = args.seconds / 2 if args.trace else args.seconds
    units = W.measure(wl, args.seed, budget, out_dir)
    traced = []
    if args.trace and not units[-1].error:
        tracer = Tracer()
        traced = W.measure(wl, args.seed, budget, out_dir, tracer)
    all_units = units + traced
    setup += [u.setup_s for u in all_units if u.setup_s is not None]
    problems, notes = W.gate(wl, args.seed, all_units)
    attempted = sum(u.attempted for u in all_units)
    failed = sum(u.failed for u in all_units)
    units = [u for u in units if u.latencies_ms]
    if not units:
        print(f"error: no operation completed: {problems}", file=sys.stderr)
        return 1

    e2e = end_to_end(units, setup, normalized=True)
    e2e["failed_op_frac"] = (failed / attempted, "fraction")
    raw = end_to_end(units, setup, normalized=False)
    absent, layer = [], {}
    good = [u for u in traced if u.latencies_ms]
    if good:
        wall = sum(u.wall_s for u in good)
        ticks = sum(len(u.latencies_ms) for u in good)
        if not wl.closed_loop:
            ticks += len(good)  # the first step of each unit has no gap sample
        layer, absent = tracer.metrics(
            ticks, len(good), wall, sum(u.norm_wall_s for u in good) / wall,
            sum(u.slip_steps for u in good), sum(u.log_rows for u in good))
        traced_rtf = sum(u.norm_wall_s for u in good) / sum(u.sim_s for u in good)
        layer["trace.overhead_wall_per_sim_s"] = (traced_rtf - e2e["wall_per_sim_s"][0], "s/s")
    reported = layer if args.trace else e2e

    fp = fingerprint()
    n_lat = sum(len(u.latencies_ms) for u in units)
    print(f"workload {wl.name}  seed {args.seed}  units {len(units)} untraced"
          + (f", {len(traced)} traced" if args.trace else ""))
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(f"end-to-end, untraced; latency samples n={n_lat}, set-up samples n={len(setup)};")
    print("times speed-normalized (raw in brackets):")
    for name, (value, unit) in e2e.items():
        bracket = f"  [{raw[name][0]:.6g}]" if raw.get(name, (value,))[0] != value else ""
        print(f"  {name:<24} {value:>14.6g} {unit}{bracket}")
    if args.trace:
        print("per-layer, traced:")
        for name, (value, unit) in layer.items():
            print(f"  {name:<34} {value:>14.6g} {unit}")
        for name in absent:
            print(f"  {name:<34} {'absent':>14}")
    print(f"operations attempted {attempted}, failed {failed}")
    for note in notes:
        print("note: " + note)
    for problem in problems:
        print("CHECK FAILED: " + problem)

    metrics = {m["name"]: {"value": reported[m["name"]][0], "unit": m["unit"]}
               for m in wanted
               if m["name"] in reported and math.isfinite(reported[m["name"]][0])}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(
        result, workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
        fingerprint=fp, absent=absent, problems=problems, notes=notes,
        latency_samples=n_lat, setup_samples_s=setup,
        all_metrics={k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        raw_end_to_end={k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        quantities=[u.quantities for u in all_units], digests=all_units[0].digests)
    name = f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (ROOT / ".bench_out" / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
