"""Deterministic digests of every bundled scenario's outputs.

Runs each bundled scenario through its command-line path at full length:
`benchmark` for the slippery-ground comparison, `track` for every other
scenario, and additionally `simulate` for the scenarios with a closed-loop
trajectory.  Prints one `file sha256` line per output file, sorted, where
the hash is `cli.deterministic_digest` (wall-clock columns masked).  The
commands run in a process pool, one worker per usable core.

    python tools/digests.py
    python tools/digests.py --summaries DIR
    python tools/digests.py --kernels DIR

Two checkouts print identical output exactly when every bundled scenario
produces the same bits.  BLAS is pinned to one thread before numpy loads,
so the digests do not depend on the caller's environment.  With
`--summaries DIR` every JSON output (the `*_summary.json`, `*_report.json`
and `*_openloop.json` files) is also kept under DIR, at its path below the
output directory, for `tools/compare_summaries.py`; the printed lines are
the same.

With `--kernels DIR` the digest set runs three times: as above, then in a
child process under each of two CPU kernel settings,
`OPENBLAS_CORETYPE=Haswell` (the BLAS kernels of an AVX2-only host) and
`NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"` (numpy's AVX2
loops).  Only the environment of those child processes changes.  Each
run's JSON outputs are kept under DIR/default, DIR/haswell and DIR/avx2
(DIR must be new or empty).  After the default run's lines it prints, for
each setting, how many output files' digests differ from the default
run's, then the `tools/compare_summaries.py` report of the two runs' JSON
outputs: each field's largest delta between the kernels.  A setting whose
run fails (a host that rejects it) is skipped with a note on stderr.
"""

import argparse
import importlib.util
import multiprocessing
import os
import shutil

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wheeled_bicopter import cli  # noqa: E402

CLOSED_LOOP_KINDS = {"eight_ground", "eight_aerial", "hybrid_3d", "rest_hover"}


def commands(name: str):
    kind = cli.load_bundled_scenario(name)["trajectory"].get("kind")
    if name == "benchmark_slippery":
        yield "benchmark"
        return
    yield "track"
    if kind in CLOSED_LOOP_KINDS:
        yield "simulate"


def run(job):
    """Exit code and `file sha256` lines of one command on one bundled
    scenario, whose outputs go under the directory `tmp`."""
    tmp, command, name = job
    out = Path(tmp) / command / name
    code = cli.main([command, "--scenario", name, "--out", str(out), "--quiet"])
    lines = []
    if code == cli.EXIT_OK:
        for path in sorted(out.rglob("*")):
            if path.is_file():
                lines.append(f"{path.relative_to(tmp).as_posix()} {cli.deterministic_digest(path)}")
    return code, lines


def digest_set(summaries):
    """(exit code, sorted digest lines) of the whole set, keeping the JSON
    outputs under `summaries` unless it is None."""
    with tempfile.TemporaryDirectory() as tmp:
        jobs = [(tmp, command, name)
                for name in cli.bundled_scenario_names() for command in commands(name)]
        with ProcessPoolExecutor(len(os.sched_getaffinity(0)),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(run, jobs))
        if summaries:
            for path in Path(tmp).rglob("*.json"):
                target = Path(summaries) / path.relative_to(tmp)
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(path, target)
    lines = []
    for (_, command, name), (code, out) in zip(jobs, results):
        if code != cli.EXIT_OK:
            print(f"{command} {name}: exit {code}", file=sys.stderr)
            return code, []
        lines += out
    return 0, sorted(lines)


def kernel_report(root: Path, default, runs):
    """Lines comparing each kernel run (name, setting, digest lines) with
    the default run's digest lines: the count of output files whose digest
    differs, then the `tools/compare_summaries.py` report of root/default
    against root/NAME."""
    spec = importlib.util.spec_from_file_location(
        "compare_summaries", Path(__file__).resolve().with_name("compare_summaries.py"))
    compare_summaries = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_summaries)
    out = []
    for name, setting, lines in runs:
        a, b = (dict(line.rsplit(" ", 1) for line in side) for side in (default, lines))
        differ = sum(a.get(path) != b.get(path) for path in a.keys() | b.keys())
        out.append(f"kernels {name} ({setting}): {differ} of {len(a)} digests differ")
        out += compare_summaries.compare(root / "default", root / name)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    keep = parser.add_mutually_exclusive_group()
    keep.add_argument("--summaries", metavar="DIR", help="also keep the JSON outputs under DIR")
    keep.add_argument("--kernels", metavar="DIR",
                      help="also run under two other CPU kernel settings, keep every run's "
                           "JSON outputs under DIR and print their deltas")
    args = parser.parse_args()
    root = Path(args.kernels) if args.kernels else None
    if root is not None and root.exists() and any(root.iterdir()):
        parser.error(f"--kernels {root} is not empty")
    code, lines = digest_set(root / "default" if root else args.summaries)
    if code != 0:
        return code
    print("\n".join(lines))
    if root is None:
        return 0
    runs = []
    for name, var, value in (("haswell", "OPENBLAS_CORETYPE", "Haswell"),
                             ("avx2", "NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR")):
        setting = f"{var}={value}"
        child = subprocess.run(
            [sys.executable, __file__, "--summaries", str(root / name)],
            env={**os.environ, var: value}, capture_output=True, text=True)
        if child.returncode != 0:
            reason = (child.stderr.strip().splitlines() or [f"exit {child.returncode}"])[-1]
            print(f"kernels {name} ({setting}) skipped: {reason}", file=sys.stderr)
            continue
        runs.append((name, setting, child.stdout.splitlines()))
    print("\n".join(kernel_report(root, lines, runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
