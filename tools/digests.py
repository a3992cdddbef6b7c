"""Deterministic digests of every bundled scenario's outputs.

Runs each bundled scenario through its command-line path at full length:
`benchmark` for the slippery-ground comparison, `track` for every other
scenario, and additionally `simulate` for the scenarios with a closed-loop
trajectory.  Prints one `file sha256` line per output file, sorted, where
the hash is `cli.deterministic_digest` (wall-clock columns masked).  The
commands run in a process pool, one worker per usable core.

    python tools/digests.py
    python tools/digests.py --summaries DIR

Two checkouts print identical output exactly when every bundled scenario
produces the same bits.  BLAS is pinned to one thread before numpy loads,
so the digests do not depend on the caller's environment.  With
`--summaries DIR` every JSON output (the `*_summary.json`, `*_report.json`
and `*_openloop.json` files) is also kept under DIR, at its path below the
output directory, for `tools/compare_summaries.py`; the printed lines are
the same.
"""

import argparse
import multiprocessing
import os
import shutil

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summaries", metavar="DIR", help="also keep the JSON outputs under DIR")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        jobs = [(tmp, command, name)
                for name in cli.bundled_scenario_names() for command in commands(name)]
        with ProcessPoolExecutor(len(os.sched_getaffinity(0)),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(run, jobs))
        if args.summaries:
            for path in Path(tmp).rglob("*.json"):
                target = Path(args.summaries) / path.relative_to(tmp)
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(path, target)
    lines = []
    for (_, command, name), (code, out) in zip(jobs, results):
        if code != cli.EXIT_OK:
            print(f"{command} {name}: exit {code}", file=sys.stderr)
            return code
        lines += out
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
