"""Source lines that no product path reaches.

Runs every product path of the package under a line collector limited to
src/wheeled_bicopter/: each command `tools/digests.py` runs on each bundled
scenario, `analyze`, `export` of the aerial_8shape runlog, one benchmark
unit of each perfbench workload at seed 0, and `pytest
tests/test_acceptance.py`.  Prints each executable source line that no job
reaches, as `path:line function source`, then the count per file.

    python tools/traffic.py

Each job runs in a fresh spawned process, one worker per usable core, with
BLAS pinned to one thread and the collector installed before the package
is imported, so module-level lines count too.  A line is executable when
the compiler gives it a line-number entry.  A job that ends with a
nonzero exit code is reported on stderr and makes the tool's exit code 1;
the lines it reached still count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ast
import contextlib
import dis
import io
import multiprocessing
import sys
import tempfile
import types
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wheeled_bicopter"


def collect(fn, *args):
    """(lines, result) of fn(*args): `lines` is the set of (path, line) it
    reaches under SRC, as the trace function sees them."""
    prefix = str(SRC) + os.sep
    reached = set()
    ours = {}  # code object -> whether it lies under SRC

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        code = frame.f_code
        mine = ours.get(code)
        if mine is None:
            mine = ours[code] = code.co_filename.startswith(prefix)
        if not mine:
            return None
        reached.add((code.co_filename, frame.f_lineno))
        return local

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return reached, result


def executable_lines(path: Path) -> set:
    """The line numbers of `path` that the compiler gives a line entry."""
    lines = set()
    codes = [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def enclosing_names(path: Path) -> dict:
    """line -> qualified name of the innermost def or class around it."""
    names = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                names.update(dict.fromkeys(range(first, child.end_lineno + 1), name))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return names


def unreached(reached: set):
    """(path, line, function, source) of each executable line under SRC
    that is not in `reached`, and Counter path -> executable line count."""
    rows, executable = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        executable[path] = len(lines)
        names = enclosing_names(path)
        source = path.read_text().splitlines()
        rows += [(path, line, names.get(line, "<module>"), source[line - 1].strip())
                 for line in sorted(lines) if (str(path), line) not in reached]
    return rows, executable


# ---------------------------------------------------------------------------
# jobs: each runs with the collector on, in a process of its own
# ---------------------------------------------------------------------------


def _cli(argv):
    from wheeled_bicopter import cli
    return cli.main(argv)


def _unit(name, out):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    unit = workloads.run_unit(workloads.WORKLOADS[name], 0, Path(out))
    return 1 if unit.problems else 0


def _pytest(path):
    import pytest
    with contextlib.redirect_stdout(io.StringIO()):
        return int(pytest.main(["-q", "-p", "no:cacheprovider", path]))


def run(job):
    """(exit code, reached lines) of one job."""
    sys.path.insert(0, str(ROOT / "src"))
    fn, *args = job
    reached, code = collect(globals()[fn], *args)
    return code, reached


def jobs(tmp: str):
    """The product jobs, `track aerial_8shape` first, and the export of the
    runlog that job writes."""
    sys.path.insert(0, str(ROOT / "tools"))
    from digests import cli, commands

    out = Path(tmp)
    track = out / "track" / "aerial_8shape"
    product = [("_cli", ["track", "--scenario", "aerial_8shape", "--out", str(track), "--quiet"]),
               ("_pytest", str(ROOT / "tests" / "test_acceptance.py"))]
    product += [("_unit", name, str(out / "unit" / name))
                for name in ("slippery_ablation", "aerial_eight", "open_loop_ground")]
    product += [("_cli", [command, "--scenario", name, "--out", str(out / command / name),
                          "--quiet"])
                for name in cli.bundled_scenario_names() for command in commands(name)
                if (command, name) != ("track", "aerial_8shape")]
    product.append(("_cli", ["analyze", "--out", str(out / "analyze"), "--quiet"]))
    export = ("_cli", ["export", "--runlog", str(track / "aerial_8shape_runlog.csv"),
                       "--out", str(out / "export"), "--quiet"])
    return product, export


def main() -> int:
    reached, failed = set(), False
    with tempfile.TemporaryDirectory() as tmp:
        product, export = jobs(tmp)
        with ProcessPoolExecutor(len(os.sched_getaffinity(0)), max_tasks_per_child=1,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = [pool.submit(run, job) for job in product]
            futures[0].result()  # the runlog that the export reads
            futures.append(pool.submit(run, export))
            for job, future in zip(product + [export], futures):
                code, lines = future.result()
                reached |= lines
                if code:
                    print(f"{' '.join(map(str, job))}: exit {code}", file=sys.stderr)
                    failed = True
    rows, executable = unreached(reached)
    for path, line, name, source in rows:
        print(f"{path.relative_to(ROOT).as_posix()}:{line} {name} {source}")
    counts = Counter(path for path, *_ in rows)
    for path, total in executable.items():
        print(f"{path.relative_to(ROOT).as_posix()}: {counts[path]} of {total} unreached")
    print(f"total: {len(rows)} of {sum(executable.values())} unreached")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
