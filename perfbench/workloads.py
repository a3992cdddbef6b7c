"""The three benchmark workloads and their correctness checks.

Each workload is one closed or open loop driven from a single process
through a public entry point of `wheeled_bicopter.cli`, with an output
directory as `--out` would give.  A *unit* is one entry call; a run repeats
units until its time is used up.

Why these three (see README.md for the per-layer map):

* `aerial_eight`: reference- and condensation-heavy, trivial QP; the only
  workload whose inputs depend on the seed (measurement noise).
* `slippery_ablation`: the only workload where the active-set QP does real
  work (lock_lateral equality rows, active wheel-normal soft rows,
  stick/slip plant).
* `open_loop_ground`: reference sampling and the ground plant only; the
  bypass workload for any NMPC change or reference cache.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from wheeled_bicopter import cli
from wheeled_bicopter.core import DivergenceError, InfeasibleReferenceError

from stages import (Probe, SetupDone, Tracer, normalized_wall, patched, perf, speed_factor,
                    tick_factors)

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# unplanned aborts: an operation lost to one of these is a failed operation
ABORTS = (cli.SolverFailure, DivergenceError, InfeasibleReferenceError)


@dataclass
class UnitResult:
    """One entry call.  Times are raw, with a speed-normalized twin where
    the benchmark reports them (see stages.speed_factor)."""

    wall_s: float
    norm_wall_s: float
    sim_s: float
    latencies_ms: List[float]
    norm_latencies_ms: List[float]
    period_ms: float
    attempted: int
    failed: int
    setup_s: Optional[Tuple[float, float]]  # raw, normalized
    slip_steps: int
    log_rows: int
    rmse_m: Optional[float] = None
    quantities: Dict[str, object] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    error: Optional[str] = None


@dataclass
class Workload:
    name: str
    scenario: str
    closed_loop: bool
    edit: Callable[[dict], None]
    entry: Callable
    report: Callable  # (entry result, probe, out_dir) -> (rmse, quantities, digests, problems)
    noise_free: bool

    def config(self, seed: int):
        doc = cli.load_bundled_scenario(self.scenario)
        self.edit(doc)
        doc["seed"] = seed
        return cli.ScenarioConfig.from_dict(doc, self.scenario)


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _summary_quantities(summary: dict) -> dict:
    keys = ("ticks", "rmse_m", "rmse_3d_m", "mean_power_W", "slip_steps",
            "lift_off_events", "statuses")
    return {k: summary[k] for k in keys}


# -- aerial_eight -----------------------------------------------------------


def _aerial_edit(doc: dict) -> None:
    doc["environment"]["noise_pos_std"] = 0.002
    doc["environment"]["noise_att_std"] = 0.002


def _aerial_report(result, probe: Probe, out_dir: Path):
    s = result.summary
    problems = []
    if s["stopped_early"]:
        problems.append("aerial_eight stopped early")
    if not s["rmse_m"] < 0.05:
        problems.append(f"rmse_m {s['rmse_m']} not below 0.05")
    if abs(s["peak_speed_ref"] - 2.9) > 0.05:
        problems.append(f"peak_speed_ref {s['peak_speed_ref']} not within 0.05 of 2.9")
    if not s["peak_accel_ref"] <= 3.0 + 1e-6:
        problems.append(f"peak_accel_ref {s['peak_accel_ref']} above 3.0")
    if s["ticks"] != probe.loops[0].planned:
        problems.append(f"{s['ticks']} ticks, planned {probe.loops[0].planned}")
    names = {p.name for p in result.files}
    for suffix in ("_runlog.csv", "_simlog.csv", "_summary.json"):
        if f"aerial_8shape{suffix}" not in names:
            problems.append(f"aerial_8shape{suffix} not written")
    digests = {p.name: cli.deterministic_digest(p) for p in result.files if p.suffix == ".csv"}
    return s["rmse_m"], _summary_quantities(s), digests, problems


# -- slippery_ablation ------------------------------------------------------


def _slippery_edit(doc: dict) -> None:
    doc["trajectory"]["speed_cases"] = [[2.0, 1.8]]


def _slippery_report(report, probe: Probe, out_dir: Path):
    problems = []
    cases = {c["variant"]: c for c in report["cases"]}
    summaries = {("no_lateral" if "_no_lateral_" in r.name else "full"): r.summary
                 for r in probe.results}
    full = cases.get("full", {})
    if not full.get("completed"):
        problems.append(f"full variant did not complete: {full}")
    elif not full["rmse_m"] < 0.12:
        problems.append(f"full variant rmse_m {full['rmse_m']} not below 0.12")
    ablated = cases.get("no_lateral", {})
    if "failure" in ablated or ablated.get("completed", True):
        problems.append(f"no_lateral variant did not cross the lateral threshold: {ablated}")
    elif not ablated["max_lateral_error_m"] > report["lateral_fail_threshold_m"]:
        problems.append("no_lateral variant stopped below the lateral threshold")
    quantities = {}
    for variant in ("full", "no_lateral"):
        if variant not in summaries or variant not in cases:
            problems.append(f"{variant} variant produced no summary")
            continue
        q = _summary_quantities(summaries[variant])
        q["completed"] = cases[variant]["completed"]
        q["max_lateral_error_m"] = cases[variant]["max_lateral_error_m"]
        quantities[variant] = q
    path = out_dir / "benchmark_slippery_report.json"
    digests = {path.name: _sha(path)} if path.is_file() else {}
    if not digests:
        problems.append(f"{path.name} not written")
    return full.get("rmse_m"), quantities, digests, problems


# -- open_loop_ground -------------------------------------------------------


OPEN_LOOP_DURATION = 2.0  # the entry point's own default for this scenario, made explicit
OPEN_LOOP_RATE = 200.0  # run_open_loop steps at a fixed 200 Hz


def _open_edit(doc: dict) -> None:
    doc["run"]["duration"] = OPEN_LOOP_DURATION


def _open_report(report, probe: Probe, out_dir: Path):
    problems = []
    planned = round(OPEN_LOOP_DURATION * OPEN_LOOP_RATE)
    steps = len(probe.step_gaps_s) + 1
    if steps != planned:
        problems.append(f"{steps} open-loop steps, planned {planned}")
    drift = report["max_drift_m"]
    if not math.isfinite(drift):
        problems.append(f"max_drift_m {drift} not finite")
    refs = out_dir / "ground_8shape_slippery_references.csv"
    digests = {}
    if refs.is_file():
        rows = len(refs.read_text().splitlines()) - 1
        if rows != round(OPEN_LOOP_DURATION / 0.02) + 1:
            problems.append(f"reference export has {rows} rows")
        digests[refs.name] = cli.deterministic_digest(refs)
    else:
        problems.append(f"{refs.name} not written")
    quantities = {"ticks": steps, "max_drift_m": drift, "duration_s": report["duration_s"]}
    return drift, quantities, digests, problems


WORKLOADS: Dict[str, Workload] = {
    "aerial_eight": Workload(
        "aerial_eight", "aerial_8shape", True, _aerial_edit,
        lambda cfg, out: cli.run_scenario(cfg, out_dir=out), _aerial_report,
        noise_free=False),
    "slippery_ablation": Workload(
        "slippery_ablation", "benchmark_slippery", True, _slippery_edit,
        lambda cfg, out: cli.run_benchmark_slippery(cfg, out_dir=out), _slippery_report,
        noise_free=True),
    "open_loop_ground": Workload(
        "open_loop_ground", "ground_8shape_slippery", False, _open_edit,
        lambda cfg, out: cli.run_open_loop(cfg, out_dir=out), _open_report,
        noise_free=True),
}


# ---------------------------------------------------------------------------
# running units
# ---------------------------------------------------------------------------


def measure_setup(wl: Workload, seed: int, out_dir: Path) -> Tuple[float, float]:
    """(raw, speed-normalized) time from scenario parse to the first
    control tick, stopping there."""
    probe = Probe(wl.closed_loop, stop_at_first_tick=True)
    with patched(probe.patches()):
        factor = speed_factor()
        t0 = perf()
        try:
            wl.entry(wl.config(seed), out_dir)
        except SetupDone:
            raw = probe.first_tick - t0
            return raw, raw * factor
    raise RuntimeError(f"{wl.name}: entry returned without reaching a control tick")


def _ops(probe: Probe, error: Optional[BaseException]):
    """(attempted, failed) control ticks, or open-loop reference samples."""
    if not probe.closed_loop:
        planned = round(OPEN_LOOP_DURATION * OPEN_LOOP_RATE)
        return planned, planned if error is not None else 0
    attempted = failed = 0
    for rec in probe.loops:
        if rec.log is None:  # the loop raised: its whole run is lost
            attempted += rec.planned
            failed += rec.planned
            continue
        ticks = rec.log.ticks
        degraded = sum(1 for r in ticks if r.qp_status == "degraded")
        if rec.log.aborted and rec.log.abort_reason == "stop condition met":
            attempted += len(ticks)
            failed += degraded
        else:
            attempted += rec.planned
            failed += degraded + rec.planned - len(ticks)
    return attempted, failed


def run_unit(wl: Workload, seed: int, out_dir: Path, tracer: Optional[Tracer] = None) -> UnitResult:
    probe = Probe(wl.closed_loop, on_kernel=tracer.credit if tracer else None)
    patches = (tracer.patches() if tracer else []) + probe.patches()
    with patched(patches) as absent:
        if absent & {target for target, _ in probe.patches()}:
            raise RuntimeError(f"benchmark probe targets missing: {sorted(absent)}")
        probe.mark_speed()
        t0 = probe.marks[0].end
        error = None
        try:
            result = wl.entry(wl.config(seed), out_dir)
        except ABORTS as exc:
            error = exc
        wall, norm_wall = normalized_wall(probe.marks, perf())
    if tracer is not None:
        tracer.absent |= absent
        tracer.end_unit()
    attempted, failed = _ops(probe, error)
    if probe.closed_loop:
        raw = [r.solve_time_us * 1e-3 for rec in probe.loops if rec.log for r in rec.log.ticks]
        period_ms = 1e3 / probe.loops[0].control_rate if probe.loops else math.nan
        factors = tick_factors(probe.marks, len(raw))
    else:
        raw = [g * 1e3 for g in probe.step_gaps_s]
        period_ms = 1e3 / OPEN_LOOP_RATE
        factors = tick_factors(probe.marks, len(raw) + 1)[1:]
    unit = UnitResult(
        wall_s=wall, norm_wall_s=norm_wall, sim_s=sum(s.t for s in probe.sims),
        latencies_ms=raw, norm_latencies_ms=[x * f for x, f in zip(raw, factors)],
        period_ms=period_ms, attempted=attempted, failed=failed,
        setup_s=(None if probe.first_tick is None else
                 (probe.first_tick - t0, (probe.first_tick - t0) * probe.marks[0].factor)),
        slip_steps=sum(s.slip_steps for s in probe.sims),
        log_rows=sum(len(s.log) for s in probe.sims),
    )
    if error is not None:
        unit.error = f"{type(error).__name__}: {error}"
        unit.problems = [unit.error]
    else:
        unit.rmse_m, unit.quantities, unit.digests, unit.problems = wl.report(
            result, probe, out_dir)
    return unit


def measure(wl: Workload, seed: int, budget_s: float, out_dir: Path,
            tracer: Optional[Tracer] = None) -> List[UnitResult]:
    """Repeat units while the next one is expected to end within the budget
    (always at least one)."""
    units = []
    start = perf()
    while True:
        unit = run_unit(wl, seed, out_dir, tracer)
        units.append(unit)
        if unit.error or perf() - start + unit.wall_s > budget_s:
            return units


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def _compare(path: str, got, want, rel: float, out: List[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            out.append(f"{path}: {got!r} != recorded {want!r}")
            return
        for k in want:
            _compare(f"{path}.{k}", got[k], want[k], rel, out)
    elif isinstance(want, float):
        if not math.isclose(got, want, rel_tol=rel, abs_tol=1e-12):
            out.append(f"{path}: {got!r} != recorded {want!r} (rel tol {rel})")
    elif got != want:
        out.append(f"{path}: {got!r} != recorded {want!r}")


def gate(wl: Workload, seed: int, units: List[UnitResult]):
    """Problems that fail the run, and digest notes that are information only.

    Summary quantities are compared with the recorded ones at the default
    seed, and at every seed for the noise-free workloads, whose inputs the
    seed does not reach.
    """
    problems = [p for u in units for p in u.problems]
    notes = []
    rec = REFERENCE["workloads"][wl.name]
    if seed == REFERENCE["default_seed"] or wl.noise_free:
        for i, unit in enumerate(units):
            if unit.quantities:
                _compare(f"{wl.name}[unit {i}]", unit.quantities, rec["quantities"],
                         REFERENCE["tolerance"]["float_rel"], problems)
        if seed == REFERENCE["default_seed"] and units[0].digests:
            same = units[0].digests == rec["digests"]
            notes.append("deterministic_digest " + ("matches" if same else "differs from")
                         + " the recorded one (information only)")
    return problems, notes

