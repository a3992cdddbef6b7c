"""Batch experiment runner: reproducible closed-loop scenario runs with CSV
outputs, a design-analysis report, and the slippery-ground benchmark.

A scenario is one JSON document (schema_version 1) with blocks:

    vehicle      physical parameters (defaults in core.VehicleParams)
    environment  friction, slip model switch, sensor noise, loop rates
    trajectory   generator kind and geometry, speed/accel limits
    controller   horizon, tracking weights, lateral lock
    run          duration control and RMSE dimensionality
    output       log decimation

Exit codes: 0 success, 2 invalid config, 3 infeasible reference,
4 solver failure, 5 simulation divergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from . import analysis
from .core import (
    ConfigError,
    DivergenceError,
    InfeasibleReferenceError,
    Mode,
    SolverFailure,
    VehicleParams,
    require_bool,
    require_integer,
    require_real,
    require_reals,
)
from .dynamics import Simulator
from .flatness import tangent_yaw_derivatives
from .nmpc import NmpcConfig, NoiseModel, RunLog, check_loop_rates, control_loop
from . import trajectory as tj

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4
EXIT_DIVERGED = 5


def _require_keys(block: dict, allowed: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


@contextmanager
def _config_block(where: str):
    """Report a malformed value of a scenario block as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _reject_non_finite(value, where: str) -> None:
    """Raise ConfigError on a NaN or infinite number anywhere in `value`
    (JSON parsing accepts NaN, Infinity and overflowing literals)."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where}: non-finite number {value!r}")
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            _reject_non_finite(item, f"{where}.{key}")


def _positive(value, name: str) -> float:
    return require_real(value, name, 0.0, True)


def _non_negative(value, name: str) -> float:
    return require_real(value, name, 0.0, False)


def _optional_positive(value, name: str) -> Optional[float]:
    return None if value is None else _positive(value, name)


def _point(value, name: str) -> list:
    return require_reals(value, name, 3, -math.inf, False).tolist()


def _speed_cases(cases, name: str) -> list:
    """A non-empty list of positive [v_max, a_max] pairs."""
    if not (isinstance(cases, (list, tuple)) and cases):
        raise ConfigError(f"{name} must be a list of [v_max, a_max] pairs, got {cases!r}")
    return [require_reals(case, name, 2, 0.0, True).tolist() for case in cases]


NO_DEFAULT = object()  # the key stays absent when the document leaves it out

# every key of the checked scenario blocks: (default, check); a None check
# leaves the value to its consumer (VehicleParams for mu and mu_s,
# build_trajectory for kind)
SCENARIO_BLOCKS = {
    "environment": {
        "slip_enabled": (False, require_bool), "noise_pos_std": (0.0, _non_negative),
        "noise_att_std": (0.0, _non_negative), "control_rate_hz": (200.0, _positive),
        "sim_rate_hz": (1000.0, _positive), "mu": (NO_DEFAULT, None),
        "mu_s": (NO_DEFAULT, None)},
    "trajectory": {
        "kind": (NO_DEFAULT, None), "A": (3.5, _positive), "B": (1.0, _positive),
        "altitude": (1.2, _positive), "T_Bz_frac": (0.6, _positive),
        "laps_run": (1.0, _positive), "p0": ([0.0, 0.0, 1.0], _point),
        "duration": (10.0, _positive),  # the rest_hover length
        "v_max": (NO_DEFAULT, _positive), "a_max": (NO_DEFAULT, _positive),
        "speed_cases": ([[1.0, 0.7], [2.0, 1.8]], _speed_cases)},
    "run": {"duration": (None, _optional_positive), "rmse_planar": (True, require_bool)},
    "output": {"decimation": (5, lambda value, name: require_integer(value, name, 1))},
}


def _block(doc: dict, name: str) -> dict:
    """Scenario block `name`.  A block of SCENARIO_BLOCKS has its defaults
    filled in and its values checked; any other block is returned as it is,
    for its consumer to check."""
    block = doc.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be a JSON object, got {block!r}")
    table = SCENARIO_BLOCKS.get(name)
    if table is None:
        return dict(block)
    _require_keys(block, set(table), name)
    out = {}
    with _config_block(name):
        for key, (default, check) in table.items():
            value = block.get(key, default)
            if value is not NO_DEFAULT:
                out[key] = value if check is None else check(value, f"{name}.{key}")
    return out


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    params: VehicleParams
    controller: NmpcConfig
    trajectory: dict
    environment: dict
    run: dict
    output: dict

    @classmethod
    def from_dict(cls, doc: dict, name: str = "scenario") -> "ScenarioConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"a scenario must be a JSON object, got {doc!r}")
        _require_keys(doc, {"schema_version", "name", "seed", "vehicle", "controller",
                            *SCENARIO_BLOCKS}, "scenario")
        _reject_non_finite(doc, "scenario")
        version = doc.get("schema_version")
        if isinstance(version, bool) or version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}")
        blocks = {key: _block(doc, key) for key in SCENARIO_BLOCKS}
        env = blocks["environment"]
        with _config_block("environment"):
            check_loop_rates(1.0 / env["sim_rate_hz"], env["control_rate_hz"])
        vehicle = _block(doc, "vehicle")
        if {"mu", "mu_s"} & set(env) & set(vehicle):
            raise ConfigError("set mu and mu_s in environment or in vehicle, not in both")
        vehicle.update((key, env[key]) for key in ("mu", "mu_s") if key in env)
        _require_keys(vehicle, {f.name for f in fields(VehicleParams)}, "vehicle")
        with _config_block("vehicle"):
            params = VehicleParams(**vehicle)

        ctrl = _block(doc, "controller")
        _require_keys(ctrl, {f.name for f in fields(NmpcConfig)}, "controller")
        with _config_block("controller"):
            controller = NmpcConfig(**ctrl)

        seed = require_integer(doc.get("seed", 0), "seed", 0)
        name = doc.get("name", name)
        if not isinstance(name, str):
            raise ConfigError(f"name must be a string, got {name!r}")
        return cls(name=name, seed=seed, params=params, controller=controller, **blocks)

    @classmethod
    def load(cls, path: Path) -> "ScenarioConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or encoding
            raise ConfigError(f"cannot read a scenario from {path}: {exc}") from exc
        return cls.from_dict(doc, name=Path(path).stem)


def bundled_scenario_names() -> List[str]:
    root = resources.files("wheeled_bicopter").joinpath("scenarios")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_bundled_scenario(name: str) -> dict:
    root = resources.files("wheeled_bicopter").joinpath("scenarios")
    path = root.joinpath(f"{name}.json")
    if not path.is_file():
        raise ConfigError(
            f"unknown scenario {name!r}; bundled: {bundled_scenario_names()}"
        )
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# trajectory builders
# ---------------------------------------------------------------------------


def _eight_segment(cfg: ScenarioConfig, mode: Mode, laps: float, offset=(0.0, 0.0, 0.0)):
    """The scenario's figure eight in `mode`, centred at `offset` above the
    origin at the mode's height and scaled to its speed limits."""
    t, p = cfg.trajectory, cfg.params
    z = p.r if mode is Mode.GROUND else t["altitude"]
    T_Bz = t["T_Bz_frac"] * p.weight if mode is Mode.GROUND else 0.0
    seg = tj.Lemniscate(A=t["A"], B=t["B"], omega=1.0, center=np.array([0.0, 0.0, z]) + offset,
                        mode=mode, laps=laps, T_Bz=T_Bz)
    return tj.scale_to_limits(seg, t["v_max"], t["a_max"])


def _start_heading(seg: tj.Segment):
    """Start flat sample, planar start speed and start direction of a segment."""
    f = seg.start_flat()
    speed = float(np.linalg.norm(f[1][:2]))
    return f, speed, f[1] / speed


SPEED_LIMITED_KINDS = ("eight_ground", "eight_aerial", "hybrid_3d")


def build_trajectory(cfg: ScenarioConfig) -> Tuple[tj.HybridTrajectory, dict]:
    """Instantiate the scenario trajectory; returns it plus realized peaks."""
    t = cfg.trajectory
    kind = t.get("kind")
    missing = sorted({"v_max", "a_max"} - set(t))
    if kind in SPEED_LIMITED_KINDS and missing:
        raise ConfigError(f"trajectory kind {kind!r} needs {missing}")
    with _config_block("trajectory"):
        laps_run = t["laps_run"]
        lead = laps_run + 0.3  # margin so horizon samples stay defined
        if kind in ("eight_ground", "eight_aerial"):
            mode = Mode.GROUND if kind == "eight_ground" else Mode.AERIAL
            rep = _eight_segment(cfg, mode, laps=lead)
            lap = rep.segment.duration / lead
            return tj.HybridTrajectory([rep.segment]), {
                "lap_s": lap * laps_run,
                "peak_speed": rep.peak_speed,
                "peak_accel": rep.peak_accel,
            }
        if kind == "hybrid_3d":
            return build_hybrid_trajectory(cfg)
        if kind == "rest_hover":
            seg = tj.Rest(p0=t["p0"], psi0=0.0, duration=t["duration"], mode=Mode.AERIAL)
            return tj.HybridTrajectory([seg]), {"lap_s": seg.duration}
        raise ConfigError(f"unknown trajectory kind {kind!r}")


def build_hybrid_trajectory(cfg: ScenarioConfig) -> Tuple[tj.HybridTrajectory, dict]:
    """Ground eight -> straight legs to rest -> thrust ramp -> climb blend ->
    aerial eight -> descent blend to touchdown at rest -> thrust ramp down.
    The legs are `StraightRamp`s, two of them at constant speed; both eights
    are the segments `scale_to_limits` returns, the aerial one centred 2 m
    ahead of the takeoff point at altitude.

    Mode switches happen at rest points with the vertical thrust ramped to
    the weight, so reference inputs stay continuous through the switches.
    """
    t, p = cfg.trajectory, cfg.params
    a_max = t["a_max"]
    T_ground = t["T_Bz_frac"] * p.weight
    zc = p.r
    z_alt = t["altitude"]

    g8 = _eight_segment(cfg, Mode.GROUND, laps=1.0)
    eight = g8.segment
    f0, speed0, dir0 = _start_heading(eight)

    leg = 0.8  # straight lead-in length [m]
    ramp_T = max(2.0 * speed0 / a_max, 1.5)
    line_in = tj.StraightRamp(
        p0=f0[0] - dir0 * leg, direction=dir0, v_start=speed0, v_end=speed0,
        duration=leg / speed0, T_Bz=T_ground,
    )
    ramp_in = tj.StraightRamp(
        p0=line_in.p0 - dir0 * (0.5 * speed0 * ramp_T),
        direction=dir0, v_start=0.0, v_end=speed0, duration=ramp_T, T_Bz=T_ground,
    )
    psi0 = math.atan2(dir0[1], dir0[0])

    line_out = tj.StraightRamp(
        p0=eight.end_flat()[0], direction=dir0, v_start=speed0, v_end=speed0,
        duration=leg / speed0, T_Bz=T_ground,
    )
    ramp_out = tj.StraightRamp(
        p0=line_out.p0 + dir0 * leg, direction=dir0,
        v_start=speed0, v_end=0.0, duration=ramp_T, T_Bz=T_ground,
    )
    rest_mid = ramp_out.flat(ramp_out.duration)[0]

    thrust_up = tj.Rest(
        p0=rest_mid, psi0=psi0, duration=1.0, T_Bz=T_ground, T_Bz_end=p.weight
    )

    # aerial eight placed ahead of the takeoff point at altitude
    fa, _, dir_a = _start_heading(_eight_segment(cfg, Mode.AERIAL, laps=1.0).segment)
    chi_a = math.atan2(dir_a[1], dir_a[0])
    entry = rest_mid + dir_a * 2.0 + np.array([0.0, 0.0, z_alt - zc])
    a8 = _eight_segment(cfg, Mode.AERIAL, laps=1.0, offset=entry - fa[0])
    aeight = a8.segment

    fa = aeight.start_flat()
    cd, cdd = tangent_yaw_derivatives(fa[1], fa[2], fa[3])
    climb = tj.takeoff_landing_blend(
        thrust_up, aeight, T_blend=3.0, a_max=a_max,
        yaw_bc=(psi0, 0.0, 0.0, chi_a, cd, cdd),
    )

    fend = aeight.end_flat()
    chi_end = math.atan2(fend[1][1], fend[1][0])
    cd2, cdd2 = tangent_yaw_derivatives(fend[1], fend[2], fend[3])
    touchdown_p = fend[0][:2] + np.array([dir_a[0], dir_a[1]]) * 2.0
    land_rest = tj.Rest(
        p0=np.array([touchdown_p[0], touchdown_p[1], zc]), psi0=chi_end,
        duration=1.0, T_Bz=p.weight, T_Bz_end=T_ground,
    )
    descend = tj.takeoff_landing_blend(
        aeight, land_rest, T_blend=3.0, a_max=a_max,
        yaw_bc=(chi_end, cd2, cdd2, chi_end, 0.0, 0.0),
    )
    settle = tj.Rest(p0=land_rest.p0, psi0=chi_end, duration=1.0, T_Bz=T_ground)

    traj = tj.HybridTrajectory(
        [ramp_in, line_in, eight, line_out, ramp_out, thrust_up,
         climb, aeight, descend, land_rest, settle]
    )
    peaks = {
        "lap_s": traj.duration,
        "peak_speed": max(g8.peak_speed, a8.peak_speed),
        "peak_accel": max(g8.peak_accel, a8.peak_accel),
    }
    return traj, peaks


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    name: str
    runlog: RunLog
    summary: dict
    files: List[Path] = field(init=False, default_factory=list)


def _start(cfg: ScenarioConfig, cap: float = math.inf):
    """The scenario trajectory, its realized peaks, a Simulator in the
    trajectory's first reference state, and the run duration: `run.duration`
    or else the lap time, at most `cap`.  Raises ConfigError for a run
    shorter than one control period."""
    traj, peaks = build_trajectory(cfg)
    duration = float(cfg.run["duration"] or min(cap, peaks["lap_s"]))
    if round(duration * cfg.environment["control_rate_hz"]) < 1:
        raise ConfigError(f"a {duration} s run is shorter than one control period")
    ref0 = traj.reference(0.0, cfg.params)
    sim = Simulator(
        params=cfg.params, x=ref0.x, dt=1.0 / cfg.environment["sim_rate_hz"],
        mode=ref0.mode, slip_enabled=cfg.environment["slip_enabled"],
    )
    return traj, peaks, sim, duration


def _report(report: dict, out_dir: Optional[Path], filename: str, quiet: bool) -> dict:
    """Write `report` as JSON to out_dir/filename when out_dir is given, and
    print it unless quiet."""
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / filename).write_text(text)
    if not quiet:
        print(text)
    return report


def run_scenario(cfg: ScenarioConfig, out_dir: Optional[Path] = None,
                 quiet: bool = True, stop_when=None) -> ScenarioResult:
    """Closed-loop run of one scenario; deterministic for a given seed.  A
    run cut short is summarized and written to out_dir like a complete one;
    one that failed then raises its `RunLog.error`."""
    env = cfg.environment
    traj, peaks, sim, duration = _start(cfg)
    log = control_loop(
        sim, traj, cfg.controller, cfg.params,
        duration=duration, control_rate=env["control_rate_hz"],
        noise=NoiseModel(pos_std=env["noise_pos_std"], att_std=env["noise_att_std"]),
        seed=cfg.seed, stop_when=stop_when,
    )
    ticks, steps = log.ticks, sim.log
    act, ref = ticks.x[:, 0:3], ticks.x_ref[:, 0:3]
    statuses, counts = np.unique(ticks.qp_status, return_counts=True)
    summary = {
        "scenario": cfg.name,
        "seed": cfg.seed,
        "ticks": len(ticks),
        "duration_s": duration,
        "stopped_early": log.aborted,
        "rmse_m": analysis.rmse(act, ref, planar=cfg.run["rmse_planar"]),
        "rmse_3d_m": analysis.rmse(act, ref, planar=False),
        "peak_speed_ref": peaks.get("peak_speed"),
        "peak_accel_ref": peaks.get("peak_accel"),
        "peak_speed_actual": float(np.max(np.linalg.norm(steps.x[:, 3:6], axis=1))),
        "mean_power_W": float(np.mean(steps.power)),
        "slip_steps": sim.slip_steps,
        "lift_off_events": sim.lift_off_events,
        "statuses": {str(s): int(n) for s, n in zip(statuses, counts)},
        "max_slack": float(np.max(ticks.slack_max)),
    }
    if log.error is not None:
        summary["abort_reason"] = log.abort_reason
    result = ScenarioResult(cfg.name, log, summary)
    if out_dir is not None:
        result.files = write_outputs(cfg, result, Path(out_dir))
    if log.error is not None:
        raise log.error
    if not quiet:
        print(json.dumps(summary, indent=2, sort_keys=True))
    return result


def run_energy_compare(cfg: ScenarioConfig, out_dir: Optional[Path] = None,
                       quiet: bool = True) -> dict:
    """Matched eight-shapes in ground and aerial mode; reports the simulated
    energy-saving ratio from the ideal rotor power."""
    results = {}
    for mode_kind in ("eight_ground", "eight_aerial"):
        sub = replace(
            cfg, name=f"{cfg.name}_{mode_kind}", trajectory={**cfg.trajectory, "kind": mode_kind}
        )
        results[mode_kind] = run_scenario(sub, out_dir=out_dir, quiet=True)
    P_g = results["eight_ground"].summary["mean_power_W"]
    P_a = results["eight_aerial"].summary["mean_power_W"]
    report = {
        "scenario": cfg.name,
        "P_ground_W": P_g,
        "P_aerial_W": P_a,
        "xi_sim": analysis.energy_saving(P_a, P_g),
        "rmse_ground_m": results["eight_ground"].summary["rmse_m"],
        "rmse_aerial_m": results["eight_aerial"].summary["rmse_m"],
    }
    return _report(report, out_dir, f"{cfg.name}_report.json", quiet)


def _lateral_error(ref, x) -> float:
    """Planar position error of a tick's state x across the heading of its
    reference state ref (the world x axis when the reference stands still)."""
    vx, vy = ref[3], ref[4]
    psi = math.atan2(vy, vx) if abs(vx) + abs(vy) > 1e-6 else 0.0
    dx = x[0] - ref[0]
    dy = x[1] - ref[1]
    return -dx * math.sin(psi) + dy * math.cos(psi)


# lateral error [m] past which a slippery-benchmark case counts as failed
LATERAL_FAIL_THRESHOLD = 0.3


def run_benchmark_slippery(cfg: ScenarioConfig, out_dir: Optional[Path] = None,
                           quiet: bool = True) -> dict:
    """Two controller variants on the same slippery eight-shape at rising
    speed: the full vehicle with vectored lateral thrust, and an ablation
    with opposed servo tilts (no net side force, the quadrotor-equivalent)."""
    speeds = cfg.trajectory["speed_cases"]

    def crossed(tick) -> bool:
        # sees every logged tick of a completed or stopped run
        nonlocal max_lat
        err = abs(_lateral_error(tick.x_ref, tick.x))
        max_lat = max(max_lat, float(err))
        return err > LATERAL_FAIL_THRESHOLD

    cases = []
    for v_max, a_max in speeds:
        doc_traj = {**cfg.trajectory, "kind": "eight_ground", "v_max": v_max, "a_max": a_max}
        doc_traj.pop("speed_cases", None)
        for variant in ("full", "no_lateral"):
            ctrl = replace(cfg.controller, lock_lateral=(variant == "no_lateral"))
            sub = replace(
                cfg, name=f"{cfg.name}_{variant}_v{v_max}", controller=ctrl, trajectory=doc_traj
            )
            case = {"v_max": v_max, "a_max": a_max, "variant": variant}
            max_lat = 0.0
            try:
                res = run_scenario(sub, out_dir=None, quiet=True, stop_when=crossed)
                # stop_when ends a run at its first tick past the threshold
                case.update(completed=not res.summary["stopped_early"], max_lateral_error_m=max_lat,
                            rmse_m=res.summary["rmse_m"], slip_steps=res.summary["slip_steps"])
            except (SolverFailure, DivergenceError) as exc:
                case.update(completed=False, failure=str(exc))
            cases.append(case)
    first_fail = {}
    for case in cases:
        if not case["completed"]:
            first_fail.setdefault(case["variant"], case["v_max"])
    report = {
        "scenario": cfg.name,
        "lateral_fail_threshold_m": LATERAL_FAIL_THRESHOLD,
        "cases": cases,
        "first_failing_speed": first_fail,
    }
    return _report(report, out_dir, f"{cfg.name}_report.json", quiet)


# all-up mass [kg] of the twin-rotor craft the width study sizes
WIDTH_STUDY_MASS = 0.835


def width_report(params: VehicleParams, quiet: bool = True) -> dict:
    m = WIDTH_STUDY_MASS
    eta = analysis.hover_efficiency(m, 2, params.S, params.rho)
    rows = analysis.width_table(m, eta, params.rho)
    sweep = []
    for fracx in np.linspace(0.01, 0.02, 11):
        p = VehicleParams(c_q=float(fracx) * params.c_t, c_t=params.c_t, l=params.l)
        sweep.append({"c_q_over_c_t": float(fracx), "ratio": analysis.steering_ratio(p)})
    report = {"mass_kg": m, "hover_efficiency": eta, "widths": rows,
              "steering_ratio_sweep": sweep}
    if not quiet:
        print(f"{'layout':<26}{'rotors':>7}{'width m':>12}{'ratio':>8}")
        for r in rows:
            print(f"{r['layout']:<26}{r['rotors']:>7}{r['width_m']:>12.4f}{r['ratio']:>8.3f}")
        print("steering ratio at c_q/c_t=1%%: %.2f" % sweep[0]["ratio"])
    return report


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

RUNLOG_COLUMNS = (
    "t,ref_px,ref_py,ref_pz,ref_qw,ref_qx,ref_qy,ref_qz,"
    "px,py,pz,qw,qx,qy,qz,"
    "T1,T2,delta1,delta2,mode,solve_time_us,qp_status,cost,slack_max,"
    "qp_iters,kkt_residual"
)

SIMLOG_COLUMNS = (
    "t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,wx,wy,wz,"
    "T1,T2,delta1,delta2,F_n_left,F_n_right,f_l,slip,lift_off,power"
)


# log records converted to Python rows at a time, so writing a log holds
# one chunk of rows and never a whole log's
CSV_CHUNK = 256


def _rows(records: np.recarray) -> Iterable[tuple]:
    """The records as tuples of Python scalars and lists, converted one
    `CSV_CHUNK` of records at a time, field by field (a record array's own
    `tolist()` leaves subarray fields as arrays of numpy scalars)."""
    for start in range(0, len(records), CSV_CHUNK):
        chunk = records[start:start + CSV_CHUNK]
        yield from zip(*(chunk[name].tolist() for name in records.dtype.names))


def _write_csv(path: Path, header: str, rows: Iterable[list]) -> Path:
    """A header line, then one comma-joined line per row of Python floats,
    ints and strings, each written by `str`: a float as its shortest
    round-trip repr."""
    with Path(path).open("w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")
    return Path(path)


def write_outputs(cfg: ScenarioConfig, result: ScenarioResult, out_dir: Path) -> List[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    # records as tuples of Python scalars and lists; the scalar fields after
    # `u` are written in dtype order
    ticks = (
        [t, *x_ref[0:3], *x_ref[6:10], *x[0:3], *x[6:10], *u, *rest]
        for t, x_ref, x, u, *rest in _rows(result.runlog.ticks)
    )
    steps = (
        [t, *x, *u, *rest]
        for t, x, u, *rest in _rows(result.runlog.sim.log[::cfg.output["decimation"]])
    )
    files = [_write_csv(out_dir / f"{cfg.name}_runlog.csv", RUNLOG_COLUMNS, ticks),
             _write_csv(out_dir / f"{cfg.name}_simlog.csv", SIMLOG_COLUMNS, steps),
             out_dir / f"{cfg.name}_summary.json"]
    files[2].write_text(json.dumps(result.summary, indent=2, sort_keys=True))
    return files


def _lines(path: Path) -> Iterator[str]:
    """The lines of `read_text().splitlines()`, read one physical line at a
    time and split as `str.splitlines` splits, so no caller holds the file."""
    with Path(path).open() as fh:
        for physical in fh:
            yield from physical.splitlines()


def deterministic_digest(path: Path) -> str:
    """SHA-256 of a log CSV with the wall-clock solve-time column masked
    (every physical and control quantity must be bit-reproducible; the
    measured solver latency cannot be).  The file is read line by line."""
    digest = hashlib.sha256()
    skip = None
    for n, line in enumerate(_lines(path)):
        if n == 0:
            header = line.split(",")
            skip = header.index("solve_time_us") if "solve_time_us" in header else None
        if skip is not None:
            parts = line.split(",")
            parts[skip] = "-"
            line = ",".join(parts)
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def export_plot_data(runlog_csv: Path, out_path: Path) -> Path:
    """Re-shape a runlog CSV into tidy long format (series, t, value).  The
    runlog is streamed twice, line by line: the first pass checks every
    line, so a malformed runlog writes nothing, and the second writes."""
    def rows():
        return (line.split(",") for line in _lines(runlog_csv))

    try:
        header = next(rows(), None)
        if header is None:
            raise ConfigError(f"empty runlog {runlog_csv}")
        if "t" not in header:
            raise ConfigError(f"runlog {runlog_csv} has no t column")
        for n, parts in enumerate(rows(), 1):
            if len(parts) != len(header):
                raise ConfigError(f"runlog {runlog_csv} line {n} has {len(parts)} fields, "
                                  f"its header {len(header)}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"runlog {runlog_csv} is not UTF-8 text: {exc}") from exc
    t_idx = header.index("t")
    numeric = [(i, name) for i, name in enumerate(header)
               if name not in ("t", "mode", "qp_status")]
    with Path(out_path).open("w", newline="") as fh:
        fh.write("series,t,value\n")
        for parts in islice(rows(), 1, None):
            t = parts[t_idx]
            for i, name in numeric:
                fh.write(f"{name},{t},{parts[i]}\n")
    return Path(out_path)


# ---------------------------------------------------------------------------
# open-loop playback (simulate subcommand)
# ---------------------------------------------------------------------------


REFLOG_COLUMNS = (
    "t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,wx,wy,wz,T1,T2,delta1,delta2,mode"
)


def export_references(traj, params: VehicleParams, duration: float, dt: float,
                      out_path: Path) -> Path:
    """Sample the reference pipeline along the trajectory, heading-continuous
    from t = 0, and write one row per sample (state, input, mode) for
    offline inspection."""
    refs = traj.sample_references(0.0, round(duration / dt), dt, params)
    return _write_csv(out_path, REFLOG_COLUMNS,
                      ([ref.t, *ref.x.tolist(), *ref.u.tolist(), ref.mode.name] for ref in refs))


def run_open_loop(cfg: ScenarioConfig, out_dir: Optional[Path] = None,
                  quiet: bool = True) -> dict:
    """Feed the flatness reference inputs into the simulator open loop, one
    per control period, and report the drift; a quick model-consistency
    probe, not a controller."""
    traj, _, sim, duration = _start(cfg, cap=2.0)
    rate = cfg.environment["control_rate_hz"]
    holds = round(duration * rate)
    sim.reserve(holds * max(1, round(1.0 / rate / sim.dt)))
    hint = None
    drift = 0.0
    for _ in range(holds):
        ref = traj.reference(sim.t, cfg.params, psi_hint=hint)
        hint = ref.psi
        sim.apply(ref.u, 1.0 / rate)
        drift = max(drift, float(np.linalg.norm(sim.x[0:3] - ref.x[0:3])))
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        export_references(
            traj, cfg.params, duration, 0.02, Path(out_dir) / f"{cfg.name}_references.csv"
        )
    report = {"scenario": cfg.name, "duration_s": duration, "max_drift_m": drift}
    return _report(report, out_dir, f"{cfg.name}_openloop.json", quiet)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _load_config(args) -> ScenarioConfig:
    if args.config:
        cfg = ScenarioConfig.load(Path(args.config))
    elif args.scenario:
        cfg = ScenarioConfig.from_dict(load_bundled_scenario(args.scenario), args.scenario)
    else:
        raise ConfigError("provide --config PATH or --scenario NAME")
    if args.seed is not None:
        cfg.seed = require_integer(args.seed, "--seed", 0)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wheeled-bicopter",
        description="bi-modal wheeled bi-copter simulation and control toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("simulate", "open-loop reference playback"),
        ("track", "closed-loop tracking run"),
        ("analyze", "design-space width and steering report"),
        ("benchmark", "slippery-ground controller comparison"),
        ("export", "re-shape a runlog CSV into tidy long format"),
    ):
        p = sub.add_parser(name, help=helptext)
        if name == "export":
            p.add_argument("--runlog", type=str, required=False, help="runlog CSV to export")
        elif name != "analyze":
            p.add_argument("--config", type=str, default=None, help="scenario JSON path")
            p.add_argument("--scenario", type=str, default=None, help="bundled scenario name")
            p.add_argument("--seed", type=int, default=None, help="override RNG seed")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    out_dir = Path(args.out) if args.out else None
    try:
        # the nearest existing path of --out must be a directory
        if out_dir is not None and not next(
                p for p in (out_dir, *out_dir.parents) if p.exists()).is_dir():
            raise ConfigError(f"--out {out_dir} is or lies under a path that is not a directory")
        if args.command == "analyze":
            _report(width_report(VehicleParams(), quiet=args.quiet), out_dir,
                    "width_report.json", quiet=True)
            return EXIT_OK
        if args.command == "export":
            if not args.runlog or not Path(args.runlog).is_file():
                raise ConfigError(f"export requires --runlog PATH of a file, got {args.runlog!r}")
            target = (out_dir or Path(".")) / (Path(args.runlog).stem + "_tidy.csv")
            if out_dir:
                out_dir.mkdir(parents=True, exist_ok=True)
            export_plot_data(Path(args.runlog), target)
            if not args.quiet:
                print(f"wrote {target}")
            return EXIT_OK

        cfg = _load_config(args)
        if args.command == "simulate":
            run_open_loop(cfg, out_dir, quiet=args.quiet)
            return EXIT_OK
        if args.command == "benchmark":
            run_benchmark_slippery(cfg, out_dir, quiet=args.quiet)
            return EXIT_OK
        # track, the one command left (argparse requires a known command)
        kind = cfg.trajectory.get("kind")
        if kind == "energy_compare":
            run_energy_compare(cfg, out_dir, quiet=args.quiet)
        elif kind == "width_report":
            _report(width_report(cfg.params, quiet=args.quiet), out_dir,
                    f"{cfg.name}.json", quiet=True)
        else:
            run_scenario(cfg, out_dir, quiet=args.quiet)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleReferenceError as exc:
        print(exc.reason(), file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except DivergenceError as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
