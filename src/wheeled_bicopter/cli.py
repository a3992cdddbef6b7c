"""Batch experiment runner: reproducible closed-loop scenario runs with CSV
outputs, a design-analysis report, and the slippery-ground benchmark.

A scenario is one JSON document (schema_version 1) with blocks:

    vehicle      physical parameters (defaults in core.VehicleParams)
    environment  friction, slip model switch, sensor noise, loop rates
    trajectory   generator kind and geometry, speed/accel limits
    controller   horizon, weights, solver knobs
    run          duration control and RMSE dimensionality
    output       log decimation

Exit codes: 0 success, 2 invalid config, 3 infeasible reference,
4 solver failure, 5 simulation divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import analysis
from .core import (
    ConfigError,
    DivergenceError,
    InfeasibleReferenceError,
    Mode,
    VehicleParams,
)
from .dynamics import Simulator
from .flatness import ReferencePoint
from .nmpc import NmpcConfig, NoiseModel, RunLog, control_loop
from . import trajectory as tj

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4
EXIT_DIVERGED = 5


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _require_keys(block: dict, allowed: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


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
        _require_keys(
            doc,
            {"schema_version", "name", "seed", "vehicle", "environment",
             "trajectory", "controller", "run", "output"},
            "scenario",
        )
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {doc.get('schema_version')!r}; "
                f"expected {SCHEMA_VERSION}"
            )
        env = dict(doc.get("environment", {}))
        _require_keys(
            env,
            {"mu", "mu_s", "slip_enabled", "noise_pos_std", "noise_att_std",
             "control_rate_hz", "sim_rate_hz"},
            "environment",
        )
        vehicle = dict(doc.get("vehicle", {}))
        for key in ("mu", "mu_s"):
            if key in env:
                vehicle[key] = env[key]
        params = VehicleParams.from_dict(vehicle)

        ctrl = dict(doc.get("controller", {}))
        _require_keys(
            ctrl,
            {"K", "dt", "q_p", "q_v", "q_q", "q_w", "q_u", "u_min", "u_max",
             "kkt_tol", "max_qp_iter", "slack_penalty", "slack_reg",
             "constraint_margin", "lock_lateral"},
            "controller",
        )
        controller = NmpcConfig(**ctrl)

        traj = dict(doc.get("trajectory", {}))
        run = dict(doc.get("run", {}))
        _require_keys(run, {"duration", "rmse_planar", "label"}, "run")
        output = dict(doc.get("output", {}))
        _require_keys(output, {"decimation"}, "output")
        return cls(
            name=doc.get("name", name),
            seed=int(doc.get("seed", 0)),
            params=params,
            controller=controller,
            trajectory=traj,
            environment=env,
            run=run,
            output=output,
        )

    @classmethod
    def load(cls, path: Path) -> "ScenarioConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
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


def _eight_segment(cfg: ScenarioConfig, mode: Mode, laps: float):
    t = cfg.trajectory
    p = cfg.params
    A = float(t.get("A", 3.5))
    B = float(t.get("B", 1.0))
    z = p.r if mode is Mode.GROUND else float(t.get("altitude", 1.2))
    T_Bz = float(t.get("T_Bz_frac", 0.6)) * p.weight if mode is Mode.GROUND else 0.0
    seg = tj.Lemniscate(
        A=A, B=B, omega=1.0, center=[0.0, 0.0, z], mode=mode, laps=laps, T_Bz=T_Bz
    )
    rep = tj.scale_to_limits(seg, float(t["v_max"]), float(t["a_max"]))
    return rep


def _plain_eight(rep: tj.ScaleReport) -> tj.Lemniscate:
    """Unwrap a (possibly time-dilated) scaled lemniscate into an equivalent
    plain one; dilation by f equals scaling omega by 1/f."""
    seg = rep.segment
    if isinstance(seg, tj.TimeDilated):
        inner = seg.inner
        return tj.Lemniscate(
            A=inner.A, B=inner.B, omega=inner.omega / seg.factor,
            center=inner.center.copy(), mode=inner.mode, laps=inner.laps,
            T_Bz=inner.T_Bz, alpha=inner.alpha,
        )
    return seg


TRAJECTORY_KEYS = {
    "kind", "A", "B", "altitude", "v_max", "a_max", "T_Bz_frac",
    "laps_run", "speed_cases", "p0", "duration",
}


def build_trajectory(cfg: ScenarioConfig) -> Tuple[tj.HybridTrajectory, dict]:
    """Instantiate the scenario trajectory; returns it plus realized peaks."""
    _require_keys(cfg.trajectory, TRAJECTORY_KEYS, "trajectory")
    kind = cfg.trajectory.get("kind")
    laps_run = float(cfg.trajectory.get("laps_run", 1.0))
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
        p0 = np.asarray(cfg.trajectory.get("p0", [0.0, 0.0, 1.0]), dtype=float)
        seg = tj.Rest(p0=p0, psi0=0.0, duration=float(cfg.trajectory.get("duration", 10.0)),
                      mode=Mode.AERIAL)
        return tj.HybridTrajectory([seg]), {"lap_s": seg.duration}
    raise ConfigError(f"unknown trajectory kind {kind!r}")


def build_hybrid_trajectory(cfg: ScenarioConfig) -> Tuple[tj.HybridTrajectory, dict]:
    """Ground eight -> straight legs to rest -> thrust ramp -> climb blend ->
    aerial eight -> descent blend to touchdown at rest -> thrust ramp down.

    Mode switches happen at rest points with the vertical thrust ramped to
    the weight, so reference inputs stay continuous through the switches.
    """
    t = cfg.trajectory
    p = cfg.params
    v_max, a_max = float(t["v_max"]), float(t["a_max"])
    frac = float(t.get("T_Bz_frac", 0.6))
    T_ground = frac * p.weight
    zc = p.r
    z_alt = float(t.get("altitude", 1.2))

    g8 = _eight_segment(cfg, Mode.GROUND, laps=1.0)
    eight = _plain_eight(g8)
    f0 = eight.start_flat()
    v0 = f0[1]
    speed0 = float(np.linalg.norm(v0[:2]))
    dir0 = v0 / speed0

    leg = 0.8  # straight lead-in length [m]
    ramp_T = max(2.0 * speed0 / a_max, 1.5)
    line_in = tj.Line(
        p0=f0[0] - dir0 * leg, velocity=dir0 * speed0,
        duration=leg / speed0, T_Bz=T_ground,
    )
    ramp_in = tj.StraightRamp(
        p0=line_in.p0 - dir0 * (0.5 * speed0 * ramp_T),
        direction=dir0, v_start=0.0, v_end=speed0, duration=ramp_T, T_Bz=T_ground,
    )
    rest_start = np.asarray(ramp_in.p0, dtype=float)
    psi0 = math.atan2(dir0[1], dir0[0])

    f1 = eight.end_flat()
    line_out = tj.Line(
        p0=f1[0], velocity=dir0 * speed0, duration=leg / speed0, T_Bz=T_ground
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
    a8 = _eight_segment(cfg, Mode.AERIAL, laps=1.0)
    aeight = _plain_eight(a8)
    fa = aeight.start_flat()
    va = fa[1]
    speed_a = float(np.linalg.norm(va[:2]))
    dir_a = va / speed_a
    chi_a = math.atan2(dir_a[1], dir_a[0])
    entry = rest_mid + dir_a * 2.0 + np.array([0.0, 0.0, z_alt - zc])
    shift = entry - fa[0]
    aeight = tj.Lemniscate(
        A=aeight.A, B=aeight.B, omega=aeight.omega,
        center=aeight.center + shift, mode=Mode.AERIAL, laps=aeight.laps,
    )

    fa = aeight.start_flat()
    cd, cdd = tj._tangent_yaw_derivatives(fa[1], fa[2], fa[3])
    climb = tj.takeoff_landing_blend(
        thrust_up, aeight, T_blend=3.0, a_max=a_max,
        yaw_bc=(psi0, 0.0, 0.0, chi_a, cd, cdd), psi0=psi0,
    )

    fend = aeight.end_flat()
    chi_end = math.atan2(fend[1][1], fend[1][0])
    cd2, cdd2 = tj._tangent_yaw_derivatives(fend[1], fend[2], fend[3])
    touchdown_p = fend[0][:2] + np.array([dir_a[0], dir_a[1]]) * 2.0
    land_rest = tj.Rest(
        p0=np.array([touchdown_p[0], touchdown_p[1], zc]), psi0=chi_end,
        duration=1.0, T_Bz=p.weight, T_Bz_end=T_ground,
    )
    descend = tj.takeoff_landing_blend(
        aeight, land_rest, T_blend=3.0, a_max=a_max,
        yaw_bc=(chi_end, cd2, cdd2, chi_end, 0.0, 0.0), psi0=chi_end,
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
        "switch_times": [
            float(traj.starts[6]),  # takeoff: climb blend start
            float(traj.starts[9]),  # touchdown: descent blend end
        ],
        "rest_start": [float(x) for x in rest_start],
        "psi0": psi0,
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
    files: List[Path] = field(default_factory=list)


def _initial_mode(ref: ReferencePoint) -> Mode:
    return ref.mode


def run_scenario(cfg: ScenarioConfig, out_dir: Optional[Path] = None,
                 quiet: bool = True, stop_when=None) -> ScenarioResult:
    """Closed-loop run of one scenario; deterministic for a given seed."""
    env = cfg.environment
    control_rate = float(env.get("control_rate_hz", 200.0))
    sim_rate = float(env.get("sim_rate_hz", 1000.0))
    traj, peaks = build_trajectory(cfg)

    ref0 = traj.reference(0.0, cfg.params)
    sim = Simulator(
        params=cfg.params,
        dt=1.0 / sim_rate,
        mode=_initial_mode(ref0),
        slip_enabled=bool(env.get("slip_enabled", False)),
    )
    sim.state = ref0.x_r

    duration = cfg.run.get("duration")
    if duration is None:
        duration = peaks["lap_s"]
    duration = float(duration)

    noise = NoiseModel(
        pos_std=float(env.get("noise_pos_std", 0.0)),
        att_std=float(env.get("noise_att_std", 0.0)),
    )
    rng = np.random.default_rng(cfg.seed)
    log = control_loop(
        sim, traj, cfg.controller, cfg.params,
        duration=duration, control_rate=control_rate, noise=noise, rng=rng,
        stop_when=stop_when,
    )
    if log.aborted and log.abort_reason != "stop condition met":
        raise SolverFailure(log.abort_reason)

    act, ref = log.positions()
    planar = bool(cfg.run.get("rmse_planar", True))
    speeds = np.stack([row.x[3:6] for row in log.sim.log])
    summary = {
        "scenario": cfg.name,
        "seed": cfg.seed,
        "ticks": len(log.ticks),
        "duration_s": duration,
        "stopped_early": log.aborted,
        "rmse_m": analysis.rmse(act, ref, planar=planar),
        "rmse_3d_m": analysis.rmse(act, ref, planar=False),
        "peak_speed_ref": peaks.get("peak_speed"),
        "peak_accel_ref": peaks.get("peak_accel"),
        "peak_speed_actual": float(np.max(np.linalg.norm(speeds, axis=1))),
        "mean_power_W": log.mean_power(),
        "slip_steps": log.sim.slip_steps,
        "lift_off_events": log.sim.lift_off_events,
        "statuses": {
            s: sum(1 for r in log.ticks if r.qp_status == s)
            for s in {r.qp_status for r in log.ticks}
        },
        "max_slack": max((r.slack_max for r in log.ticks), default=0.0),
    }
    result = ScenarioResult(cfg.name, log, summary)
    if out_dir is not None:
        result.files = write_outputs(cfg, result, Path(out_dir))
    if not quiet:
        print(json.dumps(summary, indent=2, sort_keys=True))
    return result


class SolverFailure(RuntimeError):
    pass


def run_energy_compare(cfg: ScenarioConfig, out_dir: Optional[Path] = None,
                       quiet: bool = True) -> dict:
    """Matched eight-shapes in ground and aerial mode; reports the simulated
    energy-saving ratio from the ideal rotor power."""
    results = {}
    for mode_kind in ("eight_ground", "eight_aerial"):
        doc_traj = dict(cfg.trajectory)
        doc_traj["kind"] = mode_kind
        sub = ScenarioConfig(
            name=f"{cfg.name}_{mode_kind}", seed=cfg.seed, params=cfg.params,
            controller=cfg.controller, trajectory=doc_traj,
            environment=cfg.environment, run=cfg.run, output=cfg.output,
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
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        path = Path(out_dir) / f"{cfg.name}_report.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True))
    if not quiet:
        print(json.dumps(report, indent=2, sort_keys=True))
    return report


def run_benchmark_slippery(cfg: ScenarioConfig, out_dir: Optional[Path] = None,
                           quiet: bool = True,
                           lateral_fail_threshold: float = 0.3) -> dict:
    """Two controller variants on the same slippery eight-shape at rising
    speed: the full vehicle with vectored lateral thrust, and an ablation
    with opposed servo tilts (no net side force, the quadrotor-equivalent)."""
    speeds = cfg.trajectory.get("speed_cases", [[1.0, 0.7], [2.0, 1.8]])
    cases = []
    for v_max, a_max in speeds:
        for variant in ("full", "no_lateral"):
            doc_traj = dict(cfg.trajectory)
            doc_traj["kind"] = "eight_ground"
            doc_traj["v_max"] = v_max
            doc_traj["a_max"] = a_max
            doc_traj.pop("speed_cases", None)
            ctrl = replace(cfg.controller, lock_lateral=(variant == "no_lateral"))
            sub = ScenarioConfig(
                name=f"{cfg.name}_{variant}_v{v_max}", seed=cfg.seed,
                params=cfg.params, controller=ctrl, trajectory=doc_traj,
                environment=cfg.environment, run=cfg.run, output=cfg.output,
            )

            def crossed(tick) -> bool:
                vx, vy = tick.x_ref[3], tick.x_ref[4]
                psi = math.atan2(vy, vx) if abs(vx) + abs(vy) > 1e-6 else 0.0
                dx = tick.x[0] - tick.x_ref[0]
                dy = tick.x[1] - tick.x_ref[1]
                lat = -dx * math.sin(psi) + dy * math.cos(psi)
                return abs(lat) > lateral_fail_threshold

            try:
                res = run_scenario(sub, out_dir=None, quiet=True, stop_when=crossed)
                act, ref = res.runlog.positions()
                # lateral deviation relative to the reference heading
                psis = np.array([
                    math.atan2(row.x_ref[4], row.x_ref[3])
                    if abs(row.x_ref[3]) + abs(row.x_ref[4]) > 1e-6 else 0.0
                    for row in res.runlog.ticks
                ])
                lat = -(act[:, 0] - ref[:, 0]) * np.sin(psis) + (
                    act[:, 1] - ref[:, 1]
                ) * np.cos(psis)
                max_lat = float(np.max(np.abs(lat)))
                completed = not res.summary["stopped_early"] and (
                    max_lat <= lateral_fail_threshold
                )
                cases.append({
                    "v_max": v_max, "a_max": a_max, "variant": variant,
                    "completed": completed, "max_lateral_error_m": max_lat,
                    "rmse_m": res.summary["rmse_m"],
                    "slip_steps": res.summary["slip_steps"],
                })
            except (SolverFailure, DivergenceError) as exc:
                cases.append({
                    "v_max": v_max, "a_max": a_max, "variant": variant,
                    "completed": False, "failure": str(exc),
                })
    first_fail = {}
    for case in cases:
        if not case["completed"]:
            first_fail.setdefault(case["variant"], case["v_max"])
    report = {
        "scenario": cfg.name,
        "lateral_fail_threshold_m": lateral_fail_threshold,
        "cases": cases,
        "first_failing_speed": first_fail,
    }
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        path = Path(out_dir) / f"{cfg.name}_report.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True))
    if not quiet:
        print(json.dumps(report, indent=2, sort_keys=True))
    return report


def width_report(params: VehicleParams, m: float = 0.835, quiet: bool = True) -> dict:
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
    "T1,T2,delta1,delta2,mode,solve_time_us,qp_status,cost,slack_max"
)

SIMLOG_COLUMNS = (
    "t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,wx,wy,wz,"
    "T1,T2,delta1,delta2,F_n_left,F_n_right,f_l,slip,lift_off,power"
)


def write_outputs(cfg: ScenarioConfig, result: ScenarioResult, out_dir: Path) -> List[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []

    runlog_path = out_dir / f"{cfg.name}_runlog.csv"
    with runlog_path.open("w", newline="") as fh:
        fh.write(RUNLOG_COLUMNS + "\n")
        for row in result.runlog.ticks:
            vals = (
                [row.t] + list(row.x_ref[0:3]) + list(row.x_ref[6:10])
                + list(row.x[0:3]) + list(row.x[6:10]) + list(row.u)
            )
            fh.write(
                ",".join(_fmt(v) for v in vals)
                + f",{row.mode},{_fmt(row.solve_time_us)},{row.qp_status},"
                + f"{_fmt(row.cost)},{_fmt(row.slack_max)}\n"
            )
    files.append(runlog_path)

    dec = int(cfg.output.get("decimation", 5))
    simlog_path = out_dir / f"{cfg.name}_simlog.csv"
    with simlog_path.open("w", newline="") as fh:
        fh.write(SIMLOG_COLUMNS + "\n")
        for row in result.runlog.sim.log[::dec]:
            vals = (
                [row.t] + list(row.x) + list(row.u)
                + [row.F_n_left, row.F_n_right, row.f_l, row.slip, row.lift_off, row.power]
            )
            fh.write(",".join(_fmt(v) for v in vals) + "\n")
    files.append(simlog_path)

    summary_path = out_dir / f"{cfg.name}_summary.json"
    summary_path.write_text(json.dumps(result.summary, indent=2, sort_keys=True))
    files.append(summary_path)
    return files


def deterministic_digest(path: Path) -> str:
    """SHA-256 of a log CSV with the wall-clock solve-time column masked
    (every physical and control quantity must be bit-reproducible; the
    measured solver latency cannot be)."""
    import hashlib

    lines = Path(path).read_text().splitlines()
    digest = hashlib.sha256()
    header = lines[0].split(",") if lines else []
    skip = header.index("solve_time_us") if "solve_time_us" in header else None
    for line in lines:
        if skip is not None:
            parts = line.split(",")
            parts[skip] = "-"
            line = ",".join(parts)
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def export_plot_data(runlog_csv: Path, out_path: Path) -> Path:
    """Re-shape a runlog CSV into tidy long format (series, t, value)."""
    lines = Path(runlog_csv).read_text().splitlines()
    if not lines:
        raise ConfigError(f"empty runlog {runlog_csv}")
    header = lines[0].split(",")
    t_idx = header.index("t")
    numeric = [
        (i, name) for i, name in enumerate(header)
        if name not in ("t", "mode", "qp_status")
    ]
    with Path(out_path).open("w", newline="") as fh:
        fh.write("series,t,value\n")
        for line in lines[1:]:
            parts = line.split(",")
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
    """Sample the reference pipeline along the trajectory and write one row
    per sample (state, input, mode) for offline inspection."""
    hint = None
    with Path(out_path).open("w", newline="") as fh:
        fh.write(REFLOG_COLUMNS + "\n")
        n = round(duration / dt)
        for i in range(n + 1):
            ref = traj.reference(i * dt, params, psi_hint=hint, clamp=True)
            hint = ref.psi
            vals = [i * dt] + list(ref.x_array()) + list(ref.u_array())
            fh.write(",".join(_fmt(v) for v in vals) + f",{ref.mode.name}\n")
    return Path(out_path)


def run_open_loop(cfg: ScenarioConfig, out_dir: Optional[Path] = None,
                  quiet: bool = True) -> dict:
    """Feed the flatness reference inputs into the simulator open loop and
    report the drift; a quick model-consistency probe, not a controller."""
    traj, peaks = build_trajectory(cfg)
    ref0 = traj.reference(0.0, cfg.params)
    sim = Simulator(
        params=cfg.params, dt=1.0 / float(cfg.environment.get("sim_rate_hz", 1000.0)),
        mode=ref0.mode,
        slip_enabled=bool(cfg.environment.get("slip_enabled", False)),
    )
    sim.state = ref0.x_r
    duration = float(cfg.run.get("duration") or min(2.0, peaks["lap_s"]))
    hint = None
    n = round(duration * 200)
    drift = 0.0
    for _ in range(n):
        ref = traj.reference(sim.t, cfg.params, psi_hint=hint, clamp=True)
        hint = ref.psi
        sim.apply(ref.u_r, 1.0 / 200.0)
        drift = max(drift, float(np.linalg.norm(sim.state.p - ref.x_r.p)))
    report = {"scenario": cfg.name, "duration_s": duration, "max_drift_m": drift}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        export_references(
            traj, cfg.params, duration, 0.02, out / f"{cfg.name}_references.csv"
        )
        (out / f"{cfg.name}_openloop.json").write_text(
            json.dumps(report, indent=2, sort_keys=True)
        )
    if not quiet:
        print(json.dumps(report, indent=2))
    return report


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
        cfg.seed = args.seed
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
        p.add_argument("--config", type=str, default=None, help="scenario JSON path")
        p.add_argument("--scenario", type=str, default=None, help="bundled scenario name")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override RNG seed")
        p.add_argument("--quiet", action="store_true")
        if name == "export":
            p.add_argument("--runlog", type=str, required=False, help="runlog CSV to export")
    args = parser.parse_args(argv)

    out_dir = Path(args.out) if args.out else None
    try:
        if args.command == "analyze":
            report = width_report(VehicleParams(), quiet=args.quiet)
            if out_dir:
                out_dir.mkdir(parents=True, exist_ok=True)
                (out_dir / "width_report.json").write_text(
                    json.dumps(report, indent=2, sort_keys=True)
                )
            return EXIT_OK
        if args.command == "export":
            if not args.runlog:
                raise ConfigError("export requires --runlog PATH")
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
        if args.command == "track":
            kind = cfg.trajectory.get("kind")
            if kind == "energy_compare":
                run_energy_compare(cfg, out_dir, quiet=args.quiet)
            elif kind == "width_report":
                report = width_report(cfg.params, quiet=args.quiet)
                if out_dir:
                    out_dir.mkdir(parents=True, exist_ok=True)
                    (out_dir / f"{cfg.name}.json").write_text(
                        json.dumps(report, indent=2, sort_keys=True)
                    )
            else:
                run_scenario(cfg, out_dir, quiet=args.quiet)
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleReferenceError as exc:
        print(f"infeasible reference: {exc}", *getattr(exc, "__notes__", ()),
              sep="; ", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except DivergenceError as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
