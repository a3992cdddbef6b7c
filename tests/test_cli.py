import copy
import hashlib
import json
import math
from dataclasses import MISSING, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wheeled_bicopter import cli, nmpc
from wheeled_bicopter import trajectory as tj
from wheeled_bicopter.core import ConfigError, InfeasibleReferenceError, Mode, VehicleParams
from wheeled_bicopter.dynamics import Simulator
from wheeled_bicopter.nmpc import NmpcConfig


def tiny_hover_doc(duration=0.4, seed=3):
    return {
        "schema_version": 1,
        "name": "tiny_hover",
        "seed": seed,
        "vehicle": {},
        "environment": {
            "slip_enabled": False,
            "control_rate_hz": 200.0,
            "sim_rate_hz": 1000.0,
            "noise_pos_std": 0.002,
            "noise_att_std": 0.001,
        },
        "trajectory": {"kind": "rest_hover", "p0": [0.0, 0.0, 1.0], "duration": 5.0},
        "controller": {},
        "run": {"duration": duration, "rmse_planar": False},
        "output": {"decimation": 2},
    }


def tiny_ground_doc(duration=0.6):
    return {
        "schema_version": 1,
        "name": "tiny_ground",
        "seed": 0,
        "vehicle": {},
        "environment": {"mu": 0.01, "mu_s": 0.8, "slip_enabled": True,
                        "control_rate_hz": 200.0, "sim_rate_hz": 1000.0},
        "trajectory": {"kind": "eight_ground", "A": 2.0, "B": 0.6,
                       "v_max": 1.2, "a_max": 1.0, "T_Bz_frac": 0.5},
        "controller": {},
        "run": {"duration": duration, "rmse_planar": True},
        "output": {"decimation": 4},
    }


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_rejects_unknown_top_level_key():
    doc = tiny_hover_doc()
    doc["extra"] = 1
    with pytest.raises(ConfigError):
        cli.ScenarioConfig.from_dict(doc)


def test_config_rejects_bad_schema_version():
    doc = tiny_hover_doc()
    doc["schema_version"] = 99
    with pytest.raises(ConfigError):
        cli.ScenarioConfig.from_dict(doc)


def test_config_rejects_unknown_environment_key():
    doc = tiny_hover_doc()
    doc["environment"]["wind"] = 1.0
    with pytest.raises(ConfigError):
        cli.ScenarioConfig.from_dict(doc)


def test_config_rejects_negative_mass():
    doc = tiny_hover_doc()
    doc["vehicle"] = {"m": -0.8}
    with pytest.raises(ConfigError):
        cli.ScenarioConfig.from_dict(doc)


def test_config_rejects_unknown_trajectory_kind():
    doc = tiny_hover_doc()
    doc["trajectory"] = {"kind": "spiral"}
    cfg = cli.ScenarioConfig.from_dict(doc)
    with pytest.raises(ConfigError):
        cli.build_trajectory(cfg)


def test_hybrid_within_its_limits_uses_the_undilated_eights(monkeypatch):
    doc = cli.load_bundled_scenario("hybrid_3d")
    doc["trajectory"].update(v_max=4.0, a_max=5.0)  # no dilation needed
    cfg = cli.ScenarioConfig.from_dict(doc, "hybrid_3d")
    reports, scale = [], tj.scale_to_limits

    def recorded(seg, v_max, a_max):
        reports.append(scale(seg, v_max, a_max))
        return reports[-1]

    monkeypatch.setattr(tj, "scale_to_limits", recorded)
    traj, _ = cli.build_trajectory(cfg)  # raises on a discontinuous joint
    assert all(rep.dilation == 1.0 for rep in reports)
    thrust_up, eights = traj.segments[5], traj.segments[2::5]
    assert [seg.mode for seg in eights] == [Mode.GROUND, Mode.AERIAL]
    assert eights[0] is reports[0].segment and eights[1] is reports[-1].segment
    assert all(type(seg) is tj.Lemniscate for seg in eights)
    # the aerial eight starts 2 m ahead of the takeoff point, along its own
    # start heading, at altitude
    f = eights[1].start_flat()
    lift = [0.0, 0.0, doc["trajectory"]["altitude"] - cfg.params.r]
    want = thrust_up.p0 + 2.0 * f[1] / np.linalg.norm(f[1]) + lift
    np.testing.assert_allclose(f[0], want, rtol=0, atol=1e-12)


def test_main_exit_code_for_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 2}))
    assert cli.main(["track", "--config", str(bad)]) == cli.EXIT_CONFIG


def test_main_requires_config_or_scenario():
    assert cli.main(["track"]) == cli.EXIT_CONFIG


def test_main_missing_input_files_exit_with_config_error(tmp_path):
    missing = str(tmp_path / "missing")
    assert cli.main(["track", "--config", missing, "--quiet"]) == cli.EXIT_CONFIG
    assert cli.main(["export", "--runlog", missing, "--quiet"]) == cli.EXIT_CONFIG


def _set(block, **values):
    def mutate(doc):
        doc[block].update(values)
    return mutate


def _top(**values):
    def mutate(doc):
        doc.update(values)
    return mutate


def _aerial_eight_without_v_max(doc):
    doc["trajectory"] = {"kind": "eight_aerial", "a_max": 1.0}


def _environment_not_an_object(doc):
    doc["environment"] = [1.0]


def _control_rate_bool(doc):
    # true read as 1 Hz would also make the default 0.4 s run too short
    doc["environment"]["control_rate_hz"] = True
    doc["run"]["duration"] = 2.0


@pytest.mark.parametrize(
    "mutate",
    [
        _set("controller", K=0),
        _set("controller", q_p=[-1, 1, 1]),
        _set("controller", u_min=[0.0, 0.0, -0.5, 0.5], u_max=[8.0, 8.0, 0.5, 0.5]),
        _set("vehicle", m="abc"),
        _set("environment", control_rate_hz="fast"),
        _aerial_eight_without_v_max,
        _set("environment", control_rate_hz=0),
        _set("environment", sim_rate_hz=0),
        _set("environment", sim_rate_hz=333),
        _set("environment", noise_pos_std=-1),
        _set("run", duration="x"),
        _set("run", duration=-1),
        _set("output", decimation="x"),
        _set("output", decimation=0),
        _set("controller", K=2.5),
        _set("controller", max_qp_iter="x"),
        _set("controller", max_qp_iter=0),
        _set("controller", kkt_tol=-1),
        _set("controller", slack_reg=0),
        _set("controller", slack_penalty=0),
        _set("controller", slack_penalty=-1),
        _set("trajectory", A=math.nan),
        _set("run", duration=math.inf),
        _set("environment", noise_pos_std=math.nan),
        _set("trajectory", speed_cases=[[1.0]]),
        _set("trajectory", speed_cases="fast"),
        _set("trajectory", speed_cases=[[1.0, -0.7]]),
        _set("output", decimation=2.7),
        _set("output", decimation=True),
        _top(seed=2.5),
        _top(seed=-1),
        _set("run", label="tiny"),
        _environment_not_an_object,
        _set("trajectory", p0=[0.0, None, 1.0]),
        _set("environment", control_rate_hz=0.5),
        _set("environment", slip_enabled="false"),
        _set("run", rmse_planar=None),
        _top(name=["tiny"]),
        _set("controller", q_p=[1.0, 2.0]),
        _set("controller", q_u=[1.0]),
        _set("controller", q_q=[[1, 2], [3, 4]]),
        _set("controller", q_p=5.0),
        _set("controller", lock_lateral="no"),
        _set("controller", lock_lateral=1),
        _set("controller", constraint_margin="x"),
        _set("controller", constraint_margin=None),
        _set("controller", constraint_margin=[1, 2]),
        _set("controller", constraint_margin=True),
        _set("controller", u_max=[None, 8.0, 0.7, 0.7]),
        _set("controller", u_min=[0.0, None, -0.7, -0.7]),
        _set("controller", u_max=[8.0, 8.0, 0.7]),
        _set("controller", u_max=[8.0, 8.0, True, 0.7]),
        _set("controller", u_min="low"),
        _set("trajectory", A="3.5"),
        _set("trajectory", p0=[True, 0, 1]),
        _set("run", duration=True),
        _control_rate_bool,
        _top(schema_version=True),
        _set("vehicle", J=[[4.1e-3, 0.0, 0.0], [0.0, 2.8e-3, 0.0], [0.0, 0.0, 3.5e-3]]),
    ],
    ids=["K_zero", "negative_q_p", "u_min_not_below_u_max", "mass_not_a_number",
         "rate_not_a_number", "eight_aerial_without_v_max",
         "control_rate_zero", "sim_rate_zero", "sim_rate_not_a_multiple",
         "negative_noise_std", "duration_not_a_number", "negative_duration",
         "decimation_not_a_number", "decimation_zero",
         "K_not_an_integer", "max_qp_iter_not_a_number", "max_qp_iter_zero",
         "negative_kkt_tol", "slack_reg_zero", "slack_penalty_zero",
         "negative_slack_penalty", "trajectory_A_nan", "duration_infinite",
         "noise_std_nan", "speed_case_not_a_pair", "speed_cases_not_a_list",
         "negative_speed_case_limit", "decimation_not_an_integer", "decimation_bool",
         "seed_not_an_integer", "negative_seed", "run_label_unknown",
         "environment_not_an_object", "p0_with_null", "run_shorter_than_a_control_period",
         "slip_enabled_not_a_bool", "rmse_planar_not_a_bool", "name_not_a_string",
         "q_p_too_short", "q_u_too_short", "q_q_a_matrix", "q_p_a_scalar",
         "lock_lateral_a_string", "lock_lateral_an_integer", "constraint_margin_a_string",
         "constraint_margin_null", "constraint_margin_a_list", "constraint_margin_bool",
         "u_max_with_null", "u_min_with_null", "u_max_too_short", "u_max_with_bool",
         "u_min_a_string", "trajectory_A_a_string", "p0_with_bool", "duration_bool",
         "control_rate_bool", "schema_version_bool",
         "J_a_diagonal_matrix"],
)
def test_main_malformed_scenario_exits_with_config_error(mutate, tmp_path, capsys):
    doc = tiny_hover_doc()
    mutate(doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["track", "--config", str(path), "--quiet"]) == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("kkt_tol", 1e-8), ("max_qp_iter", 200), ("slack_penalty", 1e5), ("slack_reg", 1e-3),
    ("constraint_margin", 1.5), ("u_min", [0.0, 0.0, -0.7, -0.7]),
    ("u_max", [8.0, 8.0, 0.7, 0.7]),
])
def test_main_controller_key_that_is_now_a_constant_exits_with_config_error(
        key, value, tmp_path, capsys):
    # the solver numerics are nmpc constants and the input box comes from
    # the vehicle, so a scenario that still sets one is rejected by name
    doc = tiny_hover_doc()
    doc["controller"][key] = value
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["track", "--config", str(path), "--quiet"]) == cli.EXIT_CONFIG
    assert f"config error: unknown keys in controller: [{key!r}]" in capsys.readouterr().err


def test_main_unknown_vehicle_key_exits_with_config_error(tmp_path, capsys):
    doc = tiny_hover_doc()
    doc["vehicle"]["mass"] = 0.8
    path = tmp_path / "mass.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["track", "--config", str(path), "--quiet"]) == cli.EXIT_CONFIG == 2
    assert "config error: unknown keys in vehicle: ['mass']" in capsys.readouterr().err


def test_main_overflowing_number_exits_with_config_error(tmp_path, capsys):
    # json reads 1e999 as inf
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(tiny_hover_doc()).replace('"duration": 0.4', '"duration": 1e999'))
    assert cli.main(["track", "--config", str(path), "--quiet"]) == cli.EXIT_CONFIG
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["track", "simulate"])
def test_main_run_shorter_than_one_control_period_exits_with_config_error(
        command, tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps(tiny_ground_doc(duration=0.001)))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out), "--quiet"]) == cli.EXIT_CONFIG
    assert "a 0.001 s run is shorter than one control period" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--scenario", "aerial_8shape"],
    ["analyze", "--seed", "5"],
    ["analyze", "--config", "scenario.json"],
    ["export", "--scenario", "aerial_8shape", "--runlog", "runlog.csv"],
])
def test_subcommand_rejects_options_it_does_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_main_rejects_negative_seed_override():
    assert cli.main(["track", "--scenario", "aerial_8shape", "--seed", "-1"]) == cli.EXIT_CONFIG


def _value_paths(node, path=()):
    """Paths of every value (leaf or block) inside a scenario document."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield path + (key,)
            yield from _value_paths(child, path + (key,))


DRAWN_VALUES = [math.nan, math.inf, -math.inf, -1, -0.5, 0, 0.0, 0.37, 2.5,
                "x", None, [], [1.0, 2.0], {}, True, False]


@settings(max_examples=40, deadline=None)
@given(path=st.sampled_from(list(_value_paths(tiny_hover_doc()))),
       value=st.sampled_from(DRAWN_VALUES))
def test_main_any_replaced_value_ends_in_a_documented_exit_code(tmp_path_factory, path, value):
    doc = tiny_hover_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cfg = tmp_path_factory.mktemp("mutated") / "scenario.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["track", "--config", str(cfg), "--quiet"]) in {
        cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_INFEASIBLE, cli.EXIT_SOLVER, cli.EXIT_DIVERGED}


def _bundled_mutation_targets():
    """(scenario, path, value held there) for every value of every bundled
    scenario, and for every VehicleParams and NmpcConfig field that its
    empty vehicle and controller blocks could add (held: the default)."""
    for name in cli.bundled_scenario_names():
        doc = cli.load_bundled_scenario(name)
        for path in _value_paths(doc):
            node = doc
            for key in path:
                node = node[key]
            yield name, path, node
        for block, cls in (("vehicle", VehicleParams), ("controller", NmpcConfig)):
            assert doc[block] == {}
            for f in fields(cls):
                default = f.default if f.default_factory is MISSING else f.default_factory()
                yield name, (block, f.name), default


def _numeric(value) -> bool:
    """A number that is not a bool, or a non-empty list or array of them."""
    if isinstance(value, (list, np.ndarray)):
        return len(value) > 0 and all(map(_numeric, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


LOADED_VALUES = DRAWN_VALUES + [10**400, "3.5", [True, 1.0, 1.0], [1.0, 2.0, 3.0]]


@settings(max_examples=300, deadline=None)
@given(target=st.sampled_from(list(_bundled_mutation_targets())),
       value=st.sampled_from(LOADED_VALUES))
def test_load_of_a_mutated_bundled_scenario_returns_or_raises_config_error(target, value):
    name, path, held = target
    doc = cli.load_bundled_scenario(name)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    try:
        cli.ScenarioConfig.from_dict(doc, name)
    except ConfigError:
        return
    assert not (_numeric(held) and isinstance(value, (bool, str))), f"{path} = {value!r} loaded"


# ---------------------------------------------------------------------------
# bundled scenarios
# ---------------------------------------------------------------------------


def test_bundled_scenarios_present_and_valid():
    names = cli.bundled_scenario_names()
    assert set(names) == {
        "aerial_8shape", "ground_8shape_rough", "ground_8shape_slippery",
        "hybrid_3d", "energy_compare", "benchmark_slippery",
        "narrow_gap_width_report",
    }
    for name in names:
        cfg = cli.ScenarioConfig.from_dict(cli.load_bundled_scenario(name), name)
        assert cfg.name == name


def test_unknown_bundled_scenario():
    with pytest.raises(ConfigError):
        cli.load_bundled_scenario("does_not_exist")


# ---------------------------------------------------------------------------
# runs and outputs
# ---------------------------------------------------------------------------


def test_run_scenario_writes_outputs(tmp_path):
    cfg = cli.ScenarioConfig.from_dict(tiny_hover_doc())
    res = cli.run_scenario(cfg, out_dir=tmp_path)
    names = {p.name for p in res.files}
    assert names == {
        "tiny_hover_runlog.csv", "tiny_hover_simlog.csv", "tiny_hover_summary.json"
    }
    runlog = (tmp_path / "tiny_hover_runlog.csv").read_text().splitlines()
    assert runlog[0] == cli.RUNLOG_COLUMNS
    assert len(runlog) == 1 + res.summary["ticks"]
    summary = json.loads((tmp_path / "tiny_hover_summary.json").read_text())
    assert summary["rmse_m"] == res.summary["rmse_m"]
    assert "abort_reason" not in summary


def test_summary_recomputable_from_runlog_rows(tmp_path):
    cfg = cli.ScenarioConfig.from_dict(tiny_hover_doc())
    res = cli.run_scenario(cfg, out_dir=tmp_path)
    lines = (tmp_path / "tiny_hover_runlog.csv").read_text().splitlines()
    header = lines[0].split(",")
    cols = {name: i for i, name in enumerate(header)}
    err2 = []
    for line in lines[1:]:
        parts = line.split(",")
        d = [
            float(parts[cols["px"]]) - float(parts[cols["ref_px"]]),
            float(parts[cols["py"]]) - float(parts[cols["ref_py"]]),
            float(parts[cols["pz"]]) - float(parts[cols["ref_pz"]]),
        ]
        err2.append(sum(x * x for x in d))
    rmse = math.sqrt(sum(err2) / len(err2))
    assert rmse == pytest.approx(res.summary["rmse_3d_m"], abs=1e-9)


def test_runlog_logs_qp_iterations_and_kkt_residual(tmp_path):
    cfg = cli.ScenarioConfig.from_dict(tiny_hover_doc())
    res = cli.run_scenario(cfg, out_dir=tmp_path)
    lines = (tmp_path / "tiny_hover_runlog.csv").read_text().splitlines()
    cols = {name: i for i, name in enumerate(lines[0].split(","))}
    assert len(lines) == 1 + len(res.runlog.ticks)
    for tick, line in zip(res.runlog.ticks, lines[1:]):
        parts = line.split(",")
        assert tick.qp_status == "optimal"
        assert int(parts[cols["qp_iters"]]) == tick.qp_iters >= 1
        assert float(parts[cols["kkt_residual"]]) == tick.kkt_residual < 1e-6


def test_seeded_runs_byte_identical(tmp_path):
    # identical seed and config reproduce every physical/control byte; the
    # wall-clock solver latency column is masked by the shared digest
    doc = tiny_hover_doc()
    hashes = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cfg = cli.ScenarioConfig.from_dict(doc)
        cli.run_scenario(cfg, out_dir=out)
        hashes.append(
            (
                cli.deterministic_digest(out / "tiny_hover_runlog.csv"),
                cli.deterministic_digest(out / "tiny_hover_simlog.csv"),
            )
        )
    assert hashes[0] == hashes[1]
    # the simlog has no timing column at all: raw bytes must match
    a = (tmp_path / "a" / "tiny_hover_simlog.csv").read_bytes()
    b = (tmp_path / "b" / "tiny_hover_simlog.csv").read_bytes()
    assert hashlib.sha256(a).hexdigest() == hashlib.sha256(b).hexdigest()


def test_different_seed_changes_noisy_run(tmp_path):
    doc = tiny_hover_doc(seed=3)
    cfg_a = cli.ScenarioConfig.from_dict(doc)
    res_a = cli.run_scenario(cfg_a)
    doc_b = tiny_hover_doc(seed=4)
    res_b = cli.run_scenario(cli.ScenarioConfig.from_dict(doc_b))
    a = res_a.runlog.input_series()
    b = res_b.runlog.input_series()
    assert not np.array_equal(a, b)


def test_ground_run_logs_contact_columns(tmp_path):
    cfg = cli.ScenarioConfig.from_dict(tiny_ground_doc())
    res = cli.run_scenario(cfg, out_dir=tmp_path)
    lines = (tmp_path / "tiny_ground_simlog.csv").read_text().splitlines()
    assert lines[0] == cli.SIMLOG_COLUMNS
    cols = {name: i for i, name in enumerate(lines[0].split(","))}
    row = lines[1].split(",")
    Fl = float(row[cols["F_n_left"]])
    Fr = float(row[cols["F_n_right"]])
    assert Fl > 0 and Fr > 0
    assert float(row[cols["power"]]) > 0


@pytest.mark.parametrize("decimation", [1, 3])
def test_simlog_rows_are_the_simulator_log(tmp_path, decimation):
    doc = tiny_ground_doc(duration=0.1)
    doc["output"]["decimation"] = decimation
    res = cli.run_scenario(cli.ScenarioConfig.from_dict(doc), out_dir=tmp_path)
    lines = (tmp_path / "tiny_ground_simlog.csv").read_text().splitlines()
    log = res.runlog.sim.log[::decimation]
    assert lines[0] == cli.SIMLOG_COLUMNS and len(lines) == 1 + len(log)
    header = lines[0].split(",")
    flags = [header.index("slip"), header.index("lift_off")]
    for rec, line in zip(log, lines[1:]):
        parts = line.split(",")
        # repr of a float parses back to the same float
        assert [float(v) for v in parts] == [
            rec.t, *rec.x, *rec.u, rec.F_n_left, rec.F_n_right, rec.f_l,
            rec.slip, rec.lift_off, rec.power]
        assert {parts[i] for i in flags} <= {"0", "1"}


def test_open_loop_simulate_smoke(tmp_path):
    cfg = cli.ScenarioConfig.from_dict(tiny_ground_doc(duration=1.0))
    rep = cli.run_open_loop(cfg, out_dir=tmp_path)
    assert rep["max_drift_m"] < 0.05
    lines = (tmp_path / "tiny_ground_references.csv").read_text().splitlines()
    assert lines[0] == cli.REFLOG_COLUMNS
    assert len(lines) > 40
    assert lines[1].endswith("GROUND")


def test_open_loop_steps_at_the_scenario_control_rate(monkeypatch):
    doc = tiny_ground_doc(duration=0.3)
    doc["environment"]["control_rate_hz"] = 100.0
    holds = []
    apply = Simulator.apply

    def counted(sim, u, duration):
        holds.append(duration)
        apply(sim, u, duration)

    monkeypatch.setattr(Simulator, "apply", counted)
    cli.run_open_loop(cli.ScenarioConfig.from_dict(doc))
    assert holds == [1.0 / 100.0] * round(0.3 * 100)


def test_main_exit_code_infeasible_reference(tmp_path, capsys):
    # violent ground eight at low vertical thrust: node 10 of the first
    # tick's horizon needs a negative collective thrust, so the run has no
    # tick to keep and writes nothing
    doc = tiny_ground_doc()
    doc["trajectory"].update({"v_max": 6.0, "a_max": 12.0, "T_Bz_frac": 0.2})
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = ["track", "--config", str(path), "--out", str(out), "--quiet"]
    assert cli.main(argv) == cli.EXIT_INFEASIBLE
    assert "sample 10 (t=0.500s)" in capsys.readouterr().err
    assert not out.exists()


def test_start_from_a_reference_beyond_the_thrust_cap_takes_its_state():
    # hover needs half the weight per rotor, above this T_max: the t = 0
    # reference input is clamped, and its state is the simulator's start
    doc = tiny_hover_doc()
    doc["vehicle"] = {"T_max": 0.4 * VehicleParams().weight}
    cfg = cli.ScenarioConfig.from_dict(doc)
    traj, _, sim, _ = cli._start(cfg)
    ref = traj.reference(0.0, cfg.params)
    assert "input_clamped" in ref.flags and max(ref.u[:2]) == cfg.params.T_max
    assert sim.x.tobytes() == ref.x.tobytes() and sim.mode is ref.mode


def test_main_solver_failure_leaves_partial_logs_and_a_summary(tmp_path, monkeypatch):
    def degraded(x, refs, cfg, params, prev=None):
        return nmpc.OcpSolution.degraded(np.stack([r.u for r in refs]),
                                         np.stack([r.x for r in refs]))

    monkeypatch.setattr(nmpc, "solve", degraded)
    path = tmp_path / "hover.json"
    path.write_text(json.dumps(tiny_hover_doc()))
    out = tmp_path / "out"
    argv = ["track", "--config", str(path), "--out", str(out), "--quiet"]
    assert cli.main(argv) == cli.EXIT_SOLVER
    runlog = (out / "tiny_hover_runlog.csv").read_text().splitlines()
    status = runlog[0].split(",").index("qp_status")
    assert [line.split(",")[status] for line in runlog[1:]] == ["degraded"] * 10
    simlog = (out / "tiny_hover_simlog.csv").read_text().splitlines()
    assert len(simlog) == 1 + 10 * 5 // 2  # 5 plant steps per tick, decimation 2
    summary = json.loads((out / "tiny_hover_summary.json").read_text())
    assert summary["ticks"] == 10 and summary["stopped_early"] is True
    assert summary["abort_reason"] == "solver degraded for 11 consecutive ticks"


def _failed_run_files(tmp_path, doc, code):
    """Run `track` on doc, require exit `code`, and return the runlog rows,
    the simlog row count and the summary it left."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["track", "--config", str(path), "--out", str(out), "--quiet"]) == code
    name = doc["name"]
    runlog = (out / f"{name}_runlog.csv").read_text().splitlines()
    simlog = (out / f"{name}_simlog.csv").read_text().splitlines()
    summary = json.loads((out / f"{name}_summary.json").read_text())
    return runlog[1:], len(simlog) - 1, summary


def test_main_divergence_leaves_partial_logs_and_a_summary(tmp_path, monkeypatch):
    # the sixth tick commands a thrust the plant cannot integrate
    solve = nmpc.solve
    calls = []

    def faulty(x, refs, cfg, params, prev=None):
        sol = solve(x, refs, cfg, params, prev=prev)
        calls.append(sol)
        if len(calls) == 6:
            sol.u_seq = np.array([[1e9, 1e9, 0.0, 0.0]] * cfg.K)
        return sol

    monkeypatch.setattr(nmpc, "solve", faulty)
    ticks, steps, summary = _failed_run_files(tmp_path, tiny_hover_doc(), cli.EXIT_DIVERGED)
    assert len(ticks) == 6  # the diverging tick stays logged
    assert steps == (5 * 5 + 1 + 1) // 2  # its first plant step too, decimation 2
    assert summary["ticks"] == 6 and summary["stopped_early"] is True
    assert summary["abort_reason"] == "simulation diverged at t=0.0250s (mode AERIAL)"


def test_main_mid_run_infeasible_reference_leaves_partial_logs_and_a_summary(
        tmp_path, monkeypatch, capsys):
    # the hover becomes infeasible past t = 1.02 s, which the horizon of
    # the sixth tick (nodes 0.025 s to 1.025 s) is the first to reach
    transform = tj.aerial_flat_to_reference

    def faulty(sample, params, clamp=False):
        if sample.t > 1.02:
            raise InfeasibleReferenceError("injected fault")
        return transform(sample, params, clamp=clamp)

    monkeypatch.setattr(tj, "aerial_flat_to_reference", faulty)
    ticks, steps, summary = _failed_run_files(tmp_path, tiny_hover_doc(), cli.EXIT_INFEASIBLE)
    assert len(ticks) == 5 and steps == 5 * 5 // 2 + 1
    assert summary["ticks"] == 5 and summary["stopped_early"] is True
    assert summary["abort_reason"] == "infeasible reference: injected fault; sample 20 (t=1.025s)"
    # the error line is the abort reason, note included
    assert capsys.readouterr().err == summary["abort_reason"] + "\n"


def test_main_exit_code_negative_mass(tmp_path):
    doc = tiny_hover_doc()
    doc["vehicle"] = {"m": -1.0}
    path = tmp_path / "badmass.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["track", "--config", str(path), "--quiet"]) == cli.EXIT_CONFIG


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_export_round_trip(tmp_path):
    cfg = cli.ScenarioConfig.from_dict(tiny_hover_doc())
    res = cli.run_scenario(cfg, out_dir=tmp_path)
    tidy = cli.export_plot_data(tmp_path / "tiny_hover_runlog.csv", tmp_path / "tidy.csv")
    lines = tidy.read_text().splitlines()
    assert lines[0] == "series,t,value"
    # same number of samples per series, and the summary is recomputable
    by_series = {}
    for line in lines[1:]:
        name, t, value = line.split(",")
        by_series.setdefault(name, []).append((float(t), float(value)))
    n = res.summary["ticks"]
    assert all(len(v) == n for v in by_series.values())
    err2 = [
        (ax - rx) ** 2 + (ay - ry) ** 2 + (az - rz) ** 2
        for (_, ax), (_, ay), (_, az), (_, rx), (_, ry), (_, rz) in zip(
            by_series["px"], by_series["py"], by_series["pz"],
            by_series["ref_px"], by_series["ref_py"], by_series["ref_pz"],
        )
    ]
    assert math.sqrt(sum(err2) / n) == pytest.approx(res.summary["rmse_3d_m"], abs=1e-9)


def test_export_header_only_for_empty_log(tmp_path):
    src = tmp_path / "empty_runlog.csv"
    src.write_text(cli.RUNLOG_COLUMNS + "\n")
    tidy = cli.export_plot_data(src, tmp_path / "tidy.csv")
    assert tidy.read_text() == "series,t,value\n"


@pytest.mark.parametrize("content", [b"time,px\n0.0,1.0\n", b"t,px\n0.0,\xff\n", b"t,px\n0.0\n"],
                         ids=["no_t_column", "not_utf8", "row_shorter_than_header"])
def test_main_export_of_a_malformed_runlog_exits_with_config_error(content, tmp_path, capsys):
    runlog = tmp_path / "runlog.csv"
    runlog.write_bytes(content)
    argv = ["export", "--runlog", str(runlog), "--out", str(tmp_path / "out"), "--quiet"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "runlog_tidy.csv").exists()


@pytest.mark.parametrize("under", ["", "sub"], ids=["a_file", "under_a_file"])
@pytest.mark.parametrize("argv", [["analyze"], ["track", "--scenario", "aerial_8shape"],
                                  ["export", "--runlog", "RUNLOG"]])
def test_main_out_that_is_a_file_exits_with_config_error_before_any_run(
        argv, under, tmp_path, monkeypatch, capsys):
    def no_run(*args, **kw):
        raise AssertionError("the run started before --out was checked")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    runlog = tmp_path / "runlog.csv"
    runlog.write_text(cli.RUNLOG_COLUMNS + "\n")
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = [str(runlog) if a == "RUNLOG" else a for a in argv]
    assert cli.main([*argv, "--out", str(taken / under), "--quiet"]) == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analysis subcommand
# ---------------------------------------------------------------------------


def test_width_report_contents(tmp_path):
    assert cli.main(["analyze", "--out", str(tmp_path), "--quiet"]) == cli.EXIT_OK
    report = json.loads((tmp_path / "width_report.json").read_text())
    by = {r["layout"]: r["ratio"] for r in report["widths"]}
    assert by["bicopter_longitudinal"] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert min(by, key=by.get) == "bicopter_longitudinal"
    assert report["steering_ratio_sweep"][0]["ratio"] == pytest.approx(7.0, rel=1e-9)


def test_benchmark_slippery_keeps_controller_block_in_both_variants(monkeypatch):
    doc = cli.load_bundled_scenario("benchmark_slippery")
    doc["controller"] = {"q_p": [7.0, 8.0, 9.0], "K": 12}
    doc["trajectory"]["speed_cases"] = [[1.0, 0.7]]
    cfg = cli.ScenarioConfig.from_dict(doc, "benchmark_slippery")
    seen = []

    def fake_run_scenario(sub, **kw):
        seen.append(sub.controller)
        raise cli.SolverFailure("not run")

    monkeypatch.setattr(cli, "run_scenario", fake_run_scenario)
    report = cli.run_benchmark_slippery(cfg)
    assert [c["variant"] for c in report["cases"]] == ["full", "no_lateral"]
    assert [c.lock_lateral for c in seen] == [False, True]
    for ctrl in seen:
        np.testing.assert_array_equal(ctrl.q_p, [7.0, 8.0, 9.0])
        assert ctrl.K == 12
