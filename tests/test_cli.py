import hashlib
import json
import math
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wheeled_bicopter import cli
from wheeled_bicopter.core import ConfigError
from wheeled_bicopter.dynamics import Simulator


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
         "q_p_too_short", "q_u_too_short", "q_q_a_matrix", "q_p_a_scalar"],
)
def test_main_malformed_scenario_exits_with_config_error(mutate, tmp_path, capsys):
    doc = tiny_hover_doc()
    mutate(doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["track", "--config", str(path), "--quiet"]) == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_main_overflowing_number_exits_with_config_error(tmp_path, capsys):
    # json reads 1e999 as inf
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(tiny_hover_doc()).replace('"duration": 0.4', '"duration": 1e999'))
    assert cli.main(["track", "--config", str(path), "--quiet"]) == cli.EXIT_CONFIG
    assert "non-finite" in capsys.readouterr().err


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


def test_main_exit_code_infeasible_reference(tmp_path):
    # violent ground eight at low vertical thrust: pitch equation leaves the
    # arcsine domain, reported as a distinct exit code
    doc = tiny_ground_doc()
    doc["trajectory"].update({"v_max": 6.0, "a_max": 12.0, "T_Bz_frac": 0.2})
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["track", "--config", str(path), "--quiet"]) == cli.EXIT_INFEASIBLE


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
    doc["controller"] = {"q_p": [7.0, 8.0, 9.0], "u_max": [6.0, 6.0, 0.5, 0.5]}
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
        np.testing.assert_array_equal(ctrl.u_max, [6.0, 6.0, 0.5, 0.5])
