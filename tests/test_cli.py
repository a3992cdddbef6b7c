import hashlib
import json
import math
import numpy as np
import pytest

from wheeled_bicopter import cli
from wheeled_bicopter.core import ConfigError


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
