"""Self-tests of the benchmark harness (not of the program).

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from wheeled_bicopter import cli, nmpc  # noqa: E402

import stages  # noqa: E402
import workloads as W  # noqa: E402


def _short(name: str, duration: float) -> W.Workload:
    base = W.WORKLOADS[name]

    def edit(doc):
        base.edit(doc)
        doc["run"]["duration"] = duration

    return dataclasses.replace(base, edit=edit)


def test_traced_and_untraced_runs_write_identical_logs(tmp_path):
    for name, duration in (("aerial_eight", 0.25), ("open_loop_ground", 2.0)):
        wl = _short(name, duration)
        plain = W.run_unit(wl, 0, tmp_path / name / "plain")
        tracer = stages.Tracer()
        traced = W.run_unit(wl, 0, tmp_path / name / "traced", tracer)
        assert not plain.problems and not traced.problems
        assert plain.digests and plain.digests == traced.digests
        assert plain.quantities == traced.quantities
        assert tracer.stats["trajectory.reference"].calls > 0
        assert not tracer.absent


def test_wrappers_are_removed_after_a_unit(tmp_path):
    before = (cli.run_scenario, cli.control_loop, nmpc.solve, nmpc.solve_qp,
              cli.Simulator.__dict__["apply"])
    W.run_unit(_short("aerial_eight", 0.1), 0, tmp_path, stages.Tracer())
    after = (cli.run_scenario, cli.control_loop, nmpc.solve, nmpc.solve_qp,
             cli.Simulator.__dict__["apply"])
    assert before == after


def test_missing_wrap_target_is_reported_absent_not_zero(tmp_path, monkeypatch):
    # the open loop never calls into nmpc, so it still runs without it
    monkeypatch.delattr(nmpc, "_linearize_horizon")
    tracer = stages.Tracer()
    unit = W.run_unit(W.WORKLOADS["open_loop_ground"], 0, tmp_path, tracer)
    assert "wheeled_bicopter.nmpc:_linearize_horizon" in tracer.absent
    values, absent = tracer.metrics(400, 1, unit.wall_s, 1.0, unit.slip_steps, unit.log_rows)
    for name in ("nmpc.linearize_ms_per_tick", "nmpc.condense_ms_per_tick",
                 "nmpc.self_ms_per_tick", "nmpc.self_share"):
        assert name in absent and name not in values
    assert values["nmpc.qp_ms_per_tick"] == (0.0, "ms")  # present, never called
    assert set(values) | set(absent) == set(stages.PER_LAYER) - {"trace.overhead_wall_per_sim_s"}


def test_speed_normalization_skips_kernel_time_and_one_off_outliers():
    # kernels of 1 s every 10 s; the third was preempted (factor 0.1)
    factors = [1.0, 1.0, 0.1, 1.0, 2.0, 2.0]
    marks = [stages.SpeedMark(10.0 * i, 10.0 * i + 1.0, 3 * i, f) for i, f in enumerate(factors)]
    raw, norm = stages.normalized_wall(marks, 60.0)
    assert raw == 54.0
    assert norm == 9.0 * (1 + 1 + 1 + 1 + 2 + 2)
    assert stages.tick_factors(marks, 18) == [1.0] * 12 + [2.0] * 6
