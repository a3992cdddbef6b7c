"""`tools/compare_summaries.py` on two small directories of JSON outputs."""

import importlib.util
import json
import math
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_summaries.py"
_spec = importlib.util.spec_from_file_location("compare_summaries", TOOL)
compare_summaries = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_summaries)


def write(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))


def test_compare_prints_largest_deltas_changed_counts_and_one_sided_entries(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    write(old / "track/a/a_summary.json",
          {"rmse_m": 1.0, "statuses": {"optimal": 3}, "mode": "GROUND", "zero": 0.0,
           "power": 1.0, "lag": math.nan})
    write(new / "track/a/a_summary.json",
          {"rmse_m": 1.0 + 2e-9, "statuses": {"optimal": 4}, "mode": "AERIAL", "zero": 0.0,
           "power": 1.5, "lag": 1.0})
    write(old / "track/b/b_summary.json", {"rmse_m": 2.0, "cases": [{"v": 1.0}, {"v": 0.0}]})
    write(new / "track/b/b_summary.json",
          {"rmse_m": 2.0 * (1 + 1e-6), "cases": [{"v": 1.0}, {"v": 0.5}], "extra": True})
    write(old / "benchmark/c_report.json", {})
    # a NaN on one side is an infinite delta, so it is neither hidden by an
    # earlier finite delta nor hides a later one
    write(old / "track/c/c_summary.json", {"power": 1.0, "lag": 1.0, "both_nan": math.nan})
    write(new / "track/c/c_summary.json", {"power": math.nan, "lag": 3.0, "both_nan": math.nan})
    rows = {line.split()[0]: line.split()[1:] for line in compare_summaries.compare(old, new)
            if not line.startswith(("count", "changed", "field ", "file"))}
    assert rows["rmse_m"][1] == "track/b/b_summary.json"
    assert math.isclose(float(rows["rmse_m"][0]), 1e-6, rel_tol=1e-3)
    assert rows["power"] == ["inf", "track/c/c_summary.json"]
    assert rows["lag"] == ["inf", "track/a/a_summary.json"]
    assert rows["both_nan"][0] == "0"
    assert rows["statuses.optimal"][0] == "0.333"
    assert rows["cases.0.v"][0] == "0" and rows["zero"][0] == "0"
    assert rows["cases.1.v"][0] == "inf"
    lines = compare_summaries.compare(old, new)
    assert "count track/a/a_summary.json statuses.optimal: 3 -> 4" in lines
    assert "changed track/a/a_summary.json mode: 'GROUND' -> 'AERIAL'" in lines
    assert "field track/b/b_summary.json extra: only in NEW" in lines
    assert "file benchmark/c_report.json: only in OLD" in lines
    assert not any("rmse_m" in line for line in lines if line.startswith(("count", "changed")))
