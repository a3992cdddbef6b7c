"""`tools/compare_summaries.py` on two small directories of JSON outputs, and
the kernel report of `tools/digests.py --kernels` built on it."""

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
    write(old / "track/b/b_summary.json",
          {"rmse_m": 2.0, "cases": [{"v": 1.0}, {"v": 0.0}], "max_slack": 6.9e-18})
    write(new / "track/b/b_summary.json",
          {"rmse_m": 2.0 * (1 + 1e-6), "cases": [{"v": 1.0}, {"v": 0.5}], "extra": True,
           "max_slack": 6.9e-18 * (1 + 5.6e-6)})
    write(old / "benchmark/c_report.json", {})
    # a NaN on one side is an infinite delta, so it is neither hidden by an
    # earlier finite delta nor hides a later one
    write(old / "track/c/c_summary.json", {"power": 1.0, "lag": 1.0, "both_nan": math.nan})
    write(new / "track/c/c_summary.json", {"power": math.nan, "lag": 3.0, "both_nan": math.nan})
    rows = {line.split()[0]: line.split()[1:] for line in compare_summaries.compare(old, new)
            if not line.startswith(("count", "changed", "field ", "file", "over"))}
    # columns: largest relative delta, largest absolute delta, file of the former
    assert rows["rmse_m"][2] == "track/b/b_summary.json"
    assert math.isclose(float(rows["rmse_m"][0]), 1e-6, rel_tol=1e-3)
    assert math.isclose(float(rows["rmse_m"][1]), 2e-6, rel_tol=1e-3)
    assert rows["power"] == ["inf", "inf", "track/c/c_summary.json"]
    assert rows["lag"] == ["inf", "inf", "track/a/a_summary.json"]
    assert rows["both_nan"][:2] == ["0", "0"]
    assert rows["statuses.optimal"][:2] == ["0.333", "1"]
    assert rows["cases.0.v"][:2] == ["0", "0"] and rows["zero"][:2] == ["0", "0"]
    # a rounding-level field: a visible relative move, a negligible absolute one
    assert math.isclose(float(rows["max_slack"][0]), 5.6e-6, rel_tol=1e-2)
    assert math.isclose(float(rows["max_slack"][1]), 6.9e-18 * 5.6e-6, rel_tol=1e-2)
    # only old is 0: an infinite relative delta, a finite absolute one
    assert rows["cases.1.v"][:2] == ["inf", "0.5"]
    lines = compare_summaries.compare(old, new)
    assert "count track/a/a_summary.json statuses.optimal: 3 -> 4" in lines
    assert "changed track/a/a_summary.json mode: 'GROUND' -> 'AERIAL'" in lines
    assert "field track/b/b_summary.json extra: only in NEW" in lines
    assert "file benchmark/c_report.json: only in OLD" in lines
    assert not any("rmse_m" in line for line in lines if line.startswith(("count", "changed")))
    # the last line: every field past 1e-9 relative, with its absolute delta
    assert lines[-1] == ("over 1e-09 relative (absolute delta): cases.1.v 0.5, lag inf, "
                         "max_slack 3.86e-23, power inf, rmse_m 2e-06, statuses.optimal 1")


DIGESTS = Path(__file__).resolve().parents[1] / "tools" / "digests.py"
_spec = importlib.util.spec_from_file_location("digests", DIGESTS)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)


def test_kernel_report_counts_differing_digests_and_compares_each_run_with_the_default(tmp_path):
    write(tmp_path / "default/track/a/a_summary.json", {"rmse_m": 1.0, "ticks": 10})
    write(tmp_path / "haswell/track/a/a_summary.json", {"rmse_m": 1.0 + 3e-9, "ticks": 10})
    write(tmp_path / "avx2/track/a/a_summary.json", {"rmse_m": 1.0, "ticks": 10})
    default = ["simulate/a/a_references.csv 33", "track/a/a_runlog.csv 11",
               "track/a/a_summary.json 22"]
    haswell = ["simulate/a/a_references.csv 33", "track/a/a_runlog.csv 44",
               "track/a/a_summary.json 55", "track/a/a_extra.csv 66"]
    report = digests.kernel_report(tmp_path, default, [
        ("haswell", "OPENBLAS_CORETYPE=Haswell", haswell),
        ("avx2", "NPY_DISABLE_CPU_FEATURES=X86_V4", list(default))])
    # two changed digests and a file only one run wrote
    assert report[0] == "kernels haswell (OPENBLAS_CORETYPE=Haswell): 3 of 3 digests differ"
    second = report.index("kernels avx2 (NPY_DISABLE_CPU_FEATURES=X86_V4): 0 of 3 digests differ")
    assert report[1:second] == compare_summaries.compare(tmp_path / "default",
                                                         tmp_path / "haswell")
    assert report[second - 1] == "over 1e-09 relative (absolute delta): rmse_m 3e-09"
    assert report[second + 1:] == compare_summaries.compare(tmp_path / "default",
                                                           tmp_path / "avx2")
    assert report[-1] == "over 1e-09 relative (absolute delta): none"
