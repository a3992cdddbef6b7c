"""`tools/traffic.py`'s line collector on the `analyze` command, in-process."""

import dis
import importlib.util
from pathlib import Path

from wheeled_bicopter import analysis, cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "traffic.py"
_spec = importlib.util.spec_from_file_location("traffic", TOOL)
traffic = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic)


def lines_of(fn):
    code = fn.__code__
    return {(code.co_filename, line) for _, line in dis.findlinestarts(code)}


def test_analyze_reaches_the_width_table_and_not_the_open_loop(tmp_path):
    reached, code = traffic.collect(cli.main, ["analyze", "--out", str(tmp_path), "--quiet"])
    assert code == cli.EXIT_OK
    assert lines_of(analysis.width_table) & reached
    assert not lines_of(cli.run_open_loop) & reached
    rows, executable = traffic.unreached(reached)
    assert "run_open_loop" in {name for _, _, name, _ in rows}
    assert sum(executable.values()) > len(rows) > 0
