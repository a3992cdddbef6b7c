"""The log CSVs: `write_outputs` converts the record arrays a chunk at a time,
and `deterministic_digest` and `export_plot_data` read their file a line at
a time, with the bytes and digests of whole-array conversion and whole-text
reading, which are kept here as the references.  The writer formats each
value with `str`, with the bytes of the per-value formatter `fmt` kept
here, which took numpy scalars too."""

import hashlib
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wheeled_bicopter import cli
from wheeled_bicopter.core import Mode
from wheeled_bicopter.dynamics import SIMLOG_DTYPE
from wheeled_bicopter.nmpc import RUNLOG_DTYPE, RunLog


def fmt(x) -> str:
    """A CSV value as the writer once formatted it, one call per value."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def whole_text_digest(path):
    """`deterministic_digest` on the whole text of the file."""
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


def whole_array_csvs(cfg, runlog):
    """The runlog and simlog CSV texts, each log converted by one `tolist`."""
    ticks = (
        [t, *x_ref[0:3], *x_ref[6:10], *x[0:3], *x[6:10], *u, *rest]
        for t, x_ref, x, u, *rest in runlog.ticks.tolist()
    )
    steps = (
        [t, *x, *u, *rest]
        for t, x, u, *rest in runlog.sim.log[::cfg.output["decimation"]].tolist()
    )

    def text(header, rows):
        return header + "\n" + "".join(",".join(fmt(v) for v in row) + "\n" for row in rows)

    return text(cli.RUNLOG_COLUMNS, ticks), text(cli.SIMLOG_COLUMNS, steps)


def random_records(dtype, n, seed):
    """n records whose float fields hold arbitrary finite bits."""
    rng = np.random.default_rng(seed)
    records = np.zeros(n, dtype=dtype).view(np.recarray)
    for name in dtype.names:
        column = records[name]
        if column.dtype.kind == "f":
            scale = 10.0 ** rng.integers(-300, 300, column.shape)
            column[...] = rng.standard_normal(column.shape) * scale
        elif column.dtype.kind == "i":
            column[...] = rng.integers(-2**40, 2**40, column.shape)
        else:
            column[...] = rng.choice(["GROUND", "AERIAL", "optimal", "degraded"], column.shape)
    return records


def synthetic_run(n_ticks, n_steps, decimation, seed=0):
    """A (config, result) pair with random logs, shaped as `write_outputs`
    reads them."""
    cfg = SimpleNamespace(name="synthetic", output={"decimation": decimation})
    sim = SimpleNamespace(log=random_records(SIMLOG_DTYPE, n_steps, seed + 1))
    runlog = RunLog(random_records(RUNLOG_DTYPE, n_ticks, seed), sim)
    return cfg, cli.ScenarioResult("synthetic", runlog, {"ticks": n_ticks})


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rows", [1, cli.CSV_CHUNK, cli.CSV_CHUNK + 1])
@pytest.mark.parametrize("decimation", [1, 3])
def test_chunked_writer_gives_the_bytes_of_whole_array_conversion(tmp_path, rows, decimation):
    # the simlog has `rows` rows after decimation; the runlog `rows` ticks
    cfg, result = synthetic_run(rows, decimation * (rows - 1) + 1, decimation, seed=rows)
    runlog_csv, simlog_csv, _ = cli.write_outputs(cfg, result, tmp_path)
    want_runlog, want_simlog = whole_array_csvs(cfg, result.runlog)
    assert runlog_csv.read_bytes() == want_runlog.encode()
    assert simlog_csv.read_bytes() == want_simlog.encode()
    assert len(simlog_csv.read_text().splitlines()) == rows + 1


SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 1e16, 1e-05, 0.0001, 5e-324,
                  -1.7976931348623157e308, 0.1, 123456789.125, 1e22, -2.5e-310]


def test_writer_gives_the_per_value_bytes_on_signed_zeros_non_finite_and_exponents(tmp_path):
    # every float field cycles through the special values; the integer and
    # string fields keep their random values
    cfg, result = synthetic_run(len(SPECIAL_FLOATS) + 3, len(SPECIAL_FLOATS) + 5, 1)
    special = np.array(SPECIAL_FLOATS)
    for records in (result.runlog.ticks, result.runlog.sim.log):
        for offset, name in enumerate(records.dtype.names):
            column = records[name]
            if column.dtype.kind == "f":
                index = np.arange(column.size).reshape(column.shape) + offset
                column[...] = special[index % len(special)]
    runlog_csv, simlog_csv, _ = cli.write_outputs(cfg, result, tmp_path)
    want_runlog, want_simlog = whole_array_csvs(cfg, result.runlog)
    assert runlog_csv.read_bytes() == want_runlog.encode()
    assert simlog_csv.read_bytes() == want_simlog.encode()
    rows = [SPECIAL_FLOATS + [0, -3, 2**40, "GROUND", "optimal"]]
    path = cli._write_csv(tmp_path / "row.csv", "h", rows)
    assert path.read_bytes() == ("h\n" + ",".join(map(fmt, rows[0])) + "\n").encode()
    assert path.read_text().splitlines()[1].split(",")[:6] == [
        "-0.0", "0.0", "nan", "inf", "-inf", "1e+16"]


def test_the_writer_gets_rows_of_python_scalars_only(tmp_path, monkeypatch):
    # `str` writes a Python float as its repr; a numpy scalar (which a
    # record array's `tolist()` leaves in its subarray fields) would take
    # numpy's own, slower formatting
    rows = []
    write = cli._write_csv

    def kept(path, header, lines):
        lines = list(lines)
        rows.extend(lines)
        return write(path, header, lines)

    monkeypatch.setattr(cli, "_write_csv", kept)
    cfg, result = synthetic_run(cli.CSV_CHUNK + 2, 3 * cli.CSV_CHUNK + 1, 3)
    cli.write_outputs(cfg, result, tmp_path)
    aerial = cli.ScenarioConfig.from_dict(cli.load_bundled_scenario("aerial_8shape"),
                                          "aerial_8shape")
    cli.export_references(cli.build_trajectory(aerial)[0], aerial.params, 0.2, 0.02,
                          tmp_path / "refs.csv")
    assert len(rows) == (cli.CSV_CHUNK + 2) + (cli.CSV_CHUNK + 1) + 11
    assert {type(v) for row in rows for v in row} == {float, int, str}


def test_reference_export_gives_the_per_value_bytes_of_the_numpy_rows(tmp_path):
    # hybrid_3d's first 15 s: rolling, the thrust ramp at rest and the takeoff
    cfg = cli.ScenarioConfig.from_dict(cli.load_bundled_scenario("hybrid_3d"), "hybrid_3d")
    traj, _ = cli.build_trajectory(cfg)
    path = cli.export_references(traj, cfg.params, 15.0, 0.02, tmp_path / "refs.csv")
    refs = traj.sample_references(0.0, 750, 0.02, cfg.params)
    rows = ([ref.t, *ref.x, *ref.u, ref.mode.name] for ref in refs)
    want = cli.REFLOG_COLUMNS + "\n" + "".join(",".join(map(fmt, row)) + "\n" for row in rows)
    assert path.read_bytes() == want.encode()
    assert {ref.mode for ref in refs} == {Mode.GROUND, Mode.AERIAL}


def test_writing_and_digesting_long_logs_holds_one_chunk_not_the_logs(tmp_path):
    """Whole-array conversion of these logs holds tens of MB of Python rows
    (about 1 KB per record), and whole-text digesting holds the whole CSV;
    the chunked writer and the streamed digest stay below a bound that
    neither depends on the log lengths."""
    cfg, result = synthetic_run(20_000, 100_000, decimation=5)
    tracemalloc.start()
    try:
        files = cli.write_outputs(cfg, result, tmp_path)
        digests = [cli.deterministic_digest(p) for p in files[:2]]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, f"peak {peak / 1e6:.1f} MB"
    assert digests == [whole_text_digest(p) for p in files[:2]]


# ---------------------------------------------------------------------------
# digest
# ---------------------------------------------------------------------------

# every line boundary of `str.splitlines`
SEPARATORS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

cells = st.one_of(
    st.sampled_from(SEPARATORS),
    st.sampled_from([",", "solve_time_us", "1.5", "-"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
)
headers = st.one_of(
    st.sampled_from(["t,solve_time_us,cost", "solve_time_us", "t,px,py", ""]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


def outcome(digest, path):
    """The digest, or the type of the error it raised (a line with fewer
    fields than the header's solve_time_us index raises IndexError)."""
    try:
        return digest(path)
    except IndexError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(header=headers, body=st.lists(cells, max_size=40), end=st.sampled_from(["", *SEPARATORS]))
@example(header="", body=[], end="")
@example(header="t,solve_time_us", body=["\n", "1,2"], end="")
@example(header="t,solve_time_us", body=["\r\n", "1,2", "\r", "3,4"], end="\n")
@example(header="t,solve_time_us,x", body=["\x85", "1,2,3", "\u2028", "4,5,6"], end="\r\n")
@example(header="t,x", body=["\r", "\r", "\n", "\v", "1,2", "\f\x1c\x1d\x1e"], end="\u2029")
def test_streamed_digest_equals_the_whole_text_digest(tmp_path_factory, header, body, end):
    path = tmp_path_factory.mktemp("digest") / "log.csv"
    with path.open("w", newline="") as fh:
        fh.write(header + "".join(body) + end)
    assert outcome(cli.deterministic_digest, path) == outcome(whole_text_digest, path)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def whole_text_export(runlog_csv, out_path):
    """`export_plot_data` on the whole text of a well-formed runlog."""
    lines = Path(runlog_csv).read_text().splitlines()
    header = lines[0].split(",")
    t_idx = header.index("t")
    numeric = [(i, name) for i, name in enumerate(header)
               if name not in ("t", "mode", "qp_status")]
    with Path(out_path).open("w", newline="") as fh:
        fh.write("series,t,value\n")
        for parts in (line.split(",") for line in lines[1:]):
            for i, name in numeric:
                fh.write(f"{name},{parts[t_idx]},{parts[i]}\n")


@pytest.mark.parametrize("text", [
    None,  # a written runlog
    "t,px,mode\r\n0.0,1.5,GROUND\x851,2,AERIAL\u20282.5,-3,x\v4,5,y\r",
    "px,t\n",
], ids=["runlog", "every_separator_kind", "header_only"])
def test_streamed_export_gives_the_bytes_of_the_whole_text_export(tmp_path, text):
    if text is None:
        cfg, result = synthetic_run(cli.CSV_CHUNK + 1, 1, 1)
        runlog_csv = cli.write_outputs(cfg, result, tmp_path)[0]
    else:
        runlog_csv = tmp_path / "runlog.csv"
        with runlog_csv.open("w", newline="") as fh:
            fh.write(text)
    cli.export_plot_data(runlog_csv, tmp_path / "tidy.csv")
    whole_text_export(runlog_csv, tmp_path / "want.csv")
    assert (tmp_path / "tidy.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_exporting_a_long_runlog_holds_one_line_not_the_file(tmp_path):
    """Whole-text export of this 11 MB runlog held 55 MB of lines and
    fields; the streamed export stays below a bound that does not depend
    on the runlog's length."""
    cfg, result = synthetic_run(20_000, 1, 1)
    runlog_csv = cli.write_outputs(cfg, result, tmp_path)[0]
    tracemalloc.start()
    try:
        cli.export_plot_data(runlog_csv, tmp_path / "tidy.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"peak {peak / 1e6:.1f} MB"
    assert len((tmp_path / "tidy.csv").read_text().splitlines()) == 1 + 20_000 * 23
