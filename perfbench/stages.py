"""Stage wrappers installed from outside the program.

Two kinds of instrumentation live here, both of which patch module-level
names of the `wheeled_bicopter` package for the duration of a `with` block
and restore them on exit:

* `Probe` is the light instrumentation every run uses.  It wraps
  `Simulator.apply`, once per control tick, to sample the machine's speed
  between ticks and, in the open loop, to time set-up and each
  feed-forward step; in the closed loops it also wraps `cli.control_loop`
  (set-up end, run logs) and `cli.run_scenario` (summaries).
* `Tracer` is the traced run.  It wraps the function at every stage
  boundary of `cli`, `trajectory`, `flatness`, `nmpc` and `dynamics`,
  records inclusive and self time per stage, and counts the work done at
  the same boundaries.  A wrap target that does not exist is reported as
  absent; the metrics that depend on it are left out, never set to zero.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

perf = time.perf_counter


def _resolve(target: str):
    """'module:Attr.attr' -> (owner object, attribute name), or None."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name


@contextlib.contextmanager
def patched(patches: List[Tuple[str, Callable]]):
    """Replace each target by `make(original)` inside the block.

    Yields the set of targets that could not be resolved.
    """
    absent = set()
    undo = []
    try:
        for target, make in patches:
            found = _resolve(target)
            if found is None:
                absent.add(target)
                continue
            owner, name = found
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            setattr(owner, name, make(getattr(owner, name)))
            undo.append((owner, name, original))
        yield absent
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

# Host contention changes the speed of a small shared machine by up to 2x,
# in phases lasting from a fraction of a second to tens of seconds; small
# numpy operations slow down more than scalar Python.  A fixed kernel that
# mixes both, as the program does, is run between control ticks every
# SPEED_PERIOD_S, and each measured time is scaled by
# REF_KERNEL_S / (kernel time measured around it).  The kernel is benchmark
# code, so a faster program still reads faster.
KERNEL_N = 40
REF_KERNEL_S = 0.3e-3
SPEED_PERIOD_S = 0.05
_KM = np.linspace(-1.0, 1.0, 169).reshape(13, 13)
_KV = np.ones(13)


def speed_factor() -> float:
    t0 = perf()
    x, acc = _KV, 0.0
    for i in range(KERNEL_N):
        x = _KM @ x * 0.01 + _KV
        x[6:10] /= np.linalg.norm(x[6:10])
        a = float(x[i % 13])
        for j in range(12):
            acc += math.sin(a * j) * math.cos(acc) + math.sqrt(j + a * a)
    return REF_KERNEL_S / (perf() - t0)


@dataclass
class SpeedMark:
    start: float  # when the kernel started
    end: float  # when it ended
    ticks: int  # ticks completed before it
    factor: float


def _smoothed(marks: List[SpeedMark]) -> List[float]:
    """Median of each mark's factor and its neighbours', so that a kernel
    run cut by preemption does not rescale its whole interval."""
    f = [m.factor for m in marks]
    out = []
    for i in range(len(f)):
        window = sorted(f[max(0, i - 1):i + 2])
        out.append(window[len(window) // 2])
    return out


def normalized_wall(marks: List[SpeedMark], t_end: float) -> Tuple[float, float]:
    """(raw, speed-normalized) time from the end of the first mark to
    t_end, leaving out the time spent in the kernels themselves."""
    raw = norm = 0.0
    for mark, factor, nxt in zip(marks, _smoothed(marks), marks[1:] + [None]):
        span = (nxt.start if nxt else t_end) - mark.end
        raw += span
        norm += span * factor
    return raw, norm


def tick_factors(marks: List[SpeedMark], n: int) -> List[float]:
    """Speed factor for each of n ticks: that of the latest mark taken
    before the tick completed."""
    smoothed = _smoothed(marks)
    out, m = [], 0
    for j in range(n):
        while m + 1 < len(marks) and marks[m + 1].ticks <= j:
            m += 1
        out.append(smoothed[m])
    return out


# ---------------------------------------------------------------------------
# untraced probe
# ---------------------------------------------------------------------------


@dataclass
class LoopRecord:
    """One `control_loop` call: its planned tick count and its run log
    (None when the loop raised)."""

    planned: int
    control_rate: float
    log: object = None


@dataclass
class Probe:
    """Set-up end time, run logs and summaries, open-loop step gaps and
    machine-speed marks of one entry call."""

    closed_loop: bool
    first_tick: Optional[float] = None
    loops: List[LoopRecord] = field(default_factory=list)
    results: List[object] = field(default_factory=list)
    sims: List[object] = field(default_factory=list)
    step_gaps_s: List[float] = field(default_factory=list)
    marks: List[SpeedMark] = field(default_factory=list)
    stop_at_first_tick: bool = False
    on_kernel: Optional[Callable[[float], None]] = None
    _steps: int = 0
    _last_step_end: Optional[float] = None

    def mark_speed(self) -> None:
        t0 = perf()
        factor = speed_factor()
        self.marks.append(SpeedMark(t0, perf(), self._steps, factor))
        if self.on_kernel is not None:
            self.on_kernel(self.marks[-1].end - t0)

    def _mark_tick(self) -> None:
        if self.first_tick is None:
            self.first_tick = perf()
            if self.stop_at_first_tick:
                raise SetupDone

    def _wrap_control_loop(self, fn):
        def control_loop(sim, traj, cfg, params, duration, control_rate=200.0, **kw):
            self._mark_tick()
            rec = LoopRecord(round(duration * control_rate), control_rate)
            self.loops.append(rec)
            rec.log = fn(sim, traj, cfg, params, duration, control_rate=control_rate, **kw)
            return rec.log
        return control_loop

    def _wrap_run_scenario(self, fn):
        def run_scenario(*args, **kw):
            result = fn(*args, **kw)
            self.results.append(result)
            return result
        return run_scenario

    def _wrap_apply(self, fn):
        def apply(sim, u, duration):
            now = perf()
            if not self.closed_loop:
                if self.first_tick is None:
                    self._mark_tick()
                else:
                    self.step_gaps_s.append(now - self._last_step_end)
            if not any(s is sim for s in self.sims):
                self.sims.append(sim)
            if now - self.marks[-1].end >= SPEED_PERIOD_S:
                self.mark_speed()
            fn(sim, u, duration)
            self._steps += 1
            self._last_step_end = perf()
        return apply

    def patches(self):
        out = [("wheeled_bicopter.dynamics:Simulator.apply", self._wrap_apply)]
        if self.closed_loop:
            out += [("wheeled_bicopter.cli:control_loop", self._wrap_control_loop),
                    ("wheeled_bicopter.cli:run_scenario", self._wrap_run_scenario)]
        return out


class SetupDone(Exception):
    """Raised at the first control tick of a set-up-only call."""


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

# stage name -> (wrap target, layer)
STAGES: Dict[str, Tuple[str, str]] = {
    "cli.run_scenario": ("wheeled_bicopter.cli:run_scenario", "cli"),
    "cli.run_benchmark_slippery": ("wheeled_bicopter.cli:run_benchmark_slippery", "cli"),
    "cli.run_open_loop": ("wheeled_bicopter.cli:run_open_loop", "cli"),
    "cli.write_outputs": ("wheeled_bicopter.cli:write_outputs", "cli"),
    "cli.export_references": ("wheeled_bicopter.cli:export_references", "cli"),
    "trajectory.build": ("wheeled_bicopter.cli:build_trajectory", "trajectory"),
    "trajectory.sample_references": (
        "wheeled_bicopter.trajectory:HybridTrajectory.sample_references", "trajectory"),
    "trajectory.reference": (
        "wheeled_bicopter.trajectory:HybridTrajectory.reference", "trajectory"),
    "flatness.ground": ("wheeled_bicopter.trajectory:ground_flat_to_reference", "flatness"),
    "flatness.aerial": ("wheeled_bicopter.trajectory:aerial_flat_to_reference", "flatness"),
    "nmpc.control_loop": ("wheeled_bicopter.cli:control_loop", "nmpc"),
    "nmpc.solve": ("wheeled_bicopter.nmpc:solve", "nmpc"),
    "nmpc.linearize": ("wheeled_bicopter.nmpc:_linearize_horizon", "nmpc"),
    "nmpc.solve_qp": ("wheeled_bicopter.nmpc:solve_qp", "nmpc"),
    "dynamics.apply": ("wheeled_bicopter.dynamics:Simulator.apply", "dynamics"),
    "dynamics.rk4_plant": ("wheeled_bicopter.dynamics:rk4_step", "dynamics"),
    "dynamics.rk4_nmpc": ("wheeled_bicopter.nmpc:rk4_step", "dynamics"),
}

LAYERS = ("cli", "trajectory", "flatness", "nmpc", "dynamics")

# per-layer metric -> (unit, stages it needs)
PER_LAYER: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "trajectory.sample_ms_per_tick": (
        "ms", ("trajectory.sample_references", "trajectory.reference")),
    "trajectory.build_ms": ("ms", ("trajectory.build",)),
    "flatness.calls_per_tick": ("count", ("flatness.ground", "flatness.aerial")),
    "flatness.us_per_call": ("us", ("flatness.ground", "flatness.aerial")),
    "flatness.distinct_t_ratio": ("fraction", ("flatness.ground", "flatness.aerial")),
    "nmpc.linearize_ms_per_tick": ("ms", ("nmpc.linearize",)),
    "nmpc.condense_ms_per_tick": (
        "ms", ("nmpc.solve", "nmpc.linearize", "nmpc.solve_qp")),
    "nmpc.qp_ms_per_tick": ("ms", ("nmpc.solve_qp",)),
    "nmpc.qp_share": ("fraction", ("nmpc.solve_qp",)),
    "nmpc.qp_iters_per_tick": ("count", ("nmpc.solve_qp",)),
    "nmpc.qp_iters_max": ("count", ("nmpc.solve_qp",)),
    "nmpc.qp_rows_per_tick": ("count", ("nmpc.solve_qp",)),
    "nmpc.soft_rows_per_tick": ("count", ("nmpc.solve", "nmpc.solve_qp")),
    "nmpc.active_box_ratio": ("fraction", ("nmpc.solve", "nmpc.solve_qp")),
    "dynamics.plant_ms_per_tick": ("ms", ("dynamics.apply",)),
    "dynamics.rk4_rows_plant": ("count", ("dynamics.rk4_plant",)),
    "dynamics.rk4_rows_nmpc": ("count", ("dynamics.rk4_nmpc",)),
    "dynamics.slip_steps": ("count", ("dynamics.apply",)),
    "dynamics.log_rows": ("count", ("dynamics.apply",)),
    "cli.write_ms": ("ms", ("cli.write_outputs", "cli.export_references")),
    "cli.bytes_written": ("count", ("cli.write_outputs", "cli.export_references")),
}
for _layer in LAYERS:
    _own = tuple(s for s, (_, lay) in STAGES.items() if lay == _layer)
    PER_LAYER[f"{_layer}.self_ms_per_tick"] = ("ms", _own)
    PER_LAYER[f"{_layer}.self_share"] = ("fraction", _own)
PER_LAYER["trace.overhead_wall_per_sim_s"] = ("s/s", ())


@dataclass
class StageStats:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    entry_s: float = 0.0  # inclusive time of calls entered from another layer


@dataclass
class Tracer:
    """Aggregated spans and counters over every traced entry call."""

    stats: Dict[str, StageStats] = field(
        default_factory=lambda: {name: StageStats() for name in STAGES})
    absent: set = field(default_factory=set)
    counts: Dict[str, float] = field(default_factory=lambda: {
        "flatness_calls": 0, "distinct_t": 0, "qp_iters": 0,
        "qp_iters_max": 0, "qp_rows": 0, "soft_rows": 0, "box_rows": 0,
        "active_box": 0, "rk4_rows_plant": 0, "rk4_rows_nmpc": 0,
        "bytes_written": 0,
    })
    _stack: List[list] = field(default_factory=list)
    _sample_t: set = field(default_factory=set)
    _nz: int = 0

    def _wrap(self, stage: str, observe: Optional[Callable] = None):
        st = self.stats[stage]
        layer = STAGES[stage][1]
        stack = self._stack

        def make(fn):
            def wrapper(*args, **kw):
                parent = stack[-1] if stack else None
                frame = [layer, 0.0]
                stack.append(frame)
                t0 = perf()
                try:
                    out = fn(*args, **kw)
                finally:
                    dt = perf() - t0
                    stack.pop()
                    st.calls += 1
                    st.incl_s += dt
                    st.self_s += dt - frame[1]
                    if parent is None or parent[0] != layer:
                        st.entry_s += dt
                    if parent is not None:
                        parent[1] += dt
                if observe is not None:
                    observe(args, kw, out)
                return out
            return wrapper
        return make

    # counters, taken at the same boundaries as the spans

    def _on_flat(self, args, kw, out):
        self.counts["flatness_calls"] += 1
        self._sample_t.add(round(args[0].t, 9))

    def _on_solve_entry(self, fn):
        inner = self._wrap("nmpc.solve")(fn)

        def solve(x_current, refs, cfg, *args, **kw):
            self._nz = cfg.K * 4
            return inner(x_current, refs, cfg, *args, **kw)
        return solve

    def _on_qp(self, args, kw, out):
        H, A_in = args[0], args[2]
        n_eq = kw.get("n_eq", args[5] if len(args) > 5 else 0)
        work, iters = out[1], out[3]
        c = self.counts
        c["qp_iters"] += iters
        c["qp_iters_max"] = max(c["qp_iters_max"], iters)
        c["qp_rows"] += A_in.shape[0]
        c["soft_rows"] += H.shape[0] - self._nz
        c["box_rows"] += 2 * self._nz
        c["active_box"] += sum(1 for w in work if n_eq <= w < n_eq + 2 * self._nz)

    def _on_rk4(self, key):
        def observe(args, kw, out):
            x = args[0]
            self.counts[key] += 1 if x.ndim == 1 else x.shape[0]
        return observe

    def _on_written(self, args, kw, out):
        paths = out if isinstance(out, list) else [out]
        self.counts["bytes_written"] += sum(p.stat().st_size for p in paths)

    def patches(self):
        observers = {
            "flatness.ground": self._on_flat,
            "flatness.aerial": self._on_flat,
            "nmpc.solve_qp": self._on_qp,
            "dynamics.rk4_plant": self._on_rk4("rk4_rows_plant"),
            "dynamics.rk4_nmpc": self._on_rk4("rk4_rows_nmpc"),
            "cli.write_outputs": self._on_written,
            "cli.export_references": self._on_written,
        }
        out = []
        for stage, (target, _) in STAGES.items():
            if stage == "nmpc.solve":
                make = self._on_solve_entry
            else:
                make = self._wrap(stage, observers.get(stage))
            out.append((target, make))
        return out

    def end_unit(self) -> None:
        """Fold one entry call's distinct sample times into the count
        (sample times repeat across entry calls)."""
        self.counts["distinct_t"] += len(self._sample_t)
        self._sample_t = set()

    def credit(self, dt: float) -> None:
        """Leave `dt` spent in benchmark code out of the open span's self time."""
        if self._stack:
            self._stack[-1][1] += dt

    def metrics(self, ticks: int, units: int, wall_s: float, speed: float, slip_steps: int,
                log_rows: int) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
        """Per-layer metrics over `ticks` control ticks (open-loop steps in
        the open loop) in `units` entry calls taking `wall_s` in all;
        times are scaled by the mean machine-speed factor `speed`.

        Returns ({name: (value, unit)}, [names of absent metrics]).
        """
        absent_stages = {s for s, (t, _) in STAGES.items() if t in self.absent}
        S, c = self.stats, self.counts
        ms = 1e3 / ticks
        flat_calls = c["flatness_calls"]
        values = {
            "trajectory.sample_ms_per_tick":
                (S["trajectory.sample_references"].entry_s + S["trajectory.reference"].entry_s) * ms,
            "trajectory.build_ms": S["trajectory.build"].incl_s * 1e3 / max(1, S["trajectory.build"].calls),
            "flatness.calls_per_tick": flat_calls / ticks,
            "flatness.us_per_call":
                (S["flatness.ground"].incl_s + S["flatness.aerial"].incl_s) * 1e6 / max(1, flat_calls),
            "flatness.distinct_t_ratio": c["distinct_t"] / flat_calls if flat_calls else 0.0,
            "nmpc.linearize_ms_per_tick": S["nmpc.linearize"].incl_s * ms,
            "nmpc.condense_ms_per_tick": S["nmpc.solve"].self_s * ms,
            "nmpc.qp_ms_per_tick": S["nmpc.solve_qp"].incl_s * ms,
            "nmpc.qp_share": S["nmpc.solve_qp"].incl_s / wall_s,
            "nmpc.qp_iters_per_tick": c["qp_iters"] / ticks,
            "nmpc.qp_iters_max": c["qp_iters_max"],
            "nmpc.qp_rows_per_tick": c["qp_rows"] / ticks,
            "nmpc.soft_rows_per_tick": c["soft_rows"] / ticks,
            "nmpc.active_box_ratio": c["active_box"] / c["box_rows"] if c["box_rows"] else 0.0,
            "dynamics.plant_ms_per_tick": S["dynamics.apply"].incl_s * ms,
            "dynamics.rk4_rows_plant": c["rk4_rows_plant"] / ticks,
            "dynamics.rk4_rows_nmpc": c["rk4_rows_nmpc"] / ticks,
            "dynamics.slip_steps": slip_steps / units,
            "dynamics.log_rows": log_rows / units,
            "cli.write_ms": (S["cli.write_outputs"].incl_s + S["cli.export_references"].incl_s) * 1e3 / units,
            "cli.bytes_written": c["bytes_written"] / units,
        }
        for layer in LAYERS:
            self_s = sum(st.self_s for name, st in S.items() if STAGES[name][1] == layer)
            values[f"{layer}.self_ms_per_tick"] = self_s * ms
            values[f"{layer}.self_share"] = self_s / wall_s
        out, missing = {}, []
        for name, value in values.items():
            unit, needs = PER_LAYER[name]
            if absent_stages.intersection(needs):
                missing.append(name)
            else:
                out[name] = (float(value) * (speed if unit in ("ms", "us") else 1.0), unit)
        return out, missing
