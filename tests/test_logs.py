"""The plant and tick logs as record arrays: field alignment, and a plant log
that is reserved or grows without changing what it already holds."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wheeled_bicopter import cli
from wheeled_bicopter import dynamics as dyn
from wheeled_bicopter import nmpc
from wheeled_bicopter.core import Mode, VehicleParams

from test_cli import tiny_hover_doc


@pytest.mark.parametrize("dtype", [dyn.SIMLOG_DTYPE, nmpc.RUNLOG_DTYPE])
def test_log_fields_are_8_byte_aligned(dtype):
    """Every field offset and the record size are multiples of 8.

    numpy reduces an unaligned field in buffered chunks of 8,192 elements
    instead of one pairwise sum. With the `slip` and `lift_off` flags as
    1-byte fields, `np.mean` over `power` then changed the last digit of
    `mean_power_W` on runs longer than 8,192 steps."""
    assert dtype.itemsize % 8 == 0
    assert {name: dtype.fields[name][1] % 8 for name in dtype.names} == dict.fromkeys(
        dtype.names, 0)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(8193, 40000), seed=st.integers(0, 2**32 - 1))
def test_mean_of_a_long_power_column_equals_the_mean_of_its_values(n, seed):
    log = np.zeros(n, dtype=dyn.SIMLOG_DTYPE).view(np.recarray)
    log.power = np.random.default_rng(seed).uniform(0.0, 100.0, n)
    assert np.mean(log.power) == np.mean(log.power.tolist())


# (steps, per-rotor thrust as a fraction of the weight, common servo tilt)
holds = st.tuples(st.integers(1, 50), st.floats(0.4, 0.6), st.floats(-0.2, 0.2))


@settings(max_examples=15, deadline=None)
@given(st.lists(holds, min_size=6, max_size=14))
@example([(1, 0.5, 0.0), (1, 0.5, 0.0), (2, 0.5, 0.1), (5, 0.45, 0.0), (9, 0.5, -0.1),
          (17, 0.55, 0.0), (33, 0.5, 0.05), (50, 0.5, 0.0)])
def test_log_growth_keeps_every_step_and_every_earlier_view(calls):
    p = VehicleParams()
    x0 = np.array([0, 0, 2.0, 0.3, -0.2, 0, 1, 0, 0, 0, 0, 0, 0], dtype=float)
    held, stepped = (dyn.Simulator(params=p, x=x0, mode=Mode.AERIAL) for _ in range(2))
    views = []
    for steps, frac, tilt in calls:
        u = [frac * p.weight, frac * p.weight, tilt, tilt]
        held.apply(u, steps * held.dt)
        for _ in range(steps):
            stepped.apply(u, stepped.dt)
        views.append((held.log, held.log.copy()))
    assert len(held.log) == len(stepped.log) == sum(steps for steps, _, _ in calls)
    for name in dyn.SIMLOG_DTYPE.names:
        assert held.log[name].tobytes() == stepped.log[name].tobytes(), name
    for view, values in views:
        assert view.tobytes() == values.tobytes()


def aerial_simulator():
    x0 = np.array([0, 0, 2.0, 0.3, -0.2, 0, 1, 0, 0, 0, 0, 0, 0], dtype=float)
    return dyn.Simulator(params=VehicleParams(), x=x0, mode=Mode.AERIAL)


def hover_input(sim, tilt=0.0):
    return [0.5 * sim.params.weight, 0.5 * sim.params.weight, tilt, tilt]


@pytest.mark.parametrize("extra", [0, 1, 23])
def test_a_reserved_log_is_written_in_place_with_the_bits_of_a_grown_one(extra):
    """Within the reservation every step writes into the one array, so the
    view taken after the first step is the start of the final log; past it
    (`extra` steps) the log grows as an unreserved one does, and every
    earlier view keeps its values."""
    n = 40
    reserved, grown = aerial_simulator(), aerial_simulator()
    reserved.reserve(n)
    views = []
    for steps, tilt in ((1, 0.0), (7, 0.1), (n - 8, -0.05), (extra, 0.02)):
        for sim in (reserved, grown):
            if steps:
                sim.apply(hover_input(sim, tilt), steps * sim.dt)
        views.append((reserved.log, reserved.log.copy()))
        if len(reserved.log) <= n:
            assert np.shares_memory(views[0][0], reserved.log)
    assert len(reserved.log) == len(grown.log) == n + extra
    assert reserved.log.tobytes() == grown.log.tobytes()
    assert np.shares_memory(views[0][0], reserved.log) == (extra == 0)
    for view, values in views:
        assert view.tobytes() == values.tobytes()


def test_reserving_below_the_logged_steps_changes_nothing():
    sim = aerial_simulator()
    sim.apply(hover_input(sim), 12 * sim.dt)
    view, values = sim.log, sim.log.copy()
    for steps in (0, 5, 12):
        sim.reserve(steps)
        assert np.shares_memory(view, sim.log)
        assert sim.log.tobytes() == values.tobytes()


def test_closed_and_open_loops_reserve_their_planned_plant_steps(monkeypatch):
    """A 0.4 s loop at 200 Hz over a 1 kHz plant plans 80 holds of 5 steps;
    it reserves them once, so the log never regrows."""
    reserved = []
    reserve = dyn.Simulator.reserve

    def spy(sim, steps):
        reserved.append((sim, steps))
        reserve(sim, steps)

    monkeypatch.setattr(dyn.Simulator, "reserve", spy)
    cfg = cli.ScenarioConfig.from_dict(tiny_hover_doc(duration=0.4))
    res = cli.run_scenario(cfg)
    assert [steps for _, steps in reserved] == [400]
    assert reserved[0][0] is res.runlog.sim
    assert len(res.runlog.sim.log) == 400
    reserved.clear()
    cli.run_open_loop(cfg)
    assert [steps for _, steps in reserved] == [400]
