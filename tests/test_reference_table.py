"""The control loop's reference table against direct window sampling.

A window threads the heading from node to node: each node is sampled with
the previous node's heading as its hint.  The table samples each control-grid
point once without a hint and applies the hint afterwards, so its windows
must agree with `sample_references` and with the hint chain of
`HybridTrajectory.reference` at the same times.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wheeled_bicopter import cli, nmpc
from wheeled_bicopter import trajectory as tj
from wheeled_bicopter.core import Mode, VehicleParams
from wheeled_bicopter.dynamics import Simulator

from test_trajectory import AerialLine

PARAMS = VehicleParams()
R = PARAMS.r
WEIGHT = PARAMS.weight
# A binary control period makes i*DT_CTRL + k*(STRIDE*DT_CTRL) and
# (i + STRIDE*k)*DT_CTRL the same float, so the table and sample_references
# sample at exactly the same times.  (At 200 Hz they can differ in the last
# bit, which the tangent-yaw rate near a stop amplifies to a few 1e-12.)
DT_CTRL = 1.0 / 256.0
STRIDE = 8  # horizon step in control periods (31.25 ms)
K = 20
TOL = 1e-12


def _ground_lemniscate():
    # the tangent heading crosses +-pi on the left lobe
    return tj.HybridTrajectory([tj.Lemniscate(
        A=2.5, B=0.8, omega=0.6, center=[0, 0, R], T_Bz=0.6 * WEIGHT)])


def _aerial_eight():
    rep = tj.scale_to_limits(
        tj.Lemniscate(A=3.5, B=1.0, omega=1.0, center=[0, 0, 1.2], mode=Mode.AERIAL),
        v_max=2.9, a_max=3.0)
    return tj.HybridTrajectory([rep.segment])


def _rest():
    return tj.HybridTrajectory([tj.Rest(
        p0=[1.0, 2.0, R], psi0=2.9, duration=0.8123, T_Bz=0.6 * WEIGHT)])


def _line():
    # heading near pi; past the end the ground heading is held
    return tj.HybridTrajectory([tj.Line(
        p0=[0, 0, R], velocity=[-1.0, 0.1, 0.0], duration=0.9377, T_Bz=0.6 * WEIGHT)])


def _yaw_blend():
    start = np.array([[0, 0, 1.0], [1.0, 0, 0], [0, 0, 0]])
    end = np.array([[2.0, 1.0, 1.5], [0.5, 0.5, 0], [0, 0, 0]])
    return tj.HybridTrajectory([tj.QuinticBlend(
        start=start, end=end, duration=2.4137, yaw_bc=(0.0, 0.0, 0.0, 3.9, 0.0, 0.0))])


def _takeoff_landing():
    ground = tj.Rest(p0=[0, 0, R], psi0=0.0, duration=1.0371,
                     T_Bz=0.6 * WEIGHT, T_Bz_end=WEIGHT)
    air = AerialLine(p0=[1.5, 0, 1.2], velocity=[1.5, 0, 0], duration=1.7131)
    touchdown = tj.Rest(p0=[6.0, 0.5, R], psi0=0.0, duration=1.1213,
                        T_Bz=WEIGHT, T_Bz_end=0.6 * WEIGHT)
    up = tj.takeoff_landing_blend(ground, air, T_blend=2.0137, a_max=2.2,
                                  yaw_bc=(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    down = tj.takeoff_landing_blend(air, touchdown, T_blend=2.5173, a_max=2.2)
    return tj.HybridTrajectory([ground, up, air, down, touchdown])


TRAJECTORIES = {
    "ground_lemniscate": _ground_lemniscate(),
    "aerial_eight": _aerial_eight(),
    "rest": _rest(),
    "line": _line(),
    "yaw_blend": _yaw_blend(),
    "takeoff_landing": _takeoff_landing(),
}


def _hint_chain(traj, times):
    refs, hint = [], None
    for t in times:
        refs.append(traj.reference(t, PARAMS, psi_hint=hint, clamp=True))
        hint = refs[-1].psi
    return refs


def _assert_same_window(got, want):
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert g.mode is w.mode, k
        assert abs(g.psi - w.psi) <= TOL, k
        for name in ("p", "v", "omega"):
            np.testing.assert_allclose(getattr(g.x_r, name), getattr(w.x_r, name),
                                       rtol=0, atol=TOL, err_msg=f"node {k} {name}")
        # same sign: the table negates q itself when it unwraps by an odd turn
        np.testing.assert_allclose(g.x_r.q.q, w.x_r.q.q, rtol=0, atol=TOL,
                                   err_msg=f"node {k} q")
        np.testing.assert_allclose(g.u, w.u, rtol=0, atol=TOL,
                                   err_msg=f"node {k} u")


def _outcome(sample):
    try:
        return sample(), None
    except Exception as exc:
        return None, exc


def _check_window(table, traj, i):
    """Tick i's window from the table against the hint chain and against
    sample_references; returns the window (None if sampling raised)."""
    nodes = [(j, j * DT_CTRL) for j in range(i, i + STRIDE * K + 1, STRIDE)]
    got, error = _outcome(lambda: table.window(nodes))
    assert all(i <= key <= i + STRIDE * K for key in table.entries)
    for sample in (
        lambda: _hint_chain(traj, [t for _, t in nodes]),
        lambda: traj.sample_references(i * DT_CTRL, K, STRIDE * DT_CTRL, PARAMS, clamp=True),
    ):
        want, want_error = _outcome(sample)
        if want_error is not None:
            # e.g. a ground stop with no heading to hold at node 0
            assert type(error) is type(want_error) and error.args == want_error.args
        else:
            assert error is None
            _assert_same_window(got, want)
    return got


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(TRAJECTORIES)), data=st.data())
def test_table_windows_match_direct_sampling(name, data):
    traj = TRAJECTORIES[name]
    last = round((traj.duration + 1.0) / DT_CTRL)  # to 1 s past the end
    # half the windows straddle a joint or the end, where headings are held
    joint = data.draw(st.sampled_from([round(t / DT_CTRL) for t in traj.starts[1:]]))
    first = data.draw(st.one_of(
        st.integers(0, last),
        st.integers(max(0, joint - STRIDE * K), joint).filter(lambda i: i <= last),
    ), label="first tick")
    gaps = data.draw(st.lists(st.integers(1, 3 * STRIDE), max_size=6), label="gaps")
    table = tj.ReferenceTable(traj, PARAMS, clamp=True)
    i = first
    for gap in [0] + gaps:
        i += gap
        _check_window(table, traj, i)


def test_table_sweep_covers_odd_turns_and_held_headings():
    seen = {"odd turn": 0, "held": 0}
    for traj in TRAJECTORIES.values():
        table = tj.ReferenceTable(traj, PARAMS, clamp=True)
        for i in range(0, round((traj.duration + 1.0) / DT_CTRL), 17):
            refs = _check_window(table, traj, i) or []
            for j, ref in zip(range(i, i + STRIDE * K + 1, STRIDE), refs):
                entry = table.entries[j]
                seen["held"] += ref.heading == "held"
                seen["odd turn"] += entry is not None and float(ref.x_r.q.q @ entry.x_r.q.q) < 0
    assert seen["odd turn"] > 0 and seen["held"] > 0, seen


def test_held_nodes_have_the_bits_of_a_hinted_transform(monkeypatch):
    # a held node comes from its entry, from the (key, hint) memo or from a
    # fresh transform; whichever, it is the transform with the chain's hint,
    # and no sample is transformed twice with the same hint
    transformed = []

    def counted(transform):
        def call(sample, params, clamp=False):
            out = transform(sample, params, clamp=clamp)
            transformed.append((sample.t, getattr(sample, "psi_hint", None), out.psi))
            return out
        return call

    held = 0
    for name in ("rest", "line", "takeoff_landing"):
        traj = TRAJECTORIES[name]
        table = tj.ReferenceTable(traj, PARAMS, clamp=True)
        transformed.clear()
        with monkeypatch.context() as m:
            m.setattr(tj, "ground_flat_to_reference", counted(tj.ground_flat_to_reference))
            m.setattr(tj, "aerial_flat_to_reference", counted(tj.aerial_flat_to_reference))
            windows = []
            for i in range(round((traj.duration + 1.0) / DT_CTRL)):
                nodes = [(j, j * DT_CTRL) for j in range(i, i + STRIDE * K + 1, STRIDE)]
                windows.append((nodes, table.window(nodes)))
        assert len(set(transformed)) == len(transformed), name
        for nodes, refs in windows[::5]:
            hint = None
            for (_, t), ref in zip(nodes, refs):
                if ref.heading == "held":
                    want = traj.reference(t, PARAMS, psi_hint=hint, clamp=True)
                    assert (ref.x.tobytes(), ref.u.tobytes(), ref.psi) == (
                        want.x.tobytes(), want.u.tobytes(), want.psi)
                    held += 1
                hint = ref.psi
    assert held > 0


def test_thrust_ramp_transforms_each_ground_node_about_once(monkeypatch):
    # hybrid_3d from 13.0 s: the stop before takeoff and the thrust ramp at
    # rest, where every node holds its heading; one second of ticks (the
    # window where each tick made 13.1 ground transforms when every held
    # node was transformed again)
    sc = cli.ScenarioConfig.from_dict(cli.load_bundled_scenario("hybrid_3d"), "hybrid_3d")
    traj, _ = cli.build_trajectory(sc)
    env, t0 = sc.environment, 13.0
    start = traj.reference(t0, sc.params)
    sim = Simulator(params=sc.params, x=start.x, dt=1.0 / env["sim_rate_hz"],
                    mode=start.mode, slip_enabled=env["slip_enabled"])
    sim.t = t0
    times = []
    transform = tj.ground_flat_to_reference

    def counted(sample, params, clamp=False):
        times.append(sample.t)
        return transform(sample, params, clamp=clamp)

    per_tick = []
    monkeypatch.setattr(tj, "ground_flat_to_reference", counted)
    log = nmpc.control_loop(sim, traj, sc.controller, sc.params, 1.0,
                            control_rate=env["control_rate_hz"],
                            stop_when=lambda tick: per_tick.append(len(times)) and False)
    ticks = len(log.ticks)
    assert log.error is None and ticks == 200
    assert len(times) <= 2 * ticks
    # after the first horizon step's ticks every node key has been seen: a
    # tick transforms its one new node, and a hinted re-transform at most
    r = round(sc.controller.dt * env["control_rate_hz"])
    assert max(b - a for a, b in zip(per_tick[r - 1:], per_tick[r:])) <= 2
    # and no sample time is transformed more than twice
    assert max(times.count(t) for t in set(times)) <= 2


def _assert_views_match(ref):
    """The typed views agree with the packed arrays: u exactly, x up to the
    re-normalization of q."""
    assert ref.x.shape == (13,) and ref.u.shape == (4,)
    np.testing.assert_array_equal(ref.u_r.as_array(), ref.u)
    np.testing.assert_allclose(ref.x_r.as_array(), ref.x, rtol=0, atol=1e-15)
    assert ref.x_array() is ref.x


def test_typed_views_match_packed_references():
    refs = {
        "tangent": TRAJECTORIES["ground_lemniscate"].reference(0.7, PARAMS),
        "explicit": TRAJECTORIES["yaw_blend"].reference(0.9, PARAMS),
        "held": TRAJECTORIES["rest"].reference(0.3, PARAMS),
    }
    refs["turned"] = refs["tangent"].turned(1)
    assert refs["held"].mode is Mode.GROUND and refs["explicit"].mode is Mode.AERIAL
    for heading, ref in refs.items():
        assert ref.heading == ("tangent" if heading == "turned" else heading)
        _assert_views_match(ref)


def test_turned_copies_the_entry_and_negates_only_q():
    table = tj.ReferenceTable(TRAJECTORIES["ground_lemniscate"], PARAMS, clamp=True)
    entry = table.window([(j, j * DT_CTRL) for j in range(0, STRIDE * K + 1, STRIDE)])[3]
    assert entry is table.entries[3 * STRIDE]
    before = entry.x.copy()
    for n in (1, -1, 2):
        turned = entry.turned(n)
        np.testing.assert_array_equal(entry.x, before)
        sign = -1.0 if n % 2 else 1.0
        np.testing.assert_array_equal(turned.x[6:10], sign * before[6:10])
        np.testing.assert_array_equal(np.delete(turned.x, np.s_[6:10]),
                                      np.delete(before, np.s_[6:10]))
        assert turned.u is entry.u and turned.psi == entry.psi + 2 * np.pi * n
    # shared between windows, so nothing may write to them
    for arr in (entry.x, entry.u, entry.turned(1).x):
        with pytest.raises(ValueError):
            arr[0] = 0.0


class TwoArgError(Exception):
    def __init__(self, code, where):
        super().__init__(code, where)


@dataclass
class FailingLine(AerialLine):
    fail_after: float = 0.12

    def flat(self, tau):
        if tau > self.fail_after:
            raise TwoArgError(7, "flat")
        return super().flat(tau)


def test_sample_error_keeps_type_and_args_and_names_the_sample():
    seg = FailingLine(p0=[0, 0, 1.0], velocity=[1.0, 0, 0], duration=2.0)
    traj = tj.HybridTrajectory([seg])
    with pytest.raises(TwoArgError) as direct:
        traj.sample_references(0.0, 5, STRIDE * DT_CTRL, PARAMS)
    assert direct.value.args == (7, "flat")
    assert direct.value.__notes__ == ["sample 4 (t=0.125s)"]

    table = tj.ReferenceTable(traj, PARAMS)
    with pytest.raises(TwoArgError) as tabled:
        table.window([(j, j * DT_CTRL) for j in range(0, 5 * STRIDE + 1, STRIDE)])
    assert tabled.value.args == (7, "flat")
    assert tabled.value.__notes__ == direct.value.__notes__
