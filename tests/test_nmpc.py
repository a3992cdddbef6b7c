import math

import numpy as np
import pytest

from wheeled_bicopter.core import Mode, Orientation, RobotState, VehicleParams, vec3
from wheeled_bicopter import dynamics as dyn
from wheeled_bicopter import nmpc
from wheeled_bicopter import trajectory as tj


@pytest.fixture
def params():
    return VehicleParams()


@pytest.fixture
def cfg():
    return nmpc.NmpcConfig()


def hover_state(params, p=(0.0, 0.0, 1.0)):
    return RobotState.rest(p).as_array()


def hover_input_array(params):
    T = params.hover_thrust_per_rotor
    return np.array([T, T, 0.0, 0.0])


def circle_trajectory(params, radius=2.0, speed=1.5, laps=2.0):
    om = speed / radius
    seg = tj.Circle(
        radius=radius, omega=om, center=[0, 0, params.r],
        mode=Mode.GROUND, laps=laps, T_Bz=0.6 * params.weight,
    )
    return tj.HybridTrajectory([seg])


def hover_trajectory(params, p=(0.0, 0.0, 1.0), duration=10.0):
    seg = tj.Rest(p0=np.asarray(p), psi0=0.0, duration=duration, mode=Mode.AERIAL)
    return tj.HybridTrajectory([seg])


# ---------------------------------------------------------------------------
# discretize
# ---------------------------------------------------------------------------


def test_discretize_hover_fixed_point(params, cfg):
    x = hover_state(params)
    u = hover_input_array(params)
    x_next, A, B = nmpc.discretize(x, u, Mode.AERIAL, cfg.dt, params)
    np.testing.assert_allclose(x_next, x, atol=1e-12)
    assert A.shape == (13, 13) and B.shape == (13, 4)


def test_discretize_jacobians_match_central_differences(params, cfg):
    rng = np.random.default_rng(11)
    h = 1e-5
    for mode in (Mode.AERIAL, Mode.GROUND):
        for _ in range(12):
            x = hover_state(params)
            x[0:3] = rng.normal(0, 1.0, 3)
            x[2] = params.r if mode is Mode.GROUND else abs(x[2]) + 1.0
            psi = rng.uniform(-2, 2)
            theta = rng.uniform(-0.25, 0.25)
            phi = 0.0 if mode is Mode.GROUND else rng.uniform(-0.25, 0.25)
            q = Orientation.from_euler(phi, theta, psi).q
            x[6:10] = q
            if mode is Mode.GROUND:
                speed = rng.uniform(0.3, 2.0)
                x[3:6] = [speed * math.cos(psi), speed * math.sin(psi), 0.0]
                x[10:13] = [0, 0, rng.uniform(-1, 1)]
                thd = rng.uniform(-0.5, 0.5)
                x[10] += -thd * math.sin(psi)
                x[11] += thd * math.cos(psi)
            else:
                x[3:6] = rng.normal(0, 1.0, 3)
                x[10:13] = rng.normal(0, 0.5, 3)
            u = np.array([
                rng.uniform(1.5, 5.0), rng.uniform(1.5, 5.0),
                rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4),
            ])
            _, A, B = nmpc.discretize(x, u, mode, cfg.dt, params)
            # central differences as the independent check
            for j in range(13):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                col = (
                    dyn.rk4_step(xp, u, mode, cfg.dt, params)
                    - dyn.rk4_step(xm, u, mode, cfg.dt, params)
                ) / (2 * h)
                err = np.max(np.abs(A[:, j] - col)) / max(1.0, np.max(np.abs(col)))
                assert err < 1e-4
            for j in range(4):
                up, um = u.copy(), u.copy()
                up[j] += h
                um[j] -= h
                col = (
                    dyn.rk4_step(x, up, mode, cfg.dt, params)
                    - dyn.rk4_step(x, um, mode, cfg.dt, params)
                ) / (2 * h)
                err = np.max(np.abs(B[:, j] - col)) / max(1.0, np.max(np.abs(col)))
                assert err < 1e-4


def test_discretize_step_composition(params):
    # two half steps compose to the full step within O(dt^5)
    x = hover_state(params)
    x[3:6] = [0.5, -0.2, 0.1]
    x[10:13] = [0.3, 0.2, -0.4]
    u = np.array([4.3, 3.9, 0.1, -0.08])

    def compose_err(dt):
        full = dyn.rk4_step(x, u, Mode.AERIAL, dt, params)
        half = dyn.rk4_step(
            dyn.rk4_step(x, u, Mode.AERIAL, dt / 2, params), u, Mode.AERIAL, dt / 2, params
        )
        return np.max(np.abs(full - half))

    e1, e2 = compose_err(0.05), compose_err(0.025)
    assert e2 < e1 / 12.0  # ~2^-4 .. 2^-5 scaling


# ---------------------------------------------------------------------------
# QP solver
# ---------------------------------------------------------------------------


def test_qp_unconstrained_minimum():
    H = np.diag([2.0, 4.0])
    g = np.array([-2.0, -8.0])
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([10.0, 10.0, 10.0, 10.0])
    z, work, lam, it = nmpc.solve_qp(H, g, A, b, np.zeros(2))
    np.testing.assert_allclose(z, [1.0, 2.0], atol=1e-10)


def test_qp_active_box():
    H = np.eye(2)
    g = np.array([-5.0, -0.2])
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([1.0, 1.0, 0.0, 0.0])  # 0 <= z <= 1
    z, *_ = nmpc.solve_qp(H, g, A, b, np.zeros(2))
    np.testing.assert_allclose(z, [1.0, 0.2], atol=1e-10)


def test_qp_equality_row():
    # minimize ||z||^2 s.t. z0 + z1 = 1
    H = np.eye(2)
    g = np.zeros(2)
    A = np.vstack([[1.0, 1.0], np.eye(2), -np.eye(2)])
    b = np.array([1.0, 5, 5, 5, 5])
    z, *_ = nmpc.solve_qp(H, g, A, b, np.array([1.0, 0.0]), n_eq=1)
    np.testing.assert_allclose(z, [0.5, 0.5], atol=1e-10)


def test_qp_general_inequality():
    # minimize (z0-2)^2 + (z1-2)^2 s.t. z0 + z1 <= 2
    H = 2 * np.eye(2)
    g = np.array([-4.0, -4.0])
    A = np.array([[1.0, 1.0]])
    b = np.array([2.0])
    z, *_ = nmpc.solve_qp(H, g, A, b, np.zeros(2))
    np.testing.assert_allclose(z, [1.0, 1.0], atol=1e-10)


def test_qp_solution_certificate():
    # stationarity, feasibility within 1e-8 and non-negative multipliers
    rng = np.random.default_rng(21)
    for _ in range(20):
        n, mr = 6, 9
        M = rng.normal(size=(n, n))
        H = M @ M.T + np.eye(n)
        g = rng.normal(size=n)
        A = rng.normal(size=(mr, n))
        b = A @ np.zeros(n) + rng.uniform(0.1, 1.0, mr)  # z0 = 0 feasible
        z, work, lam, _ = nmpc.solve_qp(H, g, A, b, np.zeros(n))
        assert np.all(A @ z <= b + 1e-8)
        grad = H @ z + g
        if work:
            grad = grad + A[work].T @ lam
            assert np.all(lam >= -1e-8)
        assert np.max(np.abs(grad)) < 1e-7


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_zero_error_fixed_point(params, cfg):
    traj = circle_trajectory(params)
    refs = traj.sample_references(1.0, cfg.K, cfg.dt, params)
    sol = nmpc.solve(refs[0].x_array(), refs, cfg, params)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.u_seq[0], refs[0].u_array(), atol=1e-6)
    assert sol.kkt_residual < 1e-6


def test_solve_lateral_offset_contracts_error(params, cfg):
    traj = hover_trajectory(params)
    refs = traj.sample_references(0.0, cfg.K, cfg.dt, params)
    x0 = refs[0].x_array().copy()
    x0[1] += 0.2  # lateral offset
    sol = nmpc.solve(x0, refs, cfg, params)
    perr = np.linalg.norm(sol.x_pred[:, 0:3] - refs[0].x_array()[0:3], axis=1)
    assert perr[-1] < 0.25 * perr[0]
    # monotone decrease once the attitude/thrust transient has acted (the
    # first couple of steps carry the countersteer of the roll coupling)
    assert np.all(np.diff(perr[3:]) < 1e-6)
    assert max(perr) < 1.1 * perr[0]
    # strictly cheaper than applying the uncorrected reference inputs
    Qx = cfg.state_weights()
    x = x0.copy()
    baseline = 0.0
    for k in range(cfg.K + 1):
        e = x - refs[k].x_array()
        if float(x[6:10] @ refs[k].x_array()[6:10]) < 0:
            e[6:10] = x[6:10] + refs[k].x_array()[6:10]
        baseline += float(e @ (Qx * e))
        if k < cfg.K:
            x = dyn.rk4_step(x, refs[k].u_array(), refs[k].mode, cfg.dt, params)
    assert sol.cost < baseline


def test_solve_ground_normals_and_bounds_on_eight_shape(params, cfg):
    rep = tj.scale_to_limits(
        tj.Lemniscate(A=3.5, B=1.0, omega=1.0, center=[0, 0, params.r],
                      T_Bz=0.6 * params.weight, laps=1.2),
        v_max=2.8, a_max=3.0,
    )
    traj = tj.HybridTrajectory([rep.segment])
    lo, hi = cfg.bounds(params)
    lap = rep.segment.duration / 1.2

    def check(sol, refs):
        assert sol.status in ("optimal", "relaxed")
        assert np.all(sol.u_seq >= lo - 1e-9) and np.all(sol.u_seq <= hi + 1e-9)
        for k in range(cfg.K):
            if refs[k].mode is Mode.GROUND:
                Fl, Fr = dyn.wheel_normals_batch(sol.x_pred[k], sol.u_seq[k], params)
                assert Fl >= -1e-6 and Fr >= -1e-6

    # scattered evaluation points around the lap (cold starts)
    for i in range(8):
        refs = traj.sample_references(0.125 * i * lap, cfg.K, cfg.dt, params, clamp=True)
        sol = nmpc.solve(refs[0].x_array(), refs, cfg, params)
        check(sol, refs)

    # consecutive warm-started ticks through the highest-curvature section
    warm = None
    t = 0.2 * lap
    for _ in range(12):
        refs = traj.sample_references(t, cfg.K, cfg.dt, params, clamp=True)
        sol = nmpc.solve(refs[0].x_array(), refs, cfg, params, warm_start=warm)
        check(sol, refs)
        warm = nmpc.shift_warm_start(sol)
        t += cfg.dt


def test_solve_deterministic(params, cfg):
    traj = circle_trajectory(params)
    refs = traj.sample_references(2.0, cfg.K, cfg.dt, params)
    x0 = refs[0].x_array().copy()
    x0[0] += 0.05
    a = nmpc.solve(x0, refs, cfg, params)
    b = nmpc.solve(x0, refs, cfg, params)
    assert np.array_equal(a.u_seq, b.u_seq)
    assert a.cost == b.cost and a.qp_iters == b.qp_iters


def test_solve_mixed_mode_horizon(params, cfg):
    # reference window straddling a ground->aerial transition
    zc = params.r
    ramp = tj.Rest(p0=[0, 0, zc], psi0=0.0, duration=0.6, T_Bz=0.6 * params.weight,
                   T_Bz_end=params.weight, mode=Mode.GROUND)
    climb = tj.QuinticBlend(
        start=np.array([[0, 0, zc], [0, 0, 0], [0, 0, 0.0]]),
        end=np.array([[0, 0, zc + 0.8], [0, 0, 0], [0, 0, 0]]),
        duration=1.6, mode=Mode.AERIAL, yaw_bc=(0.0, 0, 0, 0.0, 0, 0),
    )
    traj = tj.HybridTrajectory([ramp, climb])
    refs = traj.sample_references(0.2, cfg.K, cfg.dt, params, clamp=True)
    modes = {r.mode for r in refs}
    assert modes == {Mode.GROUND, Mode.AERIAL}
    sol = nmpc.solve(refs[0].x_array(), refs, cfg, params)
    assert sol.status in ("optimal", "relaxed")
    assert np.all(np.isfinite(sol.u_seq))
    # the aerial tail of the prediction actually climbs
    assert sol.x_pred[-1][2] > zc + 0.05


def test_shift_warm_start_basics(params, cfg):
    u = np.tile(np.array([1.0, 2.0, 0.1, -0.1]), (cfg.K, 1))
    sol = nmpc.OcpSolution(
        u_seq=u, x_pred=np.zeros((cfg.K + 1, 13)), slacks=np.zeros(0),
        status="optimal", cost=0.0, kkt_residual=0.0, qp_iters=1,
    )
    shifted = nmpc.shift_warm_start(sol)
    np.testing.assert_array_equal(shifted.u_seq, u)  # constant sequence unchanged
    u2 = u.copy()
    u2[0] = [9.0, 9.0, 0.5, 0.5]
    sol.u_seq = u2
    shifted = nmpc.shift_warm_start(sol)
    np.testing.assert_array_equal(shifted.u_seq[:-1], u2[1:])
    np.testing.assert_array_equal(shifted.u_seq[-1], u2[-1])
    # shifting twice equals shifting by two
    twice = nmpc.shift_warm_start(
        nmpc.OcpSolution(
            u_seq=shifted.u_seq, x_pred=shifted.x_seq, slacks=np.zeros(0),
            status="optimal", cost=0.0, kkt_residual=0.0, qp_iters=1,
        )
    )
    np.testing.assert_array_equal(twice.u_seq[:-2], u2[2:])


def test_lock_lateral_enforces_opposed_tilts(params):
    cfg = nmpc.NmpcConfig(lock_lateral=True)
    traj = circle_trajectory(params, radius=2.5, speed=1.2)
    refs = traj.sample_references(1.5, cfg.K, cfg.dt, params, clamp=True)
    sol = nmpc.solve(refs[0].x_array(), refs, cfg, params)
    sums = sol.u_seq[:, 2] + sol.u_seq[:, 3]
    assert np.max(np.abs(sums)) < 1e-8


def test_warm_start_not_worse_than_cold(params, cfg):
    traj = circle_trajectory(params)
    sim_costs_warm, sim_costs_cold = [], []
    warm = None
    x = traj.sample_references(0.5, cfg.K, cfg.dt, params)[0].x_array().copy()
    x[0] += 0.03
    t = 0.5
    for _ in range(25):
        refs = traj.sample_references(t, cfg.K, cfg.dt, params)
        sol_w = nmpc.solve(x, refs, cfg, params, warm_start=warm)
        sol_c = nmpc.solve(x, refs, cfg, params, warm_start=None)
        sim_costs_warm.append(sol_w.cost)
        sim_costs_cold.append(sol_c.cost)
        warm = nmpc.shift_warm_start(sol_w)
        x = dyn.rk4_step(x, sol_w.u_seq[0], refs[0].mode, cfg.dt, params)
        t += cfg.dt
    assert np.mean(sim_costs_warm) <= np.mean(sim_costs_cold) * 1.05 + 1e-9


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


def test_control_loop_hover_steady_state(params, cfg):
    traj = hover_trajectory(params)
    sim = dyn.Simulator(params=params, dt=5e-3, mode=Mode.AERIAL)
    sim.state = RobotState(
        vec3(0.02, -0.03, 0.98), vec3(0, 0, 0), Orientation.identity(), vec3(0, 0, 0)
    )
    log = nmpc.control_loop(sim, traj, cfg, params, duration=4.0, control_rate=200.0)
    assert not log.aborted
    final_err = np.linalg.norm(log.ticks[-1].x[0:3] - np.array([0.0, 0.0, 1.0]))
    assert final_err < 1e-4


def test_control_loop_rejects_mismatched_rates(params, cfg):
    sim = dyn.Simulator(params=params, dt=3e-3)
    with pytest.raises(ValueError):
        nmpc.control_loop(sim, hover_trajectory(params), cfg, params, duration=0.1)


def _aerial_line_run(params, cfg, n_ticks, monkeypatch):
    """Closed loop along an aerial line; returns the run log and the times
    of every aerial flatness transform made by the loop."""
    seg = tj.Line(p0=[0, 0, 1.0], velocity=[1.0, 0.5, 0], duration=5.0, mode=Mode.AERIAL)
    traj = tj.HybridTrajectory([seg])
    sim = dyn.Simulator(params=params, dt=5e-3, mode=Mode.AERIAL)
    sim.state = traj.reference(0.0, params).x_r
    calls = []
    transform = tj.aerial_flat_to_reference

    def counted(sample, params, clamp=False):
        calls.append(sample.t)
        return transform(sample, params, clamp=clamp)

    monkeypatch.setattr(tj, "aerial_flat_to_reference", counted)
    log = nmpc.control_loop(sim, traj, cfg, params, duration=n_ticks / 200.0)
    assert not log.aborted
    return log, calls


def test_control_loop_transforms_each_grid_point_once(params, cfg, monkeypatch):
    n, r = 60, 10  # 50 ms horizon step = 10 control periods
    _, calls = _aerial_line_run(params, cfg, n, monkeypatch)
    # the first r ticks meet only new grid points, later ticks one each
    assert len(calls) == r * (cfg.K + 1) + (n - r)
    assert len(set(calls)) == len(calls)


def test_control_loop_off_grid_horizon_samples_every_node(params, monkeypatch):
    cfg = nmpc.NmpcConfig(dt=0.0125)  # 2.5 control periods: nodes off the grid
    n = 60
    log, calls = _aerial_line_run(params, cfg, n, monkeypatch)
    assert len(calls) == n * (cfg.K + 1)
    # the line's feed-forward is exact: any misplaced node pulls the loop off it
    act, ref = log.positions()
    assert np.max(np.linalg.norm(act - ref, axis=1)) < 1e-9
