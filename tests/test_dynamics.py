import math

import numpy as np
import pytest

from wheeled_bicopter.core import (
    ContactLossError,
    ControlInput,
    DivergenceError,
    Mode,
    Orientation,
    RobotState,
    VehicleParams,
    quat_normalize,
    quat_to_euler,
    quat_to_matrix,
    vec3,
)
from wheeled_bicopter import dynamics as dyn


@pytest.fixture
def params():
    return VehicleParams()


def hover_input(params):
    T = params.weight / 2
    return ControlInput(T, T, 0.0, 0.0)


def step(state, u, mode, dt, params):
    """One RK4 step of a typed state through the plant's array core."""
    x = dyn.rk4_step(state.as_array(), u.as_array(), mode, dt, params)
    return RobotState(x[0:3], x[3:6], x[6:10], x[10:13])


def mechanical_energy(state, params):
    """Kinetic plus gravitational potential energy (aerial mode)."""
    wb = quat_to_matrix(state.q.q).T @ state.omega
    trans = 0.5 * params.m * float(state.v @ state.v)
    rot = 0.5 * float(wb @ (params.J * wb))
    return trans + rot + params.m * params.g * float(state.p[2])


def thrust_power(state, u, params):
    """Mechanical power the actuators deliver to the rigid body."""
    w = dyn.actuator_wrench(u, params)
    R = quat_to_matrix(state.q.q)
    return float((R @ w.T_B) @ state.v) + float(w.tau_B @ (R.T @ state.omega))


def lateral_speed(x):
    """Planar speed of a packed state across its heading."""
    psi = quat_to_euler(x[6:10])[2]
    return -x[3] * math.sin(psi) + x[4] * math.cos(psi)


# ---------------------------------------------------------------------------
# actuator wrench
# ---------------------------------------------------------------------------


def test_wrench_symmetric_hover(params):
    w = dyn.actuator_wrench(ControlInput(4.07, 4.07, 0.0, 0.0), params)
    np.testing.assert_allclose(w.T_B, [0.0, 0.0, 8.14], atol=1e-12)
    np.testing.assert_allclose(w.tau_B, np.zeros(3), atol=1e-12)


def test_wrench_equal_tilt(params):
    w = dyn.actuator_wrench(ControlInput(3.0, 3.0, 0.1, 0.1), params)
    assert w.T_B[1] == pytest.approx(-6.0 * math.sin(0.1), abs=1e-12)
    assert w.T_B[1] == pytest.approx(-0.599, abs=5e-4)
    assert w.tau_B[2] == pytest.approx(0.0, abs=1e-12)
    assert w.tau_B[0] == pytest.approx(w.T_B[1] * params.h1, abs=1e-15)


def test_wrench_differential_thrust(params):
    w = dyn.actuator_wrench(ControlInput(2.0, 3.0, 0.0, 0.0), params)
    assert w.tau_B[1] == pytest.approx((-2.0 + 3.0) * 0.07, abs=1e-12)


def test_wrench_roll_identity_random(params):
    rng = np.random.default_rng(5)
    for _ in range(100):
        u = ControlInput(
            rng.uniform(0, params.T_max),
            rng.uniform(0, params.T_max),
            rng.uniform(-params.delta_max, params.delta_max),
            rng.uniform(-params.delta_max, params.delta_max),
        )
        w = dyn.actuator_wrench(u, params)
        assert w.tau_B[0] == w.T_B[1] * params.h1
        assert w.T_B[0] == 0.0


def test_wrench_rejects_out_of_bounds(params):
    with pytest.raises(ValueError):
        dyn.actuator_wrench(ControlInput(9.0, 1.0, 0.0, 0.0), params)


# ---------------------------------------------------------------------------
# centripetal acceleration
# ---------------------------------------------------------------------------


def lateral_accel(params, v, omega_z):
    """Heading-lateral acceleration of a stuck ground state moving along v
    and turning at omega_z, without side thrust: the centripetal term."""
    psi = math.atan2(v[1], v[0])
    st = ground_state(params, v=v, psi=psi, omega=(0.0, 0.0, omega_z))
    d = dyn.derivative(st, ControlInput(2.0, 2.0, 0.0, 0.0), Mode.GROUND, params)
    return -d.vdot[0] * math.sin(psi) + d.vdot[1] * math.cos(psi)


def test_centripetal_circular_identity(params):
    assert lateral_accel(params, (2.0, 0.0, 0.0), 1.0) == pytest.approx(2.0)


def test_centripetal_zero_speed_guard(params):
    assert lateral_accel(params, (0.0, 0.0, 0.0), 3.0) == 0.0


def test_centripetal_straight_line(params):
    assert lateral_accel(params, (1.5, 0.5, 0.0), 0.0) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# ground reaction
# ---------------------------------------------------------------------------


def ground_state(params, v=(0.0, 0.0, 0.0), theta=0.0, psi=0.0, omega=(0, 0, 0)):
    return RobotState(
        vec3(0, 0, params.r), vec3(*v), Orientation.from_euler(0.0, theta, psi), vec3(*omega)
    )


def ground_reaction(params, u, a_l, v=(0.0, 0.0, 0.0), theta=0.0):
    """Contact core at heading psi = 0 with the no-slip lateral force of a
    turn at lateral acceleration a_l, as the ground dynamics evaluate it."""
    w = dyn.actuator_wrench(u, params)
    cth, sth = math.cos(theta), math.sin(theta)
    F_n = params.m * params.g - w.T_B[2] * cth
    f_l_req = params.m * a_l - w.T_B[1]
    forces = dyn.ground_contact(F_n, f_l_req, w.tau_B[0], cth, sth, v[0], params)
    return w, F_n, forces


def test_ground_reaction_static(params):
    u = ControlInput(2.0, 2.0, 0.0, 0.0)  # T_Bz = 4 N
    _, F_n, (_, f_l, F_nl, F_nr, _, _, _) = ground_reaction(params, u, 0.0)
    assert F_n == pytest.approx(0.83 * 9.81 - 4.0, abs=1e-9)
    assert F_n == pytest.approx(4.142, abs=5e-4)
    assert f_l == 0.0
    assert F_nl == pytest.approx(2.071, abs=5e-4)
    assert F_nr == pytest.approx(F_nl, abs=1e-12)
    assert F_nl + F_nr == pytest.approx(F_n, abs=1e-9)


def test_ground_reaction_contact_loss_at_full_weight(params):
    T = params.weight / 2
    with pytest.raises(ContactLossError):
        dyn.derivative(ground_state(params), ControlInput(T, T, 0.0, 0.0), Mode.GROUND, params)


def test_ground_reaction_turning_case(params):
    # a_l = 2 m/s^2 and T_By = -1 N: f_l = m a_l - T_By = 2.66 N
    delta = math.asin(0.5 / 2.0)  # each rotor contributes 0.5 N laterally
    u = ControlInput(2.0, 2.0, delta, delta)
    w, F_n, (_, f_l, F_nl, F_nr, lift, _, _) = ground_reaction(params, u, 2.0, v=(1.0, 0, 0))
    assert w.T_B[1] == pytest.approx(-1.0, abs=1e-12)
    assert f_l == pytest.approx(0.83 * 2.0 + 1.0, abs=1e-9)
    # independent re-derivation of the raw per-wheel split (this
    # combination tips the load past one wheel)
    split = (f_l * params.r + w.tau_B[0] * 1.0) / params.W
    left_raw = F_n / 2 - split
    right_raw = F_n / 2 + split
    assert left_raw + right_raw == pytest.approx(F_n, abs=1e-12)
    assert lift
    assert left_raw < 0.0
    assert F_nl == pytest.approx(left_raw, abs=1e-12)
    assert F_nr == pytest.approx(right_raw, abs=1e-12)


def test_ground_reaction_torque_rows_from_per_wheel_forces(params):
    rng = np.random.default_rng(6)
    lifted = 0
    for _ in range(50):
        u = ControlInput(
            rng.uniform(0.5, 3.5), rng.uniform(0.5, 3.5),
            rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
        )
        theta = rng.uniform(-0.3, 0.3)
        v = (rng.uniform(0.2, 2.0), 0, 0)
        _, _, (_, _, F_nl, F_nr, lift, G2, G3) = ground_reaction(
            params, u, rng.uniform(-1.0, 1.0), v=v, theta=theta
        )
        lifted += bool(lift)
        # rolling forward; a lifted wheel (negative raw normal) rolls freely
        f_rl, f_rr = -params.mu * max(F_nl, 0.0), -params.mu * max(F_nr, 0.0)
        assert G3 == pytest.approx((f_rr - f_rl) * params.W, abs=1e-12)
        assert G2 == pytest.approx(
            (params.m - 2 * params.m_w) * params.h2 * params.g * math.sin(theta), abs=1e-12
        )
    assert lifted  # the seed covers rows with a lifted wheel


def test_ground_reaction_wheel_liftoff_flagged(params):
    # large lateral force tips the load far onto one wheel
    delta = 0.6
    u = ControlInput(3.0, 3.0, delta, delta)
    _, _, (_, _, F_nl, F_nr, lift, _, _) = ground_reaction(params, u, 4.0, v=(1, 0, 0))
    assert lift
    assert min(F_nl, F_nr) < 0.0  # raw normals: the lifted wheel would pull


# ---------------------------------------------------------------------------
# derivative
# ---------------------------------------------------------------------------


def test_aerial_hover_equilibrium(params):
    st = RobotState.rest((0, 0, 1.0))
    d = dyn.derivative(st, hover_input(params), Mode.AERIAL, params)
    np.testing.assert_allclose(d.as_array(), np.zeros(13), atol=1e-12)


def test_aerial_tilt_gives_lateral_accel_and_roll_rate(params):
    T = params.weight / (2 * math.cos(0.05))
    u = ControlInput(T, T, 0.05, 0.05)
    st = RobotState.rest((0, 0, 1.0))
    d = dyn.derivative(st, u, Mode.AERIAL, params)
    np.testing.assert_allclose(d.vdot, [0.0, -2 * T * math.sin(0.05) / params.m, 0.0], atol=1e-12)
    w = dyn.actuator_wrench(u, params)
    assert d.omegadot[0] == pytest.approx(w.tau_B[0] / params.J[0], rel=1e-12)


def test_ground_derivative_zero_at_standstill(params):
    st = ground_state(params)
    u = ControlInput(2.0, 2.0, 0.0, 0.0)
    d = dyn.derivative(st, u, Mode.GROUND, params)
    np.testing.assert_allclose(d.as_array(), np.zeros(13), atol=1e-12)


def test_ground_derivative_contact_loss_propagates(params):
    st = ground_state(params)
    T = params.weight / 2 + 0.1
    with pytest.raises(ContactLossError):
        dyn.derivative(st, ControlInput(T, T, 0.0, 0.0), Mode.GROUND, params)


# ---------------------------------------------------------------------------
# step / integrator
# ---------------------------------------------------------------------------


def test_hover_fixed_point_1000_steps(params):
    st = RobotState.rest((0, 0, 1.0))
    u = hover_input(params)
    x0 = st.as_array()
    for _ in range(1000):
        st = step(st, u, Mode.AERIAL, 1e-3, params)
    np.testing.assert_allclose(st.as_array(), x0, atol=1e-9)


def test_ballistic_free_fall(params):
    st = RobotState(vec3(0, 0, 10.0), vec3(0.3, 0, 0), Orientation(), vec3(0, 0, 0))
    u = ControlInput(0.0, 0.0, 0.0, 0.0)
    for _ in range(1000):
        st = step(st, u, Mode.AERIAL, 1e-3, params)
    assert st.p[2] == pytest.approx(10.0 - 0.5 * params.g * 1.0**2, abs=1e-6)
    assert st.p[0] == pytest.approx(0.3, abs=1e-9)


def test_rk4_fourth_order_convergence(params):
    # smooth aerial maneuver: constant asymmetric input from a spinning state
    u = ControlInput(4.2, 3.9, 0.12, -0.05)
    st0 = RobotState(
        vec3(0, 0, 2.0), vec3(0.5, -0.2, 0.1),
        Orientation.from_euler(0.05, -0.1, 0.4), vec3(0.4, 0.3, -0.2),
    )

    def integrate(dt, T=0.32):
        st = st0
        for _ in range(round(T / dt)):
            st = step(st, u, Mode.AERIAL, dt, params)
        return st.as_array()

    ref = integrate(0.0005)
    err1 = np.linalg.norm(integrate(0.008) - ref)
    err2 = np.linalg.norm(integrate(0.004) - ref)
    ratio = err1 / err2
    assert 10.0 < ratio < 22.0  # 4th order: ~16x per halving


def test_divergence_aborts():
    params = VehicleParams()
    x0 = RobotState(vec3(0, 0, 9.9e5), vec3(0, 0, 1e5), Orientation(), vec3(0, 0, 0)).as_array()
    sim = dyn.Simulator(params=params, x=x0, dt=1e-3)
    with pytest.raises(DivergenceError):
        for _ in range(200):
            sim.apply(np.zeros(4), 1e-3)


# ---------------------------------------------------------------------------
# slip
# ---------------------------------------------------------------------------


def test_slip_check_stick(params):
    assert dyn.slip_check(2.0, 4.0, VehicleParams(mu_s=1.0))


def test_slip_check_slips_with_excess():
    assert not dyn.slip_check(2.0, 4.0, VehicleParams(mu_s=0.1))


def test_slip_check_boundary_sticks():
    assert dyn.slip_check(0.4, 4.0, VehicleParams(mu_s=0.1))


# ---------------------------------------------------------------------------
# rotor power
# ---------------------------------------------------------------------------


def test_rotor_power_zero(params):
    assert dyn.rotor_power(np.zeros(4), params) == 0.0


def test_rotor_power_single_rotor_value(params):
    P = dyn.rotor_power(np.array([4.07, 0.0, 0.0, 0.0]), params)
    expected = math.sqrt(4.07**3 / (2 * math.pi * 0.0635**2 * 1.225))
    assert P == pytest.approx(expected, rel=1e-12)
    assert P == pytest.approx(46.6, abs=0.1)


def test_rotor_power_area_scaling(params):
    big = VehicleParams(S=2 * params.S)
    u = np.array([3.0, 3.0, 0.0, 0.0])
    assert dyn.rotor_power(u, big) == pytest.approx(
        dyn.rotor_power(u, params) / math.sqrt(2), rel=1e-12
    )


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_aerial_energy_balance(params):
    # energy change equals actuator work on a short horizon
    st = RobotState(
        vec3(0, 0, 1.5), vec3(0.4, -0.1, 0.2),
        Orientation.from_euler(0.1, -0.05, 0.2), vec3(0.5, -0.3, 0.4),
    )
    u = ControlInput(4.3, 3.8, 0.08, -0.03)
    dt = 2e-4
    E0 = mechanical_energy(st, params)
    work = 0.0
    p_prev = thrust_power(st, u, params)
    for _ in range(500):
        st = step(st, u, Mode.AERIAL, dt, params)
        p_now = thrust_power(st, u, params)
        work += 0.5 * (p_prev + p_now) * dt
        p_prev = p_now
    dE = mechanical_energy(st, params) - E0
    assert dE == pytest.approx(work, abs=1e-5)


def test_ground_stick_constraints_hold(params):
    # rolling with a gentle turn: lateral velocity, altitude and roll stay pinned
    psi0 = 0.3
    st = RobotState(
        vec3(0, 0, params.r),
        1.2 * vec3(math.cos(psi0), math.sin(psi0), 0.0),
        Orientation.from_euler(0.0, 0.02, psi0),
        vec3(0, 0, 0.2),
    )
    u = ControlInput(2.0, 2.0, 0.04, 0.05)
    z0 = st.p[2]
    for _ in range(2000):
        st = step(st, u, Mode.GROUND, 1e-3, params)
        phi, theta, psi = st.q.to_euler()
        lat = -st.v[0] * math.sin(psi) + st.v[1] * math.cos(psi)
        assert abs(lat) < 1e-6
        assert abs(st.p[2] - z0) < 1e-9
        assert abs(phi) < 1e-9
        assert abs(st.v[2]) < 1e-12


def test_touchdown_continuity(params):
    # matched boundary state: position/velocity continuous through the switch
    x0 = RobotState(
        vec3(0, 0, params.r + 0.005), vec3(1.0, 0, -0.01), Orientation(), vec3(0, 0, 0)
    ).as_array()
    sim = dyn.Simulator(params=params, x=x0, dt=1e-3, mode=Mode.AERIAL)
    u = hover_input(params).as_array()  # near-zero vertical accel during the descent
    prev = sim.x
    for _ in range(3000):
        sim.apply(u, 1e-3)
        cur = sim.x
        jump = np.abs(cur[:6] - prev[:6])
        assert np.all(jump < 0.02)  # no impulsive position/velocity change
        prev = cur
        if sim.mode is Mode.GROUND:
            break
    assert sim.mode is Mode.GROUND
    assert sim.x[2] == pytest.approx(params.r, abs=1e-9)


def test_simulator_slip_saturates_lateral_friction(params):
    # slippery ground: commanded hard turn exceeds mu_s F_n and the wheels slide
    p = VehicleParams(mu_s=0.05)
    psi0 = 0.0
    x0 = RobotState(
        vec3(0, 0, p.r), vec3(2.0, 0, 0), Orientation.from_euler(0, 0, psi0), vec3(0, 0, 1.5)
    ).as_array()
    sim = dyn.Simulator(params=p, x=x0, dt=1e-3, slip_enabled=True, mode=Mode.GROUND)
    u = np.array([2.0, 2.0, 0.0, 0.0])
    for _ in range(300):
        sim.apply(u, 1e-3)
    assert sim.slip_steps > 0
    # lateral velocity actually developed (constraint released)
    lat = abs(lateral_speed(sim.x))
    assert lat > 1e-3


# ---------------------------------------------------------------------------
# one contact evaluation per plant step
# ---------------------------------------------------------------------------


def apply_with_separate_k1(sim, u, duration):
    """Simulator.apply as a stepper that evaluates the contact diagnostics
    and RK4's first stage in separate calls."""
    ua = np.array(u, dtype=float)
    P = sim.params
    power = dyn.rotor_power(ua, P)
    for _ in range(max(1, round(duration / sim.dt))):
        x = sim.x.copy()
        if sim.mode is Mode.AERIAL:
            sim._try_touchdown(x, ua)
        F_nl = F_nr = f_l = 0.0
        lift = False
        if sim.mode is Mode.GROUND:
            _, diag = dyn._f_ground_batch(x, ua, P, slipping=sim.slipping)
            F_n = float(diag["F_n"])
            if F_n < 0.0:
                sim.mode = Mode.AERIAL
                sim.slipping = False
            else:
                stick = dyn.slip_check(float(diag["f_l_req"]), F_n, P)
                if sim.slip_enabled and not sim.slipping and not stick:
                    sim.slipping = True
                    _, diag = dyn._f_ground_batch(x, ua, P, slipping=True)
                elif (sim.slip_enabled and sim.slipping and stick
                      and abs(float(diag["w_lat"])) < dyn.LATERAL_STICK_EPS):
                    sim.slipping = False
                    dyn._project_ground(x, keep_lateral=False)
                    _, diag = dyn._f_ground_batch(x, ua, P, slipping=False)
                F_nl = max(float(diag["F_nl"]), 0.0)
                F_nr = max(float(diag["F_nr"]), 0.0)
                f_l = float(diag["f_l"])
                lift = bool(diag["lift_off"])
                sim.lift_off_events += lift
                sim.slip_steps += sim.slipping
        sim.log.append(dyn.SimLogRow(
            t=sim.t, x=x, u=ua, F_n_left=F_nl, F_n_right=F_nr, f_l=f_l,
            slip=int(sim.slipping), lift_off=int(lift), power=power,
        ))
        xn = dyn.rk4_step(x, ua, sim.mode, sim.dt, P, sim.slipping)
        xn[6:10] = quat_normalize(xn[6:10])
        sim.x = xn
        sim.t += sim.dt


def test_simulator_reuses_contact_evaluation_as_k1_bit_for_bit():
    # slow descent to touchdown; a tilted push that lifts the left wheel,
    # then a harder one that slides both; low thrust until they stick
    # again; full thrust to lift off
    p = VehicleParams()
    x0 = RobotState(
        vec3(0, 0, p.r + 0.002), 0.8 * vec3(math.cos(0.1), math.sin(0.1), -0.0625),
        Orientation.from_euler(0, 0.02, 0.1), vec3(0, 0, 0),
    ).as_array()
    descend, roll = 0.45 * p.weight, 0.3 * p.weight
    phases = [([descend, descend, 0.0, 0.0], 40), ([2.5, 2.5, 0.35, 0.35], 20),
              ([3.0, 3.0, 0.6, 0.6], 30), ([roll, roll, 0.0, 0.0], 200),
              ([6.0, 6.0, 0.0, 0.0], 20)]
    sims = [dyn.Simulator(params=p, x=x0, dt=1e-3, slip_enabled=True, mode=Mode.AERIAL)
            for _ in range(2)]
    seen = []
    for u, steps in phases:
        for _ in range(steps):
            sims[0].apply(u, 1e-3)
            apply_with_separate_k1(sims[1], u, 1e-3)
            seen.append((sims[0].mode, sims[0].slipping))
    modes, slips = [m for m, _ in seen], [s for _, s in seen]
    # touchdown, lift-off, slip onset and re-stick all happen in ground mode
    assert (Mode.AERIAL, Mode.GROUND) in set(zip(modes, modes[1:]))
    assert (Mode.GROUND, Mode.AERIAL) in set(zip(modes, modes[1:]))
    assert {(False, True), (True, False)} <= set(zip(slips, slips[1:]))
    fast, ref = sims
    assert fast.lift_off_events > 0  # a wheel lifted: k1 uses clamped normals
    assert len(fast.log) == len(ref.log) == sum(n for _, n in phases)
    for a, b in zip(fast.log, ref.log):
        assert a.x.tobytes() == b.x.tobytes() and a.u.tobytes() == b.u.tobytes()
        assert (a.t, a.F_n_left, a.F_n_right, a.f_l, a.slip, a.lift_off, a.power) == (
            b.t, b.F_n_left, b.F_n_right, b.f_l, b.slip, b.lift_off, b.power)
    assert fast.x.tobytes() == ref.x.tobytes()
    assert (fast.t, fast.mode, fast.slipping, fast.slip_steps, fast.lift_off_events) == (
        ref.t, ref.mode, ref.slipping, ref.slip_steps, ref.lift_off_events)
