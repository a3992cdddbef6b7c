import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wheeled_bicopter.core import (
    InfeasibleReferenceError,
    Mode,
    VehicleParams,
    vec3,
)
from wheeled_bicopter import dynamics as dyn
from wheeled_bicopter import flatness as fl


@pytest.fixture
def params():
    return VehicleParams()


def circle_sample(t, params, radius=2.0, speed=1.5, T_Bz=5.0):
    om = speed / radius
    c, s = math.cos(om * t), math.sin(om * t)
    return fl.FlatSampleGround(
        p=np.array([radius * c, radius * s, params.r]),
        v=np.array([-radius * om * s, radius * om * c, 0.0]),
        a=np.array([-radius * om**2 * c, -radius * om**2 * s, 0.0]),
        j=np.array([radius * om**3 * s, -radius * om**3 * c, 0.0]),
        s=np.array([radius * om**4 * c, radius * om**4 * s, 0.0]),
        T_Bz=T_Bz,
        t=t,
    )


def line_sample(t, params, speed=1.0, accel=0.0, T_Bz=5.0):
    return fl.FlatSampleGround(
        p=np.array([speed * t + 0.5 * accel * t * t, 0.0, params.r]),
        v=np.array([speed + accel * t, 0.0, 0.0]),
        a=np.array([accel, 0.0, 0.0]),
        j=np.zeros(3),
        s=np.zeros(3),
        T_Bz=T_Bz,
        t=t,
    )


def reference_xdot_fd(make_ref, t, h=1e-4):
    xp = make_ref(t + h).x_array()
    xm = make_ref(t - h).x_array()
    return (xp - xm) / (2.0 * h)


# ---------------------------------------------------------------------------
# travel heading
# ---------------------------------------------------------------------------


def heading(v, psi_hint=None, a=(0, 0, 0), j=(0, 0, 0)):
    return fl.travel_heading(np.asarray(v, dtype=float), np.asarray(a, dtype=float),
                             np.asarray(j, dtype=float), psi_hint)


def test_travel_heading_forward_x():
    psi, psi_dot, psi_ddot, held = heading((1, 0, 0))
    assert (psi, psi_dot, psi_ddot, held) == (0.0, 0.0, 0.0, False)


def test_travel_heading_forward_y():
    psi, _, _, _ = heading((0, 2, 0))
    assert psi == pytest.approx(math.pi / 2)


def test_travel_heading_rates_are_the_tangent_rates():
    v, a, j = vec3(1.0, 0.5, 0), vec3(-0.3, 0.8, 0), vec3(0.2, -0.1, 0)
    _, psi_dot, psi_ddot, _ = fl.travel_heading(v, a, j, None)
    assert (psi_dot, psi_ddot) == fl.tangent_yaw_derivatives(v, a, j)
    assert psi_dot != 0.0 and psi_ddot != 0.0


def test_travel_heading_holds_below_deadband_with_zero_rates():
    psi, psi_dot, psi_ddot, held = heading((1e-3, 0, 0), psi_hint=0.7, a=(1, 2, 0), j=(3, 1, 0))
    assert held and psi == 0.7
    assert psi_dot == 0.0 and psi_ddot == 0.0


def test_travel_heading_at_rest_without_hint_is_none():
    assert heading((0, 0, 0)) is None
    assert heading((1e-3, 0, 0), a=(1, 0, 0)) is None


def test_travel_heading_unwraps_to_hint():
    psi, _, _, _ = heading((-1, -0.01, 0), psi_hint=math.pi - 0.02)
    assert abs(psi - (math.pi - 0.02)) < 0.1


# ---------------------------------------------------------------------------
# ground pitch
# ---------------------------------------------------------------------------


def ground_pitch(a, psi, T_Bz, params):
    """Reference pitch of the ground transform for a 1 m/s run along heading
    psi at planar acceleration a (rolling friction against the travel)."""
    heading = vec3(math.cos(psi), math.sin(psi), 0.0)
    sample = fl.FlatSampleGround(
        p=vec3(0, 0, params.r), v=heading, a=np.asarray(a, dtype=float),
        j=np.zeros(3), s=np.zeros(3), T_Bz=T_Bz,
    )
    return fl.ground_flat_to_reference(sample, params).x_r.q.to_euler()[1]


def test_ground_pitch_zero_cases(params):
    p = VehicleParams(mu=0.0)
    assert ground_pitch(vec3(0, 0, 0), 0.3, 5.0, p) == 0.0


def test_ground_pitch_direct_value():
    p = VehicleParams(mu=0.0)
    theta = ground_pitch(vec3(1.0, 0, 0), 0.0, 6.0, p)
    assert theta == pytest.approx(math.asin(0.83 / 6.0), abs=1e-12)
    assert theta == pytest.approx(0.1388, abs=1e-4)


def test_ground_pitch_dynamics_round_trip(params):
    # substituting theta back into the longitudinal force balance recovers
    # the commanded acceleration
    accel = 1.0
    theta = ground_pitch(vec3(accel, 0, 0), 0.0, 5.5, params)
    F_n = params.m * params.g - 5.5 * math.cos(theta)
    recovered = (5.5 * math.sin(theta) - params.mu * F_n) / params.m
    assert recovered == pytest.approx(accel, abs=1e-9)


def test_ground_pitch_domain_violation(params):
    with pytest.raises(InfeasibleReferenceError, match="pitch arcsine domain"):
        ground_pitch(vec3(50.0, 0, 0), 0.0, 4.0, params)


def test_ground_pitch_monotone_in_acceleration(params):
    thetas = [
        ground_pitch(vec3(ax, 0, 0), 0.0, 5.0, params) for ax in np.linspace(-1.5, 1.5, 11)
    ]
    assert np.all(np.diff(thetas) > 0)


# ---------------------------------------------------------------------------
# body rates
# ---------------------------------------------------------------------------


def test_body_rates_zero():
    np.testing.assert_array_equal(fl.ground_body_rates(0.1, 0.0, 0.5, 0.0), np.zeros(3))


def test_body_rates_direct():
    w = fl.ground_body_rates(0.0, 0.3, 0.0, 0.5)
    np.testing.assert_allclose(w, [0.0, 0.3, 0.5], atol=1e-15)


# ---------------------------------------------------------------------------
# wheel normals
# ---------------------------------------------------------------------------


def test_wheel_normals_even_split(params):
    left, right = fl.wheel_normals(4.0, 0.0, 0.0, 0.0, params)
    assert left == right == 2.0


def test_wheel_normals_direct_value(params):
    left, right = fl.wheel_normals(4.0, 1.0, 0.0, 0.0, params)
    assert left == pytest.approx(2.0 - 1.0 * 0.15 / 0.09, abs=1e-12)
    assert left == pytest.approx(0.333, abs=1e-3)
    assert right == pytest.approx(3.667, abs=1e-3)


def test_wheel_normals_sum_identity(params):
    rng = np.random.default_rng(8)
    for _ in range(100):
        F_n, f_l, tau, th = rng.uniform(0, 8), rng.normal(), rng.normal(), rng.uniform(-0.4, 0.4)
        left, right = fl.wheel_normals(F_n, f_l, tau, th, params)
        assert left + right == pytest.approx(F_n, abs=1e-12)


# ---------------------------------------------------------------------------
# lateral thrust approximation
# ---------------------------------------------------------------------------


def test_lateral_thrust_zero(params):
    assert fl.lateral_thrust_approx(0.0, params) == 0.0


def test_lateral_thrust_direct_value(params):
    val = fl.lateral_thrust_approx(2.0, params)
    assert val == pytest.approx(0.83 * 2.0 / (1 - 0.04 / 0.15), abs=1e-12)
    assert val == pytest.approx(2.264, abs=1e-3)


def test_lateral_thrust_exceeds_centripetal_force(params):
    for a_l in [-3.0, -0.5, 0.2, 4.0]:
        assert abs(fl.lateral_thrust_approx(a_l, params)) > params.m * abs(a_l)


# ---------------------------------------------------------------------------
# ground transform
# ---------------------------------------------------------------------------


def test_ground_transform_constant_velocity_line():
    p = VehicleParams(mu=0.0)
    ref = fl.ground_flat_to_reference(line_sample(0.0, p, speed=1.0, T_Bz=5.0), p)
    assert ref.u_r.delta1 == pytest.approx(0.0, abs=1e-12)
    assert ref.u_r.delta2 == pytest.approx(0.0, abs=1e-12)
    assert ref.u_r.T1 == pytest.approx(2.5, abs=1e-12)
    assert ref.u_r.T2 == pytest.approx(2.5, abs=1e-12)
    _, theta, _ = ref.x_r.q.to_euler()
    assert theta == pytest.approx(0.0, abs=1e-12)


def test_ground_transform_circle_oracle(params):
    # the central consistency check: open-loop reference derivative matches
    # the model dynamics at every sample
    make = lambda t: fl.ground_flat_to_reference(circle_sample(t, params), params)
    worst = 0.0
    for t in np.linspace(0.3, 8.0, 21):
        ref = make(t)
        d = dyn.derivative(ref.x_r, ref.u_r, Mode.GROUND, params).as_array()
        worst = max(worst, np.max(np.abs(d - reference_xdot_fd(make, t))))
    assert worst < 1e-6


def test_ground_transform_straight_accel_oracle(params):
    make = lambda t: fl.ground_flat_to_reference(
        line_sample(t, params, speed=0.5, accel=1.0, T_Bz=5.0), params
    )
    for t in [0.1, 0.5, 1.0]:
        ref = make(t)
        d = dyn.derivative(ref.x_r, ref.u_r, Mode.GROUND, params)
        psi = 0.0
        long_acc = d.vdot[0] * math.cos(psi) + d.vdot[1] * math.sin(psi)
        assert long_acc == pytest.approx(1.0, abs=1e-6)


def test_ground_transform_wrench_reconstruction(params):
    # the linear input solve is exact: re-assembling the wrench from u_r
    # reproduces the required vertical thrust
    ref = fl.ground_flat_to_reference(circle_sample(1.2, params), params)
    w = dyn.actuator_wrench(ref.u_r, params)
    assert w.T_B[2] == pytest.approx(5.0, abs=1e-9)


def test_ground_transform_reports_lift_off(params):
    # tight turn at low thrust (a_l = 8 m/s^2 at 0.5 m/s): a reference wheel
    # normal goes negative
    s = fl.FlatSampleGround(
        p=np.array([0.0, 0.0, params.r]), v=np.array([0.5, 0.0, 0.0]),
        a=np.array([0.0, 8.0, 0.0]), j=np.zeros(3), s=np.zeros(3), T_Bz=2.0,
    )
    with pytest.raises(InfeasibleReferenceError, match="wheel lift-off in reference"):
        fl.ground_flat_to_reference(s, params)


def test_ground_transform_reports_negative_total_normal_force(params):
    # thrust inside the accepted band above m g, level and at rest: F_n < 0
    s = fl.FlatSampleGround(
        p=np.array([0.0, 0.0, params.r]), v=np.zeros(3), a=np.zeros(3), j=np.zeros(3),
        s=np.zeros(3), T_Bz=params.weight + 5e-7, psi_hint=0.0,
    )
    with pytest.raises(InfeasibleReferenceError, match="negative total normal force"):
        fl.ground_flat_to_reference(s, params)


def test_ground_transform_thrust_out_of_range(params):
    with pytest.raises(InfeasibleReferenceError):
        fl.ground_flat_to_reference(circle_sample(0.0, params, T_Bz=9.0), params)


def test_ground_transform_rest_sample(params):
    s = fl.FlatSampleGround(
        p=np.array([1.0, 2.0, params.r]),
        v=np.zeros(3), a=np.zeros(3), j=np.zeros(3), s=np.zeros(3),
        T_Bz=4.0,
    )
    with pytest.raises(InfeasibleReferenceError, match="heading undefined at rest"):
        fl.ground_flat_to_reference(s, params)
    s.psi_hint = 0.4
    ref = fl.ground_flat_to_reference(s, params)
    assert "psi_held" in ref.flags and ref.heading == "held" and ref.psi == 0.4
    assert ref.u_r.T1 == pytest.approx(2.0, abs=1e-12)
    assert ref.u_r.delta1 == 0.0
    d = dyn.derivative(ref.x_r, ref.u_r, Mode.GROUND, params).as_array()
    np.testing.assert_allclose(d, np.zeros(13), atol=1e-12)


def test_small_angle_lateral_thrust_within_band(params):
    # full-solve lateral thrust vs the small-angle formula over the gentle
    # regime: |theta| < 0.2 rad, mu <= 0.02; always larger than m a_l
    for mu in [0.0, 0.01, 0.02]:
        p = VehicleParams(mu=mu)
        for radius, speed, T_Bz in [(2.0, 1.5, 5.0), (3.0, 2.0, 4.5), (1.5, 1.2, 6.0)]:
            for t in np.linspace(0.2, 4.0, 7):
                ref = fl.ground_flat_to_reference(
                    circle_sample(t, p, radius=radius, speed=speed, T_Bz=T_Bz), p
                )
                _, theta, _ = ref.x_r.q.to_euler()
                assert abs(theta) < 0.2
                w = dyn.actuator_wrench(ref.u_r, p)
                a_l = speed * (speed / radius)
                approx = fl.lateral_thrust_approx(a_l, p)
                full = w.T_B[1]
                assert abs(full - approx) / abs(full) < 0.15
                assert abs(full) > p.m * a_l


def test_psi_continuity_along_circle(params):
    # consecutive samples of a full lap never jump by more than pi
    psis = []
    hint = None
    for t in np.linspace(0.0, 9.0, 200):
        s = circle_sample(t, params)
        s.psi_hint = hint
        ref = fl.ground_flat_to_reference(s, params)
        _, _, psi = ref.x_r.q.to_euler()
        psi_cont = fl.travel_heading(s.v, s.a, s.j, hint)[0]
        hint = psi_cont
        psis.append(psi_cont)
    assert np.all(np.abs(np.diff(psis)) < math.pi)


# ---------------------------------------------------------------------------
# aerial transform
# ---------------------------------------------------------------------------


def hover_sample(psi=0.0):
    return fl.FlatSampleAerial(
        p=np.array([0.0, 0.0, 1.0]),
        v=np.zeros(3), a=np.zeros(3), j=np.zeros(3), s=np.zeros(3),
        psi=psi, psi_dot=0.0, psi_ddot=0.0,
    )


def test_aerial_hover(params):
    ref = fl.aerial_flat_to_reference(hover_sample(0.3), params)
    assert ref.u_r.T1 == pytest.approx(params.weight / 2, abs=1e-9)
    assert ref.u_r.T2 == pytest.approx(params.weight / 2, abs=1e-9)
    assert ref.u_r.delta1 == pytest.approx(0.0, abs=1e-12)
    phi, theta, psi = ref.x_r.q.to_euler()
    assert (phi, theta) == (0.0, 0.0)
    assert psi == pytest.approx(0.3)
    d = dyn.derivative(ref.x_r, ref.u_r, Mode.AERIAL, params).as_array()
    np.testing.assert_allclose(d, np.zeros(13), atol=1e-9)


def test_aerial_lateral_accel_uses_vectored_thrust(params):
    # steady 1 m/s^2 lateral acceleration at zero yaw: equal-sign servo
    # tilts supply the side force while pitch stays level
    s = fl.FlatSampleAerial(
        p=np.array([0.0, 0.0, 1.0]), v=np.array([0.0, 0.5, 0.0]),
        a=np.array([0.0, 1.0, 0.0]), j=np.zeros(3), s=np.zeros(3),
        psi=0.0, psi_dot=0.0, psi_ddot=0.0,
    )
    ref = fl.aerial_flat_to_reference(s, params)
    _, theta, _ = ref.x_r.q.to_euler()
    assert theta == pytest.approx(0.0, abs=1e-12)
    assert ref.u_r.delta1 == pytest.approx(ref.u_r.delta2, abs=1e-9)
    assert abs(ref.u_r.delta1) > 0.05
    # translational rows of the oracle hold exactly
    d = dyn.derivative(ref.x_r, ref.u_r, Mode.AERIAL, params)
    np.testing.assert_allclose(d.vdot, s.a, atol=1e-9)
    np.testing.assert_allclose(d.pdot, s.v, atol=1e-12)
    # the roll-axis residual is the structural coupling T_By*h1
    w = dyn.actuator_wrench(ref.u_r, params)
    assert ref.roll_residual == pytest.approx(-w.T_B[1] * params.h1, abs=1e-12)


def vertical_plane_sample(t, zeta, z0=1.5):
    d = 0.8 * math.sin(1.1 * t)
    d1 = 0.88 * math.cos(1.1 * t)
    d2 = -0.968 * math.sin(1.1 * t)
    d3 = -1.0648 * math.cos(1.1 * t)
    d4 = 1.17128 * math.sin(1.1 * t)
    h = z0 + 0.3 * math.sin(0.9 * t)
    h1 = 0.27 * math.cos(0.9 * t)
    h2 = -0.243 * math.sin(0.9 * t)
    h3 = -0.2187 * math.cos(0.9 * t)
    h4 = 0.19683 * math.sin(0.9 * t)
    u = np.array([math.cos(zeta), math.sin(zeta), 0.0])
    ez = np.array([0.0, 0.0, 1.0])
    return fl.FlatSampleAerial(
        p=u * d + ez * h, v=u * d1 + ez * h1, a=u * d2 + ez * h2,
        j=u * d3 + ez * h3, s=u * d4 + ez * h4,
        psi=zeta, psi_dot=0.0, psi_ddot=0.0, t=t,
    )


def test_aerial_vertical_plane_oracle_any_azimuth(params):
    for zeta in [-2.1, -0.4, 0.0, 0.77, 2.9]:
        make = lambda t: fl.aerial_flat_to_reference(vertical_plane_sample(t, zeta), params)
        for t in np.linspace(0.1, 5.0, 9):
            ref = make(t)
            d = dyn.derivative(ref.x_r, ref.u_r, Mode.AERIAL, params).as_array()
            assert np.max(np.abs(d - reference_xdot_fd(make, t))) < 1e-6
            assert abs(ref.roll_residual) < 1e-12


def test_aerial_free_fall_degeneracy(params):
    s = fl.FlatSampleAerial(
        p=np.array([0, 0, 5.0]), v=np.zeros(3),
        a=np.array([0.0, 0.0, -params.g]), j=np.zeros(3), s=np.zeros(3),
        psi=0.0, psi_dot=0.0, psi_ddot=0.0,
    )
    with pytest.raises(InfeasibleReferenceError):
        fl.aerial_flat_to_reference(s, params)


def test_aerial_bound_violation_clamp_flag(params):
    s = fl.FlatSampleAerial(
        p=np.array([0, 0, 1.0]), v=np.zeros(3),
        a=np.array([0.0, 0.0, 12.0]), j=np.zeros(3), s=np.zeros(3),
        psi=0.0, psi_dot=0.0, psi_ddot=0.0,
    )
    with pytest.raises(InfeasibleReferenceError):
        fl.aerial_flat_to_reference(s, params)
    ref = fl.aerial_flat_to_reference(s, params, clamp=True)
    assert "input_clamped" in ref.flags
    assert ref.u_r.T1 <= params.T_max


# any finite component, signed zeros and magnitudes whose products overflow
component = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from([0.0, -0.0, 1e300, -1e300]))
vector3 = st.tuples(component, component, component)


@example((0.0, -0.0, 0.0), (-0.0, 0.0, -0.0))
@example((1e300, -1e300, 2.0), (1e300, 3.0, -1e300))
@example((1.5, -2.25, 0.125), (-0.0, 4.0, 1e-310))
@example((1e300, 1e300, 1e300), (1e300, 1e300, 1e300))
@given(vector3, vector3)
def test_component_cross_has_the_bits_of_np_cross(a, b):
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.cross(np.array(a), np.array(b))
    assert np.array(fl._cross(a, b)).tobytes() == want.tobytes()
