"""Properties of the batched array core: a batch evaluates each row exactly
as a row-by-row call does, the aerial body evaluates a state of Python
floats exactly as a batch row, the component-form ground body evaluates
a batch and a single row exactly as the stacked-slice form, the RK4 step
on component rows gives the bits of the packed step (the bodies evaluated
on packed states, the reference of every component-row caller), the
single-state RK4 step on Python floats gives the bits of the packed step
in both modes, sticking or sliding, the typed derivative gives the bits
of the packed bodies, and ground RK4 steps keep the contact
constraints."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from wheeled_bicopter import dynamics as dyn
from wheeled_bicopter.core import (
    SPEED_EPS,
    ContactLossError,
    ControlInput,
    Mode,
    RobotState,
    VehicleParams,
    quat_from_euler,
    quat_multiply,
    quat_normalize,
    quat_to_euler,
)

from rotation import pack, quat_derivative, quat_to_matrix

PARAMS = VehicleParams()

finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def batches(last: int):
    """Float arrays with one to three leading axes and a trailing axis of `last`."""
    return array_shapes(min_dims=1, max_dims=3, max_side=4).flatmap(
        lambda lead: arrays(np.float64, lead + (last,), elements=finite)
    )


def rows(shape):
    return np.ndindex(*shape[:-1])


@given(batches(4))
def test_quat_to_matrix_batch_equals_rows(q):
    R = quat_to_matrix(q)
    for i in rows(q.shape):
        assert np.array_equal(R[i], quat_to_matrix(q[i]))


@given(batches(8))
def test_quat_multiply_batch_equals_rows(ab):
    # the component body on arrays gives every row the bits of the same
    # body on that row's Python floats
    out = np.stack(quat_multiply(*np.moveaxis(ab, -1, 0)), axis=-1)
    for i in rows(ab.shape):
        assert out[i].tobytes() == np.array(quat_multiply(*ab[i].tolist())).tobytes()


@given(batches(7))
def test_quat_derivative_batch_equals_rows(qw):
    q, w = qw[..., :4], qw[..., 4:]
    out = quat_derivative(q, w)
    for i in rows(qw.shape):
        assert np.array_equal(out[i], quat_derivative(q[i], w[i]))


@given(
    arrays(np.float64, st.tuples(st.integers(1, 6), st.just(8)), elements=finite),
    st.booleans(),
)
def test_ground_contact_batch_equals_rows(cols, sliding):
    TBy, TBz, a_l, tau_x, theta, u_long, w_lat = (cols[:, j] for j in range(7))
    TBz = 4.0 * TBz  # F_n of both signs, lift-off on either wheel
    u_long = np.where(cols[:, 7] > 0, u_long, 0.002 * u_long)  # also inside SPEED_EPS
    cth, sth = np.cos(theta), np.sin(theta)

    def contact(k):
        return dyn.ground_contact(
            TBy[k], TBz[k], a_l[k], tau_x[k], cth[k], sth[k], u_long[k], PARAMS,
            w_lat=w_lat[k] if sliding else None,
        )

    batch = contact(slice(None))
    for k in range(len(cols)):
        for whole, row in zip(batch, contact(k)):
            assert whole[k] == row


@settings(max_examples=40, deadline=None)
@given(
    speed=st.floats(-2.5, 2.5),
    theta=st.floats(-0.3, 0.3),
    psi=st.floats(-math.pi, math.pi),
    theta_dot=st.floats(-0.6, 0.6),
    psi_dot=st.floats(-1.2, 1.2),
    T=st.tuples(st.floats(0.5, 3.5), st.floats(0.5, 3.5)),
    delta=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
)
def test_ground_rk4_keeps_contact_constraints(speed, theta, psi, theta_dot, psi_dot, T, delta):
    x = np.zeros(13)
    x[2] = PARAMS.r
    x[3:5] = speed * math.cos(psi), speed * math.sin(psi)
    x[6:10] = quat_from_euler(0.0, theta, psi)
    x[10:13] = -theta_dot * math.sin(psi), theta_dot * math.cos(psi), psi_dot
    u = np.array([T[0], T[1], delta[0], delta[1]])
    for _ in range(5):
        x = dyn.rk4_step(x, u, Mode.GROUND, 1e-3, PARAMS)
        phi, _, yaw = quat_to_euler(x[6:10])
        assert x[2] == PARAMS.r
        assert abs(phi) < 1e-12
        assert abs(-x[3] * math.sin(yaw) + x[4] * math.cos(yaw)) < 1e-12


# ---------------------------------------------------------------------------
# one aerial body for Python floats and arrays
# ---------------------------------------------------------------------------

J, J_INV = PARAMS.J.tolist(), PARAMS.J_inv.tolist()


def packed_f_aerial(x, u, P=PARAMS):
    """The aerial body on packed states x (..., 13) and inputs u with the
    same leading axes or one input (4,), each component a contiguous
    array: the packed reference of the component-row callers."""
    wrench = dyn._wrench_terms(np.ascontiguousarray(u.T), P, np)
    rates = dyn._aerial_rates(np.ascontiguousarray(x.T), wrench, P, P.J, P.J_inv)
    return pack(rates, x.shape[:-1])


def packed_f_ground(x, u, P=PARAMS, slipping=False):
    """(xdot, diag) of the ground body for packed x and u as in
    `packed_f_aerial`, each diag entry shaped as the leading axes."""
    wrench = dyn._wrench_terms(np.ascontiguousarray(u.T), P, np)
    rates, diag = dyn._ground_rates(np.ascontiguousarray(x.T), wrench, P, slipping)
    return pack(rates, x.shape[:-1]), {k: v.T for k, v in diag.items()}


def wide(bound):
    return st.floats(-bound, bound, allow_nan=False, allow_infinity=False)


def aerial_rows(max_rows: int = 4):
    """Packed aerial states and inputs, (n, 13) and (n, 4): any attitude,
    fast translation and rotation, thrusts past T_max and any tilt."""
    quat = st.tuples(*[wide(1.0)] * 4).filter(lambda q: sum(c * c for c in q) > 0.01)
    state = st.tuples(st.tuples(*[wide(50.0)] * 3), st.tuples(*[wide(20.0)] * 3), quat,
                      st.tuples(*[wide(40.0)] * 3))
    thrust = st.floats(0.0, 2 * PARAMS.T_max)
    tilt = wide(math.pi)
    row = st.tuples(state, st.tuples(thrust, thrust, tilt, tilt))

    def pack(drawn):
        X = np.array([[*p, *v, *(np.array(q) / np.linalg.norm(q)), *w] for (p, v, q, w), _ in drawn])
        return X, np.array([u for _, u in drawn])

    return st.lists(row, min_size=1, max_size=max_rows).map(pack)


def einsum_f_aerial(x, u):
    """The aerial f(x, u) in matrix form, the reference of the component
    body: thrust and the Euler equation in the body frame, both rotated by
    R with numpy's einsum."""
    TBy, TBz, tau_x, tau_y, tau_z = dyn._wrench_terms(np.moveaxis(u, -1, 0), PARAMS, np)
    R = quat_to_matrix(x[..., 6:10])
    w = x[..., 10:13]
    xdot = np.empty_like(x)
    xdot[..., 0:3] = x[..., 3:6]
    xdot[..., 3:6] = (R[..., :, 1] * TBy[..., None] + R[..., :, 2] * TBz[..., None]) / PARAMS.m
    xdot[..., 5] -= PARAMS.g
    wb = np.einsum("...ji,...j->...i", R, w)
    Jw = wb * PARAMS.J
    gyro = np.stack([wb[..., 1] * Jw[..., 2] - wb[..., 2] * Jw[..., 1],
                     wb[..., 2] * Jw[..., 0] - wb[..., 0] * Jw[..., 2],
                     wb[..., 0] * Jw[..., 1] - wb[..., 1] * Jw[..., 0]], axis=-1)
    wbdot = (np.stack([tau_x, tau_y, tau_z], axis=-1) - gyro) * PARAMS.J_inv
    xdot[..., 10:13] = np.einsum("...ij,...j->...i", R, wbdot)
    xdot[..., 6:10] = quat_derivative(x[..., 6:10], w)
    return xdot


def assert_einsum_bits(body, ref):
    """The bits of the einsum form, but where it gives +0.0: einsum sums
    from +0.0, so three -0.0 products give +0.0 there and -0.0 in the body.
    Those elements must be zeros of either sign."""
    plus_zero = (ref == 0.0) & ~np.signbit(ref)
    assert np.array_equal(body[plus_zero], ref[plus_zero])
    assert body[~plus_zero].tobytes() == ref[~plus_zero].tobytes()


@given(aerial_rows())
@example((np.array([[0.0, 0, 0, 0, 0, 0, 0, 0, -0.0, 1, 0, 0, 0]]), np.zeros((1, 4))))
def test_aerial_body_on_arrays_equals_the_einsum_form(XU):
    X, U = XU
    assert_einsum_bits(packed_f_aerial(X, U), einsum_f_aerial(X, U))
    assert_einsum_bits(packed_f_aerial(X[0], U[0]), einsum_f_aerial(X[0], U[0]))


@given(aerial_rows())
def test_aerial_body_on_floats_equals_the_batch_row(XU):
    X, U = XU
    batch = packed_f_aerial(X, U)
    for x, u, row in zip(X, U, batch):
        wrench = dyn._wrench_terms(u.tolist(), PARAMS, math)
        floats = dyn._aerial_rates(x.tolist(), wrench, PARAMS, J, J_INV)
        assert all(type(c) is float for c in floats)
        assert np.array(floats).tobytes() == row.tobytes()


def replay_step(sim, u):
    """One plant step of `sim` as `Simulator.apply` takes it, but an aerial
    state steps as a one-row batch of `rk4_step`; the touchdown step and
    ground steps go through `apply` itself."""
    x = sim.x.copy()
    if sim.mode is Mode.AERIAL:
        sim._try_touchdown(x, dyn._wrench_terms(u.tolist(), PARAMS, math))
    if sim.mode is Mode.GROUND:
        sim.x = x
        sim.apply(u, sim.dt)
        return
    xn = dyn.rk4_step(x[None], u[None], Mode.AERIAL, sim.dt, PARAMS)[0]
    assert np.all(np.abs(xn) <= dyn.DIVERGENCE_LIMIT)
    xn[6:10] = quat_normalize(xn[6:10])
    sim.x, sim.t = xn, sim.t + sim.dt


@settings(max_examples=25, deadline=None)
@given(
    tilt=st.tuples(wide(0.6), wide(0.6), wide(math.pi)),
    rates=st.tuples(*[wide(3.0)] * 3),
    thrust=st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 0.3)),
    delta=st.tuples(wide(0.7), wide(0.7)),
)
def test_simulator_steps_an_aerial_state_as_the_batch_does_through_touchdown(
        tilt, rates, thrust, delta):
    # a tumbling descent from 4 cm above touchdown height at 0.8 m/s, with
    # under a third of the weight in thrust: wheels down within 50 ms
    x0 = np.zeros(13)
    x0[2], x0[5] = PARAMS.r + 0.04, -0.8
    x0[6:10] = quat_from_euler(*tilt)
    x0[10:13] = rates
    u = np.array([thrust[0] * PARAMS.weight, thrust[1] * PARAMS.weight, *delta])
    fast, ref = (dyn.Simulator(params=PARAMS, x=x0, dt=1e-3, mode=Mode.AERIAL) for _ in range(2))
    modes = []
    for _ in range(20):
        fast.apply(u, 5e-3)
        for _ in range(5):
            replay_step(ref, u)
        assert fast.x.tobytes() == ref.x.tobytes()
        assert (fast.t, fast.mode) == (ref.t, ref.mode)
        modes.append(fast.mode)
    assert modes[0] is Mode.AERIAL and modes[-1] is Mode.GROUND


# ---------------------------------------------------------------------------
# one ground body for a batch and a single row
# ---------------------------------------------------------------------------


def stacked_ground_geometry(x):
    """theta, psi, thetadot, psidot and heading trig from a packed state,
    by slices of the stacked array."""
    q = x[..., 6:10]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    sin_th = np.clip(2.0 * (qw * qy - qz * qx), -1.0, 1.0)
    theta = np.arcsin(sin_th)
    psi = np.arctan2(2.0 * (qw * qz + qx * qy), 1.0 - 2.0 * (qy * qy + qz * qz))
    w = x[..., 10:13]
    cpsi, spsi = np.cos(psi), np.sin(psi)
    theta_dot = -w[..., 0] * spsi + w[..., 1] * cpsi
    psi_dot = w[..., 2]
    return theta, psi, theta_dot, psi_dot, cpsi, spsi


def stacked_f_ground(x, u, slipping):
    """The ground f(x, u) and contact diag in stacked-slice form, the
    reference of the component body: strided slices in, slices of one
    output array written."""
    v = x[..., 3:6]
    theta, psi, theta_dot, psi_dot, cpsi, spsi = stacked_ground_geometry(x)
    cth, sth = np.cos(theta), np.sin(theta)
    TBy, TBz, tau_x, tau_y, tau_z = dyn._wrench_terms(u.T, PARAMS, np)
    vx, vy = v[..., 0], v[..., 1]
    u_long = vx * cpsi + vy * spsi
    w_lat = -vx * spsi + vy * cpsi
    a_l = np.hypot(vx, vy) * psi_dot
    F_n, f_l_req, f_r, f_l, F_nl, F_nr, lift, G2, G3 = dyn.ground_contact(
        TBy, TBz, a_l, tau_x, cth, sth, u_long, PARAMS, w_lat=w_lat if slipping else None)
    N13, N33 = dyn.heading_inertia(sth, cth, PARAMS.J)
    theta_dd = (tau_y + G2 - N13 * psi_dot * psi_dot) / PARAMS.J[1]
    psi_dd = (-sth * tau_x + cth * tau_z + G3 + 2.0 * N13 * theta_dot * psi_dot) / N33
    acc_long = (TBz * sth + f_r) / PARAMS.m
    acc_lat = (TBy + f_l) / PARAMS.m
    xdot = np.empty_like(x)
    xdot[..., 0:3] = v
    xdot[..., 3] = acc_long * cpsi - acc_lat * spsi
    xdot[..., 4] = acc_long * spsi + acc_lat * cpsi
    xdot[..., 5] = 0.0
    tp = theta_dot * psi_dot
    xdot[..., 10] = -theta_dd * spsi - tp * cpsi
    xdot[..., 11] = theta_dd * cpsi - tp * spsi
    xdot[..., 12] = psi_dd
    xdot[..., 6:10] = quat_derivative(x[..., 6:10], x[..., 10:13])
    diag = {"F_n": F_n, "F_nl": F_nl, "F_nr": F_nr, "f_l": f_l, "f_l_req": f_l_req,
            "w_lat": w_lat, "lift_off": lift}
    return xdot, diag


def stacked_project_ground(x, keep_lateral):
    """`dyn._project_ground` in stacked-slice form (in place)."""
    theta, psi, _, _, cpsi, spsi = stacked_ground_geometry(x)
    half_t, half_p = 0.5 * theta, 0.5 * psi
    ct, st_ = np.cos(half_t), np.sin(half_t)
    cp, sp = np.cos(half_p), np.sin(half_p)
    qn = np.stack([cp * ct, -sp * st_, cp * st_, sp * ct], axis=-1)
    dot = np.sum(qn * x[..., 6:10], axis=-1)
    qn = np.where(dot[..., None] < 0.0, -qn, qn)
    x[..., 6:10] = qn
    proj = x[..., 10] * cpsi + x[..., 11] * spsi
    x[..., 10] -= proj * cpsi
    x[..., 11] -= proj * spsi
    x[..., 5] = 0.0
    if not keep_lateral:
        u_long = x[..., 3] * cpsi + x[..., 4] * spsi
        x[..., 3] = u_long * cpsi
        x[..., 4] = u_long * spsi
    return x


def stacked_rk4_ground(x, u, dt, slipping):
    """`dyn.rk4_step` in ground mode on the stacked-slice body."""
    def f(y):
        return stacked_f_ground(y, u, slipping)[0]
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    xn = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    q = xn[..., 6:10]
    xn[..., 6:10] = q / np.linalg.norm(q, axis=-1, keepdims=True)
    return stacked_project_ground(xn, keep_lateral=slipping)


def pack_ground(rows):
    """Packed ground-contact states and inputs, (n, 13) and (n, 4), of rows
    (v, (roll, pitch, yaw, quaternion sign), omega, u) at p_z = r."""
    X = np.array([[0.0, 0.0, PARAMS.r, *v, *(sign * quat_from_euler(*angles)), *w]
                  for v, (*angles, sign), w, _ in rows])
    return X, np.array([u for *_, u in rows])


def ground_rows(max_rows: int = 4):
    """`pack_ground` rows with pitch, any heading, a little roll, either
    quaternion sign, speeds also inside SPEED_EPS, and inputs whose thrust
    can exceed the weight or tip the load onto one wheel."""
    speed = st.one_of(wide(3.0), wide(0.02))
    attitude = st.tuples(wide(0.05), wide(0.6), wide(math.pi), st.sampled_from([1.0, -1.0]))
    u = st.tuples(st.floats(0.0, PARAMS.T_max), st.floats(0.0, PARAMS.T_max),
                  wide(PARAMS.delta_max), wide(PARAMS.delta_max))
    row = st.tuples(st.tuples(speed, speed, wide(0.1)), attitude, st.tuples(*[wide(2.0)] * 3), u)
    return st.lists(row, min_size=1, max_size=max_rows).map(pack_ground)


# one ground row of each case the properties must cover: a tipped-over load
# (negative left wheel normal), thrust above the weight (negative F_n), a
# speed inside SPEED_EPS, and a quaternion on the other cover sheet at psi
# near pi (the projection's hemisphere flip)
EDGE = pack_ground([
    ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.5), (3.0, 3.0, 0.6, 0.6)),
    ((0.5, 0.2, 0.0), (0.0, 0.1, 0.3, 1.0), (0.1, 0.0, 0.0), (6.0, 6.0, 0.0, 0.0)),
    ((0.004, -0.003, 0.0), (0.01, 0.2, -1.0, 1.0), (0.0, 0.3, 0.0), (2.0, 2.5, 0.1, -0.1)),
    ((-1.0, 0.4, 0.02), (0.03, -0.2, 3.1, -1.0), (0.2, -0.1, 0.4), (2.0, 2.0, -0.3, 0.2)),
])


def test_edge_rows_cover_lift_off_contact_loss_dead_band_and_flip():
    X, U = EDGE
    _, diag = packed_f_ground(X, U)
    assert diag["lift_off"][0] and diag["F_nl"][0] < 0.0
    assert diag["F_n"][1] < 0.0
    assert np.hypot(X[2, 3], X[2, 4]) < SPEED_EPS
    flipped = dyn._project_ground(X.T.copy(), keep_lateral=True).T
    theta, psi = dyn._ground_angles(*X[3, 6:10])
    assert np.cos(0.5 * psi) * np.cos(0.5 * theta) > 0.0 > flipped[3, 6]


def assert_same_bits(a, b):
    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def assert_same_derivative(got, ref):
    (xdot, diag), (ref_xdot, ref_diag) = got, ref
    assert_same_bits(xdot, ref_xdot)
    assert diag.keys() == ref_diag.keys()
    for key in ref_diag:
        assert np.shape(diag[key]) == np.shape(ref_diag[key])
        assert_same_bits(diag[key], ref_diag[key])


# pitch sines 2 (qw qy - qz qx) at the clamp: just past +-1, +-0.0, NaN and
# +-inf, each made exactly by the quaternion (1, 0, s/2, 0)
CLAMP_SINES = np.array([1.0 + 2**-52, -(1.0 + 2**-52), 0.0, -0.0, np.nan, np.inf, -np.inf])


def test_pitch_clamp_gives_the_bits_of_np_clip():
    qw, qx, qz = np.ones_like(CLAMP_SINES), np.zeros_like(CLAMP_SINES), np.zeros_like(CLAMP_SINES)
    qy = 0.5 * CLAMP_SINES
    sines = 2.0 * (qw * qy - qz * qx)
    assert_same_bits(sines, CLAMP_SINES)
    want = np.arcsin(np.clip(sines, -1.0, 1.0))
    with np.errstate(invalid="ignore"):  # the heading of an infinite qy is NaN
        assert_same_bits(dyn._ground_angles(qw, qx, qy, qz)[0], want)
        for k, ref in enumerate(want):
            theta, _ = dyn._ground_angles(qw[k], qx[k], qy[k], qz[k])
            assert type(theta) is np.float64
            assert_same_bits(theta, ref)


def clamp_rows():
    """Ground rows whose unit quaternion puts the pitch sine past +-1 by
    rounding (pitch +-90 degrees), at +0.0 and at -0.0."""
    X, U = pack_ground([((0.5, 0.1, 0.0), (0.0, 0.0, 0.0, 1.0), (0.1, -0.2, 0.3),
                         (2.0, 2.2, 0.2, -0.1))] * 4)
    h = math.sqrt(0.5)
    X[:, 6:10] = [(h, 0.0, h, 0.0), (h, 0.0, -h, 0.0), (1.0, 0.0, 0.0, 0.0), (1.0, 0.0, -0.0, 0.0)]
    qw, qx, qy, qz = X[:, 6:10].T
    assert_same_bits(2.0 * (qw * qy - qz * qx), CLAMP_SINES[:4])
    return X, U


CLAMP = clamp_rows()


@example(EDGE, False)
@example(EDGE, True)
@example(CLAMP, False)
@given(ground_rows(), st.booleans())
def test_ground_body_equals_the_stacked_form(XU, slipping):
    X, U = XU
    batch = packed_f_ground(X, U, PARAMS, slipping)
    assert_same_derivative(batch, stacked_f_ground(X, U, slipping))
    xdot, diag = packed_f_ground(X[None], U[None], PARAMS, slipping)
    assert_same_derivative((xdot[0], {k: v[0] for k, v in diag.items()}), batch)
    for x, u in zip(X, U):
        assert_same_derivative(packed_f_ground(x, u, PARAMS, slipping),
                               stacked_f_ground(x, u, slipping))


@example(EDGE, False, 1e-3)
@example(EDGE, True, 5e-3)
@example(CLAMP, True, 5e-3)
@given(ground_rows(), st.booleans(), st.sampled_from([1e-3, 5e-3]))
def test_ground_rk4_equals_the_stacked_form(XU, slipping, dt):
    """The sticking batch and one-row `rk4_step`, and the single-state step
    sticking or sliding, give the bits of the stacked-slice step."""
    X, U = XU
    want = stacked_rk4_ground(X, U, dt, slipping)
    if not slipping:
        assert_same_bits(dyn.rk4_step(X, U, Mode.GROUND, dt, PARAMS), want)
    for x, u, row in zip(X, U, want):
        assert_same_bits(stacked_rk4_ground(x, u, dt, slipping), row)
        assert_same_bits(row_step(x, u, Mode.GROUND, dt, slipping), row)
        if not slipping:
            assert_same_bits(dyn.rk4_step(x, u, Mode.GROUND, dt, PARAMS), row)


@example(EDGE, False)
@example(EDGE, True)
@given(ground_rows(), st.booleans())
def test_ground_projection_equals_the_stacked_form(XU, keep_lateral):
    X, _ = XU
    want = stacked_project_ground(X.copy(), keep_lateral)
    # contiguous component rows, as `rk4_step` projects, and the strided
    # component rows of a packed array
    for rows in (X.T.copy(), X.copy().T):
        assert_same_bits(dyn._project_ground(rows, keep_lateral).T, want)
    for x, row in zip(X, want):
        assert_same_bits(dyn._project_ground(x.copy(), keep_lateral), row)
        assert_same_bits(stacked_project_ground(x.copy(), keep_lateral), row)


# ---------------------------------------------------------------------------
# one RK4 step on component rows, against the packed step
# ---------------------------------------------------------------------------


def packed_rk4_step(x, u, mode, dt, P, slipping=False, k1=None):
    """`dyn.rk4_step` on packed states, sticking or sliding: the reference
    of the component-row step and of the single-state step.  Each stage
    evaluates the bodies on packed states (`packed_f_aerial`,
    `packed_f_ground`, the input's wrench each time) and np.linalg.norm
    renormalizes the quaternion."""
    def f(y):
        if mode is Mode.AERIAL:
            return packed_f_aerial(y, u, P)
        return packed_f_ground(y, u, P, slipping)[0]

    if k1 is None:
        k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    xn = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    q = xn[..., 6:10]
    xn[..., 6:10] = q / np.linalg.norm(q, axis=-1, keepdims=True)
    if mode is Mode.GROUND:
        dyn._project_ground(xn.T, keep_lateral=slipping)
    return xn


def component_rates(x, u, mode):
    """The 13 rates at packed (x, u) on the contiguous component rows of x,
    the k1 that `nmpc._linearize_horizon` passes to `rk4_step`."""
    wrench = dyn._wrench_terms(np.ascontiguousarray(u.T), PARAMS, np)
    xt = np.ascontiguousarray(x.T)
    if mode is Mode.AERIAL:
        return dyn._aerial_rates(xt, wrench, PARAMS, PARAMS.J, PARAMS.J_inv)
    return dyn._ground_rates(xt, wrench, PARAMS, False)[0]


def modes_and_rows():
    """(mode, (X, U)): `aerial_rows` stepped in the air or `ground_rows` on
    the ground."""
    return st.one_of(aerial_rows().map(lambda XU: (Mode.AERIAL, XU)),
                     ground_rows().map(lambda XU: (Mode.GROUND, XU)))


@example((Mode.GROUND, EDGE), 1e-3, True)
@example((Mode.GROUND, EDGE), 5e-3, False)
@example((Mode.GROUND, CLAMP), 5e-3, True)
@example((Mode.GROUND, CLAMP), 1e-3, False)
@example((Mode.AERIAL, CLAMP), 5e-3, False)
@given(modes_and_rows(), st.sampled_from([1e-3, 5e-3]), st.booleans())
def test_rk4_step_on_component_rows_equals_the_packed_step(mode_rows, dt, given_k1):
    mode, (X, U) = mode_rows

    def step(x, u, rk4):
        k1 = None
        if given_k1:
            k1 = component_rates(x, u, mode)
            if rk4 is packed_rk4_step:
                k1 = pack(k1, x.shape[:-1])
        before = x.tobytes()
        xn = rk4(x, u, mode, dt, PARAMS, k1=k1)
        assert x.tobytes() == before and xn.shape == x.shape
        if given_k1:  # the caller's rates as k1 give the bits of the step's own
            assert_same_bits(xn, rk4(x, u, mode, dt, PARAMS))
        if rk4 is dyn.rk4_step:  # and so does the caller's wrench
            wrench = dyn._wrench_terms(np.ascontiguousarray(u.T), PARAMS, np)
            assert_same_bits(rk4(x, u, mode, dt, PARAMS, k1=k1, wrench=wrench), xn)
        return xn

    batch = step(X, U, dyn.rk4_step)
    assert_same_bits(batch, step(X, U, packed_rk4_step))
    assert_same_bits(step(X[None], U[None], dyn.rk4_step), batch)
    for x, u in zip(X, U):
        assert_same_bits(step(x, u, dyn.rk4_step), step(x, u, packed_rk4_step))


# ---------------------------------------------------------------------------
# the typed derivative on one state
# ---------------------------------------------------------------------------


@example((Mode.GROUND, EDGE))
@example((Mode.GROUND, CLAMP))
@given(modes_and_rows())
def test_typed_derivative_equals_the_packed_body(mode_rows):
    """`derivative` gives the bytes of the packed body in both modes, and
    raises ContactLossError wherever the total normal force is not
    positive."""
    mode, (X, U) = mode_rows
    for x, u in zip(X, U):
        state = RobotState(x[0:3], x[3:6], x[6:10], x[10:13])
        ui = ControlInput(*u.tolist())
        xa, ua = state.as_array(), ui.as_array()
        if mode is Mode.AERIAL:
            want = packed_f_aerial(xa, ua)
        else:
            want, diag = packed_f_ground(xa, ua)
            if diag["F_n"] <= 0.0:
                with pytest.raises(ContactLossError, match="total normal force"):
                    dyn.derivative(state, ui, mode, PARAMS)
                continue
        assert_same_bits(dyn.derivative(state, ui, mode, PARAMS).as_array(), want)


# ---------------------------------------------------------------------------
# one single-state integrator for both plant modes
# ---------------------------------------------------------------------------


def row_step(x, u, mode, dt, slipping, given_k1=False):
    """One step of the packed state x as the simulator takes it: `_rk4_row`
    on Python floats with the `math` wrench, sticking or sliding, with k1
    from the caller or from the step, and the ground projection after a
    ground step."""
    wrench = dyn._wrench_terms(u.tolist(), PARAMS, math)

    def rates(y):
        if mode is Mode.AERIAL:
            return dyn._aerial_rates(y, wrench, PARAMS, J, J_INV)
        return dyn._ground_rates(y, wrench, PARAMS, slipping)[0]

    k1 = rates(x.tolist()) if given_k1 else None
    xn = np.array(dyn._rk4_row(rates, x.tolist(), dt, k1))
    if mode is Mode.GROUND:
        dyn._project_ground(xn, keep_lateral=slipping)
    return xn


@example((Mode.GROUND, EDGE), False, 1e-3, True)
@example((Mode.GROUND, EDGE), True, 5e-3, False)
@example((Mode.GROUND, CLAMP), False, 5e-3, True)
@example((Mode.GROUND, CLAMP), True, 1e-3, True)
@example((Mode.GROUND, CLAMP), True, 5e-3, False)
@example((Mode.AERIAL, CLAMP), False, 5e-3, True)
@given(modes_and_rows(), st.booleans(), st.sampled_from([1e-3, 5e-3]), st.booleans())
def test_rk4_row_on_floats_equals_the_batch_row(mode_rows, slipping, dt, given_k1):
    """`_rk4_row` on a state of Python floats with the `math` wrench, as the
    simulator steps it (with the ground projection after a ground step),
    gives the bytes of a row of the packed step, sticking or sliding, and
    those of the one-row `rk4_step` where it sticks, whether k1 comes from
    the caller or from the step."""
    mode, (X, U) = mode_rows
    batch = packed_rk4_step(X, U, mode, dt, PARAMS, slipping)
    for x, u, row in zip(X, U, batch):
        floats = row_step(x, u, mode, dt, slipping, given_k1)
        assert_same_bits(floats, row)
        if mode is Mode.AERIAL or not slipping:
            assert_same_bits(floats, dyn.rk4_step(x, u, mode, dt, PARAMS))
