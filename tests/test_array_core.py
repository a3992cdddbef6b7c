"""Properties of the batched array core: a batch evaluates each row exactly
as a row-by-row call does, the aerial body evaluates a state of Python
floats exactly as a batch row, and ground RK4 steps keep the contact
constraints."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from wheeled_bicopter import dynamics as dyn
from wheeled_bicopter.core import (
    Mode,
    VehicleParams,
    quat_derivative,
    quat_from_euler,
    quat_multiply,
    quat_normalize,
    quat_to_euler,
)

from rotation import quat_to_matrix

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
    a, b = ab[..., :4], ab[..., 4:]
    out = quat_multiply(a, b)
    for i in rows(ab.shape):
        assert np.array_equal(out[i], quat_multiply(a[i], b[i]))


@given(batches(7))
def test_quat_derivative_batch_equals_rows(qw):
    q, w = qw[..., :4], qw[..., 4:]
    out = quat_derivative(q, w)
    for i in rows(qw.shape):
        assert np.array_equal(out[i], quat_derivative(q[i], w[i]))


@given(
    arrays(np.float64, st.tuples(st.integers(1, 6), st.just(7)), elements=finite),
    st.booleans(),
)
def test_ground_contact_batch_equals_rows(cols, sliding):
    F_n, f_l_req, tau_x, theta, u_long, w_lat = (cols[:, j] for j in range(6))
    F_n = 4.0 * F_n  # both signs, lift-off on either wheel
    u_long = np.where(cols[:, 6] > 0, u_long, 0.002 * u_long)  # also inside SPEED_EPS
    cth, sth = np.cos(theta), np.sin(theta)

    def contact(k):
        return dyn.ground_contact(
            F_n[k], f_l_req[k], tau_x[k], cth[k], sth[k], u_long[k], PARAMS,
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


@given(aerial_rows())
def test_aerial_body_on_arrays_equals_the_einsum_form(XU):
    X, U = XU
    assert dyn._f_aerial_batch(X, U, PARAMS).tobytes() == einsum_f_aerial(X, U).tobytes()
    assert dyn._f_aerial_batch(X[0], U[0], PARAMS).tobytes() == einsum_f_aerial(X[0], U[0]).tobytes()


@given(aerial_rows())
def test_aerial_body_on_floats_equals_the_batch_row(XU):
    X, U = XU
    batch = dyn._f_aerial_batch(X, U, PARAMS)
    for x, u, row in zip(X, U, batch):
        wrench = dyn._wrench_terms(u.tolist(), PARAMS, math)
        floats = dyn._aerial_rates(x.tolist(), wrench, PARAMS, J, J_INV)
        assert all(type(c) is float for c in floats)
        assert np.array(floats).tobytes() == row.tobytes()


@given(aerial_rows(), st.sampled_from([1e-3, 5e-3]))
def test_aerial_rk4_on_floats_equals_the_batch_row(XU, dt):
    X, U = XU
    batch = dyn.rk4_step(X, U, Mode.AERIAL, dt, PARAMS)
    for x, u, row in zip(X, U, batch):
        wrench = dyn._wrench_terms(u.tolist(), PARAMS, math)
        floats = dyn._rk4_aerial(x.tolist(), wrench, dt, PARAMS, J, J_INV)
        assert np.array(floats).tobytes() == row.tobytes()


def replay_step(sim, u):
    """One plant step of `sim` as `Simulator.apply` takes it, but an aerial
    state steps as a one-row batch of `rk4_step`; the touchdown step and
    ground steps go through `apply` itself."""
    x = sim.x.copy()
    if sim.mode is Mode.AERIAL:
        sim._try_touchdown(x, u)
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
