"""Properties of the batched array core: a batch evaluates each row exactly
as a row-by-row call does, and ground RK4 steps keep the contact
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
    quat_to_euler,
    quat_to_matrix,
)

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
