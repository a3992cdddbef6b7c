"""The flatness transforms as numpy bodies: every 3-vector an array and
every intermediate a numpy scalar or array, the form the transforms had
before `flatness` moved them onto Python floats.  The tests require the
float transforms to return these bits and raise these exceptions."""

import math

import numpy as np

from wheeled_bicopter import flatness as fl
from wheeled_bicopter.core import (
    InfeasibleReferenceError,
    Mode,
    quat_from_euler,
    quat_normalize,
)
from wheeled_bicopter.dynamics import ground_contact, heading_inertia


def _heading_frame(psi):
    c, s = math.cos(psi), math.sin(psi)
    return np.array([c, s, 0.0]), np.array([-s, c, 0.0])


def _body_rates(theta, theta_dot, psi, psi_dot):
    return np.array([-theta_dot * math.sin(psi), theta_dot * math.cos(psi), psi_dot])


def _roll_free_state(sample, theta, theta_dot, psi, psi_dot):
    x = np.concatenate([
        np.asarray(sample.p, dtype=float), np.asarray(sample.v, dtype=float),
        quat_normalize(quat_from_euler(0.0, theta, psi)),
        _body_rates(theta, theta_dot, psi, psi_dot),
    ])
    if not (np.all(np.isfinite(x[0:6])) and np.all(np.isfinite(x[10:13]))):
        raise ValueError("non-finite state component")
    return x


def _heading_torque(J, sth, cth, theta_dot, psi_dot, theta_ddot, psi_ddot):
    J1, J2, J3 = J
    N11 = J1 * cth * cth + J3 * sth * sth
    N13, N33 = heading_inertia(sth, cth, J)
    Lx = N13 * psi_ddot + theta_dot * psi_dot * (N33 - J2 - N11)
    Ly = J2 * theta_ddot + N13 * psi_dot * psi_dot
    Lz = N33 * psi_ddot - 2.0 * N13 * theta_dot * psi_dot
    return np.array([Lx, Ly, Lz])


def ground_flat_to_reference(sample, params, clamp=False):
    m, g = params.m, params.g
    T = float(sample.T_Bz)
    dT, ddT = float(sample.dT_Bz), float(sample.ddT_Bz)
    if not 0.0 < T < m * g + fl.THRUST_EPS:
        raise InfeasibleReferenceError(
            f"ground vertical thrust must lie in (0, m g]: {T:.3f} N at t={sample.t:.3f}s"
        )
    if abs(float(sample.v[2])) > 1e-9 or abs(float(sample.a[2])) > 1e-9:
        raise InfeasibleReferenceError(
            f"ground sample must be planar (vz={sample.v[2]}, az={sample.a[2]})"
        )

    heading = fl.travel_heading(sample.v, sample.a, sample.j, sample.psi_hint)
    if heading is None:
        raise InfeasibleReferenceError("heading undefined at rest and no held value available")
    psi, psi_dot, psi_ddot, held = heading
    flags = ["psi_held"] if held else []
    mu_eff = 0.0 if held else params.mu

    xg, yg = _heading_frame(psi)
    a_l = math.hypot(float(sample.v[0]), float(sample.v[1])) * psi_dot

    c = math.sqrt(1.0 + mu_eff * mu_eff)
    ax = float(sample.a @ xg)
    ay = float(sample.a @ yg)
    jx = float(sample.j @ xg)
    jy = float(sample.j @ yg)
    sx = float(sample.s @ xg)
    Z = (m * ax + mu_eff * m * g) / (c * T)
    if abs(Z) > 1.0 - fl.ARCSIN_MARGIN:
        raise InfeasibleReferenceError(
            f"pitch arcsine domain violated at t={sample.t:.3f}s (argument {Z:.6f})"
        )
    theta = math.asin(Z) - math.atan(mu_eff)
    Zd = m * (jx + psi_dot * ay) / (c * T) - Z * dT / T
    Zdd = (
        m * (sx + 2.0 * psi_dot * jy + psi_ddot * ay - psi_dot * psi_dot * ax) / (c * T)
        - 2.0 * Zd * dT / T
        - Z * ddT / T
    )
    root = math.sqrt(1.0 - Z * Z)
    theta_dot = Zd / root
    theta_ddot = Zdd / root + Z * Zd * Zd / root**3

    sth, cth = math.sin(theta), math.cos(theta)
    L = _heading_torque(params.J, sth, cth, theta_dot, psi_dot, theta_ddot, psi_ddot)

    r, W, h1, l = params.r, params.W, params.h1, params.l
    A11 = 3.0 * h1 * cth - 3.0 * r
    A12 = sth * l
    A21 = -sth * h1 + 2.0 * mu_eff * (r - h1 * cth)
    A22 = cth * l
    rhs1 = L[0] - 3.0 * r * m * a_l
    rhs2 = L[2] + 2.0 * mu_eff * r * m * a_l
    det = A11 * A22 - A12 * A21
    y = (rhs1 * A22 - A12 * rhs2) / det
    d = (A11 * rhs2 - rhs1 * A21) / det

    F_n, _, _, _, F_nl, F_nr, _, G2, _ = ground_contact(y, T, a_l, y * h1, cth, sth, 0.0, params)
    if F_n < -1e-9:
        raise InfeasibleReferenceError(
            f"negative total normal force {F_n:.4f} N at t={sample.t:.3f}s"
        )
    if min(F_nl, F_nr) < -1e-9:
        raise InfeasibleReferenceError(
            f"wheel lift-off in reference at t={sample.t:.3f}s "
            f"(normals {F_nl:.3f}/{F_nr:.3f} N)"
        )

    tau_y_req = L[1] - G2
    a2 = 0.5 * (T + tau_y_req / l)
    a1 = T - a2
    b1 = 0.5 * (-y - d)
    b2 = 0.5 * (d - y)

    u, clamp_flags = fl._assemble_input(a1, a2, b1, b2, params, sample.t, clamp)
    flags.extend(clamp_flags)

    return fl.ReferencePoint(
        x=_roll_free_state(sample, theta, theta_dot, psi, psi_dot), u=u,
        mode=Mode.GROUND, t=sample.t, flags=tuple(flags), psi=psi,
        heading="held" if held else "tangent",
    )


def aerial_flat_to_reference(sample, params, clamp=False):
    m, g = params.m, params.g
    psi, psi_dot, psi_ddot = float(sample.psi), float(sample.psi_dot), float(sample.psi_ddot)
    xg, yg = _heading_frame(psi)

    F = m * (np.asarray(sample.a, dtype=float) + np.array([0.0, 0.0, g]))
    Fd = m * np.asarray(sample.j, dtype=float)
    Fdd = m * np.asarray(sample.s, dtype=float)

    F1, F2, F3 = float(F @ xg), float(F @ yg), float(F[2])
    den = F1 * F1 + F3 * F3
    if den < fl.THRUST_EPS**2 or F3 <= 0.0:
        raise InfeasibleReferenceError(
            f"degenerate thrust direction at t={sample.t:.3f}s "
            f"(in-plane force {math.sqrt(max(den, 0.0)):.4f} N, vertical {F3:.4f} N)"
        )
    theta = math.atan2(F1, F3)
    T_Bz = math.sqrt(den)
    T_By = F2

    Fd1 = float(Fd @ xg) + psi_dot * F2
    Fd2 = float(Fd @ yg) - psi_dot * F1
    Fd3 = float(Fd[2])
    Fdd1 = float(Fdd @ xg) + psi_dot * float(Fd @ yg) + psi_ddot * F2 + psi_dot * Fd2
    Fdd3 = float(Fdd[2])

    theta_dot, theta_ddot = fl._atan2_rates(F3, F1, Fd3, Fd1, Fdd3, Fdd1)

    sth, cth = math.sin(theta), math.cos(theta)
    wb = np.array([-psi_dot * sth, theta_dot, psi_dot * cth])
    wbdot = np.array(
        [
            -psi_ddot * sth - psi_dot * theta_dot * cth,
            theta_ddot,
            psi_ddot * cth - psi_dot * theta_dot * sth,
        ]
    )
    Jwb = params.J * wb
    tau_req = params.J * wbdot + fl._cross(wb.tolist(), Jwb.tolist())

    a2 = 0.5 * (T_Bz + tau_req[1] / params.l)
    a1 = T_Bz - a2
    bsum = -T_By
    bdiff = tau_req[2] / params.l
    b1 = 0.5 * (bsum - bdiff)
    b2 = 0.5 * (bsum + bdiff)
    roll_residual = float(tau_req[0] - T_By * params.h1)

    u, clamp_flags = fl._assemble_input(a1, a2, b1, b2, params, sample.t, clamp)

    return fl.ReferencePoint(
        x=_roll_free_state(sample, theta, theta_dot, psi, psi_dot), u=u, mode=Mode.AERIAL,
        t=sample.t, flags=clamp_flags, roll_residual=roll_residual, psi=psi,
        heading=sample.heading,
    )
