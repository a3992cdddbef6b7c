"""Differential-flatness reference transforms for both locomotion modes.

Ground mode flat output: position plus a prescribed collective vertical body
thrust T_Bz (held below the vehicle weight so the wheels stay loaded).  From
the flat output and its derivatives the transform recovers

    yaw      psi   = alpha * atan2(ydot, xdot)
    pitch    theta = asin((m a.x_G + mu m g) / (sqrt(1+mu^2) T_Bz)) - atan(mu)
    rates    omega = (-thetadot sin psi, thetadot cos psi, psidot)
    inputs   from the force/torque balance, linear in the per-rotor
             components a_i = T_i cos(delta_i), b_i = T_i sin(delta_i)

including the ground-reaction forces (normal split between the wheels,
rolling and lateral friction).  Aerial mode uses position plus yaw; the
attitude is built roll-free (yaw and pitch only), with lateral acceleration
supplied by vectored lateral thrust, which mirrors how the vehicle turns on
the ground.  The aerial torque balance then leaves a roll-axis residual of
T_By * h1 whenever lateral thrust and roll acceleration demands conflict;
it vanishes on heading-aligned vertical-plane maneuvers and pure yaw motions
and is reported in the reference diagnostics.

All derivatives are consumed analytically; generators must provide position
derivatives up to 4th order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .core import (
    SPEED_EPS,
    ControlInput,
    InfeasibleReferenceError,
    Mode,
    Orientation,
    RobotState,
    Vec3,
    VehicleParams,
)

# Feasibility guards
ARCSIN_MARGIN = 1e-9
THRUST_EPS = 1e-6


@dataclass
class FlatSampleGround:
    """Ground-mode flat sample: planar position derivatives and the
    prescribed vertical body thrust (with its time derivatives when the
    thrust is ramped, e.g. around mode transitions)."""

    p: Vec3
    v: Vec3
    a: Vec3
    j: Vec3
    s: Vec3
    T_Bz: float
    dT_Bz: float = 0.0
    ddT_Bz: float = 0.0
    alpha: int = 1
    t: float = 0.0
    psi_hint: Optional[float] = None


@dataclass
class FlatSampleAerial:
    """Aerial flat sample: position derivatives to 4th order plus yaw."""

    p: Vec3
    v: Vec3
    a: Vec3
    j: Vec3
    s: Vec3
    psi: float
    psi_dot: float
    psi_ddot: float
    t: float = 0.0
    heading: str = "explicit"  # how psi was found, see ReferencePoint.heading


@dataclass
class ReferencePoint:
    """Reference state/input pair recovered from a flat sample.

    `heading` says what a heading hint does to the sample: "explicit" (a
    prescribed yaw; the hint is ignored), "tangent" (the travel direction;
    the hint only unwraps it by whole turns) or "held" (the hint is the
    heading).
    """

    x_r: RobotState
    u_r: ControlInput
    mode: Mode
    t: float
    flags: Tuple[str, ...] = ()
    roll_residual: float = 0.0  # aerial roll-row torque residual [N m]
    psi: float = 0.0  # unwrapped heading used by the transform
    heading: str = "explicit"

    def x_array(self) -> np.ndarray:
        return self.x_r.as_array()

    def u_array(self) -> np.ndarray:
        return self.u_r.as_array()

    def turned(self, n: int) -> "ReferencePoint":
        """The same point with its heading n whole turns on: psi + 2 pi n,
        and the quaternion negated exactly for odd n (q(psi + 2 pi) = -q(psi))."""
        if n == 0:
            return self
        x_r = self.x_r
        if n % 2:
            q = Orientation.__new__(Orientation)  # no re-normalization
            q.q = -x_r.q.q
            x_r = replace(x_r, q=q)
        return replace(self, x_r=x_r, psi=self.psi + 2 * math.pi * n)


def heading_turns(psi: float, psi_hint: float) -> int:
    """Whole turns that bring psi to within pi of the hint."""
    return round((psi_hint - psi) / (2 * math.pi))


def ground_yaw(
    v: Vec3, alpha: int, psi_hint: Optional[float] = None
) -> Tuple[float, bool]:
    """Heading from the planar velocity: psi = alpha * atan2(vy, vx).

    Below the speed dead-band the previous heading (psi_hint) is held and the
    hold is flagged.  The returned angle is unwrapped to within pi of the
    hint when one is given.
    """
    speed = math.hypot(float(v[0]), float(v[1]))
    if speed < SPEED_EPS:
        if psi_hint is None:
            raise InfeasibleReferenceError(
                "heading undefined at rest and no held value available"
            )
        return float(psi_hint), True
    psi = alpha * math.atan2(float(v[1]), float(v[0]))
    if psi_hint is not None:
        psi += 2 * math.pi * heading_turns(psi, psi_hint)
    return psi, False


def ground_pitch(
    a: Vec3, psi: float, T_Bz: float, params: VehicleParams, direction: int = 1
) -> float:
    """Pitch angle that realizes the commanded longitudinal acceleration
    against gravity load and rolling friction (signed by travel direction)."""
    if T_Bz <= THRUST_EPS:
        raise InfeasibleReferenceError(f"vertical body thrust {T_Bz} too small")
    mu = direction * params.mu
    ax = float(a[0]) * math.cos(psi) + float(a[1]) * math.sin(psi)
    c = math.sqrt(1.0 + mu * mu)
    z = (params.m * ax + mu * params.m * params.g) / (c * T_Bz)
    if abs(z) > 1.0 - ARCSIN_MARGIN:
        raise InfeasibleReferenceError(
            f"pitch equation out of the arcsine domain: argument {z:.6f} "
            f"(accel {ax:.3f} m/s^2 at T_Bz {T_Bz:.3f} N)"
        )
    return math.asin(z) - math.atan(mu)


def ground_body_rates(theta: float, theta_dot: float, psi: float, psi_dot: float) -> Vec3:
    """World-frame angular velocity of the roll-free attitude family."""
    return np.array(
        [-theta_dot * math.sin(psi), theta_dot * math.cos(psi), psi_dot]
    )


def ground_body_accels(
    theta: float,
    theta_dot: float,
    theta_ddot: float,
    psi: float,
    psi_dot: float,
    psi_ddot: float,
) -> Vec3:
    """Time derivative of ground_body_rates along the trajectory."""
    sp, cp = math.sin(psi), math.cos(psi)
    return np.array(
        [
            -theta_ddot * sp - theta_dot * psi_dot * cp,
            theta_ddot * cp - theta_dot * psi_dot * sp,
            psi_ddot,
        ]
    )


def wheel_normals(
    F_n: float, f_l: float, tau_Bx: float, theta: float, params: VehicleParams
) -> Tuple[float, float]:
    """Left/right wheel normal forces: the even split corrected by the roll
    moments of the lateral friction and the actuator roll torque."""
    split = (f_l * params.r + tau_Bx * math.cos(theta)) / params.W
    return 0.5 * F_n - split, 0.5 * F_n + split


def lateral_thrust_approx(a_l: float, params: VehicleParams) -> float:
    """Small-angle approximation of the lateral thrust needed to turn:
    m a_l / (1 - h1/r); slightly larger in magnitude than the centripetal
    force itself."""
    return params.m * a_l / (1.0 - params.h1 / params.r)


def _heading_frame(psi: float):
    c, s = math.cos(psi), math.sin(psi)
    xg = np.array([c, s, 0.0])
    yg = np.array([-s, c, 0.0])
    return xg, yg


def _yaw_derivatives(v: Vec3, a: Vec3, j: Vec3, alpha: int) -> Tuple[float, float]:
    vx, vy = float(v[0]), float(v[1])
    ax, ay = float(a[0]), float(a[1])
    jx, jy = float(j[0]), float(j[1])
    den = vx * vx + vy * vy
    num = vx * ay - vy * ax
    chi_dot = num / den
    chi_ddot = ((vx * jy - vy * jx) * den - num * 2.0 * (vx * ax + vy * ay)) / (den * den)
    return alpha * chi_dot, alpha * chi_ddot


def _heading_torque(
    J: np.ndarray, theta: float, theta_dot: float, psi_dot: float,
    theta_ddot: float, psi_ddot: float,
) -> Vec3:
    """Required torque in the heading frame for the roll-free attitude family."""
    J1, J2, J3 = J
    sth, cth = math.sin(theta), math.cos(theta)
    N11 = J1 * cth * cth + J3 * sth * sth
    N13 = sth * cth * (J3 - J1)
    N33 = J1 * sth * sth + J3 * cth * cth
    Lx = N13 * psi_ddot + theta_dot * psi_dot * (N33 - J2 - N11)
    Ly = J2 * theta_ddot + N13 * psi_dot * psi_dot
    Lz = N33 * psi_ddot - 2.0 * N13 * theta_dot * psi_dot
    return np.array([Lx, Ly, Lz])


def _assemble_input(
    a1: float, a2: float, b1: float, b2: float, params: VehicleParams, t: float,
    clamp: bool,
) -> Tuple[ControlInput, Tuple[str, ...]]:
    flags = []
    T1, T2 = math.hypot(a1, b1), math.hypot(a2, b2)
    d1, d2 = math.atan2(b1, a1), math.atan2(b2, a2)
    if min(a1, a2) < -THRUST_EPS:
        raise InfeasibleReferenceError(
            f"negative collective component at t={t:.3f}s (a1={a1:.3f}, a2={a2:.3f})"
        )
    if T1 > params.T_max or T2 > params.T_max or max(abs(d1), abs(d2)) > params.delta_max:
        if not clamp:
            raise InfeasibleReferenceError(
                f"input bounds violated at t={t:.3f}s: "
                f"T=({T1:.2f},{T2:.2f}) N, delta=({d1:.3f},{d2:.3f}) rad"
            )
        T1 = min(T1, params.T_max)
        T2 = min(T2, params.T_max)
        d1 = max(-params.delta_max, min(params.delta_max, d1))
        d2 = max(-params.delta_max, min(params.delta_max, d2))
        flags.append("input_clamped")
    return ControlInput(T1, T2, d1, d2), tuple(flags)


def ground_flat_to_reference(
    sample: FlatSampleGround, params: VehicleParams, clamp: bool = False
) -> ReferencePoint:
    """Full ground-mode flatness transform: flat sample -> (state, input).

    Raises InfeasibleReferenceError on arcsine-domain violations, wheel
    lift-off, or input-bound violations (unless `clamp` is set, in which
    case inputs are clamped and flagged for the receding-horizon pipeline).
    """
    m, g = params.m, params.g
    T = float(sample.T_Bz)
    dT, ddT = float(sample.dT_Bz), float(sample.ddT_Bz)
    alpha = int(sample.alpha)
    if not 0.0 < T < m * g + THRUST_EPS:
        raise InfeasibleReferenceError(
            f"ground vertical thrust must lie in (0, m g]: {T:.3f} N at t={sample.t:.3f}s"
        )
    if abs(float(sample.v[2])) > 1e-9 or abs(float(sample.a[2])) > 1e-9:
        raise InfeasibleReferenceError(
            f"ground sample must be planar (vz={sample.v[2]}, az={sample.a[2]})"
        )

    flags = []
    psi, held = ground_yaw(sample.v, alpha, sample.psi_hint)
    if held:
        flags.append("psi_held")
        psi_dot = psi_ddot = 0.0
        mu_eff = 0.0
        speed = 0.0
    else:
        psi_dot, psi_ddot = _yaw_derivatives(sample.v, sample.a, sample.j, alpha)
        mu_eff = alpha * params.mu
        speed = math.hypot(float(sample.v[0]), float(sample.v[1]))

    xg, yg = _heading_frame(psi)
    a_l = speed * psi_dot

    # pitch and its derivatives from the longitudinal force balance
    c = math.sqrt(1.0 + mu_eff * mu_eff)
    ax = float(sample.a @ xg)
    ay = float(sample.a @ yg)
    jx = float(sample.j @ xg)
    jy = float(sample.j @ yg)
    sx = float(sample.s @ xg)
    Z = (m * ax + mu_eff * m * g) / (c * T)
    if abs(Z) > 1.0 - ARCSIN_MARGIN:
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
    F_n = m * g - T * cth
    if F_n < -1e-9:
        raise InfeasibleReferenceError(
            f"negative total normal force {F_n:.4f} N at t={sample.t:.3f}s"
        )
    F_n = max(F_n, 0.0)

    L = _heading_torque(params.J, theta, theta_dot, psi_dot, theta_ddot, psi_ddot)
    G2 = (m - 2.0 * params.m_w) * params.h2 * g * sth
    tau_y_req = L[1] - G2

    # 2x2 linear solve for the lateral thrust y = T_By and the tilt
    # differential d = b2 - b1 (roll and yaw rows with the ground torque)
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

    a2 = 0.5 * (T + tau_y_req / l)
    a1 = T - a2
    b1 = 0.5 * (-y - d)
    b2 = 0.5 * (d - y)

    # feasibility: wheel normals
    f_l = m * a_l - y
    F_nl, F_nr = wheel_normals(F_n, f_l, y * h1, theta, params)
    if min(F_nl, F_nr) < -1e-9:
        raise InfeasibleReferenceError(
            f"wheel lift-off in reference at t={sample.t:.3f}s "
            f"(normals {F_nl:.3f}/{F_nr:.3f} N)"
        )

    u_r, clamp_flags = _assemble_input(a1, a2, b1, b2, params, sample.t, clamp)
    flags.extend(clamp_flags)

    x_r = RobotState(
        p=np.asarray(sample.p, dtype=float).copy(),
        v=np.asarray(sample.v, dtype=float).copy(),
        q=Orientation.from_euler(0.0, theta, psi),
        omega=ground_body_rates(theta, theta_dot, psi, psi_dot),
    )
    return ReferencePoint(
        x_r=x_r, u_r=u_r, mode=Mode.GROUND, t=sample.t, flags=tuple(flags), psi=psi,
        heading="held" if held else "tangent",
    )


def aerial_flat_to_reference(
    sample: FlatSampleAerial, params: VehicleParams, clamp: bool = False
) -> ReferencePoint:
    """Aerial flatness transform with the roll-free attitude construction.

    The thrust vector (0, T_By, T_Bz) matches the required world force
    exactly; pitch and yaw torque rows of the rigid-body balance determine
    the rotor differentials.  The leftover roll-row torque residual is
    reported on the ReferencePoint.
    """
    m, g = params.m, params.g
    psi, psi_dot, psi_ddot = float(sample.psi), float(sample.psi_dot), float(sample.psi_ddot)
    xg, yg = _heading_frame(psi)

    F = m * (np.asarray(sample.a, dtype=float) + np.array([0.0, 0.0, g]))
    Fd = m * np.asarray(sample.j, dtype=float)
    Fdd = m * np.asarray(sample.s, dtype=float)

    F1, F2, F3 = float(F @ xg), float(F @ yg), float(F[2])
    den = F1 * F1 + F3 * F3
    if den < THRUST_EPS**2 or F3 <= 0.0:
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

    num = Fd1 * F3 - F1 * Fd3
    theta_dot = num / den
    theta_ddot = ((Fdd1 * F3 - F1 * Fdd3) * den - num * 2.0 * (F1 * Fd1 + F3 * Fd3)) / (
        den * den
    )

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
    tau_req = params.J * wbdot + np.cross(wb, Jwb)

    a2 = 0.5 * (T_Bz + tau_req[1] / params.l)
    a1 = T_Bz - a2
    bsum = -T_By
    bdiff = tau_req[2] / params.l
    b1 = 0.5 * (bsum - bdiff)
    b2 = 0.5 * (bsum + bdiff)
    roll_residual = float(tau_req[0] - T_By * params.h1)

    u_r, clamp_flags = _assemble_input(a1, a2, b1, b2, params, sample.t, clamp)

    x_r = RobotState(
        p=np.asarray(sample.p, dtype=float).copy(),
        v=np.asarray(sample.v, dtype=float).copy(),
        q=Orientation.from_euler(0.0, theta, psi),
        omega=ground_body_rates(theta, theta_dot, psi, psi_dot),
    )
    return ReferencePoint(
        x_r=x_r,
        u_r=u_r,
        mode=Mode.AERIAL,
        t=sample.t,
        flags=clamp_flags,
        roll_residual=roll_residual,
        psi=psi,
        heading=sample.heading,
    )
