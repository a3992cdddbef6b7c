"""Differential-flatness reference transforms for both locomotion modes.

Ground mode flat output: position plus a prescribed collective vertical body
thrust T_Bz (held below the vehicle weight so the wheels stay loaded).  From
the flat output and its derivatives the transform recovers

    yaw      psi   = atan2(ydot, xdot)
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
    RobotState,
    Vec3,
    VehicleParams,
    quat_from_euler,
    quat_normalize,
)
from .dynamics import ground_contact, heading_inertia, wheel_split

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

    `x` is the packed state [p, v, q, omega] (13,) and `u` the packed input
    [T1, T2, delta1, delta2] (4,).  Horizon windows share these arrays
    between overlapping ticks, so they are read-only.

    `heading` says what a heading hint does to the sample: "explicit" (a
    prescribed yaw; the hint is ignored), "tangent" (the travel direction;
    the hint only unwraps it by whole turns) or "held" (the hint is the
    heading).
    """

    x: np.ndarray
    u: np.ndarray
    mode: Mode
    t: float
    flags: Tuple[str, ...] = ()
    roll_residual: float = 0.0  # aerial roll-row torque residual [N m]
    psi: float = 0.0  # unwrapped heading used by the transform
    heading: str = "explicit"

    def __post_init__(self):
        self.x.flags.writeable = False
        self.u.flags.writeable = False

    @property
    def x_r(self) -> RobotState:
        """Typed view of `x`, built on each access."""
        x = self.x.copy()
        return RobotState(x[0:3], x[3:6], x[6:10], x[10:13])

    @property
    def u_r(self) -> ControlInput:
        """Typed view of `u`, built on each access."""
        return ControlInput(*self.u.tolist())

    def x_array(self) -> np.ndarray:
        """The packed state `x` itself."""
        return self.x

    def turned(self, n: int) -> "ReferencePoint":
        """The same point with its heading n whole turns on: psi + 2 pi n,
        and the quaternion negated exactly for odd n (q(psi + 2 pi) = -q(psi))."""
        if n == 0:
            return self
        x = self.x
        if n % 2:
            x = x.copy()
            x[6:10] = -x[6:10]
        return replace(self, x=x, psi=self.psi + 2 * math.pi * n)


def heading_turns(psi: float, psi_hint: float) -> int:
    """Whole turns that bring psi to within pi of the hint."""
    return round((psi_hint - psi) / (2 * math.pi))


def travel_heading(v: Vec3, a: Vec3, j: Vec3,
                   psi_hint: Optional[float]) -> Optional[Tuple[float, float, float, bool]]:
    """Heading along the planar travel direction, psi = atan2(vy, vx),
    with its rate and acceleration: (psi, psi_dot, psi_ddot, held).

    Below the speed dead-band the hint is held with zero rates (held is
    True), and without a hint there is no heading (None).  Otherwise psi is
    unwrapped to within pi of the hint when one is given.
    """
    if math.hypot(float(v[0]), float(v[1])) < SPEED_EPS:
        if psi_hint is None:
            return None
        return float(psi_hint), 0.0, 0.0, True
    psi = math.atan2(float(v[1]), float(v[0]))
    if psi_hint is not None:
        psi += 2 * math.pi * heading_turns(psi, psi_hint)
    return (psi, *tangent_yaw_derivatives(v, a, j), False)


def ground_body_rates(theta: float, theta_dot: float, psi: float, psi_dot: float) -> Vec3:
    """World-frame angular velocity of the roll-free attitude family."""
    return np.array(
        [-theta_dot * math.sin(psi), theta_dot * math.cos(psi), psi_dot]
    )


def _roll_free_state(sample, theta: float, theta_dot: float, psi: float,
                     psi_dot: float) -> np.ndarray:
    """Packed reference state of a flat sample with the roll-free attitude
    (0, theta, psi); raises ValueError on a non-finite p, v or omega."""
    x = np.concatenate([
        np.asarray(sample.p, dtype=float), np.asarray(sample.v, dtype=float),
        quat_normalize(quat_from_euler(0.0, theta, psi)),
        ground_body_rates(theta, theta_dot, psi, psi_dot),
    ])
    if not (np.all(np.isfinite(x[0:6])) and np.all(np.isfinite(x[10:13]))):
        raise ValueError("non-finite state component")
    return x


def wheel_normals(
    F_n: float, f_l: float, tau_Bx: float, theta: float, params: VehicleParams
) -> Tuple[float, float]:
    """Left/right wheel normal forces: the even split corrected by the roll
    moments of the lateral friction and the actuator roll torque."""
    return wheel_split(F_n, f_l, tau_Bx, math.cos(theta), params)


def lateral_thrust_approx(a_l: float, params: VehicleParams) -> float:
    """Small-angle approximation of the lateral thrust needed to turn:
    m a_l / (1 - h1/r); slightly larger in magnitude than the centripetal
    force itself."""
    return params.m * a_l / (1.0 - params.h1 / params.r)


def _heading_frame(psi: float):
    c, s = math.cos(psi), math.sin(psi)
    return np.array([c, s, 0.0]), np.array([-s, c, 0.0])


def tangent_yaw_derivatives(v: Vec3, a: Vec3, j: Vec3) -> Tuple[float, float]:
    """Rate and acceleration of the heading psi = atan2(vy, vx)."""
    return _atan2_rates(*map(float, (v[0], v[1], a[0], a[1], j[0], j[1])))


def _atan2_rates(x: float, y: float, xd: float, yd: float, xdd: float,
                 ydd: float) -> Tuple[float, float]:
    """First and second time derivatives of the angle atan2(y, x)."""
    den = x * x + y * y
    num = x * yd - y * xd
    return num / den, ((x * ydd - y * xdd) * den - num * 2.0 * (x * xd + y * yd)) / (den * den)


def _cross(a, b) -> Tuple[float, float, float]:
    """a x b of two 3-vectors of Python floats by components: the bits of
    np.cross at a tenth of its cost."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def _heading_torque(
    J: np.ndarray, sth: float, cth: float, theta_dot: float, psi_dot: float,
    theta_ddot: float, psi_ddot: float,
) -> Vec3:
    """Required torque in the heading frame for the roll-free attitude family."""
    J1, J2, J3 = J
    N11 = J1 * cth * cth + J3 * sth * sth
    N13, N33 = heading_inertia(sth, cth, J)
    Lx = N13 * psi_ddot + theta_dot * psi_dot * (N33 - J2 - N11)
    Ly = J2 * theta_ddot + N13 * psi_dot * psi_dot
    Lz = N33 * psi_ddot - 2.0 * N13 * theta_dot * psi_dot
    return np.array([Lx, Ly, Lz])


def _assemble_input(
    a1: float, a2: float, b1: float, b2: float, params: VehicleParams, t: float,
    clamp: bool,
) -> Tuple[np.ndarray, Tuple[str, ...]]:
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
    return np.array([T1, T2, d1, d2]), tuple(flags)


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
    if not 0.0 < T < m * g + THRUST_EPS:
        raise InfeasibleReferenceError(
            f"ground vertical thrust must lie in (0, m g]: {T:.3f} N at t={sample.t:.3f}s"
        )
    if abs(float(sample.v[2])) > 1e-9 or abs(float(sample.a[2])) > 1e-9:
        raise InfeasibleReferenceError(
            f"ground sample must be planar (vz={sample.v[2]}, az={sample.a[2]})"
        )

    heading = travel_heading(sample.v, sample.a, sample.j, sample.psi_hint)
    if heading is None:
        raise InfeasibleReferenceError("heading undefined at rest and no held value available")
    psi, psi_dot, psi_ddot, held = heading
    flags = ["psi_held"] if held else []
    mu_eff = 0.0 if held else params.mu

    xg, yg = _heading_frame(psi)
    a_l = math.hypot(float(sample.v[0]), float(sample.v[1])) * psi_dot

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
    L = _heading_torque(params.J, sth, cth, theta_dot, psi_dot, theta_ddot, psi_ddot)

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

    # ground reaction of the stuck wheels under the lateral thrust y
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

    u, clamp_flags = _assemble_input(a1, a2, b1, b2, params, sample.t, clamp)
    flags.extend(clamp_flags)

    return ReferencePoint(
        x=_roll_free_state(sample, theta, theta_dot, psi, psi_dot), u=u,
        mode=Mode.GROUND, t=sample.t, flags=tuple(flags), psi=psi,
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

    theta_dot, theta_ddot = _atan2_rates(F3, F1, Fd3, Fd1, Fdd3, Fdd1)

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
    tau_req = params.J * wbdot + _cross(wb.tolist(), Jwb.tolist())

    a2 = 0.5 * (T_Bz + tau_req[1] / params.l)
    a1 = T_Bz - a2
    bsum = -T_By
    bdiff = tau_req[2] / params.l
    b1 = 0.5 * (bsum - bdiff)
    b2 = 0.5 * (bsum + bdiff)
    roll_residual = float(tau_req[0] - T_By * params.h1)

    u, clamp_flags = _assemble_input(a1, a2, b1, b2, params, sample.t, clamp)

    return ReferencePoint(
        x=_roll_free_state(sample, theta, theta_dot, psi, psi_dot), u=u, mode=Mode.AERIAL,
        t=sample.t, flags=clamp_flags, roll_residual=roll_residual, psi=psi,
        heading=sample.heading,
    )
