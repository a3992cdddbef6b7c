"""Unified bi-modal rigid-body dynamics of the passive-wheeled bi-copter.

Continuous-time model f(x, u):

    pdot = v
    vdot = g + (R T_B + s R_G^W F_G) / m
    Rdot = skew(omega) R                     (omega in world frame)
    omegadot: rigid-body Euler equation with the diagonal body inertia J,
              actuator torque tau_B applied in the body frame and the ground
              reaction torque applied in the heading (intermediate) frame.

with s = 0 in aerial mode and s = 1 in ground mode.  Thrust and torque maps:

    T_B   = (0, -T1 sin d1 - T2 sin d2, T1 cos d1 + T2 cos d2)
    tau_B = (T_By h1, (-T1 cos d1 + T2 cos d2) l, (-T1 sin d1 + T2 sin d2) l)

Ground reaction in the heading frame (rolling friction, lateral friction,
normal force) and its torque:

    F_G   = (f_r, f_l, F_n)
    f_r   = -mu F_n sign(longitudinal speed),  F_n = m g - T_Bz cos(theta)
    f_l   = m a_l - T_By,   a_l = |v_planar| psidot
    tau_G = (f_l r + (F_nr - F_nl) W,
             (m - 2 m_w) h2 g sin(theta),
             (f_rr - f_rl) W)

Ground mode is simulated as a constrained system: p_z and roll are fixed,
the body-lateral velocity is zero while the wheels stick, and f_l, F_n act
as constraint forces.  The pitch/yaw rows of the torque balance drive
(thetaddot, psiddot); the roll row is carried by the contact constraint.
An optional stick/slip model saturates the lateral friction at mu_s F_n and
releases the lateral constraint while sliding.

Internally states are packed as x = [p(3), v(3), q(4), omega(3)] and all
core routines broadcast over a leading batch axis; the typed API wraps the
array core.  A ground state's contact forces and derivative come from one
`_f_ground_batch` evaluation: a caller that reads the contact (the
simulator's lift-off and stick/slip decision, the controller's wheel-normal
rows) passes that derivative to `rk4_step` as its first stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analysis import ideal_power
from .core import (
    SPEED_EPS,
    ContactLossError,
    ControlInput,
    DivergenceError,
    Mode,
    RobotState,
    Vec3,
    VehicleParams,
    quat_derivative,
    quat_normalize,
    quat_to_matrix,
)

DIVERGENCE_LIMIT = 1e6

# Lateral speed below which a slipping wheel pair is considered for re-stick.
LATERAL_STICK_EPS = 1e-3


# ---------------------------------------------------------------------------
# Typed results
# ---------------------------------------------------------------------------


@dataclass
class BodyWrench:
    """Actuator thrust and torque in the body frame; T_B.x is identically 0."""

    T_B: Vec3
    tau_B: Vec3


@dataclass
class StateDerivative:
    pdot: Vec3
    vdot: Vec3
    qdot: np.ndarray  # quaternion rate (4,)
    omegadot: Vec3

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.pdot, self.vdot, self.qdot, self.omegadot])


# ---------------------------------------------------------------------------
# Array core
# ---------------------------------------------------------------------------


def _wrench_terms(u: np.ndarray, P: VehicleParams):
    T1, T2, d1, d2 = u[..., 0], u[..., 1], u[..., 2], u[..., 3]
    s1, c1 = np.sin(d1), np.cos(d1)
    s2, c2 = np.sin(d2), np.cos(d2)
    a1, a2 = T1 * c1, T2 * c2
    b1, b2 = T1 * s1, T2 * s2
    TBy = -(b1 + b2)
    TBz = a1 + a2
    tau_x = TBy * P.h1
    tau_y = (a2 - a1) * P.l
    tau_z = (b2 - b1) * P.l
    return TBy, TBz, tau_x, tau_y, tau_z


def _f_aerial_batch(x: np.ndarray, u: np.ndarray, P: VehicleParams) -> np.ndarray:
    v = x[..., 3:6]
    q = x[..., 6:10]
    w = x[..., 10:13]
    TBy, TBz, tau_x, tau_y, tau_z = _wrench_terms(u, P)

    R = quat_to_matrix(q)
    xdot = np.empty_like(x)
    xdot[..., 0:3] = v
    # vdot = g + R @ (0, TBy, TBz) / m
    xdot[..., 3:6] = (R[..., :, 1] * TBy[..., None] + R[..., :, 2] * TBz[..., None]) / P.m
    xdot[..., 5] -= P.g

    # body rates, Euler equation in body coordinates, rate back to world
    wb = np.einsum("...ji,...j->...i", R, w)
    J = P.J
    Jw = wb * J
    gyro0 = wb[..., 1] * Jw[..., 2] - wb[..., 2] * Jw[..., 1]
    gyro1 = wb[..., 2] * Jw[..., 0] - wb[..., 0] * Jw[..., 2]
    gyro2 = wb[..., 0] * Jw[..., 1] - wb[..., 1] * Jw[..., 0]
    wbdot = np.stack(
        [
            (tau_x - gyro0) * P.J_inv[0],
            (tau_y - gyro1) * P.J_inv[1],
            (tau_z - gyro2) * P.J_inv[2],
        ],
        axis=-1,
    )
    xdot[..., 10:13] = np.einsum("...ij,...j->...i", R, wbdot)
    xdot[..., 6:10] = quat_derivative(q, w)
    return xdot


def _ground_geometry(x: np.ndarray):
    """theta, psi, thetadot, psidot and heading trig from a packed state."""
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


def ground_contact(F_n, f_l_req, tau_x, cth, sth, u_long, P: VehicleParams, w_lat=None):
    """Two-wheel ground reaction at a given total normal force F_n,
    broadcasting over leading axes.

    f_l_req is the lateral force the no-slip constraint needs, tau_x the body
    roll torque, (cth, sth) the pitch cosine and sine, u_long the speed along
    the heading (rolling friction opposes it outside the SPEED_EPS dead band).
    Given the lateral speed w_lat the wheels slide: the lateral friction
    saturates at mu_s F_n against the sliding direction.  Returns
    (f_r, f_l, F_nl, F_nr, lift_off, G2, G3): rolling and lateral friction,
    the raw left/right wheel normals (lift_off flags a negative one) and the
    pitch/yaw ground torques.  A lifted wheel carries no rolling friction, so
    G3 takes the per-wheel friction from the normals clamped at zero.
    """
    # 0 inside the dead band (+0.0 turns the -0.0 of a negative speed into 0.0)
    sgn_u = np.sign(u_long) * (np.abs(u_long) >= SPEED_EPS) + 0.0
    f_r = -P.mu * F_n * sgn_u
    if w_lat is None:
        f_l = f_l_req
    else:
        cap = P.mu_s * F_n
        slip_dir = np.where(np.abs(w_lat) > LATERAL_STICK_EPS, np.sign(w_lat), -np.sign(f_l_req))
        f_l = -cap * slip_dir

    half = 0.5 * F_n
    split = (f_l * P.r + tau_x * cth) / P.W
    F_nl = half - split
    F_nr = half + split
    lift = (F_nl < 0.0) | (F_nr < 0.0)
    f_rl = -P.mu * np.maximum(F_nl, 0.0) * sgn_u
    f_rr = -P.mu * np.maximum(F_nr, 0.0) * sgn_u

    G2 = (P.m - 2.0 * P.m_w) * P.h2 * P.g * sth
    G3 = (f_rr - f_rl) * P.W
    return f_r, f_l, F_nl, F_nr, lift, G2, G3


def heading_inertia(sth, cth, J: np.ndarray):
    """Entries N13, N33 of the diagonal body inertia J seen in the heading
    frame of a roll-free attitude with pitch cosine/sine (cth, sth)."""
    J1, _, J3 = J
    return sth * cth * (J3 - J1), J1 * sth * sth + J3 * cth * cth


def slip_check(f_l, F_n, params: VehicleParams) -> bool:
    """Stick if |f_l| <= mu_s F_n (closed inequality)."""
    return abs(f_l) <= params.mu_s * F_n


def _f_ground_batch(x: np.ndarray, u: np.ndarray, P: VehicleParams, slipping: bool = False):
    """Constrained ground dynamics.

    Returns (xdot, diag) where diag carries the contact forces used for
    logging, constraints and the stick/slip decision; xdot is the k1 that
    `rk4_step` takes from a caller that needs both.
    """
    v = x[..., 3:6]
    theta, psi, theta_dot, psi_dot, cpsi, spsi = _ground_geometry(x)
    cth, sth = np.cos(theta), np.sin(theta)

    TBy, TBz, tau_x, tau_y, tau_z = _wrench_terms(u, P)

    vx, vy = v[..., 0], v[..., 1]
    u_long = vx * cpsi + vy * spsi
    w_lat = -vx * spsi + vy * cpsi
    v_planar = np.hypot(vx, vy)
    a_l = v_planar * psi_dot

    F_n = P.m * P.g - TBz * cth
    f_l_req = P.m * a_l - TBy
    f_r, f_l, F_nl, F_nr, lift, G2, G3 = ground_contact(
        F_n, f_l_req, tau_x, cth, sth, u_long, P,
        w_lat=w_lat if slipping else None,
    )

    # pitch/yaw rows of the torque balance in the heading frame
    N13, N33 = heading_inertia(sth, cth, P.J)
    theta_dd = (tau_y + G2 - N13 * psi_dot * psi_dot) / P.J[1]
    psi_dd = (-sth * tau_x + cth * tau_z + G3 + 2.0 * N13 * theta_dot * psi_dot) / N33

    acc_long = (TBz * sth + f_r) / P.m
    acc_lat = (TBy + f_l) / P.m

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

    diag = {
        "F_n": F_n,
        "F_nl": F_nl,
        "F_nr": F_nr,
        "f_l": f_l,
        "f_l_req": f_l_req,
        "w_lat": w_lat,
        "lift_off": lift,
    }
    return xdot, diag


def f_batch(
    x: np.ndarray, u: np.ndarray, mode: Mode, P: VehicleParams, slipping: bool = False
) -> np.ndarray:
    """Packed-state dynamics, broadcasting over leading axes."""
    if mode is Mode.AERIAL:
        return _f_aerial_batch(x, u, P)
    xdot, _ = _f_ground_batch(x, u, P, slipping=slipping)
    return xdot


def _project_ground(x: np.ndarray, keep_lateral: bool) -> np.ndarray:
    """Re-impose the ground constraints on packed states (in place):
    zero roll, angular rate orthogonal to the heading axis, zero vertical
    speed and (while sticking) zero lateral speed."""
    theta, psi, _, _, cpsi, spsi = _ground_geometry(x)
    half_t, half_p = 0.5 * theta, 0.5 * psi
    ct, st = np.cos(half_t), np.sin(half_t)
    cp, sp = np.cos(half_p), np.sin(half_p)
    qn = np.stack([cp * ct, -sp * st, cp * st, sp * ct], axis=-1)
    # atan2 wraps psi: stay on the same quaternion cover sheet as before
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


def rk4_step(
    x: np.ndarray,
    u: np.ndarray,
    mode: Mode,
    dt: float,
    P: VehicleParams,
    slipping: bool = False,
    k1: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One fixed-step RK4 integration of the packed state, with quaternion
    renormalization and re-projection of the ground constraints.

    k1 is the derivative at (x, u) when the caller already has it: a caller
    that reads the ground contact gets it from the same `_f_ground_batch`
    call, and the step then evaluates only stages 2 to 4.  Without it the
    step evaluates k1 itself.
    """
    if k1 is None:
        k1 = f_batch(x, u, mode, P, slipping)
    k2 = f_batch(x + 0.5 * dt * k1, u, mode, P, slipping)
    k3 = f_batch(x + 0.5 * dt * k2, u, mode, P, slipping)
    k4 = f_batch(x + dt * k3, u, mode, P, slipping)
    xn = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    q = xn[..., 6:10]
    xn[..., 6:10] = q / np.linalg.norm(q, axis=-1, keepdims=True)
    if mode is Mode.GROUND:
        _project_ground(xn, keep_lateral=slipping)
    return xn


# ---------------------------------------------------------------------------
# Typed API
# ---------------------------------------------------------------------------


def actuator_wrench(u: ControlInput, params: VehicleParams) -> BodyWrench:
    """Body-frame thrust and torque produced by the rotors and servos."""
    u.validate(params)
    TBy, TBz, tx, ty, tz = _wrench_terms(u.as_array(), params)
    return BodyWrench(
        T_B=np.array([0.0, float(TBy), float(TBz)]),
        tau_B=np.array([float(tx), float(ty), float(tz)]),
    )


def derivative(
    state: RobotState, u: ControlInput, mode: Mode, params: VehicleParams
) -> StateDerivative:
    """Continuous-time state derivative f(x, u) for the given mode."""
    x = state.as_array()
    ua = u.as_array()
    if mode is Mode.GROUND:
        xdot, diag = _f_ground_batch(x, ua, params)
        if diag["F_n"] <= 0.0:
            raise ContactLossError(
                f"total normal force {float(diag['F_n']):.6f} N <= 0 in ground mode"
            )
    else:
        xdot = _f_aerial_batch(x, ua, params)
    return StateDerivative(
        pdot=xdot[0:3], vdot=xdot[3:6], qdot=xdot[6:10], omegadot=xdot[10:13]
    )


def rotor_power(u: np.ndarray, params: VehicleParams) -> float:
    """Ideal (momentum theory) power of both rotors for a packed input (4,)."""
    return sum(ideal_power(T, params.S, params.rho) for T in u[:2].tolist())


# ---------------------------------------------------------------------------
# Simulator
# ---------------------------------------------------------------------------


# One plant step per record.  Every field is 8-byte aligned (flags as i8, not
# i1): numpy reduces an unaligned field in 8,192-element buffered chunks,
# which moves the last bit of `np.mean(log.power)` on long runs.
SIMLOG_DTYPE = np.dtype([
    ("t", "f8"), ("x", "f8", (13,)), ("u", "f8", (4,)),
    ("F_n_left", "f8"), ("F_n_right", "f8"), ("f_l", "f8"),
    ("slip", "i8"), ("lift_off", "i8"), ("power", "f8"),
])


@dataclass
class Simulator:
    """Owns one packed vehicle state `x` (13,) and integrates it with mode
    switching.  Each step works on a copy and then replaces `x`, so an array
    read from `x` never changes afterwards.

    `log` holds one `SIMLOG_DTYPE` record per step: the filled part of a
    record array that `apply` grows by doubling.  A view read from `log`
    keeps its values when the array grows.

    Aerial -> Ground happens when the CoM reaches the wheel radius with
    non-positive vertical speed; Ground -> Aerial when the total normal
    force would go negative.  The optional stick/slip lateral friction model
    is off by default.
    """

    params: VehicleParams
    x: np.ndarray = None  # type: ignore[assignment]
    mode: Mode = Mode.AERIAL
    dt: float = 1e-3
    slip_enabled: bool = False
    t: float = field(init=False, default=0.0)
    slipping: bool = field(init=False, default=False)
    _log: np.recarray = field(init=False, repr=False)
    _n: int = field(init=False, default=0)
    lift_off_events: int = field(init=False, default=0)
    slip_steps: int = field(init=False, default=0)

    TOUCHDOWN_TOL = 1e-3

    def __post_init__(self):
        self.x = np.array(RobotState.rest().as_array() if self.x is None else self.x, dtype=float)
        self._log = np.recarray(0, dtype=SIMLOG_DTYPE)

    @property
    def log(self) -> np.recarray:
        return self._log[:self._n]

    def _try_touchdown(self, x: np.ndarray, u: np.ndarray) -> None:
        r = self.params.r
        if x[2] > r + self.TOUCHDOWN_TOL or x[5] > 0.0:
            return
        # grazing contact with thrust above the weight cannot load the
        # wheels; stay aerial until F_n would be non-negative
        _, diag = _f_ground_batch(x, u, self.params, slipping=False)
        if float(diag["F_n"]) < 0.0:
            return
        self.mode = Mode.GROUND
        x[2] = r
        x[5] = 0.0
        keep = self.slip_enabled and abs(float(diag["w_lat"])) > LATERAL_STICK_EPS
        _project_ground(x, keep_lateral=keep)
        x[6:10] = quat_normalize(x[6:10])  # as after every step
        self.slipping = keep

    def apply(self, u: np.ndarray, duration: float) -> None:
        """Hold the packed input u (4,) for `duration` seconds, integrating at
        the sim rate."""
        ua = np.asarray(u, dtype=float)
        P = self.params
        power = rotor_power(ua, P)
        steps = max(1, round(duration / self.dt))
        if self._n + steps > len(self._log):
            grown = np.recarray(max(self._n + steps, 2 * len(self._log)), dtype=SIMLOG_DTYPE)
            grown[:self._n] = self._log[:self._n]
            self._log = grown
        for _ in range(steps):
            x = self.x.copy()
            if self.mode is Mode.AERIAL:
                self._try_touchdown(x, ua)
            F_nl = F_nr = f_l = 0.0
            lift = False
            k1 = None  # aerial: rk4_step evaluates it
            if self.mode is Mode.GROUND:
                # the contact that decides lift-off and stick/slip is also
                # RK4's k1, unless the decision changes the state or regime
                k1, diag = _f_ground_batch(x, ua, P, slipping=self.slipping)
                F_n = float(diag["F_n"])
                if F_n < 0.0:
                    self.mode = Mode.AERIAL
                    self.slipping = False
                    k1 = None
                else:
                    stick = slip_check(float(diag["f_l_req"]), F_n, P)
                    if self.slip_enabled and not self.slipping and not stick:
                        self.slipping = True
                        k1, diag = _f_ground_batch(x, ua, P, slipping=True)
                    elif (self.slip_enabled and self.slipping and stick
                          and abs(float(diag["w_lat"])) < LATERAL_STICK_EPS):
                        self.slipping = False
                        _project_ground(x, keep_lateral=False)
                        k1, diag = _f_ground_batch(x, ua, P, slipping=False)
                    F_nl = max(float(diag["F_nl"]), 0.0)
                    F_nr = max(float(diag["F_nr"]), 0.0)
                    f_l = float(diag["f_l"])
                    lift = bool(diag["lift_off"])
                    self.lift_off_events += lift
                    self.slip_steps += self.slipping
            self._log[self._n] = (self.t, x, ua, F_nl, F_nr, f_l, self.slipping, lift, power)
            self._n += 1
            xn = rk4_step(x, ua, self.mode, self.dt, P, self.slipping, k1=k1)
            if np.any(np.abs(xn) > DIVERGENCE_LIMIT) or not np.all(np.isfinite(xn)):
                raise DivergenceError(
                    f"simulation diverged at t={self.t:.4f}s (mode {self.mode.name})"
                )
            # a second, scalar normalisation of q: the logged bits depend on it
            xn[6:10] = quat_normalize(xn[6:10])
            self.x = xn
            self.t += self.dt
