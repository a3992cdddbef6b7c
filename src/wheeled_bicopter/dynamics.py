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

Internally states are packed as x = [p(3), v(3), q(4), omega(3)]; the
typed API wraps the core.  Both derivatives are written once, component by
component: aerial (`_wrench_terms`, `_aerial_rates`) and ground
(`_ground_angles`, `ground_contact`, `_ground_rates`, and the constraint
projection `_project_ground`), on Python floats, numpy scalars or arrays
with the same bits.  Two RK4 integrators step them, chosen by shape:
`rk4_step` steps a batch of packed states on component rows (13, ...),
always sticking, and the simulator steps its one state of 13 Python
floats with `_rk4_row` in both modes, with the input's `math` wrench, and
is the only stepper that slides.  The ground body keeps numpy's `arcsin`,
`arctan2` and `hypot`, whose bits `math` does not reproduce, so a ground
row's rates are numpy scalars.  A caller that reads the ground contact
passes the rates of the same `_ground_rates` evaluation to the integrator
as k1.
"""

from __future__ import annotations

import math
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
    quat_matrix_entries,
    quat_normalize,
    quat_rate,
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


def _wrench_terms(u, P: VehicleParams, lib):
    """(T_By, T_Bz, tau_x, tau_y, tau_z) of the input components
    u = (T1, T2, d1, d2): Python floats with lib = `math`, or arrays with
    lib = `numpy`."""
    T1, T2, d1, d2 = u
    s1, c1 = lib.sin(d1), lib.cos(d1)
    s2, c2 = lib.sin(d2), lib.cos(d2)
    a1, a2 = T1 * c1, T2 * c2
    b1, b2 = T1 * s1, T2 * s2
    TBy = -(b1 + b2)
    TBz = a1 + a2
    tau_x = TBy * P.h1
    tau_y = (a2 - a1) * P.l
    tau_z = (b2 - b1) * P.l
    return TBy, TBz, tau_x, tau_y, tau_z


def _aerial_rates(x, wrench, P: VehicleParams, J, J_inv):
    """The 13 components of the aerial f(x, u) from the 13 components of x
    and the `_wrench_terms` of u: Python floats (J and J_inv as floats too)
    or arrays evaluated elementwise.  R' omega is summed as (t0 + t1) + t2
    and R wbdot as (t0 + t2) + t1, the orders of numpy's einsum, so floats,
    array rows and the einsum form of the model give the same bits, but
    for the sign of a zero: einsum sums from +0.0, so where all three
    products are -0.0 it gives +0.0 and this body -0.0."""
    _, _, _, vx, vy, vz, qw, qx, qy, qz, ox, oy, oz = x
    TBy, TBz, tau_x, tau_y, tau_z = wrench
    R00, R01, R02, R10, R11, R12, R20, R21, R22 = quat_matrix_entries(qw, qx, qy, qz)
    # vdot = g + R (0, TBy, TBz) / m
    ax = (R01 * TBy + R02 * TBz) / P.m
    ay = (R11 * TBy + R12 * TBz) / P.m
    az = (R21 * TBy + R22 * TBz) / P.m - P.g
    # body rates R' omega, Euler equation in body coordinates, rate back to
    # world R wbdot
    wb0 = (R00 * ox + R10 * oy) + R20 * oz
    wb1 = (R01 * ox + R11 * oy) + R21 * oz
    wb2 = (R02 * ox + R12 * oy) + R22 * oz
    Jw0, Jw1, Jw2 = wb0 * J[0], wb1 * J[1], wb2 * J[2]
    e0 = (tau_x - (wb1 * Jw2 - wb2 * Jw1)) * J_inv[0]
    e1 = (tau_y - (wb2 * Jw0 - wb0 * Jw2)) * J_inv[1]
    e2 = (tau_z - (wb0 * Jw1 - wb1 * Jw0)) * J_inv[2]
    return (
        vx, vy, vz, ax, ay, az, *quat_rate(qw, qx, qy, qz, ox, oy, oz),
        (R00 * e0 + R02 * e2) + R01 * e1,
        (R10 * e0 + R12 * e2) + R11 * e1,
        (R20 * e0 + R22 * e2) + R21 * e1,
    )


def _rk4_row(rates, x: list, dt: float, k1=None) -> list:
    """`rk4_step` of one state of 13 Python floats, where `rates(y)` gives
    the 13 rates at y and k1 = rates(x) if known: the same operations in
    the same order, so the same bits, without numpy's per-call cost.  The
    quaternion norm adds the squares in sequence, as `rk4_step` does."""
    h = 0.5 * dt
    k1 = rates(x) if k1 is None else k1
    k2 = rates([a + h * k for a, k in zip(x, k1)])
    k3 = rates([a + h * k for a, k in zip(x, k2)])
    k4 = rates([a + dt * k for a, k in zip(x, k3)])
    c = dt / 6.0
    xn = [a + c * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    q = xn[6:10]
    n = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    xn[6:10] = [v / n for v in q]
    return xn


def _ground_angles(qw, qx, qy, qz):
    """Pitch theta and heading psi of a roll-free attitude.  The pitch sine
    is clamped by min/max: np.clip's bits without its Python wrapper."""
    theta = np.arcsin(np.minimum(np.maximum(2.0 * (qw * qy - qz * qx), -1.0), 1.0))
    psi = np.arctan2(2.0 * (qw * qz + qx * qy), 1.0 - 2.0 * (qy * qy + qz * qz))
    return theta, psi


def ground_contact(TBy, TBz, a_l, tau_x, cth, sth, u_long, P: VehicleParams, w_lat=None):
    """Two-wheel ground reaction to the body thrust (0, TBy, TBz) and roll
    torque tau_x at lateral acceleration a_l, pitch cosine/sine (cth, sth)
    and speed u_long along the heading (rolling friction opposes it outside
    the SPEED_EPS dead band), broadcasting over leading axes.  Given the
    lateral speed w_lat the wheels slide: the lateral friction saturates at
    mu_s F_n against the sliding direction.  Returns (F_n, f_l_req, f_r,
    f_l, F_nl, F_nr, lift_off, G2, G3): the total normal force, the no-slip
    lateral force, rolling and lateral friction, the raw wheel normals
    (lift_off flags a negative one) and the pitch/yaw ground torques.  A
    lifted wheel carries no rolling friction: G3 clamps the normals at zero.
    The terms that do not depend on the speeds are `sticking_contact`'s.
    """
    F_n, f_l_req, F_nl, F_nr, G2 = sticking_contact(TBy, TBz, a_l, tau_x, cth, sth, P)
    # 0 inside the dead band (+0.0 turns the -0.0 of a negative speed into 0.0)
    sgn_u = np.sign(u_long) * (np.abs(u_long) >= SPEED_EPS) + 0.0
    f_r = -P.mu * F_n * sgn_u
    f_l = f_l_req
    if w_lat is not None:
        cap = P.mu_s * F_n
        slip_dir = np.where(np.abs(w_lat) > LATERAL_STICK_EPS, np.sign(w_lat), -np.sign(f_l_req))
        f_l = -cap * slip_dir
        F_nl, F_nr = wheel_split(F_n, f_l, tau_x, cth, P)

    lift = (F_nl < 0.0) | (F_nr < 0.0)
    f_rl = -P.mu * np.maximum(F_nl, 0.0) * sgn_u
    f_rr = -P.mu * np.maximum(F_nr, 0.0) * sgn_u
    G3 = (f_rr - f_rl) * P.W
    return F_n, f_l_req, f_r, f_l, F_nl, F_nr, lift, G2, G3


def sticking_contact(TBy, TBz, a_l, tau_x, cth, sth, P: VehicleParams):
    """The sticking part of `ground_contact`, in plain arithmetic, so that
    Python floats stay Python floats: (F_n, f_l_req, F_nl, F_nr, G2), the
    total normal force m g - TBz cos(theta), the no-slip lateral force
    m a_l - TBy, the wheel normals under that force and the gravity pitch
    torque.  The flatness inverse reads its contact from here."""
    F_n = P.m * P.g - TBz * cth
    f_l_req = P.m * a_l - TBy
    F_nl, F_nr = wheel_split(F_n, f_l_req, tau_x, cth, P)
    G2 = (P.m - 2.0 * P.m_w) * P.h2 * P.g * sth
    return F_n, f_l_req, F_nl, F_nr, G2


def wheel_split(F_n, f_l, tau_x, cth, P: VehicleParams):
    """Left/right wheel normals: the even split of F_n corrected by the roll
    moments of the lateral force f_l and the body roll torque tau_x."""
    half = 0.5 * F_n
    split = (f_l * P.r + tau_x * cth) / P.W
    return half - split, half + split


def heading_inertia(sth, cth, J: np.ndarray):
    """Entries N13, N33 of the diagonal body inertia J seen in the heading
    frame of a roll-free attitude with pitch cosine/sine (cth, sth)."""
    J1, _, J3 = J
    return sth * cth * (J3 - J1), J1 * sth * sth + J3 * cth * cth


def slip_check(f_l, F_n, params: VehicleParams) -> bool:
    """Stick if |f_l| <= mu_s F_n (closed inequality)."""
    return abs(f_l) <= params.mu_s * F_n


def _ground_rates(x, wrench, P: VehicleParams, slipping: bool):
    """The 13 components of the constrained ground f(x, u) from those of x
    and the `_wrench_terms` of u, and the contact `diag`: the forces used
    for logging, constraints and the stick/slip decision."""
    _, _, _, vx, vy, vz, qw, qx, qy, qz, ox, oy, psi_dot = x
    TBy, TBz, tau_x, tau_y, tau_z = wrench
    theta, psi = _ground_angles(qw, qx, qy, qz)
    cpsi, spsi = np.cos(psi), np.sin(psi)
    cth, sth = np.cos(theta), np.sin(theta)
    theta_dot = -ox * spsi + oy * cpsi

    u_long = vx * cpsi + vy * spsi
    w_lat = -vx * spsi + vy * cpsi
    a_l = np.hypot(vx, vy) * psi_dot
    F_n, f_l_req, f_r, f_l, F_nl, F_nr, lift, G2, G3 = ground_contact(
        TBy, TBz, a_l, tau_x, cth, sth, u_long, P, w_lat=w_lat if slipping else None,
    )

    # pitch/yaw rows of the torque balance in the heading frame
    N13, N33 = heading_inertia(sth, cth, P.J)
    theta_dd = (tau_y + G2 - N13 * psi_dot * psi_dot) / P.J[1]
    psi_dd = (-sth * tau_x + cth * tau_z + G3 + 2.0 * N13 * theta_dot * psi_dot) / N33

    acc_long = (TBz * sth + f_r) / P.m
    acc_lat = (TBy + f_l) / P.m
    tp = theta_dot * psi_dot
    rates = (
        vx, vy, vz,
        acc_long * cpsi - acc_lat * spsi, acc_long * spsi + acc_lat * cpsi, 0.0,
        *quat_rate(qw, qx, qy, qz, ox, oy, psi_dot),
        -theta_dd * spsi - tp * cpsi, theta_dd * cpsi - tp * spsi, psi_dd,
    )
    diag = {"F_n": F_n, "F_nl": F_nl, "F_nr": F_nr, "f_l": f_l, "f_l_req": f_l_req,
            "w_lat": w_lat, "lift_off": lift}
    return rates, diag


def _project_ground(x: np.ndarray, keep_lateral: bool) -> np.ndarray:
    """Re-impose the ground constraints (in place) on component rows
    (13, ...) or one 13-vector: zero roll, angular rate orthogonal to the
    heading axis, zero vertical speed and (while sticking) zero lateral
    speed."""
    _, _, _, vx, vy, _, qw, qx, qy, qz, ox, oy, _ = x
    theta, psi = _ground_angles(qw, qx, qy, qz)
    cpsi, spsi = np.cos(psi), np.sin(psi)
    ct, st = np.cos(0.5 * theta), np.sin(0.5 * theta)
    cp, sp = np.cos(0.5 * psi), np.sin(0.5 * psi)
    qn = (cp * ct, -sp * st, cp * st, sp * ct)
    # atan2 wraps psi: stay on the same quaternion cover sheet as before
    flip = ((qn[0] * qw + qn[1] * qx) + qn[2] * qy) + qn[3] * qz < 0.0
    for i, c in enumerate(qn):
        x[6 + i] = np.where(flip, -c, c)
    proj = ox * cpsi + oy * spsi
    x[10] = ox - proj * cpsi
    x[11] = oy - proj * spsi
    x[5] = 0.0
    if not keep_lateral:
        u_long = vx * cpsi + vy * spsi
        x[3] = u_long * cpsi
        x[4] = u_long * spsi
    return x


def rk4_step(
    x: np.ndarray,
    u: np.ndarray,
    mode: Mode,
    dt: float,
    P: VehicleParams,
    k1: Optional[tuple] = None,
    wrench: Optional[tuple] = None,
) -> np.ndarray:
    """One fixed-step RK4 integration of a batch of packed states (..., 13),
    with quaternion renormalization and, in ground mode, re-projection of
    the sticking contact constraints.  A batch step always sticks; only the
    simulator slides, stepping its one state with `_rk4_row`.

    The stages run on component rows (13, ...) with the input's wrench
    computed once, and the result is transposed back once.

    k1 is the 13 rates at (x, u) on those component rows when the caller
    already has them: a caller that reads the ground contact gets them from
    the same `_ground_rates` call, and the step then evaluates only stages
    2 to 4.  Without it the step evaluates k1 itself.  Such a caller
    passes the `_wrench_terms` of u on component rows (4, ...) that k1 was
    evaluated with too, and the step does not compute them again.
    """
    xt = np.ascontiguousarray(x.T)
    if wrench is None:
        wrench = _wrench_terms(np.ascontiguousarray(u.T), P, np)

    def stack(rates):
        k = np.empty(xt.shape)
        for i, c in enumerate(rates):
            k[i] = c
        return k

    def f(y):
        if mode is Mode.AERIAL:
            return stack(_aerial_rates(y, wrench, P, P.J, P.J_inv))
        return stack(_ground_rates(y, wrench, P, False)[0])

    k1 = f(xt) if k1 is None else stack(k1)
    k2 = f(xt + 0.5 * dt * k1)
    k3 = f(xt + 0.5 * dt * k2)
    k4 = f(xt + dt * k3)
    yt = xt + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # the squares summed in sequence, as np.linalg.norm does on a length-4 axis
    qw, qx, qy, qz = yt[6:10]
    yt[6:10] /= np.sqrt(((qw * qw + qx * qx) + qy * qy) + qz * qz)
    if mode is Mode.GROUND:
        _project_ground(yt, keep_lateral=False)
    return np.ascontiguousarray(yt.T)


# ---------------------------------------------------------------------------
# Typed API
# ---------------------------------------------------------------------------


def actuator_wrench(u: ControlInput, params: VehicleParams) -> BodyWrench:
    """Body-frame thrust and torque produced by the rotors and servos."""
    u.validate(params)
    TBy, TBz, tx, ty, tz = _wrench_terms(u.as_array(), params, np)
    return BodyWrench(
        T_B=np.array([0.0, float(TBy), float(TBz)]),
        tau_B=np.array([float(tx), float(ty), float(tz)]),
    )


def derivative(
    state: RobotState, u: ControlInput, mode: Mode, params: VehicleParams
) -> StateDerivative:
    """Continuous-time state derivative f(x, u) for the given mode."""
    x = state.as_array()
    wrench = _wrench_terms(u.as_array(), params, np)
    if mode is Mode.GROUND:
        rates, diag = _ground_rates(x, wrench, params, False)
        if diag["F_n"] <= 0.0:
            raise ContactLossError(
                f"total normal force {float(diag['F_n']):.6f} N <= 0 in ground mode"
            )
    else:
        rates = _aerial_rates(x, wrench, params, params.J, params.J_inv)
    xdot = np.array(rates)
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
    record array that `reserve` sizes once (as `control_loop` and
    `run_open_loop` do with their planned steps) and `apply` otherwise grows
    by doubling.  A view read from `log` keeps its values when the array
    grows.

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

    def reserve(self, steps: int) -> None:
        """Make room for `steps` log records in all; a smaller count changes
        nothing.  The new records are not initialised, so a run that ends
        early never touches the reserved tail."""
        if steps > len(self._log):
            grown = np.recarray(steps, dtype=SIMLOG_DTYPE)
            if self._n:  # a structured copy costs ~17 us even of no records
                grown[:self._n] = self._log[:self._n]
            self._log = grown

    def _try_touchdown(self, x: np.ndarray, wrench) -> None:
        r = self.params.r
        if x[2] > r + self.TOUCHDOWN_TOL or x[5] > 0.0:
            return
        # grazing contact with thrust above the weight cannot load the
        # wheels; stay aerial until F_n would be non-negative
        _, diag = _ground_rates(x.tolist(), wrench, self.params, slipping=False)
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
        the sim rate: `_rk4_row` steps the state as Python floats, with the
        input's `math` wrench computed once for the call, and the divergence
        test reads the stepped (in ground mode, projected) state's floats."""
        ua = np.asarray(u, dtype=float)
        P = self.params
        power = rotor_power(ua, P)
        wrench = _wrench_terms(ua.tolist(), P, math)
        J, J_inv = P.J.tolist(), P.J_inv.tolist()

        def aerial(y):
            return _aerial_rates(y, wrench, P, J, J_inv)

        def ground(y):
            return _ground_rates(y, wrench, P, self.slipping)[0]
        steps = max(1, round(duration / self.dt))
        if self._n + steps > len(self._log):
            self.reserve(max(self._n + steps, 2 * len(self._log)))
        for _ in range(steps):
            x = self.x.copy()
            if self.mode is Mode.AERIAL:
                self._try_touchdown(x, wrench)
            F_nl = F_nr = f_l = 0.0
            lift = False
            if self.mode is Mode.GROUND:
                # the contact that decides lift-off and stick/slip is also
                # RK4's k1, unless the decision changes the state or regime
                k1, diag = _ground_rates(x.tolist(), wrench, P, self.slipping)
                F_n = float(diag["F_n"])
                if F_n < 0.0:
                    self.mode = Mode.AERIAL
                    self.slipping = False
                else:
                    stick = slip_check(float(diag["f_l_req"]), F_n, P)
                    if self.slip_enabled and not self.slipping and not stick:
                        self.slipping = True
                        k1, diag = _ground_rates(x.tolist(), wrench, P, True)
                    elif (self.slip_enabled and self.slipping and stick
                          and abs(float(diag["w_lat"])) < LATERAL_STICK_EPS):
                        self.slipping = False
                        _project_ground(x, keep_lateral=False)
                        k1, diag = _ground_rates(x.tolist(), wrench, P, False)
                    F_nl = max(float(diag["F_nl"]), 0.0)
                    F_nr = max(float(diag["F_nr"]), 0.0)
                    f_l = float(diag["f_l"])
                    lift = bool(diag["lift_off"])
                    self.lift_off_events += lift
                    self.slip_steps += self.slipping
            self._log[self._n] = (self.t, x, ua, F_nl, F_nr, f_l, self.slipping, lift, power)
            self._n += 1
            if self.mode is Mode.AERIAL:
                values = _rk4_row(aerial, x.tolist(), self.dt)
                xn = np.array(values)
            else:
                xn = np.array(_rk4_row(ground, x.tolist(), self.dt, k1))
                _project_ground(xn, keep_lateral=self.slipping)
                values = xn.tolist()
            # on the state's floats; NaN and infinities fail the comparison too
            if not all([abs(v) <= DIVERGENCE_LIMIT for v in values]):
                raise DivergenceError(
                    f"simulation diverged at t={self.t:.4f}s (mode {self.mode.name})"
                )
            # a second, scalar normalisation of q: the logged bits depend on it
            xn[6:10] = quat_normalize(xn[6:10])
            self.x = xn
            self.t += self.dt
