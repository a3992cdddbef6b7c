"""Receding-horizon tracking controller.

One real-time-iteration SQP pass per control cycle: linearize the
RK4-discretized bi-modal model along the warm-started guess trajectory
(multiple shooting, forward finite differences, defect terms in the
condensation), condense the horizon into a dense QP in the input
corrections, and solve it with a primal active-set method.  The cost
penalizes deviations from the flatness references,

    sum_k  xerr(k)' Q xerr(k) + uerr(k)' Q_u uerr(k)  +  terminal term,

with the attitude error taken as the component difference of hemisphere-
aligned quaternions.  Input boxes are hard constraints; the ground-contact
wheel-normal constraints  s(k) F_n_{left,right}(k) >= 0  enter linearized
and L1-softened so a transiently infeasible QP degrades gracefully instead
of failing.  The per-step ground/aerial switch follows the reference mode
annotations, never the predicted altitude.

The solver is deterministic: fixed pivot tie-breaking, no randomization.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import ControlInput, Mode, VehicleParams
from .dynamics import (
    DIVERGENCE_LIMIT,
    Simulator,
    rk4_step,
    wheel_normals_batch,
)
from .flatness import ReferencePoint
from .trajectory import HybridTrajectory, ReferenceTable

FD_STEP = 1e-6


@dataclass
class NmpcConfig:
    """Horizon, weights and solver knobs (defaults: 20 steps of 50 ms,
    tracking gains of the reference vehicle)."""

    K: int = 20
    dt: float = 0.05
    q_p: np.ndarray = field(default_factory=lambda: np.array([1000.0, 1000.0, 500.0]))
    q_v: np.ndarray = field(default_factory=lambda: np.array([100.0, 100.0, 100.0]))
    q_q: np.ndarray = field(default_factory=lambda: np.array([200.0, 200.0, 200.0, 200.0]))
    q_w: np.ndarray = field(default_factory=lambda: np.array([10.0, 10.0, 10.0]))
    q_u: np.ndarray = field(default_factory=lambda: np.array([10.0, 1.0, 1.0, 1.0]))
    u_min: Optional[np.ndarray] = None
    u_max: Optional[np.ndarray] = None
    kkt_tol: float = 1e-8
    max_qp_iter: int = 200
    slack_penalty: float = 1e5
    slack_reg: float = 1e-3
    # wheel-normal rows enter the QP only when the nominal margin is below
    # this many newtons (distant constraints cannot activate within one
    # correction; the receding horizon re-screens every tick)
    constraint_margin: float = 1.5
    lock_lateral: bool = False  # force delta1 + delta2 = 0 (no net side thrust)

    def __post_init__(self):
        if self.K < 1 or self.dt <= 0:
            raise ValueError("K must be >= 1 and dt positive")
        for name in ("q_p", "q_v", "q_q", "q_w", "q_u"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if np.any(arr < 0):
                raise ValueError(f"{name} must be non-negative")
            setattr(self, name, arr)

    def state_weights(self) -> np.ndarray:
        return np.concatenate([self.q_p, self.q_v, self.q_q, self.q_w])

    def bounds(self, params: VehicleParams) -> Tuple[np.ndarray, np.ndarray]:
        lo = self.u_min if self.u_min is not None else np.array(
            [0.0, 0.0, -params.delta_max, -params.delta_max]
        )
        hi = self.u_max if self.u_max is not None else np.array(
            [params.T_max, params.T_max, params.delta_max, params.delta_max]
        )
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if np.any(lo >= hi):
            raise ValueError("u_min must be componentwise below u_max")
        return lo, hi


@dataclass
class OcpSolution:
    u_seq: np.ndarray  # (K, 4)
    x_pred: np.ndarray  # (K+1, 13), the optimizer's predicted trajectory
    slacks: np.ndarray
    status: str  # optimal | relaxed | degraded
    cost: float
    kkt_residual: float
    qp_iters: int

    @property
    def u0(self) -> ControlInput:
        return ControlInput.from_array(self.u_seq[0])


@dataclass
class WarmStart:
    """Shifted guess trajectory for the next RTI pass (multiple shooting:
    the states are linearization points, not a fresh rollout, so unstable
    internal dynamics do not amplify along the horizon)."""

    u_seq: np.ndarray  # (K, 4)
    x_seq: np.ndarray  # (K+1, 13)


def discretize(
    x: np.ndarray,
    u: np.ndarray,
    mode: Mode,
    dt: float,
    params: VehicleParams,
    fd_step: float = FD_STEP,
):
    """One RK4 step of the packed state plus Jacobians d(x+)/dx, d(x+)/du
    by forward finite differences (batched through the array core)."""
    n, m = 13, 4
    xb = np.tile(x, (1 + n + m, 1))
    ub = np.tile(u, (1 + n + m, 1))
    xb[1 : 1 + n] += fd_step * np.eye(n)
    ub[1 + n :] += fd_step * np.eye(m)
    out = rk4_step(xb, ub, mode, dt, params)
    x_next = out[0]
    A = (out[1 : 1 + n] - x_next).T / fd_step
    B = (out[1 + n :] - x_next).T / fd_step
    return x_next, A, B


def _linearize_horizon(x_bar, u_bar, modes, dt, params, need_normals):
    """Vectorized linearization of the whole horizon: since the points
    (x_bar_k, u_bar_k) are given, the K finite-difference batches fuse into
    one array-core call per mode group.

    Returns x_next (K,13), A (K,13,13), B (K,13,4) and, for ground steps
    where `need_normals`, per-step wheel-normal values and gradients.
    """
    K = len(u_bar)
    n, m = 13, 4
    nb = 1 + n + m
    xb = np.repeat(x_bar[:K], nb, axis=0).reshape(K, nb, n)
    ub = np.repeat(u_bar, nb, axis=0).reshape(K, nb, m)
    eye_n = FD_STEP * np.eye(n)
    eye_m = FD_STEP * np.eye(m)
    xb[:, 1 : 1 + n] += eye_n
    ub[:, 1 + n :] += eye_m

    x_next = np.empty((K, n))
    A = np.empty((K, n, n))
    B = np.empty((K, n, m))
    normals = {}
    for mode in (Mode.GROUND, Mode.AERIAL):
        idx = [k for k in range(K) if modes[k] is mode]
        if not idx:
            continue
        xm = xb[idx].reshape(-1, n)
        um = ub[idx].reshape(-1, m)
        if mode is Mode.GROUND and need_normals:
            Fl, Fr = wheel_normals_batch(xm, um, params)
            Fl = Fl.reshape(len(idx), nb)
            Fr = Fr.reshape(len(idx), nb)
            for j, k in enumerate(idx):
                normals[k] = (Fl[j], Fr[j])
        out = rk4_step(xm, um, mode, dt, params).reshape(len(idx), nb, n)
        for j, k in enumerate(idx):
            x_next[k] = out[j, 0]
            A[k] = (out[j, 1 : 1 + n] - out[j, 0]).T / FD_STEP
            B[k] = (out[j, 1 + n :] - out[j, 0]).T / FD_STEP
    return x_next, A, B, normals


# ---------------------------------------------------------------------------
# Dense primal active-set QP
# ---------------------------------------------------------------------------


class QpError(RuntimeError):
    pass


def solve_qp(
    H: np.ndarray,
    g: np.ndarray,
    A_in: np.ndarray,
    b_in: np.ndarray,
    z0: np.ndarray,
    n_eq: int = 0,
    active0: Optional[Sequence[int]] = None,
    tol: float = 1e-9,
    max_iter: int = 200,
):
    """minimize 0.5 z'Hz + g'z  s.t.  A_in z <= b_in.

    The first n_eq rows of A_in are equalities (always active); `active0`
    seeds additional working-set rows that hold with equality at z0.  z0
    must be feasible.  Deterministic pivoting: lowest index wins all ties.
    Returns (z, active_set, lambdas, iters).
    """
    n = H.shape[0]
    z = z0.copy()
    work: List[int] = list(range(n_eq))
    if active0:
        work.extend(i for i in active0 if i >= n_eq)
    n_rows = A_in.shape[0]

    def kkt_solve(Aw, grad):
        nw = Aw.shape[0]
        KKT = np.zeros((n + nw, n + nw))
        KKT[:n, :n] = H
        if nw:
            KKT[:n, n:] = Aw.T
            KKT[n:, :n] = Aw
        rhs = np.concatenate([-grad, np.zeros(nw)])
        try:
            sol = np.linalg.solve(KKT, rhs)
            # one step of iterative refinement for the ill-conditioned
            # condensed Hessian of unstable prediction dynamics
            resid = rhs - KKT @ sol
            sol = sol + np.linalg.solve(KKT, resid)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(KKT, rhs, rcond=None)
        return sol[:n], sol[n:]

    for it in range(1, max_iter + 1):
        Aw = A_in[work] if work else np.zeros((0, n))
        p, lam = kkt_solve(Aw, g + H @ z)

        if np.max(np.abs(p)) < tol * (1.0 + np.max(np.abs(z))):
            # multipliers: inequality rows need lambda >= 0
            if len(work) > n_eq:
                ineq_lam = lam[n_eq:]
                worst = int(np.argmin(ineq_lam))
                if ineq_lam[worst] < -tol:
                    work.pop(n_eq + worst)
                    continue
            return z, work, lam, it
        # step length to the nearest blocking inactive constraint
        alpha = 1.0
        block = -1
        mask = np.ones(n_rows, dtype=bool)
        mask[work] = False
        idx = np.nonzero(mask)[0]
        if idx.size:
            ap = A_in[idx] @ p
            viol = ap > tol
            if np.any(viol):
                cand = idx[viol]
                ratios = (b_in[cand] - A_in[cand] @ z) / ap[viol]
                ratios = np.maximum(ratios, 0.0)
                jmin = int(np.argmin(ratios))
                if ratios[jmin] < alpha:
                    alpha = float(ratios[jmin])
                    block = int(cand[jmin])
        z = z + alpha * p
        if block >= 0 and alpha < 1.0:
            work.append(block)
    raise QpError(f"active-set QP did not converge in {max_iter} iterations")


# ---------------------------------------------------------------------------
# RTI solve
# ---------------------------------------------------------------------------


def _align_quaternion(q_ref: np.ndarray, q_nom: np.ndarray) -> np.ndarray:
    if float(q_ref @ q_nom) < 0.0:
        return -q_ref
    return q_ref


def solve(
    x_current: np.ndarray,
    refs: Sequence[ReferencePoint],
    cfg: NmpcConfig,
    params: VehicleParams,
    warm_start: Optional[WarmStart] = None,
) -> OcpSolution:
    """One real-time-iteration pass; returns the input sequence whose first
    element is applied by the control loop.

    `x_current` is a packed state (13,); `refs` must hold K+1 points.  The
    linearization runs along the warm-start guess trajectory (reference
    states/inputs on a cold start) with defect terms in the condensation,
    so the prediction stays anchored even though the ground pitch axis is
    open-loop unstable.
    """
    K = cfg.K
    if len(refs) != K + 1:
        raise ValueError(f"expected {K + 1} reference points, got {len(refs)}")
    x_current = np.asarray(x_current, dtype=float)
    lo, hi = cfg.bounds(params)

    u_ref = np.stack([r.u_array() for r in refs[:K]])
    x_ref = np.stack([r.x_array() for r in refs])
    if warm_start is None:
        u_bar = u_ref.copy()
        x_bar = x_ref.copy()
    else:
        u_bar = np.asarray(warm_start.u_seq, dtype=float).copy()
        x_bar = np.asarray(warm_start.x_seq, dtype=float).copy()
    u_bar = np.clip(u_bar, lo, hi)
    if not np.all(np.isfinite(x_bar)) or np.any(np.abs(x_bar) > DIVERGENCE_LIMIT):
        x_bar = x_ref.copy()
    modes = [r.mode for r in refs]

    # linearization along the guess, with defects d_k = f(xbar,ubar) - xbar+
    n, m = 13, 4
    x_next, A, B, normals = _linearize_horizon(
        x_bar, u_bar, modes, cfg.dt, params, need_normals=True
    )
    d = x_next - x_bar[1:]
    if not (np.all(np.isfinite(x_next)) and np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        return OcpSolution(
            u_seq=u_bar, x_pred=x_bar, slacks=np.zeros(0),
            status="degraded", cost=math.inf, kkt_residual=math.inf, qp_iters=0,
        )

    # condensation: dx_k = c_k + S_k du, with the known initial deviation
    # and the defects folded into c_k
    dx0 = x_current - x_bar[0]
    if float(x_current[6:10] @ x_bar[0][6:10]) < 0.0:
        dx0 = x_current.copy()
        dx0[6:10] = -dx0[6:10]
        dx0 -= x_bar[0]
    nz = K * m
    S = np.zeros((K + 1, n, nz))
    c = np.zeros((K + 1, n))
    c[0] = dx0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            S[k + 1] = A[k] @ S[k]
            S[k + 1][:, k * m : (k + 1) * m] += B[k]
            c[k + 1] = A[k] @ c[k] + d[k]
    # unstable-mode amplification of an already-hopeless deviation: give up
    # on this linearization rather than build a garbage QP
    if not (np.all(np.isfinite(S)) and np.all(np.isfinite(c))) or np.max(np.abs(c)) > 1e8:
        return OcpSolution(
            u_seq=u_bar, x_pred=x_bar, slacks=np.zeros(0),
            status="degraded", cost=math.inf, kkt_residual=math.inf, qp_iters=0,
        )

    Qx = cfg.state_weights()
    Qu = cfg.q_u
    # stacked residuals: e_k = xbar_k + c_k - xref_k with hemisphere-aligned
    # quaternion components
    E = x_bar + c - x_ref
    flip = np.sum(x_ref[:, 6:10] * x_bar[:, 6:10], axis=1) < 0.0
    if np.any(flip):
        E[flip, 6:10] = x_bar[flip, 6:10] + c[flip, 6:10] + x_ref[flip, 6:10]
    Sall = S.reshape((K + 1) * n, nz)
    Eall = E.reshape(-1)
    Wall = np.tile(Qx, K + 1)
    H = Sall.T @ (Wall[:, None] * Sall)
    gvec = Sall.T @ (Wall * Eall)
    const = float(Eall @ (Wall * Eall))
    du_ref = u_bar - u_ref
    idx = np.arange(nz)
    H[idx, idx] += np.tile(Qu, K)
    gvec += (du_ref * Qu).reshape(-1)
    const += float(np.sum(du_ref * Qu * du_ref))

    # constraint rows (on z = stacked du, then slacks appended)
    rows: List[np.ndarray] = []
    rhs: List[float] = []
    eq_rows: List[np.ndarray] = []
    eq_rhs: List[float] = []
    soft: List[Tuple[np.ndarray, float]] = []

    if cfg.lock_lateral:
        for k in range(K):
            row = np.zeros(nz)
            row[k * m + 2] = 1.0
            row[k * m + 3] = 1.0
            eq_rows.append(row)
            eq_rhs.append(-(u_bar[k, 2] + u_bar[k, 3]))

    for k in range(K):
        for j in range(m):
            row = np.zeros(nz)
            row[k * m + j] = 1.0
            rows.append(row)
            rhs.append(hi[j] - u_bar[k, j])
            rows.append(-row)
            rhs.append(u_bar[k, j] - lo[j])

    # linearized wheel-normal constraints on ground steps, L1-softened;
    # rows with a comfortable nominal margin are screened out
    for k, (Fl, Fr) in normals.items():
        for Fv in (Fl, Fr):
            val = Fv[0]
            if val > cfg.constraint_margin:
                continue
            gx = (Fv[1 : 1 + n] - val) / FD_STEP
            gu = (Fv[1 + n :] - val) / FD_STEP
            row = -(gx @ S[k])
            row[k * m : (k + 1) * m] -= gu
            soft.append((row, float(val + gx @ c[k])))

    n_soft = len(soft)
    dim = nz + n_soft
    Hfull = np.zeros((dim, dim))
    Hfull[:nz, :nz] = H
    Hfull[nz:, nz:] = cfg.slack_reg * np.eye(n_soft)
    gfull = np.concatenate([gvec, cfg.slack_penalty * np.ones(n_soft)])

    A_rows: List[np.ndarray] = []
    b_vals: List[float] = []
    for row, b in zip(eq_rows, eq_rhs):
        A_rows.append(np.concatenate([row, np.zeros(n_soft)]))
        b_vals.append(b)
    n_eq = len(eq_rows)
    for row, b in zip(rows, rhs):
        A_rows.append(np.concatenate([row, np.zeros(n_soft)]))
        b_vals.append(b)
    for i, (row, val) in enumerate(soft):
        ext = np.zeros(n_soft)
        ext[i] = -1.0
        A_rows.append(np.concatenate([row, ext]))
        b_vals.append(val)
        neg = np.zeros(dim)
        neg[nz + i] = -1.0
        A_rows.append(neg)
        b_vals.append(0.0)
    A_in = np.vstack(A_rows) if A_rows else np.zeros((0, dim))
    b_in = np.asarray(b_vals)

    z0 = np.zeros(dim)
    if cfg.lock_lateral and n_eq:
        # start on the equality manifold: symmetric tilt correction
        for k in range(K):
            half = -(u_bar[k, 2] + u_bar[k, 3]) / 2.0
            z0[k * m + 2] = half
            z0[k * m + 3] = half
    active0 = []
    row0 = n_eq + len(rows)
    for i, (row, val) in enumerate(soft):
        z0[nz + i] = max(0.0, float(row @ z0[:nz]) - val)
        if z0[nz + i] == 0.0:
            # slack sits on its bound: seed the working set
            active0.append(row0 + 2 * i + 1)

    status = "optimal"
    try:
        z, work, lam, iters = solve_qp(
            Hfull, gfull, A_in, b_in, z0, n_eq=n_eq, active0=active0,
            tol=cfg.kkt_tol, max_iter=cfg.max_qp_iter,
        )
        kkt = float(
            np.max(
                np.abs(
                    Hfull @ z
                    + gfull
                    + (A_in[work].T @ lam if work else np.zeros(dim))
                )
            )
        )
    except QpError:
        return OcpSolution(
            u_seq=u_bar, x_pred=x_bar, slacks=np.zeros(n_soft),
            status="degraded", cost=math.inf, kkt_residual=math.inf,
            qp_iters=cfg.max_qp_iter,
        )

    du = z[:nz].reshape(K, m)
    slacks = z[nz:]
    u_seq = np.clip(u_bar + du, lo, hi)
    if n_soft and float(np.max(slacks)) > 1e-6:
        status = "relaxed"

    # the optimizer's own (linearized) state prediction; also the next
    # linearization guess after shifting
    zu = z[:nz]
    x_pred = x_bar + c + S @ zu
    x_pred[:, 6:10] /= np.linalg.norm(x_pred[:, 6:10], axis=1, keepdims=True)
    x_pred[0] = x_current

    # Gauss-Newton model cost of the correction (H and g carry half weights)
    cost = float(const + 2.0 * gvec @ zu + zu @ (H @ zu))
    return OcpSolution(
        u_seq=u_seq, x_pred=x_pred, slacks=slacks,
        status=status, cost=cost, kkt_residual=kkt, qp_iters=iters,
    )


def shift_warm_start(prev: OcpSolution) -> WarmStart:
    """Shift the previous solution one step, duplicating the tail entries."""
    u = np.vstack([prev.u_seq[1:], prev.u_seq[-1:]])
    x = np.vstack([prev.x_pred[1:], prev.x_pred[-1:]])
    return WarmStart(u_seq=u, x_seq=x)


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------


@dataclass
class NoiseModel:
    pos_std: float = 0.0
    att_std: float = 0.0

    def apply(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.pos_std == 0.0 and self.att_std == 0.0:
            return x
        out = x.copy()
        out[0:3] += rng.normal(0.0, self.pos_std, 3)
        if self.att_std > 0.0:
            rv = rng.normal(0.0, self.att_std, 3)
            angle = np.linalg.norm(rv)
            if angle > 1e-12:
                axis = rv / angle
                dq = np.concatenate([[math.cos(angle / 2)], math.sin(angle / 2) * axis])
                q = out[6:10]
                w1, x1, y1, z1 = dq
                w2, x2, y2, z2 = q
                out[6:10] = [
                    w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                    w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                    w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                    w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
                ]
        return out


@dataclass
class TickRow:
    t: float
    x_ref: np.ndarray
    x: np.ndarray
    u: np.ndarray
    mode: str
    solve_time_us: float
    qp_status: str
    cost: float
    slack_max: float


@dataclass
class RunLog:
    ticks: List[TickRow]
    sim: Simulator
    aborted: bool = False
    abort_reason: str = ""

    def positions(self) -> Tuple[np.ndarray, np.ndarray]:
        act = np.stack([row.x[0:3] for row in self.ticks])
        ref = np.stack([row.x_ref[0:3] for row in self.ticks])
        return act, ref

    def input_series(self) -> np.ndarray:
        return np.stack([row.u for row in self.ticks])

    def mean_power(self) -> float:
        return float(np.mean([r.power for r in self.sim.log])) if self.sim.log else 0.0


def control_loop(
    sim: Simulator,
    traj: HybridTrajectory,
    cfg: NmpcConfig,
    params: VehicleParams,
    duration: float,
    control_rate: float = 200.0,
    noise: Optional[NoiseModel] = None,
    rng: Optional[np.random.Generator] = None,
    max_degraded: int = 10,
    stop_when=None,
) -> RunLog:
    """Run the tracking loop: sample references, solve, hold u(0) for one
    control period.  The simulator integrates at its own (faster) rate.
    `stop_when(tick)` may end the run early (e.g. a failure threshold).

    Reference times come from the tick counter.  When the horizon step is a
    whole number r of control periods, node k of tick i is control-grid
    point i + r k, so a ReferenceTable transforms each grid point once;
    otherwise the keys (i, k) never repeat and every node is sampled anew.
    """
    dt_ctrl = 1.0 / control_rate
    steps_per_tick = round(dt_ctrl / sim.dt)
    if abs(steps_per_tick * sim.dt - dt_ctrl) > 1e-12:
        raise ValueError("simulation rate must be an integer multiple of the control rate")
    rng = rng or np.random.default_rng(0)
    noise = noise or NoiseModel()
    r = round(cfg.dt / dt_ctrl)
    on_grid = r >= 1 and abs(r * dt_ctrl - cfg.dt) <= 1e-12
    table = ReferenceTable(traj, params, clamp=True)
    t_start = sim.t

    ticks: List[TickRow] = []
    warm: Optional[WarmStart] = None
    degraded_run = 0
    n_ticks = round(duration * control_rate)
    for i in range(n_ticks):
        t = sim.t
        if on_grid:
            nodes = [(j, t_start + j * dt_ctrl) for j in range(i, i + r * cfg.K + 1, r)]
        else:
            t_i = t_start + i * dt_ctrl
            nodes = [((i, k), t_i + k * cfg.dt) for k in range(cfg.K + 1)]
        refs = table.window(nodes)
        x_meas = noise.apply(sim.state.as_array(), rng)
        t0 = time.perf_counter()
        sol = solve(x_meas, refs, cfg, params, warm_start=warm)
        solve_us = (time.perf_counter() - t0) * 1e6
        if sol.status == "degraded":
            degraded_run += 1
            if degraded_run > max_degraded:
                return RunLog(
                    ticks, sim, aborted=True,
                    abort_reason=f"solver degraded for {degraded_run} consecutive ticks",
                )
            warm = None  # cold restart from the references next tick
        else:
            degraded_run = 0
            warm = shift_warm_start(sol)
        u0 = sol.u0
        sim.apply(u0, dt_ctrl)
        tick = TickRow(
            t=t,
            x_ref=refs[0].x_array(),
            x=x_meas,
            u=sol.u_seq[0].copy(),
            mode=refs[0].mode.name,
            solve_time_us=solve_us,
            qp_status=sol.status,
            cost=sol.cost,
            slack_max=float(np.max(sol.slacks)) if sol.slacks.size else 0.0,
        )
        ticks.append(tick)
        if stop_when is not None and stop_when(tick):
            return RunLog(ticks, sim, aborted=True, abort_reason="stop condition met")
    return RunLog(ticks, sim)
