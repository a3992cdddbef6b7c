"""Receding-horizon tracking controller.

One real-time-iteration SQP pass per control cycle: linearize the
RK4-discretized bi-modal model along the warm-started guess trajectory
(multiple shooting, forward finite differences, defect terms in the
condensation), condense the horizon into a dense QP in the input
corrections, and solve it with a primal active-set method whose steps are
range-space steps: the Hessian is Cholesky-factored once per tick, the
Schur complement of the working set is kept factored as rows enter and
leave, and each step is refined once against the full KKT residual.  The
cost penalizes deviations from the flatness references,

    sum_{k=0..K} xerr(k)' Q xerr(k)  +  sum_{k<K} uerr(k)' Q_u uerr(k),

with no terminal weight beyond the last stage's Q, and with the attitude
error taken as the component difference of hemisphere-aligned
quaternions.  Input boxes are hard constraints; the ground-contact
wheel-normal constraints  s(k) F_n_{left,right}(k) >= 0  enter linearized
and L1-softened so a transiently infeasible QP degrades gracefully instead
of failing.  The per-step ground/aerial switch follows the reference mode
annotations, never the predicted altitude.

The solver is deterministic: fixed pivot tie-breaking, no randomization.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import Mode, VehicleParams, quat_multiply, require_integer
from .dynamics import DIVERGENCE_LIMIT, Simulator, _f_ground_batch, rk4_step
from .flatness import ReferencePoint
from .trajectory import HybridTrajectory, ReferenceTable

FD_STEP = 1e-6

# consecutive degraded ticks a closed loop tolerates before it aborts
MAX_DEGRADED = 10


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
        for name in ("K", "max_qp_iter"):
            require_integer(getattr(self, name), name, 1)
        # slack_reg > 0 keeps the QP Hessian positive definite, and
        # slack_penalty > 0 makes every softened newton cost something
        for name in ("dt", "kkt_tol", "slack_reg", "slack_penalty"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not value > 0:
                raise ValueError(f"{name} must be a positive number, got {value!r}")
        for name, size in (("q_p", 3), ("q_v", 3), ("q_q", 4), ("q_w", 3), ("q_u", 4)):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (size,):
                raise ValueError(f"{name} must be {size} weights, got shape {arr.shape}")
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

    @classmethod
    def degraded(cls, u_bar: np.ndarray, x_bar: np.ndarray, qp_iters: int = 0) -> "OcpSolution":
        """The linearization guess, for a tick whose QP was not built or solved."""
        return cls(
            u_seq=u_bar, x_pred=x_bar, slacks=np.zeros(0),
            status="degraded", cost=math.inf, kkt_residual=math.inf, qp_iters=qp_iters,
        )


@dataclass
class WarmStart:
    """Shifted guess trajectory for the next RTI pass (multiple shooting:
    the states are linearization points, not a fresh rollout, so unstable
    internal dynamics do not amplify along the horizon)."""

    u_seq: np.ndarray  # (K, 4)
    x_seq: np.ndarray  # (K+1, 13)


def discretize(x: np.ndarray, u: np.ndarray, mode: Mode, dt: float, params: VehicleParams):
    """One RK4 step of the packed state plus Jacobians d(x+)/dx, d(x+)/du
    by forward finite differences (a one-step horizon linearization)."""
    x_next, A, B, _ = _linearize_horizon(np.atleast_2d(x), np.atleast_2d(u), [mode], dt, params)
    return x_next[0], A[0], B[0]


def _linearize_horizon(x_bar, u_bar, modes, dt, params):
    """Vectorized linearization of the whole horizon: since the points
    (x_bar_k, u_bar_k) are given, the K finite-difference batches fuse into
    one array-core call per mode group.

    Returns x_next (K,13), A (K,13,13), B (K,13,4) and, for ground steps,
    per-step wheel-normal values and gradients, read off the contact
    evaluation that is also the batch's RK4 k1.
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
        k1 = None
        if mode is Mode.GROUND:
            k1, diag = _f_ground_batch(xm, um, params)
            Fl = diag["F_nl"].reshape(len(idx), nb)
            Fr = diag["F_nr"].reshape(len(idx), nb)
            for j, k in enumerate(idx):
                normals[k] = (Fl[j], Fr[j])
        out = rk4_step(xm, um, mode, dt, params, k1=k1).reshape(len(idx), nb, n)
        for j, k in enumerate(idx):
            x_next[k] = out[j, 0]
            A[k] = (out[j, 1 : 1 + n] - out[j, 0]).T / FD_STEP
            B[k] = (out[j, 1 + n :] - out[j, 0]).T / FD_STEP
    return x_next, A, B, normals


# ---------------------------------------------------------------------------
# Dense primal active-set QP
# ---------------------------------------------------------------------------


class QpError(RuntimeError):
    """The active-set QP failed: H is not positive definite (`iters` is 0)
    or the method did not converge (`iters` is `max_iter`)."""

    def __init__(self, message: str, iters: int):
        super().__init__(message)
        self.iters = iters


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by 2x2 block recursion:
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]].  numpy has no
    triangular inverse; on the condensed Hessian's factor (n of 80 to 110)
    this takes about a third of the flops of the general `inv`."""
    n = L.shape[0]
    if n <= 32:
        return np.linalg.inv(L)
    h = n // 2
    out = np.zeros((n, n))
    A = out[:h, :h] = _lower_inverse(L[:h, :h])
    C = out[h:, h:] = _lower_inverse(L[h:, h:])
    out[h:, :h] = -(C @ (L[h:, :h] @ A))
    return out


class _WorkingSetFactor:
    """Range-space factors of an active-set working set.

    H = L L' is factored once.  The working rows Aw enter as the columns of
    V = L^-1 Aw', held as V = Q R with orthonormal Q and upper-triangular
    R, so R is the Cholesky factor of the Schur complement S = V'V without
    S ever being formed (that would square the condition number of V).
    A row entering costs a Gram-Schmidt step, a row leaving a QR of the
    trailing block of R; a step then costs matrix-vector products only.
    """

    def __init__(self, H: np.ndarray, Aw: np.ndarray):
        try:
            self.Linv = _lower_inverse(np.linalg.cholesky(H))
        except np.linalg.LinAlgError as exc:
            raise QpError(f"QP Hessian is not positive definite ({exc})", 0) from exc
        self.H = H
        self.Q = np.zeros((H.shape[0], 0))
        self.R = self.Rinv = np.zeros((0, 0))
        if Aw.shape[0]:
            self.Q, self.R = np.linalg.qr(self.Linv @ Aw.T)
            self.Rinv = _lower_inverse(self.R.T).T

    def add(self, a: np.ndarray) -> None:
        v = self.Linv @ a
        c = self.Q.T @ v
        q = v - self.Q @ c
        c2 = self.Q.T @ q  # orthogonalize twice: Q stays orthonormal to rounding
        q -= self.Q @ c2
        c += c2
        rho = float(np.linalg.norm(q))
        nw = len(c)
        self.Q = np.column_stack([self.Q, q / rho])
        R = np.zeros((nw + 1, nw + 1))
        R[:nw, :nw] = self.R
        R[:nw, nw] = c
        R[nw, nw] = rho
        Rinv = np.zeros_like(R)
        Rinv[:nw, :nw] = self.Rinv
        Rinv[:nw, nw] = -(self.Rinv @ c) / rho
        Rinv[nw, nw] = 1.0 / rho
        self.R, self.Rinv = R, Rinv

    def drop(self, j: int) -> None:
        # without column j, R is upper Hessenberg from column j on; rotate
        # its trailing block back to triangular, and Q's columns with it
        G, T = np.linalg.qr(self.R[j:, j + 1 :], mode="complete")
        self.Q = np.column_stack([self.Q[:, :j], (self.Q[:, j:] @ G)[:, :-1]])
        R = np.delete(self.R, j, axis=1)[:-1]
        R[j:, j:] = T = T[:-1]
        # the leading block of R^-1 is the inverse of R's leading block
        Rinv = np.zeros_like(R)
        Rinv[:j, :j] = self.Rinv[:j, :j]
        Rinv[j:, j:] = Tinv = _lower_inverse(T.T).T
        Rinv[:j, j:] = -(self.Rinv[:j, :j] @ (R[:j, j:] @ Tinv))
        self.R, self.Rinv = R, Rinv

    def step(self, grad: np.ndarray, Aw: np.ndarray):
        """(p, lam) of H p + Aw' lam = -grad, Aw p = 0, refined once against
        the full KKT residual (the condensed Hessians have condition
        numbers near 1e7)."""
        Linv, Q, Rinv = self.Linv, self.Q, self.Rinv
        w = Linv @ grad
        if not Aw.shape[0]:
            p = -(Linv.T @ w)
            return p + Linv.T @ (Linv @ (-grad - self.H @ p)), np.zeros(0)
        c = Q.T @ w
        lam = -(Rinv @ c)
        p = -(Linv.T @ (w - Q @ c))
        # refinement: the same system with right-hand side the residuals
        # (-grad - H p - Aw' lam, -Aw p)
        r = Linv @ (-grad - self.H @ p - Aw.T @ lam)
        s = Rinv.T @ -(Aw @ p)
        c = Q.T @ r - s
        return p + Linv.T @ (r - Q @ c), lam + Rinv @ c


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

    Range-space steps (see `_WorkingSetFactor`): H is factored once per
    call, and QpError is raised if it is not positive definite.
    """
    z = z0.copy()
    work: List[int] = list(range(n_eq))
    if active0:
        work.extend(i for i in active0 if i >= n_eq)
    n_rows = A_in.shape[0]
    factor = _WorkingSetFactor(H, A_in[work])

    for it in range(1, max_iter + 1):
        p, lam = factor.step(g + H @ z, A_in[work])

        if np.max(np.abs(p)) < tol * (1.0 + np.max(np.abs(z))):
            # multipliers: inequality rows need lambda >= 0
            if len(work) > n_eq:
                ineq_lam = lam[n_eq:]
                worst = int(np.argmin(ineq_lam))
                if ineq_lam[worst] < -tol:
                    work.pop(n_eq + worst)
                    factor.drop(n_eq + worst)
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
            factor.add(A_in[block])
    raise QpError(f"active-set QP did not converge in {max_iter} iterations", max_iter)


# ---------------------------------------------------------------------------
# RTI solve
# ---------------------------------------------------------------------------


def _constraint_rows(u_bar, lo, hi, normals, S, c, cfg: NmpcConfig):
    """Rows A_in z <= b_in on z = [du (K*m), slacks], in the order `solve`
    documents, with a feasible start z0 and the working-set seed active0.
    Returns (A_in, b_in, z0, active0, n_eq)."""
    K, m = u_bar.shape
    n = S.shape[1]
    nz = K * m
    n_eq = K if cfg.lock_lateral else 0
    # NaN normals stay in, as they are not above the margin
    soft = [(k, Fv) for k, pair in normals.items() for Fv in pair
            if not Fv[0] > cfg.constraint_margin]
    n_soft = len(soft)
    dim = nz + n_soft
    r_soft = n_eq + 2 * nz
    A_in = np.zeros((r_soft + 2 * n_soft, dim))
    b_in = np.zeros(A_in.shape[0])
    z0 = np.zeros(dim)

    if n_eq:
        k = np.arange(K)
        lat = u_bar[:, 2] + u_bar[:, 3]
        A_in[k, k * m + 2] = 1.0
        A_in[k, k * m + 3] = 1.0
        b_in[:K] = -lat
        # start on the equality manifold: symmetric tilt correction
        z0[k * m + 2] = z0[k * m + 3] = -lat / 2.0

    box = A_in[n_eq:r_soft, :nz]
    box[0::2] = np.eye(nz)
    box[1::2] = -np.eye(nz)
    b_in[n_eq:r_soft:2] = (hi - u_bar).reshape(-1)
    b_in[n_eq + 1:r_soft:2] = (u_bar - lo).reshape(-1)

    # linearized wheel-normal constraints on ground steps, L1-softened
    active0 = []
    for i, (k, Fv) in enumerate(soft):
        val = Fv[0]
        gx = (Fv[1 : 1 + n] - val) / FD_STEP
        gu = (Fv[1 + n :] - val) / FD_STEP
        row = -(gx @ S[k])
        row[k * m : (k + 1) * m] -= gu
        r = r_soft + 2 * i
        A_in[r, :nz] = row
        A_in[r : r + 2, nz + i] = -1.0
        b_in[r] = val + gx @ c[k]
        z0[nz + i] = max(0.0, float(row @ z0[:nz]) - b_in[r])
        if z0[nz + i] == 0.0:
            # slack sits on its bound: seed the working set
            active0.append(r + 1)
    return A_in, b_in, z0, active0, n_eq


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

    QP rows on z = [du (K*m), slacks]: first the K `lock_lateral`
    equalities (if set); then the boxes, row n_eq + 2i being +e_i <= hi - u
    and row n_eq + 2i + 1 being -e_i <= u - lo; then, per wheel-normal row s
    with a nominal normal within `constraint_margin`, the pair
    [row, -e_s] <= b and [0, -e_s] <= 0.
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
    x_next, A, B, normals = _linearize_horizon(x_bar, u_bar, modes, cfg.dt, params)
    d = x_next - x_bar[1:]
    if not (np.all(np.isfinite(x_next)) and np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        return OcpSolution.degraded(u_bar, x_bar)

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
        return OcpSolution.degraded(u_bar, x_bar)

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

    A_in, b_in, z0, active0, n_eq = _constraint_rows(u_bar, lo, hi, normals, S, c, cfg)
    dim = A_in.shape[1]
    n_soft = dim - nz
    Hfull = np.zeros((dim, dim))
    Hfull[:nz, :nz] = H
    Hfull[nz:, nz:] = cfg.slack_reg * np.eye(n_soft)
    gfull = np.concatenate([gvec, cfg.slack_penalty * np.ones(n_soft)])

    try:
        z, work, lam, iters = solve_qp(
            Hfull, gfull, A_in, b_in, z0, n_eq=n_eq, active0=active0,
            tol=cfg.kkt_tol, max_iter=cfg.max_qp_iter,
        )
    except QpError as exc:
        return OcpSolution.degraded(u_bar, x_bar, qp_iters=exc.iters)
    resid = Hfull @ z + gfull
    if work:
        resid += A_in[work].T @ lam
    kkt = float(np.max(np.abs(resid)))

    du = z[:nz].reshape(K, m)
    slacks = z[nz:]
    u_seq = np.clip(u_bar + du, lo, hi)
    status = "relaxed" if n_soft and float(np.max(slacks)) > 1e-6 else "optimal"

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
                out[6:10] = quat_multiply(dq, out[6:10])
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
    qp_iters: int
    kkt_residual: float


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


def check_loop_rates(sim_dt: float, control_rate: float) -> None:
    """Raise ValueError unless the plant step divides the control period."""
    if not (sim_dt > 0.0 and control_rate > 0.0):
        raise ValueError("loop rates must be positive")
    dt_ctrl = 1.0 / control_rate
    if abs(round(dt_ctrl / sim_dt) * sim_dt - dt_ctrl) > 1e-12:
        raise ValueError("simulation rate must be an integer multiple of the control rate")


def control_loop(
    sim: Simulator,
    traj: HybridTrajectory,
    cfg: NmpcConfig,
    params: VehicleParams,
    duration: float,
    control_rate: float = 200.0,
    noise: Optional[NoiseModel] = None,
    rng: Optional[np.random.Generator] = None,
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
    check_loop_rates(sim.dt, control_rate)
    dt_ctrl = 1.0 / control_rate
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
        x_meas = noise.apply(sim.x, rng)
        t0 = time.perf_counter()
        sol = solve(x_meas, refs, cfg, params, warm_start=warm)
        solve_us = (time.perf_counter() - t0) * 1e6
        if sol.status == "degraded":
            degraded_run += 1
            if degraded_run > MAX_DEGRADED:
                return RunLog(
                    ticks, sim, aborted=True,
                    abort_reason=f"solver degraded for {degraded_run} consecutive ticks",
                )
            warm = None  # cold restart from the references next tick
        else:
            degraded_run = 0
            warm = shift_warm_start(sol)
        sim.apply(sol.u_seq[0], dt_ctrl)
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
            qp_iters=sol.qp_iters,
            kkt_residual=sol.kkt_residual,
        )
        ticks.append(tick)
        if stop_when is not None and stop_when(tick):
            return RunLog(ticks, sim, aborted=True, abort_reason="stop condition met")
    return RunLog(ticks, sim)
