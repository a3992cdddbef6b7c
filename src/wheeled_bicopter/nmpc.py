"""Receding-horizon tracking controller.

One real-time-iteration SQP pass per control cycle: linearize the
RK4-discretized bi-modal model along the warm-started guess trajectory
(multiple shooting, forward finite differences, defect terms in the
condensation), condense the horizon into a dense QP in the input
corrections, and solve it with a primal active-set method whose steps are
range-space steps: the Hessian is Cholesky-factored once per tick, and the
Schur complement of the working set is kept factored as rows enter and
leave, in place in buffers allocated with the first working row.  A
leaving row rotates the factors, and the inverse triangular factor with
them, instead of inverting anew.  Each step is refined once
against the full KKT residual, and the ratio test takes one product of the
constraint matrix with the step.  The cost penalizes deviations from the
flatness references,

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
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (DivergenceError, InfeasibleReferenceError, Mode, SolverFailure, VehicleParams,
                   quat_multiply, require_bool, require_integer, require_real, require_reals)
from .dynamics import DIVERGENCE_LIMIT, Simulator, _ground_rates, _wrench_terms, rk4_step
from .flatness import ReferencePoint
from .trajectory import HybridTrajectory, ReferenceTable


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


FD_STEP = 1e-6
# the scaled identities `_linearize_horizon` adds to its component-row
# batch, zeros included: x + 0.0 is an IEEE operation too (-0.0 becomes +0.0)
_FD_X = _read_only(FD_STEP * np.eye(13)[:, None])
_FD_U = _read_only(FD_STEP * np.eye(4)[:, None])

# consecutive degraded ticks a closed loop tolerates before it aborts
MAX_DEGRADED = 10

# active-set QP: stationarity tolerance and iteration cap
KKT_TOL = 1e-8
MAX_QP_ITER = 200
# L1 price of a softened wheel-normal newton, and the slacks' own weight
# (SLACK_REG > 0 keeps the QP Hessian positive definite)
SLACK_PENALTY = 1e5
SLACK_REG = 1e-3
# wheel-normal rows enter the QP only when the nominal margin is below
# this many newtons (distant constraints cannot activate within one
# correction; the receding horizon re-screens every tick)
CONSTRAINT_MARGIN = 1.5


@dataclass
class NmpcConfig:
    """Horizon, tracking weights and the lateral lock (defaults: 20 steps
    of 50 ms, tracking gains of the reference vehicle).  The solver
    numerics are module constants and the input box comes from the
    vehicle (`input_bounds`)."""

    K: int = 20
    dt: float = 0.05
    q_p: np.ndarray = field(default_factory=lambda: np.array([1000.0, 1000.0, 500.0]))
    q_v: np.ndarray = field(default_factory=lambda: np.array([100.0, 100.0, 100.0]))
    q_q: np.ndarray = field(default_factory=lambda: np.array([200.0, 200.0, 200.0, 200.0]))
    q_w: np.ndarray = field(default_factory=lambda: np.array([10.0, 10.0, 10.0]))
    q_u: np.ndarray = field(default_factory=lambda: np.array([10.0, 1.0, 1.0, 1.0]))
    lock_lateral: bool = False  # force delta1 + delta2 = 0 (no net side thrust)

    def __post_init__(self):
        require_integer(self.K, "K", 1)
        self.dt = require_real(self.dt, "dt", 0.0, True)
        require_bool(self.lock_lateral, "lock_lateral")
        for name, size in (("q_p", 3), ("q_v", 3), ("q_q", 4), ("q_w", 3), ("q_u", 4)):
            setattr(self, name, require_reals(getattr(self, name), name, size, 0.0, False))

    def state_weights(self) -> np.ndarray:
        return np.concatenate([self.q_p, self.q_v, self.q_q, self.q_w])


def input_bounds(params: VehicleParams) -> Tuple[np.ndarray, np.ndarray]:
    """The input box (lo, hi) of [T1, T2, delta1, delta2]: thrusts in
    [0, T_max], tilts in [-delta_max, delta_max]."""
    d = params.delta_max
    return np.array([0.0, 0.0, -d, -d]), np.array([params.T_max, params.T_max, d, d])


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


def discretize(x: np.ndarray, u: np.ndarray, mode: Mode, dt: float, params: VehicleParams):
    """One RK4 step of the packed state plus Jacobians d(x+)/dx, d(x+)/du
    by forward finite differences (a one-step horizon linearization)."""
    x_next, A, B, _ = _linearize_horizon(np.atleast_2d(x), np.atleast_2d(u), [mode], dt, params)
    return x_next[0], A[0], B[0]


def _linearize_horizon(x_bar, u_bar, modes, dt, params):
    """Vectorized linearization of the whole horizon: since the points
    (x_bar_k, u_bar_k) are given, the K finite-difference batches fuse into
    one array-core call per mode group.

    The batch is built on component rows, (13, K, 18) states and (4, K, 18)
    inputs: stage k's column 0 is its point and columns 1 to 17 perturb one
    component each.  `rk4_step` gets a mode group as the transposed view
    (18 K', 13), so its own transpose to component rows costs no copy; when
    every stage shares one mode the group is the whole batch, gathered by
    no index.

    Returns x_next (K,13), A (K,13,13), B (K,13,4) and, per ground step,
    the wheel normals F_n (2,), dF_n/dx (2,13) and dF_n/du (2,4), left
    wheel first, read off the contact evaluation that is also the batch's
    RK4 k1; the step reuses that evaluation's wrench too.
    """
    K = len(u_bar)
    n, m = 13, 4
    nb = 1 + n + m
    xr = np.repeat(x_bar[:K].T, nb, axis=1).reshape(n, K, nb)
    ur = np.repeat(u_bar.T, nb, axis=1).reshape(m, K, nb)
    xr[:, :, 1 : 1 + n] += _FD_X
    ur[:, :, 1 + n :] += _FD_U

    x_next = np.empty((K, n))
    A = np.empty((K, n, n))
    B = np.empty((K, n, m))
    normals = {}
    for mode in (Mode.GROUND, Mode.AERIAL):
        idx = [k for k in range(K) if modes[k] is mode]
        if not idx:
            continue
        sel = slice(None) if len(idx) == K else idx
        xm = xr[:, sel].reshape(n, -1)
        um = ur[:, sel].reshape(m, -1)
        k1 = wrench = None
        if mode is Mode.GROUND:
            wrench = _wrench_terms(um, params, np)
            k1, diag = _ground_rates(xm, wrench, params, False)
            # (step, wheel, batch row)
            F = np.stack([diag[w].reshape(len(idx), nb) for w in ("F_nl", "F_nr")], axis=1)
            dF = (F[:, :, 1:] - F[:, :, :1]) / FD_STEP
            normals.update(zip(idx, zip(F[:, :, 0], dF[:, :, :n], dF[:, :, n:])))
        out = rk4_step(xm.T, um.T, mode, dt, params, k1=k1, wrench=wrench).reshape(
            len(idx), nb, n)
        x_next[sel] = out[:, 0]
        A[sel] = (out[:, 1 : 1 + n] - out[:, :1]).transpose(0, 2, 1) / FD_STEP
        B[sel] = (out[:, 1 + n :] - out[:, :1]).transpose(0, 2, 1) / FD_STEP
    return x_next, A, B, normals


# ---------------------------------------------------------------------------
# Dense primal active-set QP
# ---------------------------------------------------------------------------


class QpError(RuntimeError):
    """The active-set QP failed: H is not positive definite (`iters` is 0)
    or the method did not converge (`iters` is `MAX_QP_ITER`)."""

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
    """Range-space factors of an active-set working set, updated in place.

    H = L L' is factored once.  The nw working rows Aw enter as the columns
    of V = L^-1 Aw', held as V = Q R with orthonormal Q and upper-triangular
    R, so R is the Cholesky factor of the Schur complement S = V'V without
    S ever being formed (that would square the condition number of V).
    Q, R and R^-1 live in the leading columns and blocks of n x n buffers,
    allocated when the first row enters and zero outside R's and R^-1's
    leading nw x nw block.  A row entering costs a Gram-Schmidt step that
    writes column nw.  A row leaving costs a QR of the trailing block of R,
    which rotates Q's columns and R's trailing block in place; a step then
    costs matrix-vector products only.
    """

    def __init__(self, H: np.ndarray, Aw: np.ndarray):
        try:
            self.Linv = _lower_inverse(np.linalg.cholesky(H))
        except np.linalg.LinAlgError as exc:
            raise QpError(f"QP Hessian is not positive definite ({exc})", 0) from exc
        self.H = H
        self.nw = nw = Aw.shape[0]
        self.buffers = None
        if nw:
            Qb, Rb, Rib = self._allocate()
            Qb[:, :nw], Rb[:nw, :nw] = np.linalg.qr(self.Linv @ Aw.T)
            Rib[:nw, :nw] = _lower_inverse(Rb[:nw, :nw].T).T

    def _allocate(self):
        if self.buffers is None:
            n = self.H.shape[0]
            self.buffers = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
        return self.buffers

    def add(self, a: np.ndarray) -> None:
        Qb, Rb, Rib = self._allocate()
        nw = self.nw
        v = self.Linv @ a
        Q = Qb[:, :nw]
        c = Q.T @ v
        q = v - Q @ c
        c2 = Q.T @ q  # orthogonalize twice: Q stays orthonormal to rounding
        q -= Q @ c2
        c += c2
        rho = float(np.linalg.norm(q))
        Qb[:, nw] = q / rho
        Rb[:nw, nw] = c
        Rb[nw, nw] = rho
        Rib[:nw, nw] = -(Rib[:nw, :nw] @ c) / rho
        Rib[nw, nw] = 1.0 / rho
        self.nw = nw + 1

    def drop(self, j: int) -> None:
        # without column j, R is upper Hessenberg from column j on; rotate
        # its trailing block back to triangular, and Q's columns with it
        Qb, Rb, Rib = self.buffers
        nw = self.nw
        G, T = np.linalg.qr(Rb[j:nw, j + 1 : nw], mode="complete")
        Qb[:, j : nw - 1] = (Qb[:, j:nw] @ G)[:, :-1]
        Rb[:j, j : nw - 1] = Rb[:j, j + 1 : nw]
        Rb[j : nw - 1, j : nw - 1] = T[:-1]
        Rb[nw - 1, :nw] = Rb[:nw, nw - 1] = 0.0
        # R^-1 loses row j, and its columns rotate with Q's.  With M = G' R22,
        # M E = [T; 0] (E: R22's columns but its first), so the last row of
        # M R22^-1 G = I gives R22^-1 G the first row e_last' / M[-1, 0],
        # and T^-1 is its trailing block
        X = Rib[:nw, j:nw] @ G[:, :-1]
        Rib[:j, j : nw - 1] = X[:j]
        Rib[j : nw - 1, j : nw - 1] = np.triu(X[j + 1 :])
        Rib[nw - 1, :nw] = Rib[:nw, nw - 1] = 0.0
        self.nw = nw - 1

    def step(self, grad: np.ndarray, Aw: np.ndarray):
        """(p, lam) of H p + Aw' lam = -grad, Aw p = 0, refined once against
        the full KKT residual (the condensed Hessians have condition
        numbers near 1e7)."""
        Linv, nw = self.Linv, self.nw
        w = Linv @ grad
        if not nw:
            p = -(Linv.T @ w)
            return p + Linv.T @ (Linv @ (-grad - self.H @ p)), np.zeros(0)
        Qb, _, Rib = self.buffers
        Q, Rinv = Qb[:, :nw], Rib[:nw, :nw]
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
):
    """minimize 0.5 z'Hz + g'z  s.t.  A_in z <= b_in.

    The first n_eq rows of A_in are equalities (always active); `active0`
    seeds additional working-set rows that hold with equality at z0.  z0
    must be feasible.  Deterministic pivoting: lowest index wins all ties.
    Returns (z, active_set, lambdas, iters).

    Range-space steps (see `_WorkingSetFactor`): H is factored once per
    call, and QpError is raised if it is not positive definite.  The
    working rows are kept in the leading rows of a buffer of one row per
    variable, in the order of `work`.  A blocking row is independent of
    the working rows in exact arithmetic, but a step that is rounding
    noise on a full working set can still block; QpError is raised then
    rather than adding a row past the buffer.  The ratio test forms A_in p
    once over all rows and reads it on the inactive ones.
    """
    z = z0.copy()
    work: List[int] = list(range(n_eq))
    if active0:
        work.extend(i for i in active0 if i >= n_eq)
    rows = np.empty((z.size, z.size))
    rows[: len(work)] = A_in[work]
    inactive = np.ones(A_in.shape[0], dtype=bool)
    inactive[work] = False
    factor = _WorkingSetFactor(H, rows[: len(work)])

    for it in range(1, MAX_QP_ITER + 1):
        nw = len(work)
        p, lam = factor.step(g + H @ z, rows[:nw])

        if np.abs(p).max() < KKT_TOL * (1.0 + np.abs(z).max()):
            # multipliers: inequality rows need lambda >= 0
            if nw > n_eq:
                ineq_lam = lam[n_eq:]
                worst = int(ineq_lam.argmin())
                if ineq_lam[worst] < -KKT_TOL:
                    j = n_eq + worst
                    inactive[work.pop(j)] = True
                    rows[j : nw - 1] = rows[j + 1 : nw]
                    factor.drop(j)
                    continue
            return z, work, lam, it
        # step length to the nearest blocking inactive constraint
        alpha = 1.0
        block = -1
        ap = A_in @ p
        viol = inactive & (ap > KKT_TOL)
        if viol.any():
            cand = np.flatnonzero(viol)
            ratios = (b_in[cand] - A_in[cand] @ z) / ap[cand]
            ratios = np.maximum(ratios, 0.0)
            jmin = int(ratios.argmin())
            if ratios[jmin] < alpha:
                alpha = float(ratios[jmin])
                block = int(cand[jmin])
        z = z + alpha * p
        if block >= 0 and alpha < 1.0:
            if nw == z.size:
                raise QpError("working set would exceed the variables", it)
            work.append(block)
            inactive[block] = False
            rows[nw] = A_in[block]
            factor.add(rows[nw])
    raise QpError(f"active-set QP did not converge in {MAX_QP_ITER} iterations", MAX_QP_ITER)


# ---------------------------------------------------------------------------
# RTI solve
# ---------------------------------------------------------------------------


def _condense(A, B, d, dx0):
    """The condensed prediction dx_k = c_k + S_k du of a linearized
    horizon: S (K+1, 13, K*m) is zero from column k*m on, and c (K+1, 13)
    folds in the initial deviation dx0 and the defects d.  Each stage's
    products are written into S and c in place; non-finite values pass
    through without a warning."""
    K, n, m = B.shape
    S = np.zeros((K + 1, n, K * m))
    c = np.empty((K + 1, n))
    c[0] = dx0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            km = k * m
            np.matmul(A[k], S[k, :, :km], out=S[k + 1, :, :km])
            S[k + 1, :, km : km + m] = B[k]
            np.matmul(A[k], c[k], out=c[k + 1])
            c[k + 1] += d[k]
    return S, c


def _constraint_rows(u_bar, lo, hi, normals, S, c, cfg: NmpcConfig):
    """Rows A_in z <= b_in on z = [du (K*m), slacks], in the order `solve`
    documents, with a feasible start z0 and the working-set seed active0.
    Returns (A_in, b_in, z0, active0, n_eq)."""
    K, m = u_bar.shape
    nz = K * m
    n_eq = K if cfg.lock_lateral else 0
    # NaN normals stay in, as they are not above the margin
    soft = [(k, F[w], Fx[w], Fu[w]) for k, (F, Fx, Fu) in normals.items() for w in (0, 1)
            if not F[w] > CONSTRAINT_MARGIN]
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

    # box rows +e_i and -e_i, the negated identity's zeros being -0.0
    A_in[n_eq + 1:r_soft:2, :nz] = -0.0
    np.fill_diagonal(A_in[n_eq:r_soft:2], 1.0)
    np.fill_diagonal(A_in[n_eq + 1:r_soft:2], -1.0)
    b_in[n_eq:r_soft:2] = (hi - u_bar).reshape(-1)
    b_in[n_eq + 1:r_soft:2] = (u_bar - lo).reshape(-1)

    # linearized wheel-normal constraints on ground steps, L1-softened
    active0 = []
    for i, (k, val, gx, gu) in enumerate(soft):
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
    prev: Optional[OcpSolution] = None,
) -> OcpSolution:
    """One real-time-iteration pass; returns the input sequence whose first
    element is applied by the control loop.

    `x_current` is a packed state (13,); `refs` must hold K+1 points.  The
    linearization runs along a guess trajectory with defect terms in the
    condensation, so the prediction stays anchored even though the ground
    pitch axis is open-loop unstable.  The guess is `prev`, the previous
    tick's solution, shifted one step with its last entries repeated, or
    the reference states and inputs when `prev` is None.  This is multiple
    shooting: the shifted states are linearization points, not a fresh
    rollout, so unstable internal dynamics do not amplify along the
    horizon.  The guess inputs are clipped into `input_bounds`.

    QP rows on z = [du (K*m), slacks]: first the K `lock_lateral`
    equalities (if set); then the boxes, row n_eq + 2i being +e_i <= hi - u
    and row n_eq + 2i + 1 being -e_i <= u - lo; then, per wheel-normal row s
    with a nominal normal within `CONSTRAINT_MARGIN`, the pair
    [row, -e_s] <= b and [0, -e_s] <= 0.
    """
    K = cfg.K
    if len(refs) != K + 1:
        raise ValueError(f"expected {K + 1} reference points, got {len(refs)}")
    x_current = np.asarray(x_current, dtype=float)
    lo, hi = input_bounds(params)

    u_ref = np.array([r.u for r in refs[:K]])
    x_ref = np.array([r.x for r in refs])
    if prev is None:
        u_bar, x_bar = u_ref, x_ref
    else:
        u_bar = np.concatenate((prev.u_seq[1:], prev.u_seq[-1:]))
        x_bar = np.concatenate((prev.x_pred[1:], prev.x_pred[-1:]))
    # np.clip's operations, without its dispatch
    u_bar = np.minimum(np.maximum(u_bar, lo), hi)
    if not np.isfinite(x_bar).all() or (np.abs(x_bar) > DIVERGENCE_LIMIT).any():
        x_bar = x_ref
    modes = [r.mode for r in refs]

    # linearization along the guess, with defects d_k = f(xbar,ubar) - xbar+
    n, m = 13, 4
    x_next, A, B, normals = _linearize_horizon(x_bar, u_bar, modes, cfg.dt, params)
    d = x_next - x_bar[1:]
    if not (np.isfinite(x_next).all() and np.isfinite(A).all() and np.isfinite(B).all()):
        return OcpSolution.degraded(u_bar, x_bar)

    # condensation: dx_k = c_k + S_k du, with the known initial deviation
    # and the defects folded into c_k
    dx0 = x_current - x_bar[0]
    if float(x_current[6:10] @ x_bar[0][6:10]) < 0.0:
        dx0[6:10] = -x_current[6:10] - x_bar[0][6:10]
    nz = K * m
    S, c = _condense(A, B, d, dx0)
    # unstable-mode amplification of an already-hopeless deviation: give up
    # on this linearization rather than build a garbage QP
    if not (np.isfinite(S).all() and np.isfinite(c).all()) or np.abs(c).max() > 1e8:
        return OcpSolution.degraded(u_bar, x_bar)

    Qu = cfg.q_u
    w = cfg.state_weights()
    # stacked residuals: e_k = xbar_k + c_k - xref_k with hemisphere-aligned
    # quaternion components
    E = x_bar + c - x_ref
    flip = (x_ref[:, 6:10] * x_bar[:, 6:10]).sum(axis=1) < 0.0
    if flip.any():
        E[flip, 6:10] = x_bar[flip, 6:10] + c[flip, 6:10] + x_ref[flip, 6:10]
    Sall = S.reshape((K + 1) * n, nz)
    WE = (E * w).reshape(-1)
    H = Sall.T @ (S * w[:, None]).reshape((K + 1) * n, nz)
    gvec = Sall.T @ WE
    const = float(E.reshape(-1) @ WE)
    du_ref = u_bar - u_ref
    np.einsum("ii->i", H).reshape(K, m)[:] += Qu  # H's diagonal, a writeable view
    gvec += (du_ref * Qu).reshape(-1)
    const += float((du_ref * Qu * du_ref).sum())

    A_in, b_in, z0, active0, n_eq = _constraint_rows(u_bar, lo, hi, normals, S, c, cfg)
    dim = A_in.shape[1]
    n_soft = dim - nz
    if n_soft:
        Hfull = np.zeros((dim, dim))
        Hfull[:nz, :nz] = H
        np.fill_diagonal(Hfull[nz:, nz:], SLACK_REG)
        gfull = np.concatenate((gvec, np.full(n_soft, SLACK_PENALTY)))
    else:
        Hfull, gfull = H, gvec

    try:
        z, work, lam, iters = solve_qp(Hfull, gfull, A_in, b_in, z0, n_eq=n_eq, active0=active0)
    except QpError as exc:
        return OcpSolution.degraded(u_bar, x_bar, qp_iters=exc.iters)
    resid = Hfull @ z + gfull
    if work:
        resid += A_in[work].T @ lam
    kkt = float(np.abs(resid).max())

    du = z[:nz].reshape(K, m)
    slacks = z[nz:]
    u_seq = np.minimum(np.maximum(u_bar + du, lo), hi)
    status = "relaxed" if n_soft and float(slacks.max()) > 1e-6 else "optimal"

    # the optimizer's own (linearized) state prediction; shifted, the next
    # tick's linearization guess
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


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------


@dataclass
class NoiseModel:
    pos_std: float = 0.0
    att_std: float = 0.0

    @property
    def active(self) -> bool:
        return self.pos_std != 0.0 or self.att_std != 0.0

    def apply(self, x: np.ndarray, rng: Optional[np.random.Generator]) -> np.ndarray:
        """x with measurement noise drawn from rng; x itself when the model
        is not `active` (rng may then be None)."""
        if not self.active:
            return x
        out = x.copy()
        out[0:3] += rng.normal(0.0, self.pos_std, 3)
        if self.att_std > 0.0:
            rv = rng.normal(0.0, self.att_std, 3)
            # the rotation vector's norm is np.linalg.norm's: the square
            # root of the BLAS dot; the rest runs on Python floats
            angle = math.sqrt(rv.dot(rv))
            if angle > 1e-12:
                s = math.sin(angle / 2)
                rx, ry, rz = rv.tolist()
                out[6:10] = quat_multiply(math.cos(angle / 2), s * (rx / angle), s * (ry / angle),
                                          s * (rz / angle), *out[6:10].tolist())
        return out


# One control tick per record, every field 8-byte aligned like SIMLOG_DTYPE;
# U6 and U8 hold the mode and QP status names.
RUNLOG_DTYPE = np.dtype([
    ("t", "f8"), ("x_ref", "f8", (13,)), ("x", "f8", (13,)), ("u", "f8", (4,)),
    ("mode", "U6"), ("solve_time_us", "f8"), ("qp_status", "U8"), ("cost", "f8"),
    ("slack_max", "f8"), ("qp_iters", "i8"), ("kkt_residual", "f8"),
])


@dataclass
class RunLog:
    """The ticks and plant of a closed loop.  `abort_reason` says why a run
    ended early; `error` is its failure, None if it completed or stopped."""

    ticks: np.recarray  # RUNLOG_DTYPE records
    sim: Simulator
    abort_reason: str = ""
    error: Optional[Exception] = None

    @property
    def aborted(self) -> bool:
        return bool(self.abort_reason)

    def input_series(self) -> np.ndarray:
        return self.ticks.u.copy()


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
    seed: int = 0,
    stop_when=None,
) -> RunLog:
    """Run the tracking loop: sample references, solve, hold u(0) for one
    control period.  The simulator integrates at its own (faster) rate.
    `stop_when(tick)` may end the run early (e.g. a failure threshold).
    A failed run returns too, with its ticks so far and the failure as the
    log's `error`: more than `MAX_DEGRADED` degraded ticks in a row
    (SolverFailure), a plant divergence (DivergenceError; the diverging
    tick stays logged) or an infeasible reference.  Of these, only an
    infeasible reference at the first tick raises: it leaves no tick.

    Measurement noise is drawn from a generator seeded with `seed`, made
    only when the noise model is active: a noise-free loop never loads
    numpy.random.

    Reference times come from the tick counter: node k of tick i is at
    t_start + (i + k s) dt_ctrl, where s is the horizon step in control
    periods, rounded to 9 decimals so that a whole step is an exact integer.
    A ReferenceTable keyed by time transforms each node time once, so ticks
    share nodes whenever i + k s is exact (a whole or dyadic step); at other
    steps no two windows meet the same time.
    """
    check_loop_rates(sim.dt, control_rate)
    dt_ctrl = 1.0 / control_rate
    noise = noise or NoiseModel()
    rng = np.random.default_rng(seed) if noise.active else None
    stride = round(cfg.dt * control_rate, 9)
    table = ReferenceTable(traj, params)
    t_start = sim.t

    n_ticks = round(duration * control_rate)
    ticks = np.recarray(n_ticks, dtype=RUNLOG_DTYPE)
    sim.reserve(len(sim.log) + n_ticks * round(dt_ctrl / sim.dt))
    prev: Optional[OcpSolution] = None
    degraded_run = 0
    for i in range(n_ticks):
        t = sim.t
        try:
            refs = table.window([t_start + (i + k * stride) * dt_ctrl
                                 for k in range(cfg.K + 1)])
        except InfeasibleReferenceError as exc:
            if i == 0:
                raise
            return RunLog(ticks[:i], sim, exc.reason(), exc)
        x_meas = noise.apply(sim.x, rng)
        t0 = time.perf_counter()
        sol = solve(x_meas, refs, cfg, params, prev=prev)
        solve_us = (time.perf_counter() - t0) * 1e6
        if sol.status == "degraded":
            degraded_run += 1
            if degraded_run > MAX_DEGRADED:
                reason = f"solver degraded for {degraded_run} consecutive ticks"
                return RunLog(ticks[:i], sim, reason, SolverFailure(reason))
            prev = None  # cold restart from the references next tick
        else:
            degraded_run = 0
            prev = sol
        slack_max = float(np.max(sol.slacks)) if sol.slacks.size else 0.0
        ticks[i] = (t, refs[0].x, x_meas, sol.u_seq[0], refs[0].mode.name, solve_us,
                    sol.status, sol.cost, slack_max, sol.qp_iters, sol.kkt_residual)
        try:
            sim.apply(sol.u_seq[0], dt_ctrl)
        except DivergenceError as exc:
            return RunLog(ticks[:i + 1], sim, str(exc), exc)
        if stop_when is not None and stop_when(ticks[i]):
            return RunLog(ticks[:i + 1], sim, "stop condition met")
    return RunLog(ticks, sim)
