import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wheeled_bicopter.core import (
    ConfigError, DivergenceError, InfeasibleReferenceError, Mode, Orientation, RobotState,
    SolverFailure, VehicleParams, quat_from_euler, vec3)
from wheeled_bicopter import cli
from wheeled_bicopter import dynamics as dyn
from wheeled_bicopter import nmpc
from wheeled_bicopter import trajectory as tj

from test_array_core import packed_f_ground, packed_rk4_step
from test_trajectory import AerialRamp


@pytest.fixture
def params():
    return VehicleParams()


@pytest.fixture
def cfg():
    return nmpc.NmpcConfig()


@pytest.mark.parametrize("kwargs", [{"q_p": [math.nan, 1, 1]}, {"q_u": ["1", 1, 1, 1]}])
def test_config_rejects_weights_that_are_not_finite_numbers(kwargs):
    with pytest.raises(ConfigError):
        nmpc.NmpcConfig(**kwargs)


def hover_state(params, p=(0.0, 0.0, 1.0)):
    x = RobotState.rest().as_array()
    x[0:3] = p
    return x


def hover_input_array(params):
    T = params.weight / 2
    return np.array([T, T, 0.0, 0.0])


@dataclass
class WheelCircle(tj.Circle):
    """A ground circle at wheel height z whose vertical body thrust is T_Bz
    (`tj.Circle` runs at z = 0 with no thrust)."""

    z: float = 0.0
    T_Bz: float = 0.0

    def flat(self, tau):
        out = super().flat(tau)
        out[..., 0, 2] = self.z
        return out


def circle_trajectory(params, radius=2.0, speed=1.5):
    seg = WheelCircle(radius=radius, omega=speed / radius, z=params.r, T_Bz=0.6 * params.weight)
    return tj.HybridTrajectory([seg])


def hover_trajectory(params, p=(0.0, 0.0, 1.0), duration=10.0):
    seg = tj.Rest(p0=np.asarray(p), psi0=0.0, duration=duration, mode=Mode.AERIAL)
    return tj.HybridTrajectory([seg])


# ---------------------------------------------------------------------------
# discretize
# ---------------------------------------------------------------------------


def test_discretize_hover_fixed_point(params, cfg):
    x = hover_state(params)
    u = hover_input_array(params)
    x_next, A, B = nmpc.discretize(x, u, Mode.AERIAL, cfg.dt, params)
    np.testing.assert_allclose(x_next, x, atol=1e-12)
    assert A.shape == (13, 13) and B.shape == (13, 4)


def test_discretize_jacobians_match_central_differences(params, cfg):
    rng = np.random.default_rng(11)
    h = 1e-5
    for mode in (Mode.AERIAL, Mode.GROUND):
        for _ in range(12):
            x = hover_state(params)
            x[0:3] = rng.normal(0, 1.0, 3)
            x[2] = params.r if mode is Mode.GROUND else abs(x[2]) + 1.0
            psi = rng.uniform(-2, 2)
            theta = rng.uniform(-0.25, 0.25)
            phi = 0.0 if mode is Mode.GROUND else rng.uniform(-0.25, 0.25)
            q = Orientation(quat_from_euler(phi, theta, psi)).q
            x[6:10] = q
            if mode is Mode.GROUND:
                speed = rng.uniform(0.3, 2.0)
                x[3:6] = [speed * math.cos(psi), speed * math.sin(psi), 0.0]
                x[10:13] = [0, 0, rng.uniform(-1, 1)]
                thd = rng.uniform(-0.5, 0.5)
                x[10] += -thd * math.sin(psi)
                x[11] += thd * math.cos(psi)
            else:
                x[3:6] = rng.normal(0, 1.0, 3)
                x[10:13] = rng.normal(0, 0.5, 3)
            u = np.array([
                rng.uniform(1.5, 5.0), rng.uniform(1.5, 5.0),
                rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4),
            ])
            _, A, B = nmpc.discretize(x, u, mode, cfg.dt, params)
            # central differences as the independent check
            for j in range(13):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                col = (
                    dyn.rk4_step(xp, u, mode, cfg.dt, params)
                    - dyn.rk4_step(xm, u, mode, cfg.dt, params)
                ) / (2 * h)
                err = np.max(np.abs(A[:, j] - col)) / max(1.0, np.max(np.abs(col)))
                assert err < 1e-4
            for j in range(4):
                up, um = u.copy(), u.copy()
                up[j] += h
                um[j] -= h
                col = (
                    dyn.rk4_step(x, up, mode, cfg.dt, params)
                    - dyn.rk4_step(x, um, mode, cfg.dt, params)
                ) / (2 * h)
                err = np.max(np.abs(B[:, j] - col)) / max(1.0, np.max(np.abs(col)))
                assert err < 1e-4


def test_discretize_step_composition(params):
    # two half steps compose to the full step within O(dt^5)
    x = hover_state(params)
    x[3:6] = [0.5, -0.2, 0.1]
    x[10:13] = [0.3, 0.2, -0.4]
    u = np.array([4.3, 3.9, 0.1, -0.08])

    def compose_err(dt):
        full = dyn.rk4_step(x, u, Mode.AERIAL, dt, params)
        half = dyn.rk4_step(
            dyn.rk4_step(x, u, Mode.AERIAL, dt / 2, params), u, Mode.AERIAL, dt / 2, params
        )
        return np.max(np.abs(full - half))

    e1, e2 = compose_err(0.05), compose_err(0.025)
    assert e2 < e1 / 12.0  # ~2^-4 .. 2^-5 scaling


def loop_linearize_horizon(x_bar, u_bar, modes, dt, params):
    """Reference for nmpc._linearize_horizon: the same batches, evaluated
    by the packed bodies, stepped by the packed RK4 step and scattered into
    the outputs stage by stage."""
    K, n, m = len(u_bar), 13, 4
    nb = 1 + n + m
    x_next, A, B, normals = np.empty((K, n)), np.empty((K, n, n)), np.empty((K, n, m)), {}
    for mode in (Mode.GROUND, Mode.AERIAL):
        idx = [k for k in range(K) if modes[k] is mode]
        if not idx:
            continue
        xb = np.repeat(x_bar[idx], nb, axis=0).reshape(len(idx), nb, n)
        ub = np.repeat(u_bar[idx], nb, axis=0).reshape(len(idx), nb, m)
        xb[:, 1 : 1 + n] += nmpc.FD_STEP * np.eye(n)
        ub[:, 1 + n :] += nmpc.FD_STEP * np.eye(m)
        xm, um = xb.reshape(-1, n), ub.reshape(-1, m)
        k1 = None
        if mode is Mode.GROUND:
            k1, diag = packed_f_ground(xm, um, params)
            Fl = diag["F_nl"].reshape(len(idx), nb)
            Fr = diag["F_nr"].reshape(len(idx), nb)
            for j, k in enumerate(idx):
                F = np.stack([Fl[j], Fr[j]])
                normals[k] = (F[:, 0], (F[:, 1 : 1 + n] - F[:, :1]) / nmpc.FD_STEP,
                              (F[:, 1 + n :] - F[:, :1]) / nmpc.FD_STEP)
        out = packed_rk4_step(xm, um, mode, dt, params, k1=k1).reshape(len(idx), nb, n)
        for j, k in enumerate(idx):
            x_next[k] = out[j, 0]
            A[k] = (out[j, 1 : 1 + n] - out[j, 0]).T / nmpc.FD_STEP
            B[k] = (out[j, 1 + n :] - out[j, 0]).T / nmpc.FD_STEP
    return x_next, A, B, normals


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), ground=st.lists(st.booleans(), min_size=1, max_size=8))
def test_linearize_horizon_equals_the_stage_loop(seed, ground):
    params = VehicleParams()
    rng = np.random.default_rng(seed)
    modes = [Mode.GROUND if g else Mode.AERIAL for g in ground]
    K = len(modes)
    x_bar = np.stack([hover_state(params, (0.0, 0.0, params.r))] * (K + 1))
    x_bar[:, 3:5] = rng.uniform(0.5, 1.5, (K + 1, 2))
    x_bar[:, 6:10] += rng.normal(0.0, 0.05, (K + 1, 4))
    x_bar[:, 6:10] /= np.linalg.norm(x_bar[:, 6:10], axis=1, keepdims=True)
    u_bar = hover_input_array(params) * 0.6 + rng.uniform(-0.1, 0.1, (K, 4))
    got = nmpc._linearize_horizon(x_bar, u_bar, modes, 0.05, params)
    want = loop_linearize_horizon(x_bar, u_bar, modes, 0.05, params)
    for g, w in zip(got[:3], want[:3]):
        np.testing.assert_array_equal(g, w)
    assert list(got[3]) == list(want[3]) == [k for k in range(K) if modes[k] is Mode.GROUND]
    for k in got[3]:
        assert [np.shape(a) for a in got[3][k]] == [(2,), (2, 13), (2, 4)]
        for g, w in zip(got[3][k], want[3][k]):
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("ground", [
    [True] * 5, [False] * 5, [True, False, False, True, True], [False, True, True, True],
])
def test_linearize_horizon_steps_18_packed_rows_per_stage(params, monkeypatch, ground):
    # the traced benchmark counts the rows of every `rk4_step` that nmpc
    # calls (x.shape[0] of a 2-D batch): 18 per stage, one call per mode group
    calls = []
    step = nmpc.rk4_step

    def counted(x, u, mode, *args, **kw):
        calls.append((mode, x.shape, u.shape))
        return step(x, u, mode, *args, **kw)

    monkeypatch.setattr(nmpc, "rk4_step", counted)
    modes = [Mode.GROUND if g else Mode.AERIAL for g in ground]
    K = len(modes)
    x_bar = np.stack([hover_state(params, (0.0, 0.0, params.r))] * (K + 1))
    u_bar = np.tile(hover_input_array(params) * 0.6, (K, 1))
    nmpc._linearize_horizon(x_bar, u_bar, modes, 0.05, params)
    groups = [(mode, modes.count(mode)) for mode in (Mode.GROUND, Mode.AERIAL)]
    assert calls == [(mode, (18 * n, 13), (18 * n, 4)) for mode, n in groups if n]


# ---------------------------------------------------------------------------
# QP solver
# ---------------------------------------------------------------------------


def test_qp_unconstrained_minimum():
    H = np.diag([2.0, 4.0])
    g = np.array([-2.0, -8.0])
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([10.0, 10.0, 10.0, 10.0])
    z, work, lam, it = nmpc.solve_qp(H, g, A, b, np.zeros(2))
    np.testing.assert_allclose(z, [1.0, 2.0], atol=1e-10)


def test_qp_active_box():
    H = np.eye(2)
    g = np.array([-5.0, -0.2])
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([1.0, 1.0, 0.0, 0.0])  # 0 <= z <= 1
    z, *_ = nmpc.solve_qp(H, g, A, b, np.zeros(2))
    np.testing.assert_allclose(z, [1.0, 0.2], atol=1e-10)


def test_qp_equality_row():
    # minimize ||z||^2 s.t. z0 + z1 = 1
    H = np.eye(2)
    g = np.zeros(2)
    A = np.vstack([[1.0, 1.0], np.eye(2), -np.eye(2)])
    b = np.array([1.0, 5, 5, 5, 5])
    z, *_ = nmpc.solve_qp(H, g, A, b, np.array([1.0, 0.0]), n_eq=1)
    np.testing.assert_allclose(z, [0.5, 0.5], atol=1e-10)


def test_qp_general_inequality():
    # minimize (z0-2)^2 + (z1-2)^2 s.t. z0 + z1 <= 2
    H = 2 * np.eye(2)
    g = np.array([-4.0, -4.0])
    A = np.array([[1.0, 1.0]])
    b = np.array([2.0])
    z, *_ = nmpc.solve_qp(H, g, A, b, np.zeros(2))
    np.testing.assert_allclose(z, [1.0, 1.0], atol=1e-10)


def test_qp_solution_certificate():
    # stationarity, feasibility within 1e-8 and non-negative multipliers
    rng = np.random.default_rng(21)
    for _ in range(20):
        n, mr = 6, 9
        M = rng.normal(size=(n, n))
        H = M @ M.T + np.eye(n)
        g = rng.normal(size=n)
        A = rng.normal(size=(mr, n))
        b = A @ np.zeros(n) + rng.uniform(0.1, 1.0, mr)  # z0 = 0 feasible
        z, work, lam, _ = nmpc.solve_qp(H, g, A, b, np.zeros(n))
        assert np.all(A @ z <= b + 1e-8)
        grad = H @ z + g
        if work:
            grad = grad + A[work].T @ lam
            assert np.all(lam >= -1e-8)
        assert np.max(np.abs(grad)) < 1e-7


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    n_eq=st.integers(0, 2),
    n_gen=st.integers(0, 6),
)
def test_qp_property_random_strictly_convex(seed, n, n_eq, n_gen):
    # equality rows, then a box on every variable, then general rows; z0
    # is strictly feasible for the inequalities
    rng = np.random.default_rng(seed)
    n_eq = min(n_eq, n - 1)
    M = rng.normal(size=(n, n))
    H = M @ M.T + 0.1 * np.eye(n)
    g = rng.normal(scale=3.0, size=n)
    z0 = rng.normal(size=n)
    A_eq = rng.normal(size=(n_eq, n))
    A_gen = rng.normal(size=(n_gen, n))
    A = np.vstack([A_eq, np.eye(n), -np.eye(n), A_gen])
    b = np.concatenate([
        A_eq @ z0,
        z0 + rng.uniform(0.01, 2.0, n),
        -z0 + rng.uniform(0.01, 2.0, n),
        A_gen @ z0 + rng.uniform(0.01, 2.0, n_gen),
    ])
    z, work, lam, iters = nmpc.solve_qp(H, g, A, b, z0, n_eq=n_eq)

    np.testing.assert_allclose(A[:n_eq] @ z, b[:n_eq], atol=1e-8)
    assert np.all(A[n_eq:] @ z <= b[n_eq:] + 1e-8)
    assert list(work[:n_eq]) == list(range(n_eq))
    assert np.all(lam[n_eq:] >= -nmpc.KKT_TOL)
    resid = H @ z + g + (A[work].T @ lam if work else 0.0)
    assert np.max(np.abs(resid)) <= 1e-6
    z2, work2, lam2, iters2 = nmpc.solve_qp(H, g, A, b, z0, n_eq=n_eq)
    assert z2.tobytes() == z.tobytes() and lam2.tobytes() == lam.tobytes()
    assert work2 == work and iters2 == iters


def dense_kkt_solve_qp(H, g, A_in, b_in, z0, n_eq=0, active0=None):
    """The active-set method with a dense (n + nw)^2 KKT solve and one
    refinement step per iteration, the reference for the range-space
    `nmpc.solve_qp`, with its tolerance and iteration cap."""
    tol, max_iter = nmpc.KKT_TOL, nmpc.MAX_QP_ITER
    n = H.shape[0]
    z = z0.copy()
    work = list(range(n_eq))
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
            resid = rhs - KKT @ sol
            sol = sol + np.linalg.solve(KKT, resid)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(KKT, rhs, rcond=None)
        return sol[:n], sol[n:]

    for it in range(1, max_iter + 1):
        Aw = A_in[work] if work else np.zeros((0, n))
        p, lam = kkt_solve(Aw, g + H @ z)
        if np.max(np.abs(p)) < tol * (1.0 + np.max(np.abs(z))):
            if len(work) > n_eq:
                ineq_lam = lam[n_eq:]
                worst = int(np.argmin(ineq_lam))
                if ineq_lam[worst] < -tol:
                    work.pop(n_eq + worst)
                    continue
            return z, work, lam, it
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
    raise nmpc.QpError(f"active-set QP did not converge in {max_iter} iterations", max_iter)


def solve_shaped_qp(rng, n_pairs, n_lock, n_soft, ill_conditioned):
    """A random QP laid out like `solve`'s: inputs in (delta1, delta2)-like
    pairs, the first n_lock pairs tied by u_j + u_j+1 = b equality rows,
    a box on every input (the tied ones too), then soft-row pairs
    [row, -e_s] <= b, [0, -e_s] <= 0 with `solve`'s slack weights.  z0 is
    feasible, and a slack that starts on its bound seeds active0."""
    nu = 2 * n_pairs + 2
    if ill_conditioned:
        Q, _ = np.linalg.qr(rng.normal(size=(nu, nu)))
        Hu = (Q * np.logspace(0.0, 7.0, nu)) @ Q.T
    else:
        M = rng.normal(size=(nu, nu))
        Hu = M @ M.T + 0.1 * np.eye(nu)
    dim = nu + n_soft
    H = np.zeros((dim, dim))
    H[:nu, :nu] = Hu
    H[nu:, nu:] = nmpc.SLACK_REG * np.eye(n_soft)
    g = np.concatenate([rng.normal(scale=3.0 * np.sqrt(np.diag(Hu))),
                        np.full(n_soft, nmpc.SLACK_PENALTY)])
    n_eq = min(n_lock, n_pairs)
    rows = n_eq + 2 * nu
    A = np.zeros((rows + 2 * n_soft, dim))
    b = np.zeros(A.shape[0])
    z0 = np.zeros(dim)
    z0[:nu] = rng.uniform(-0.5, 0.5, nu)
    for r in range(n_eq):
        A[r, 2 * r : 2 * r + 2] = 1.0
        b[r] = z0[2 * r] + z0[2 * r + 1]
    A[n_eq:rows:2, :nu] = np.eye(nu)
    A[n_eq + 1:rows:2, :nu] = -np.eye(nu)
    b[n_eq:rows] = 1.0
    active0 = []
    for i in range(n_soft):
        r = rows + 2 * i
        A[r, :nu] = rng.normal(size=nu)
        A[r : r + 2, nu + i] = -1.0
        b[r] = A[r, :nu] @ z0[:nu] + rng.uniform(-1.0, 1.0)
        z0[nu + i] = max(0.0, A[r, :nu] @ z0[:nu] - b[r])
        if z0[nu + i] == 0.0:
            active0.append(r + 1)
    return H, g, A, b, z0, n_eq, active0


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_pairs=st.integers(1, 4),
    n_lock=st.integers(0, 4),
    n_soft=st.integers(0, 4),
    ill_conditioned=st.booleans(),
)
def test_range_space_steps_follow_the_dense_kkt_path(seed, n_pairs, n_lock, n_soft,
                                                     ill_conditioned):
    rng = np.random.default_rng(seed)
    H, g, A, b, z0, n_eq, active0 = solve_shaped_qp(rng, n_pairs, n_lock, n_soft,
                                                    ill_conditioned)
    if ill_conditioned:
        assert np.linalg.cond(H[: H.shape[0] - n_soft, : H.shape[0] - n_soft]) > 1e6
    kw = dict(n_eq=n_eq, active0=active0)
    z, work, lam, iters = nmpc.solve_qp(H, g, A, b, z0, **kw)
    z_ref, work_ref, lam_ref, iters_ref = dense_kkt_solve_qp(H, g, A, b, z0, **kw)
    assert work == work_ref and iters == iters_ref
    assert np.max(np.abs(z - z_ref)) <= 1e-9 * np.max(np.abs(z_ref))
    if lam_ref.size:
        assert np.max(np.abs(lam - lam_ref)) <= 1e-9 * np.max(np.abs(lam_ref))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_in_place_working_set_factor_matches_a_fresh_factor(seed):
    # a random walk of 120 adds and drops of unit rows (+-e_i) and general
    # rows on an ill-conditioned H; after every drop the buffers hold
    # orthonormal Q, R^-1 R = I and zeros outside the leading blocks, and
    # the step equals that of a factor built fresh on the same rows: p to
    # 1e-9 of its size, and lam in the force A_w' lam it balances against
    # the gradient (a multiplier near zero has no relative accuracy).  Both
    # steps lie within about cond(H) * 1e-16 of the exact one (checked in
    # 40-digit arithmetic), so cond(H) of 3e6 leaves 1e-9 some margin
    rng = np.random.default_rng(seed)
    n = 14
    Qh, _ = np.linalg.qr(rng.normal(size=(n, n)))
    H = (Qh * np.logspace(0.0, 6.5, n)) @ Qh.T
    assert np.linalg.cond(H) > 1e6
    factor = nmpc._WorkingSetFactor(H, np.zeros((0, n)))
    rows, units = [], set()
    kinds = set()
    for _ in range(120):
        if rows and (len(rows) == n - 2 or rng.random() < 0.45):
            j = int(rng.integers(len(rows)))
            units.discard(rows.pop(j).tobytes())
            factor.drop(j)
            kinds.add("drop")
            nw = factor.nw
            Qb, Rb, Rib = factor.buffers
            Q, R, Rinv = Qb[:, :nw], Rb[:nw, :nw], Rib[:nw, :nw]
            assert nw == len(rows)
            assert np.max(np.abs(Rinv @ R - np.eye(nw)), initial=0.0) <= 1e-10
            assert np.max(np.abs(Q.T @ Q - np.eye(nw)), initial=0.0) <= 1e-10
            for M in (Rb, Rib):
                assert not M[nw:].any() and not M[:, nw:].any()
            Aw = np.array(rows).reshape(nw, n)
            grad = rng.normal(size=n) * np.sqrt(np.diag(H))
            p, lam = factor.step(grad, Aw)
            p_ref, lam_ref = nmpc._WorkingSetFactor(H, Aw).step(grad, Aw)
            assert np.max(np.abs(p - p_ref)) <= 1e-9 * np.max(np.abs(p_ref))
            assert np.max(np.abs(Aw.T @ (lam - lam_ref)), initial=0.0) <= 1e-9 * np.max(np.abs(grad))
            continue
        free = [i for i in range(n) if np.eye(n)[i].tobytes() not in units
                and (-np.eye(n)[i]).tobytes() not in units]
        if free and rng.random() < 0.6:
            a = float(rng.choice([-1.0, 1.0])) * np.eye(n)[int(rng.choice(free))]
            units.update({a.tobytes(), (-a).tobytes()})
            kinds.add("unit")
        else:
            a = rng.normal(size=n)
            kinds.add("general")
        rows.append(a)
        factor.add(a)
    assert kinds == {"drop", "unit", "general"}


def test_qp_raises_qp_error_rather_than_overfill_the_working_set(monkeypatch):
    # one variable and two blocking rows 1e-9 apart: the first row fills the
    # working set, and a step of rounding-level noise then reaches the second
    step = nmpc._WorkingSetFactor.step

    def noisy_step(self, grad, Aw):
        p, lam = step(self, grad, Aw)
        return (p + 1e-7 if self.nw == p.size else p), lam

    monkeypatch.setattr(nmpc._WorkingSetFactor, "step", noisy_step)
    with pytest.raises(nmpc.QpError) as info:
        nmpc.solve_qp(np.eye(1), np.array([-10.0]), np.ones((2, 1)),
                      np.array([1.0, 1.0 + 1e-9]), np.zeros(1))
    assert info.value.iters == 2


def test_qp_singular_hessian_raises_qp_error():
    H = np.array([[1.0, 1.0], [1.0, 1.0]])
    A = np.vstack([np.eye(2), -np.eye(2)])
    with pytest.raises(nmpc.QpError) as info:
        nmpc.solve_qp(H, np.array([1.0, -1.0]), A, np.ones(4), np.zeros(2))
    assert info.value.iters == 0


def test_solve_degrades_on_a_singular_hessian(params):
    # zero weights leave the input block of the condensed Hessian at zero
    cfg = nmpc.NmpcConfig(q_p=np.zeros(3), q_v=np.zeros(3), q_q=np.zeros(4),
                          q_w=np.zeros(3), q_u=np.zeros(4))
    refs = circle_trajectory(params).sample_references(1.0, cfg.K, cfg.dt, params)
    sol = nmpc.solve(refs[0].x_array(), refs, cfg, params)
    assert sol.status == "degraded" and sol.qp_iters == 0
    assert sol.kkt_residual == math.inf


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def loop_built_rows(u_bar, lo, hi, normals, S, c, cfg):
    """Row-by-row constraint assembly, the reference for the block-built
    `nmpc._constraint_rows`."""
    K, m = u_bar.shape
    nz = K * m
    rows, rhs, eq_rows, eq_rhs, soft = [], [], [], [], []
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
    for k, (F, Fx, Fu) in normals.items():
        for val, gx, gu in zip(F, Fx, Fu):
            if val > nmpc.CONSTRAINT_MARGIN:
                continue
            row = -(gx @ S[k])
            row[k * m : (k + 1) * m] -= gu
            soft.append((row, float(val + gx @ c[k])))
    n_soft = len(soft)
    dim = nz + n_soft
    A_rows, b_vals = [], []
    for row, b in zip(eq_rows + rows, eq_rhs + rhs):
        A_rows.append(np.concatenate([row, np.zeros(n_soft)]))
        b_vals.append(b)
    n_eq = len(eq_rows)
    for i, (row, val) in enumerate(soft):
        ext = np.zeros(n_soft)
        ext[i] = -1.0
        A_rows.append(np.concatenate([row, ext]))
        b_vals.append(val)
        neg = np.zeros(dim)
        neg[nz + i] = -1.0
        A_rows.append(neg)
        b_vals.append(0.0)
    z0 = np.zeros(dim)
    if cfg.lock_lateral:
        for k in range(K):
            half = -(u_bar[k, 2] + u_bar[k, 3]) / 2.0
            z0[k * m + 2] = half
            z0[k * m + 3] = half
    active0 = []
    row0 = n_eq + len(rows)
    for i, (row, val) in enumerate(soft):
        z0[nz + i] = max(0.0, float(row @ z0[:nz]) - val)
        if z0[nz + i] == 0.0:
            active0.append(row0 + 2 * i + 1)
    return np.vstack(A_rows), np.asarray(b_vals), z0, active0, n_eq


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(3, 6),
    lock_lateral=st.booleans(),
    n_soft=st.integers(0, 6),
)
def test_block_built_rows_equal_loop_built(seed, K, lock_lateral, n_soft):
    rng = np.random.default_rng(seed)
    params = VehicleParams()
    cfg = nmpc.NmpcConfig(K=K, lock_lateral=lock_lateral)
    lo, hi = nmpc.input_bounds(params)
    n, m = 13, 4
    u_bar = rng.uniform(lo, hi, size=(K, m))
    S = rng.normal(size=(K + 1, n, K * m))
    c = rng.normal(size=(K + 1, n))
    # ground steps carry two wheel normals each; n_soft of them sit within
    # the screening margin, the rest beyond it
    n_ground = int(rng.integers((n_soft + 1) // 2, K + 1))
    steps = np.sort(rng.choice(K, size=n_ground, replace=False))
    near = set(rng.choice(2 * n_ground, size=n_soft, replace=False).tolist())
    margin = nmpc.CONSTRAINT_MARGIN
    normals = {}
    for j, k in enumerate(steps):
        F = np.array([rng.uniform(-1.0, margin) if 2 * j + w in near
                      else margin + rng.uniform(0.1, 5.0) for w in range(2)])
        normals[int(k)] = (F, rng.normal(size=(2, n)), rng.normal(size=(2, m)))

    got = nmpc._constraint_rows(u_bar, lo, hi, normals, S, c, cfg)
    want = loop_built_rows(u_bar, lo, hi, normals, S, c, cfg)
    A, b, z0, active0, n_eq = got
    assert A.shape == want[0].shape == (n_eq + 2 * K * m + 2 * n_soft, K * m + n_soft)
    for g, w in zip((A, b, z0), want[:3]):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()  # signed zeros too
    assert active0 == want[3] and n_eq == want[4] == (K if lock_lateral else 0)


def loop_condense(A, B, d, dx0):
    """Stage-by-stage condensation with fresh products, the reference for
    the in-place `nmpc._condense`."""
    K, n, m = B.shape
    S = np.zeros((K + 1, n, K * m))
    c = np.zeros((K + 1, n))
    c[0] = dx0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            S[k + 1][:, : k * m] = A[k] @ S[k][:, : k * m]
            S[k + 1][:, k * m : (k + 1) * m] = B[k]
            c[k + 1] = A[k] @ c[k] + d[k]
    return S, c


def spread(rng, shape, decades):
    """Normal samples scaled by powers of ten spread over +-decades."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-decades, decades, shape)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 8),
    decades=st.sampled_from([0, 3, 30, 150]),
    bad=st.sampled_from([None, "A", "B", "d", "dx0"]),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_condense_equals_the_stage_loop(seed, K, decades, bad, value):
    rng = np.random.default_rng(seed)
    n, m = 13, 4
    args = {"A": spread(rng, (K, n, n), decades), "B": spread(rng, (K, n, m), decades),
            "d": spread(rng, (K, n), decades), "dx0": spread(rng, n, decades)}
    if bad is not None:
        args[bad].reshape(-1)[rng.integers(args[bad].size)] = value
    got = nmpc._condense(**args)
    want = loop_condense(**args)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 6),
    decades=st.sampled_from([0, 3, 30, 150]),
    bad_measurement=st.booleans(),
)
def test_solve_degrades_where_the_stage_loop_condensation_is_not_finite(seed, K, decades,
                                                                       bad_measurement):
    # a linearization whose condensation overflows (or a non-finite
    # measurement) gives the degraded guess, exactly where the loop's S and
    # c are not finite or c leaves the 1e8 bound
    rng = np.random.default_rng(seed)
    params = VehicleParams()
    cfg = nmpc.NmpcConfig(K=K)
    refs = hover_trajectory(params).sample_references(0.0, K, cfg.dt, params)
    x = refs[0].x_array().copy()
    if bad_measurement:
        x[rng.integers(13)] = math.nan
    A, B = spread(rng, (K, 13, 13), decades), spread(rng, (K, 13, 4), decades)
    x_next = np.stack([r.x for r in refs[1:]]) + spread(rng, (K, 13), 0)
    seen = []
    condense = nmpc._condense

    def recorded(*args):
        seen.append((args, loop_condense(*args)))
        return condense(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nmpc, "_linearize_horizon", lambda *args: (x_next, A, B, {}))
        mp.setattr(nmpc, "_condense", recorded)
        sol = nmpc.solve(x, refs, cfg, params)
    (args, (S, c)), = seen
    for g, w in zip(condense(*args), (S, c)):
        assert g.tobytes() == w.tobytes()
    if not (np.isfinite(S).all() and np.isfinite(c).all()) or np.abs(c).max() > 1e8:
        assert sol.status == "degraded" and sol.qp_iters == 0
        assert sol.u_seq.tobytes() == np.stack([r.u for r in refs[:K]]).tobytes()


def takeoff_trajectory(params):
    """A ground rest whose body thrust ramps to the weight, then a climb:
    the wheel normals fall inside the screening margin."""
    zc = params.r
    ramp = tj.Rest(p0=[0, 0, zc], psi0=0.0, duration=0.6, T_Bz=0.6 * params.weight,
                   T_Bz_end=params.weight, mode=Mode.GROUND)
    climb = tj.QuinticBlend(
        start=np.array([[0, 0, zc], [0, 0, 0], [0, 0, 0.0]]),
        end=np.array([[0, 0, zc + 0.8], [0, 0, 0], [0, 0, 0]]),
        duration=1.6, yaw_bc=(0.0, 0, 0, 0.0, 0, 0),
    )
    return tj.HybridTrajectory([ramp, climb])


def tiled_qp(x_bar, u_bar, refs, S, c, n_soft, cfg):
    """The QP of one solve by the tiled-weight formula: the state weights
    tiled over the K + 1 stages, the input weights over the K steps, and a
    scaled identity on the slacks; the reference for `nmpc.solve`'s
    broadcast weights."""
    K, m = u_bar.shape
    n, nz = 13, K * m
    x_ref = np.array([r.x for r in refs])
    u_ref = np.array([r.u for r in refs[:K]])
    E = x_bar + c - x_ref
    flip = (x_ref[:, 6:10] * x_bar[:, 6:10]).sum(axis=1) < 0.0
    E[flip, 6:10] = x_bar[flip, 6:10] + c[flip, 6:10] + x_ref[flip, 6:10]
    Wall, Wu = np.tile(cfg.state_weights(), K + 1), np.tile(cfg.q_u, K)
    Sall, Eall = S.reshape((K + 1) * n, nz), E.reshape(-1)
    H = Sall.T @ (Wall[:, None] * Sall)
    g = Sall.T @ (Wall * Eall)
    H.flat[:: nz + 1] += Wu
    g += ((u_bar - u_ref) * cfg.q_u).reshape(-1)
    if not n_soft:
        return H, g
    Hfull = np.zeros((nz + n_soft, nz + n_soft))
    Hfull[:nz, :nz] = H
    Hfull[nz:, nz:] = nmpc.SLACK_REG * np.eye(n_soft)
    return Hfull, np.concatenate((g, np.full(n_soft, nmpc.SLACK_PENALTY)))


weight_or_zero = st.one_of(st.just(0.0), st.floats(1e-3, 1e4))


@settings(max_examples=40, deadline=None)
@given(
    K=st.integers(1, 25),
    horizon=st.sampled_from(["aerial", "ground", "takeoff"]),
    t=st.floats(0.0, 1.5),
    weights=st.lists(weight_or_zero, min_size=17, max_size=17),
    lock_lateral=st.booleans(),
    flipped=st.lists(st.booleans(), min_size=26, max_size=26),
)
def test_solve_hands_the_tiled_weight_qp_to_solve_qp(K, horizon, t, weights, lock_lateral,
                                                     flipped):
    # H, g, A_in and b_in of a cold and of a warm solve equal, byte for byte,
    # the tiled-weight formula and the loop-built rows on the S and c the
    # solve condensed; the warm guess has some stages' quaternions negated
    params = VehicleParams()
    w = np.array(weights)
    cfg = nmpc.NmpcConfig(K=K, q_p=w[:3], q_v=w[3:6], q_q=w[6:10], q_w=w[10:13], q_u=w[13:],
                          lock_lateral=lock_lateral)
    traj = {"aerial": hover_trajectory, "ground": circle_trajectory,
            "takeoff": takeoff_trajectory}[horizon](params)
    # the takeoff ramp's wheel normals are within the margin from t = 0.1 s
    refs = traj.sample_references(0.2 + t / 5 if horizon == "takeoff" else t, K, cfg.dt, params)
    lo, hi = nmpc.input_bounds(params)
    seen = {}
    linearize, condense, qp = nmpc._linearize_horizon, nmpc._condense, nmpc.solve_qp

    def linearized(x_bar, u_bar, *args):
        out = linearize(x_bar, u_bar, *args)
        seen["lin"] = x_bar, u_bar, out[3]
        return out

    def condensed(*args):
        seen["S, c"] = out = condense(*args)
        return out

    def handed(*args, **kwargs):
        seen["qp"] = args[:4]
        return qp(*args, **kwargs)

    prev, n_soft = None, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nmpc, "_linearize_horizon", linearized)
        mp.setattr(nmpc, "_condense", condensed)
        mp.setattr(nmpc, "solve_qp", handed)
        for _ in range(2):
            seen.clear()
            prev = nmpc.solve(refs[0].x_array(), refs, cfg, params, prev=prev)
            assert "qp" in seen
            x_bar, u_bar, normals = seen["lin"]
            S, c = seen["S, c"]
            Hfull, gfull, A_in, b_in = seen["qp"]
            A_want, b_want = loop_built_rows(u_bar, lo, hi, normals, S, c, cfg)[:2]
            n_soft.append(A_want.shape[1] - K * 4)
            H_want, g_want = tiled_qp(x_bar, u_bar, refs, S, c, n_soft[-1], cfg)
            for got, want in ((Hfull, H_want), (gfull, g_want), (A_in, A_want), (b_in, b_want)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            prev.x_pred[np.array(flipped[: K + 1]), 6:10] *= -1.0
    assert horizon != "takeoff" or n_soft[0] > 0


def test_solve_zero_error_fixed_point(params, cfg):
    traj = circle_trajectory(params)
    refs = traj.sample_references(1.0, cfg.K, cfg.dt, params)
    sol = nmpc.solve(refs[0].x_array(), refs, cfg, params)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.u_seq[0], refs[0].u, atol=1e-6)
    assert sol.kkt_residual < 1e-6


def test_solve_lateral_offset_contracts_error(params, cfg):
    traj = hover_trajectory(params)
    refs = traj.sample_references(0.0, cfg.K, cfg.dt, params)
    x0 = refs[0].x_array().copy()
    x0[1] += 0.2  # lateral offset
    sol = nmpc.solve(x0, refs, cfg, params)
    perr = np.linalg.norm(sol.x_pred[:, 0:3] - refs[0].x_array()[0:3], axis=1)
    assert perr[-1] < 0.25 * perr[0]
    # monotone decrease once the attitude/thrust transient has acted (the
    # first couple of steps carry the countersteer of the roll coupling)
    assert np.all(np.diff(perr[3:]) < 1e-6)
    assert max(perr) < 1.1 * perr[0]
    # strictly cheaper than applying the uncorrected reference inputs
    Qx = cfg.state_weights()
    x = x0.copy()
    baseline = 0.0
    for k in range(cfg.K + 1):
        e = x - refs[k].x_array()
        if float(x[6:10] @ refs[k].x_array()[6:10]) < 0:
            e[6:10] = x[6:10] + refs[k].x_array()[6:10]
        baseline += float(e @ (Qx * e))
        if k < cfg.K:
            x = dyn.rk4_step(x, refs[k].u, refs[k].mode, cfg.dt, params)
    assert sol.cost < baseline


def test_solve_ground_normals_and_bounds_on_eight_shape(params, cfg):
    rep = tj.scale_to_limits(
        tj.Lemniscate(A=3.5, B=1.0, omega=1.0, center=[0, 0, params.r],
                      T_Bz=0.6 * params.weight, laps=1.2),
        v_max=2.8, a_max=3.0,
    )
    traj = tj.HybridTrajectory([rep.segment])
    lo, hi = nmpc.input_bounds(params)
    lap = rep.segment.duration / 1.2

    def check(sol, refs):
        assert sol.status in ("optimal", "relaxed")
        assert np.all(sol.u_seq >= lo - 1e-9) and np.all(sol.u_seq <= hi + 1e-9)
        for k in range(cfg.K):
            if refs[k].mode is Mode.GROUND:
                _, diag = packed_f_ground(sol.x_pred[k], sol.u_seq[k], params)
                assert diag["F_nl"] >= -1e-6 and diag["F_nr"] >= -1e-6

    # scattered evaluation points around the lap (cold starts)
    for i in range(8):
        refs = traj.sample_references(0.125 * i * lap, cfg.K, cfg.dt, params)
        sol = nmpc.solve(refs[0].x_array(), refs, cfg, params)
        check(sol, refs)

    # consecutive warm-started ticks through the highest-curvature section
    sol = None
    t = 0.2 * lap
    for _ in range(12):
        refs = traj.sample_references(t, cfg.K, cfg.dt, params)
        sol = nmpc.solve(refs[0].x_array(), refs, cfg, params, prev=sol)
        check(sol, refs)
        t += cfg.dt


def test_solve_deterministic(params, cfg):
    traj = circle_trajectory(params)
    refs = traj.sample_references(2.0, cfg.K, cfg.dt, params)
    x0 = refs[0].x_array().copy()
    x0[0] += 0.05
    a = nmpc.solve(x0, refs, cfg, params)
    b = nmpc.solve(x0, refs, cfg, params)
    assert np.array_equal(a.u_seq, b.u_seq)
    assert a.cost == b.cost and a.qp_iters == b.qp_iters


@pytest.mark.parametrize("scenario", ["aerial_8shape", "ground_8shape_slippery", "hybrid_3d"])
def test_solve_ignores_the_hemisphere_of_the_measured_quaternion(scenario):
    # q and -q are one attitude: a measurement in the hemisphere opposite
    # the guess is flipped before dx0 is formed, so only x_pred[0], the
    # measurement itself, may differ
    doc = cli.load_bundled_scenario(scenario)
    sc = cli.ScenarioConfig.from_dict(doc, scenario)
    traj, _ = cli.build_trajectory(sc)
    params, cfg = sc.params, sc.controller
    rng = np.random.default_rng(3)
    for t in (0.5, 2.0, 4.5):
        refs = traj.sample_references(t, cfg.K, cfg.dt, params)
        x = refs[0].x_array() + rng.normal(0.0, 0.01, 13)
        x[6:10] /= np.linalg.norm(x[6:10])
        flipped = x.copy()
        flipped[6:10] = -x[6:10]
        a = nmpc.solve(x, refs, cfg, params)
        b = nmpc.solve(flipped, refs, cfg, params)
        assert (b.status, b.qp_iters, b.cost) == (a.status, a.qp_iters, a.cost)
        assert b.u_seq.tobytes() == a.u_seq.tobytes()
        assert b.x_pred[1:].tobytes() == a.x_pred[1:].tobytes()


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("index, value", [(0, math.nan), (4, math.inf), (7, -math.inf),
                                          (11, math.nan)])
def test_solve_degrades_on_a_non_finite_measurement(params, cfg, warm, index, value):
    # a faulty sensor reading holds the guess instead of raising
    refs = circle_trajectory(params).sample_references(1.0, cfg.K, cfg.dt, params)
    x = refs[0].x_array().copy()
    prev = nmpc.solve(x, refs, cfg, params) if warm else None
    x[index] = value
    sol = nmpc.solve(x, refs, cfg, params, prev=prev)
    assert sol.status == "degraded"
    lo, hi = nmpc.input_bounds(params)
    if warm:
        u_bar = np.vstack([prev.u_seq[1:], prev.u_seq[-1:]])
        x_bar = np.vstack([prev.x_pred[1:], prev.x_pred[-1:]])
    else:
        u_bar = np.stack([r.u for r in refs[:cfg.K]])
        x_bar = np.stack([r.x for r in refs])
    np.testing.assert_array_equal(sol.u_seq, np.clip(u_bar, lo, hi))
    np.testing.assert_array_equal(sol.x_pred, x_bar)


def test_solve_mixed_mode_horizon(params, cfg):
    # reference window straddling a ground->aerial transition
    zc = params.r
    refs = takeoff_trajectory(params).sample_references(0.2, cfg.K, cfg.dt, params)
    modes = {r.mode for r in refs}
    assert modes == {Mode.GROUND, Mode.AERIAL}
    sol = nmpc.solve(refs[0].x_array(), refs, cfg, params)
    assert sol.status in ("optimal", "relaxed")
    assert np.all(np.isfinite(sol.u_seq))
    # the aerial tail of the prediction actually climbs
    assert sol.x_pred[-1][2] > zc + 0.05


def test_shift_warm_start_basics(params, cfg, monkeypatch):
    # `solve` linearizes along the previous solution shifted one step, its
    # last entries repeated and its inputs clipped into the vehicle's box,
    # and along the references without one
    seen = []
    linearize = nmpc._linearize_horizon

    def spy(x_bar, u_bar, *args):
        seen.append((x_bar.copy(), u_bar.copy()))
        return linearize(x_bar, u_bar, *args)

    monkeypatch.setattr(nmpc, "_linearize_horizon", spy)
    refs = hover_trajectory(params).sample_references(0.0, cfg.K, cfg.dt, params)
    x0 = refs[0].x_array()
    lo, hi = nmpc.input_bounds(params)
    rng = np.random.default_rng(0)
    u = rng.uniform(lo, hi, (cfg.K, 4))
    u[0] = hi + 1.0  # shifted away
    u[3] = hi + 1.0  # outside the box: clipped to hi
    u[-1] = lo - 1.0  # outside the box, and repeated as the tail: clipped to lo
    x_pred = np.stack([r.x_array() for r in refs]) + rng.normal(0.0, 1e-3, (cfg.K + 1, 13))
    prev = nmpc.OcpSolution(
        u_seq=u, x_pred=x_pred, slacks=np.zeros(0),
        status="optimal", cost=0.0, kkt_residual=0.0, qp_iters=1,
    )

    nmpc.solve(x0, refs, cfg, params, prev=prev)
    x_bar, u_bar = seen.pop()
    np.testing.assert_array_equal(x_bar[:-1], x_pred[1:])
    np.testing.assert_array_equal(x_bar[-1], x_pred[-1])
    np.testing.assert_array_equal(u_bar[:-1], np.clip(u[1:], lo, hi))
    np.testing.assert_array_equal(u_bar[2], hi)
    np.testing.assert_array_equal(u_bar[-2:], [lo, lo])

    nmpc.solve(x0, refs, cfg, params)
    x_bar, u_bar = seen.pop()
    np.testing.assert_array_equal(x_bar, [r.x_array() for r in refs])
    np.testing.assert_array_equal(u_bar, [r.u for r in refs[:cfg.K]])


def test_lock_lateral_enforces_opposed_tilts(params):
    cfg = nmpc.NmpcConfig(lock_lateral=True)
    traj = circle_trajectory(params, radius=2.5, speed=1.2)
    refs = traj.sample_references(1.5, cfg.K, cfg.dt, params)
    sol = nmpc.solve(refs[0].x_array(), refs, cfg, params)
    sums = sol.u_seq[:, 2] + sol.u_seq[:, 3]
    assert np.max(np.abs(sums)) < 1e-8


def test_warm_start_not_worse_than_cold(params, cfg):
    traj = circle_trajectory(params)
    sim_costs_warm, sim_costs_cold = [], []
    sol_w = None
    x = traj.sample_references(0.5, cfg.K, cfg.dt, params)[0].x_array().copy()
    x[0] += 0.03
    t = 0.5
    for _ in range(25):
        refs = traj.sample_references(t, cfg.K, cfg.dt, params)
        sol_w = nmpc.solve(x, refs, cfg, params, prev=sol_w)
        sol_c = nmpc.solve(x, refs, cfg, params)
        sim_costs_warm.append(sol_w.cost)
        sim_costs_cold.append(sol_c.cost)
        x = dyn.rk4_step(x, sol_w.u_seq[0], refs[0].mode, cfg.dt, params)
        t += cfg.dt
    assert np.mean(sim_costs_warm) <= np.mean(sim_costs_cold) * 1.05 + 1e-9


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


def test_control_loop_hover_steady_state(params, cfg):
    traj = hover_trajectory(params)
    x0 = RobotState(
        vec3(0.02, -0.03, 0.98), vec3(0, 0, 0), Orientation(), vec3(0, 0, 0)
    ).as_array()
    sim = dyn.Simulator(params=params, x=x0, dt=5e-3, mode=Mode.AERIAL)
    log = nmpc.control_loop(sim, traj, cfg, params, duration=4.0, control_rate=200.0)
    assert not log.aborted
    final_err = np.linalg.norm(log.ticks[-1].x[0:3] - np.array([0.0, 0.0, 1.0]))
    assert final_err < 1e-4


def test_control_loop_tick_states_are_the_logged_plant_states(params, cfg):
    # zero noise hands the plant state itself to the controller; a descent
    # onto a ground rest reference touches down mid-run
    seg = tj.Rest(p0=[0, 0, params.r], psi0=0.0, duration=5.0, mode=Mode.GROUND,
                  T_Bz=0.6 * params.weight)
    x0 = RobotState(
        vec3(0, 0, params.r + 0.004), vec3(0.2, 0, -0.05), Orientation(), vec3(0, 0, 0)
    ).as_array()
    sim = dyn.Simulator(params=params, x=x0, dt=1e-3, mode=Mode.AERIAL)
    log = nmpc.control_loop(sim, tj.HybridTrajectory([seg]), cfg, params, duration=0.3)
    assert not log.aborted and sim.mode is Mode.GROUND
    steps = round(1.0 / (200.0 * sim.dt))
    touchdown = next(i for i, r in enumerate(sim.log) if r.x[2] == params.r)
    assert touchdown % steps  # the projection happens inside a tick
    assert len(sim.log) == steps * len(log.ticks)
    for i, tick in enumerate(log.ticks):
        row = sim.log[steps * i]
        assert tick.x.tobytes() == row.x.tobytes()
        assert not np.shares_memory(tick.x, row.x)
        assert not np.shares_memory(tick.x, sim.x)


def test_control_loop_rejects_mismatched_rates(params, cfg):
    sim = dyn.Simulator(params=params, dt=3e-3)
    with pytest.raises(ValueError):
        nmpc.control_loop(sim, hover_trajectory(params), cfg, params, duration=0.1)


def _aerial_line_run(params, cfg, n_ticks, monkeypatch):
    """Closed loop along an aerial line; returns the run log and the times
    of every aerial flatness transform made by the loop."""
    speed = math.hypot(1.0, 0.5)
    seg = AerialRamp(p0=[0, 0, 1.0], direction=[1.0, 0.5, 0], v_start=speed, v_end=speed,
                     duration=5.0)
    traj = tj.HybridTrajectory([seg])
    sim = dyn.Simulator(params=params, x=traj.reference(0.0, params).x_array(), dt=5e-3,
                        mode=Mode.AERIAL)
    calls = []
    transform = tj.aerial_flat_to_reference

    def counted(sample, params, clamp=False):
        calls.append(sample.t)
        return transform(sample, params, clamp=clamp)

    monkeypatch.setattr(tj, "aerial_flat_to_reference", counted)
    log = nmpc.control_loop(sim, traj, cfg, params, duration=n_ticks / 200.0)
    assert not log.aborted
    return log, calls


def test_control_loop_transforms_each_grid_point_once(params, cfg, monkeypatch):
    n, r = 60, 10  # 50 ms horizon step = 10 control periods
    _, calls = _aerial_line_run(params, cfg, n, monkeypatch)
    # the first r ticks meet only new grid points, later ticks one each
    assert len(calls) == r * (cfg.K + 1) + (n - r)
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("dt, distinct", [
    # 2.5 control periods: node times i + 2.5 k repeat across ticks, 110
    # whole and 105 half periods in 60 ticks
    (0.0125, 215),
    # 2.46 control periods: no two nodes of 60 ticks share a time
    (0.0123, 60 * 21),
], ids=["dyadic", "non_dyadic"])
def test_control_loop_transforms_each_node_time_once(params, monkeypatch, dt, distinct):
    cfg = nmpc.NmpcConfig(dt=dt)
    n = 60
    log, calls = _aerial_line_run(params, cfg, n, monkeypatch)
    stride = round(dt * 200.0, 9)
    times = {(i + k * stride) * (1.0 / 200.0) for i in range(n) for k in range(cfg.K + 1)}
    assert len(times) == distinct
    assert sorted(calls) == sorted(times)
    # the line's feed-forward is exact: any misplaced node pulls the loop off it
    act, ref = log.ticks.x[:, 0:3], log.ticks.x_ref[:, 0:3]
    assert np.max(np.linalg.norm(act - ref, axis=1)) < 1e-9


def _degraded_solves(monkeypatch):
    def degraded(x, refs, cfg, params, prev=None):
        return nmpc.OcpSolution.degraded(np.stack([r.u for r in refs[:-1]]),
                                         np.stack([r.x for r in refs]))
    monkeypatch.setattr(nmpc, "solve", degraded)


def _diverging_third_tick(monkeypatch):
    solve = nmpc.solve
    calls = []

    def faulty(x, refs, cfg, params, prev=None):
        sol = solve(x, refs, cfg, params, prev=prev)
        calls.append(sol)
        if len(calls) == 3:
            sol.u_seq = np.array([[1e9, 1e9, 0.0, 0.0]] * cfg.K)
        return sol
    monkeypatch.setattr(nmpc, "solve", faulty)


def _infeasible_past(t_fail):
    def install(monkeypatch):
        transform = tj.aerial_flat_to_reference

        def faulty(sample, params, clamp=False):
            if sample.t > t_fail:
                raise InfeasibleReferenceError("injected fault")
            return transform(sample, params, clamp=clamp)
        monkeypatch.setattr(tj, "aerial_flat_to_reference", faulty)
    return install


def _hover_loop(params, cfg, **kw):
    sim = dyn.Simulator(params=params, x=hover_state(params), dt=1e-3, mode=Mode.AERIAL)
    return nmpc.control_loop(sim, hover_trajectory(params), cfg, params, duration=0.2, **kw)


@pytest.mark.parametrize("fault, error, n_ticks, reason", [
    (_degraded_solves, SolverFailure, nmpc.MAX_DEGRADED,
     f"solver degraded for {nmpc.MAX_DEGRADED + 1} consecutive ticks"),
    # the diverging tick stays logged
    (_diverging_third_tick, DivergenceError, 3, "simulation diverged at t=0.0100s (mode AERIAL)"),
    # the horizon of the sixth tick (nodes 0.025 s to 1.025 s) is the first
    # to reach past 1.02 s
    (_infeasible_past(1.02), InfeasibleReferenceError, 5,
     "infeasible reference: injected fault; sample 20 (t=1.025s)"),
])
def test_control_loop_returns_a_failed_run_with_its_error(params, cfg, monkeypatch, fault,
                                                          error, n_ticks, reason):
    fault(monkeypatch)
    log = _hover_loop(params, cfg)
    assert isinstance(log.error, error)
    assert log.aborted and log.abort_reason == reason
    assert len(log.ticks) == n_ticks


def test_control_loop_raises_an_infeasible_reference_at_the_first_tick(params, cfg,
                                                                       monkeypatch):
    # no tick to keep: the first horizon already reaches past 0.5 s
    _infeasible_past(0.5)(monkeypatch)
    with pytest.raises(InfeasibleReferenceError, match="injected fault"):
        _hover_loop(params, cfg)


def test_control_loop_makes_a_noise_generator_only_for_active_noise(params, cfg,
                                                                    monkeypatch):
    seeds = []
    make = np.random.default_rng

    def recorded(seed):
        seeds.append(seed)
        return make(seed)

    monkeypatch.setattr(np.random, "default_rng", recorded)
    quiet = _hover_loop(params, cfg, seed=5)
    assert seeds == []
    noisy = [_hover_loop(params, cfg, noise=nmpc.NoiseModel(pos_std=1e-3), seed=5)
             for _ in range(2)]
    assert seeds == [5, 5]
    assert noisy[0].ticks.x.tobytes() == noisy[1].ticks.x.tobytes()
    assert noisy[0].ticks.x.tobytes() != quiet.ticks.x.tobytes()


def array_quat_multiply(a, b):
    """The Hamilton product a (x) b on arrays, stacked on the last axis."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def array_noise(model, x, rng):
    """`NoiseModel.apply` as array operations: the rotation vector's norm
    from np.linalg.norm, the rotation quaternion from np.concatenate and
    the product on arrays.  The float path must give its bits."""
    if not model.active:
        return x
    out = x.copy()
    out[0:3] += rng.normal(0.0, model.pos_std, 3)
    if model.att_std > 0.0:
        rv = rng.normal(0.0, model.att_std, 3)
        angle = np.linalg.norm(rv)
        if angle > 1e-12:
            axis = rv / angle
            dq = np.concatenate([[math.cos(angle / 2)], math.sin(angle / 2) * axis])
            out[6:10] = array_quat_multiply(dq, out[6:10])
    return out


STD = st.one_of(st.just(0.0), st.floats(1e-15, 2.0), st.sampled_from([1e-13, 2e-3]))


@settings(max_examples=300, deadline=None)
@given(x=st.lists(st.floats(-1e3, 1e3), min_size=13, max_size=13), pos_std=STD, att_std=STD,
       seed=st.integers(0, 2**32 - 1))
def test_noise_gives_the_bits_of_the_array_formula_and_draws_the_same(x, pos_std, att_std,
                                                                      seed):
    x = np.array(x)
    x[6:10] = x[6:10] / np.linalg.norm(x[6:10]) if np.any(x[6:10]) else [1.0, 0.0, 0.0, 0.0]
    x.flags.writeable = False
    model = nmpc.NoiseModel(pos_std=pos_std, att_std=att_std)
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    for _ in range(3):  # the generator goes on from the same state
        got, want = model.apply(x, rngs[0]), array_noise(model, x, rngs[1])
        assert got.tobytes() == want.tobytes()
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    if not model.active:
        assert got is x


def test_control_loop_ends_a_stopped_or_complete_run_without_error(params, cfg):
    stopped = _hover_loop(params, cfg, stop_when=lambda tick: tick.t >= 0.05)
    assert stopped.error is None and stopped.aborted
    assert stopped.abort_reason == "stop condition met" and len(stopped.ticks) == 11
    complete = _hover_loop(params, cfg)
    assert complete.error is None and not complete.aborted
    assert complete.abort_reason == "" and len(complete.ticks) == 40
