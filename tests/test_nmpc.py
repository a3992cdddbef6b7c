import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wheeled_bicopter.core import Mode, Orientation, RobotState, VehicleParams, vec3
from wheeled_bicopter import dynamics as dyn
from wheeled_bicopter import nmpc
from wheeled_bicopter import trajectory as tj


@pytest.fixture
def params():
    return VehicleParams()


@pytest.fixture
def cfg():
    return nmpc.NmpcConfig()


def hover_state(params, p=(0.0, 0.0, 1.0)):
    return RobotState.rest(p).as_array()


def hover_input_array(params):
    T = params.weight / 2
    return np.array([T, T, 0.0, 0.0])


def circle_trajectory(params, radius=2.0, speed=1.5, laps=2.0):
    om = speed / radius
    seg = tj.Circle(
        radius=radius, omega=om, center=[0, 0, params.r],
        mode=Mode.GROUND, laps=laps, T_Bz=0.6 * params.weight,
    )
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
            q = Orientation.from_euler(phi, theta, psi).q
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
    tol = 1e-9
    z, work, lam, iters = nmpc.solve_qp(H, g, A, b, z0, n_eq=n_eq, tol=tol)

    np.testing.assert_allclose(A[:n_eq] @ z, b[:n_eq], atol=1e-8)
    assert np.all(A[n_eq:] @ z <= b[n_eq:] + 1e-8)
    assert list(work[:n_eq]) == list(range(n_eq))
    assert np.all(lam[n_eq:] >= -tol)
    resid = H @ z + g + (A[work].T @ lam if work else 0.0)
    assert np.max(np.abs(resid)) <= 1e-6
    z2, work2, lam2, iters2 = nmpc.solve_qp(H, g, A, b, z0, n_eq=n_eq, tol=tol)
    assert z2.tobytes() == z.tobytes() and lam2.tobytes() == lam.tobytes()
    assert work2 == work and iters2 == iters


def dense_kkt_solve_qp(H, g, A_in, b_in, z0, n_eq=0, active0=None, tol=1e-9, max_iter=200):
    """The active-set method with a dense (n + nw)^2 KKT solve and one
    refinement step per iteration, the reference for the range-space
    `nmpc.solve_qp`."""
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
    cfg = nmpc.NmpcConfig()
    dim = nu + n_soft
    H = np.zeros((dim, dim))
    H[:nu, :nu] = Hu
    H[nu:, nu:] = cfg.slack_reg * np.eye(n_soft)
    g = np.concatenate([rng.normal(scale=3.0 * np.sqrt(np.diag(Hu))),
                        np.full(n_soft, cfg.slack_penalty)])
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
    kw = dict(n_eq=n_eq, active0=active0, tol=1e-9)
    z, work, lam, iters = nmpc.solve_qp(H, g, A, b, z0, **kw)
    z_ref, work_ref, lam_ref, iters_ref = dense_kkt_solve_qp(H, g, A, b, z0, **kw)
    assert work == work_ref and iters == iters_ref
    assert np.max(np.abs(z - z_ref)) <= 1e-9 * np.max(np.abs(z_ref))
    if lam_ref.size:
        assert np.max(np.abs(lam - lam_ref)) <= 1e-9 * np.max(np.abs(lam_ref))


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
    n, nz = S.shape[1], K * u_bar.shape[1]
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
    for k, (Fl, Fr) in normals.items():
        for Fv in (Fl, Fr):
            val = Fv[0]
            if val > cfg.constraint_margin:
                continue
            gx = (Fv[1 : 1 + n] - val) / nmpc.FD_STEP
            gu = (Fv[1 + n :] - val) / nmpc.FD_STEP
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
    lo, hi = cfg.bounds(params)
    n, m = 13, 4
    u_bar = rng.uniform(lo, hi, size=(K, m))
    S = rng.normal(size=(K + 1, n, K * m))
    c = rng.normal(size=(K + 1, n))
    # ground steps carry two wheel normals each; n_soft of them sit within
    # the screening margin, the rest beyond it
    n_ground = int(rng.integers((n_soft + 1) // 2, K + 1))
    steps = np.sort(rng.choice(K, size=n_ground, replace=False))
    near = set(rng.choice(2 * n_ground, size=n_soft, replace=False).tolist())
    normals = {}
    for j, k in enumerate(steps):
        pair = []
        for w in range(2):
            val = (rng.uniform(-1.0, cfg.constraint_margin) if 2 * j + w in near
                   else cfg.constraint_margin + rng.uniform(0.1, 5.0))
            pair.append(val + 1e-6 * rng.normal(size=1 + n + m) * np.r_[0.0, np.ones(n + m)])
        normals[int(k)] = tuple(pair)

    got = nmpc._constraint_rows(u_bar, lo, hi, normals, S, c, cfg)
    want = loop_built_rows(u_bar, lo, hi, normals, S, c, cfg)
    A, b, z0, active0, n_eq = got
    assert A.shape == want[0].shape == (n_eq + 2 * K * m + 2 * n_soft, K * m + n_soft)
    for g, w in zip((A, b, z0), want[:3]):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()  # signed zeros too
    assert active0 == want[3] and n_eq == want[4] == (K if lock_lateral else 0)


def test_solve_zero_error_fixed_point(params, cfg):
    traj = circle_trajectory(params)
    refs = traj.sample_references(1.0, cfg.K, cfg.dt, params)
    sol = nmpc.solve(refs[0].x_array(), refs, cfg, params)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.u_seq[0], refs[0].u_array(), atol=1e-6)
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
            x = dyn.rk4_step(x, refs[k].u_array(), refs[k].mode, cfg.dt, params)
    assert sol.cost < baseline


def test_solve_ground_normals_and_bounds_on_eight_shape(params, cfg):
    rep = tj.scale_to_limits(
        tj.Lemniscate(A=3.5, B=1.0, omega=1.0, center=[0, 0, params.r],
                      T_Bz=0.6 * params.weight, laps=1.2),
        v_max=2.8, a_max=3.0,
    )
    traj = tj.HybridTrajectory([rep.segment])
    lo, hi = cfg.bounds(params)
    lap = rep.segment.duration / 1.2

    def check(sol, refs):
        assert sol.status in ("optimal", "relaxed")
        assert np.all(sol.u_seq >= lo - 1e-9) and np.all(sol.u_seq <= hi + 1e-9)
        for k in range(cfg.K):
            if refs[k].mode is Mode.GROUND:
                _, diag = dyn._f_ground_batch(sol.x_pred[k], sol.u_seq[k], params)
                assert diag["F_nl"] >= -1e-6 and diag["F_nr"] >= -1e-6

    # scattered evaluation points around the lap (cold starts)
    for i in range(8):
        refs = traj.sample_references(0.125 * i * lap, cfg.K, cfg.dt, params, clamp=True)
        sol = nmpc.solve(refs[0].x_array(), refs, cfg, params)
        check(sol, refs)

    # consecutive warm-started ticks through the highest-curvature section
    warm = None
    t = 0.2 * lap
    for _ in range(12):
        refs = traj.sample_references(t, cfg.K, cfg.dt, params, clamp=True)
        sol = nmpc.solve(refs[0].x_array(), refs, cfg, params, warm_start=warm)
        check(sol, refs)
        warm = nmpc.shift_warm_start(sol)
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


def test_solve_mixed_mode_horizon(params, cfg):
    # reference window straddling a ground->aerial transition
    zc = params.r
    ramp = tj.Rest(p0=[0, 0, zc], psi0=0.0, duration=0.6, T_Bz=0.6 * params.weight,
                   T_Bz_end=params.weight, mode=Mode.GROUND)
    climb = tj.QuinticBlend(
        start=np.array([[0, 0, zc], [0, 0, 0], [0, 0, 0.0]]),
        end=np.array([[0, 0, zc + 0.8], [0, 0, 0], [0, 0, 0]]),
        duration=1.6, mode=Mode.AERIAL, yaw_bc=(0.0, 0, 0, 0.0, 0, 0),
    )
    traj = tj.HybridTrajectory([ramp, climb])
    refs = traj.sample_references(0.2, cfg.K, cfg.dt, params, clamp=True)
    modes = {r.mode for r in refs}
    assert modes == {Mode.GROUND, Mode.AERIAL}
    sol = nmpc.solve(refs[0].x_array(), refs, cfg, params)
    assert sol.status in ("optimal", "relaxed")
    assert np.all(np.isfinite(sol.u_seq))
    # the aerial tail of the prediction actually climbs
    assert sol.x_pred[-1][2] > zc + 0.05


def test_shift_warm_start_basics(params, cfg):
    u = np.tile(np.array([1.0, 2.0, 0.1, -0.1]), (cfg.K, 1))
    sol = nmpc.OcpSolution(
        u_seq=u, x_pred=np.zeros((cfg.K + 1, 13)), slacks=np.zeros(0),
        status="optimal", cost=0.0, kkt_residual=0.0, qp_iters=1,
    )
    shifted = nmpc.shift_warm_start(sol)
    np.testing.assert_array_equal(shifted.u_seq, u)  # constant sequence unchanged
    u2 = u.copy()
    u2[0] = [9.0, 9.0, 0.5, 0.5]
    sol.u_seq = u2
    shifted = nmpc.shift_warm_start(sol)
    np.testing.assert_array_equal(shifted.u_seq[:-1], u2[1:])
    np.testing.assert_array_equal(shifted.u_seq[-1], u2[-1])
    # shifting twice equals shifting by two
    twice = nmpc.shift_warm_start(
        nmpc.OcpSolution(
            u_seq=shifted.u_seq, x_pred=shifted.x_seq, slacks=np.zeros(0),
            status="optimal", cost=0.0, kkt_residual=0.0, qp_iters=1,
        )
    )
    np.testing.assert_array_equal(twice.u_seq[:-2], u2[2:])


def test_lock_lateral_enforces_opposed_tilts(params):
    cfg = nmpc.NmpcConfig(lock_lateral=True)
    traj = circle_trajectory(params, radius=2.5, speed=1.2)
    refs = traj.sample_references(1.5, cfg.K, cfg.dt, params, clamp=True)
    sol = nmpc.solve(refs[0].x_array(), refs, cfg, params)
    sums = sol.u_seq[:, 2] + sol.u_seq[:, 3]
    assert np.max(np.abs(sums)) < 1e-8


def test_warm_start_not_worse_than_cold(params, cfg):
    traj = circle_trajectory(params)
    sim_costs_warm, sim_costs_cold = [], []
    warm = None
    x = traj.sample_references(0.5, cfg.K, cfg.dt, params)[0].x_array().copy()
    x[0] += 0.03
    t = 0.5
    for _ in range(25):
        refs = traj.sample_references(t, cfg.K, cfg.dt, params)
        sol_w = nmpc.solve(x, refs, cfg, params, warm_start=warm)
        sol_c = nmpc.solve(x, refs, cfg, params, warm_start=None)
        sim_costs_warm.append(sol_w.cost)
        sim_costs_cold.append(sol_c.cost)
        warm = nmpc.shift_warm_start(sol_w)
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
    seg = tj.Line(p0=[0, 0, 1.0], velocity=[1.0, 0.5, 0], duration=5.0, mode=Mode.AERIAL)
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


def test_control_loop_off_grid_horizon_samples_every_node(params, monkeypatch):
    cfg = nmpc.NmpcConfig(dt=0.0125)  # 2.5 control periods: nodes off the grid
    n = 60
    log, calls = _aerial_line_run(params, cfg, n, monkeypatch)
    assert len(calls) == n * (cfg.K + 1)
    # the line's feed-forward is exact: any misplaced node pulls the loop off it
    act, ref = log.positions()
    assert np.max(np.linalg.norm(act - ref, axis=1)) < 1e-9
