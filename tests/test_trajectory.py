import math
import warnings

import numpy as np
import pytest

from wheeled_bicopter.core import Mode, VehicleParams
from wheeled_bicopter import trajectory as tj


@pytest.fixture
def params():
    return VehicleParams()


def fd_check(seg, orders=(1, 2, 3, 4), h=1e-5, rel=1e-5):
    taus = np.linspace(5 * h, seg.duration - 5 * h, 17)
    for tau in taus:
        fp = seg.flat(float(tau) + h)
        fm = seg.flat(float(tau) - h)
        f0 = seg.flat(float(tau))
        for order in orders:
            fd = (fp[order - 1] - fm[order - 1]) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(f0[order]))))
            assert np.max(np.abs(f0[order] - fd)) < rel * scale * 10


def test_lemniscate_start_point(params):
    seg = tj.Lemniscate(A=2.0, B=1.0, omega=0.8, center=[1, 2, params.r], T_Bz=5.0)
    f = seg.flat(0.0)
    np.testing.assert_allclose(f[0], [1, 2, params.r], atol=1e-15)
    np.testing.assert_allclose(f[1], [2.0 * 0.8, 2 * 1.0 * 0.8, 0.0], atol=1e-15)


def test_lemniscate_periodicity():
    seg = tj.Lemniscate(A=2.0, B=1.0, omega=0.8, laps=2.0)
    T = 2 * math.pi / 0.8
    np.testing.assert_allclose(seg.flat(0.3), seg.flat(0.3 + T), atol=1e-9)


def test_lemniscate_derivatives_match_fd():
    fd_check(tj.Lemniscate(A=2.0, B=1.0, omega=0.9))


def test_circle_derivatives_match_fd():
    fd_check(tj.Circle(radius=2.0, omega=0.7))


def test_straight_ramp_boundary_conditions():
    seg = tj.StraightRamp(
        p0=[0, 0, 0.15], direction=[1, 0, 0], v_start=0.0, v_end=1.5, duration=2.0
    )
    f0, f1 = seg.flat(0.0), seg.flat(seg.duration)
    np.testing.assert_allclose(f0[1], [0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(f1[1], [1.5, 0, 0], atol=1e-12)
    np.testing.assert_allclose(f0[2], [0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(f1[2], [0, 0, 0], atol=1e-12)
    fd_check(seg)


def test_quintic_blend_boundary_conditions():
    start = np.array([[0, 0, 0.15], [1, 0, 0], [0, 0, 0]], dtype=float)
    end = np.array([[2, 1, 1.2], [0.5, 0.5, 0], [0, -0.2, 0]], dtype=float)
    seg = tj.QuinticBlend(start=start, end=end, duration=2.5)
    np.testing.assert_allclose(seg.flat(0.0)[:3], start, atol=1e-9)
    np.testing.assert_allclose(seg.flat(2.5)[:3], end, atol=1e-9)
    fd_check(seg)


def test_quintic_blend_constant_when_endpoints_match():
    state = np.array([[1, 1, 0.5], [0, 0, 0], [0, 0, 0]], dtype=float)
    seg = tj.QuinticBlend(start=state, end=state, duration=1.0)
    for tau in np.linspace(0, 1, 7):
        np.testing.assert_allclose(seg.flat(float(tau))[0], [1, 1, 0.5], atol=1e-12)
        np.testing.assert_allclose(seg.flat(float(tau))[1:], np.zeros((4, 3)), atol=1e-12)


def test_scale_to_limits_compliant_segment_unchanged():
    seg = tj.Circle(radius=2.0, omega=0.1)
    rep = tj.scale_to_limits(seg, v_max=5.0, a_max=5.0)
    assert rep.dilation == 1.0
    assert rep.segment is seg


def test_scale_to_limits_quarters_accel_when_halving_rate():
    a = tj.segment_peaks(tj.Lemniscate(A=2.0, B=1.0, omega=1.0))[1]
    b = tj.segment_peaks(tj.Lemniscate(A=2.0, B=1.0, omega=0.5))[1]
    assert b == pytest.approx(a / 4.0, rel=1e-6)


def test_scale_to_limits_hits_requested_peaks():
    # speed-limited case: realized peak speed equals v_max, accel under cap
    seg = tj.Lemniscate(A=3.5, B=1.0, omega=1.3)
    rep = tj.scale_to_limits(seg, v_max=2.9, a_max=3.0)
    assert rep.peak_speed == pytest.approx(2.9, rel=1e-3)
    assert rep.peak_accel <= 3.0 + 1e-6


def test_scale_to_limits_never_increases_peaks():
    seg = tj.Lemniscate(A=2.0, B=0.8, omega=2.0)
    pv, pa = tj.segment_peaks(seg)
    rep = tj.scale_to_limits(seg, v_max=1.0, a_max=1.0)
    assert rep.peak_speed <= pv and rep.peak_accel <= pa
    assert rep.peak_speed <= 1.0 + 1e-9 and rep.peak_accel <= 1.0 + 1e-9


def test_time_dilated_derivative_scaling():
    seg = tj.Lemniscate(A=1.5, B=0.7, omega=1.1)
    two = tj.TimeDilated(seg, 2.0)
    f = seg.flat(0.4)
    g = two.flat(0.8)
    for order in range(5):
        np.testing.assert_allclose(g[order], f[order] / 2.0**order, atol=1e-12)
    fd_check(two)


def test_hybrid_rejects_discontinuous_joints(params):
    a = tj.Line(p0=[0, 0, params.r], velocity=[1, 0, 0], duration=1.0, T_Bz=5.0)
    b = tj.Line(p0=[5, 0, params.r], velocity=[1, 0, 0], duration=1.0, T_Bz=5.0)
    with pytest.raises(ValueError):
        tj.HybridTrajectory([a, b])


def test_hybrid_locate_and_duration(params):
    a = tj.Line(p0=[0, 0, params.r], velocity=[1, 0, 0], duration=1.0, T_Bz=5.0)
    b = tj.Line(p0=[1, 0, params.r], velocity=[1, 0, 0], duration=2.0, T_Bz=5.0)
    traj = tj.HybridTrajectory([a, b])
    assert traj.duration == 3.0
    seg, tau = traj.locate(1.5)
    assert seg is b and tau == pytest.approx(0.5)


def test_sample_references_rest_hold(params):
    seg = tj.Rest(p0=[1, 2, params.r], psi0=0.3, duration=2.0, T_Bz=4.0)
    traj = tj.HybridTrajectory([seg])
    refs = traj.sample_references(0.5, 5, 0.05, params)
    assert len(refs) == 6
    for r in refs:
        np.testing.assert_allclose(r.x_r.p, [1, 2, params.r], atol=1e-12)
        assert r.u_r.T1 == pytest.approx(2.0, abs=1e-12)
        assert r.mode is Mode.GROUND


def test_sample_references_shift_property(params):
    seg = tj.Lemniscate(A=2.5, B=0.8, omega=0.6, center=[0, 0, params.r], T_Bz=5.0, laps=2.0)
    traj = tj.HybridTrajectory([seg])
    a = traj.sample_references(1.0, 6, 0.05, params)
    b = traj.sample_references(1.05, 5, 0.05, params)
    for ra, rb in zip(a[1:], b):
        np.testing.assert_allclose(ra.x_array(), rb.x_array(), atol=1e-12)
        np.testing.assert_allclose(ra.u, rb.u, atol=1e-12)


def test_aerial_tangent_yaw_at_rest_holds_the_segment_heading(params):
    # a blend without a yaw profile follows the travel direction; at rest
    # and without a hint it holds its psi0, or 0.0 without one
    start = np.array([[0, 0, 1.0], [0, 0, 0], [0, 0, 0]])
    end = np.array([[1.0, 0.5, 1.5], [0, 0, 0], [0, 0, 0]])
    for psi0, want in ((1.2, 1.2), (None, 0.0)):
        traj = tj.HybridTrajectory(
            [tj.QuinticBlend(start=start, end=end, duration=2.0, psi0=psi0)])
        ref = traj.reference(0.0, params)
        assert ref.heading == "held" and ref.psi == want
        assert math.copysign(1.0, ref.psi) == 1.0
        assert traj.reference(0.0, params, psi_hint=want + 7.0).psi == want + 7.0
        assert traj.reference(1.0, params).heading == "tangent"


def test_sample_references_hold_beyond_end(params):
    seg = tj.Line(p0=[0, 0, params.r], velocity=[1, 0, 0], duration=1.0, T_Bz=5.0)
    traj = tj.HybridTrajectory([seg])
    refs = traj.sample_references(0.9, 6, 0.05, params)
    last = refs[-1]
    np.testing.assert_allclose(last.x_r.p, [1.0, 0, params.r], atol=1e-12)
    np.testing.assert_allclose(last.x_r.v, np.zeros(3), atol=1e-12)


def test_ground_eight_shape_feasibility_sweep(params):
    # paper-scale ground 8 at 0.6 m g vertical thrust: all samples feasible
    rep = tj.scale_to_limits(
        tj.Lemniscate(A=3.5, B=1.0, omega=1.0, center=[0, 0, params.r],
                      T_Bz=0.6 * params.weight, laps=1.0),
        v_max=2.8, a_max=3.0,
    )
    traj = tj.HybridTrajectory([rep.segment])
    n = 240
    hint = None
    for i in range(n):
        t = traj.duration * i / n
        ref = traj.reference(t, params, psi_hint=hint)
        hint = ref.psi
        ref.u_r.validate(params)


def test_takeoff_blend_matches_endpoints(params):
    ground_end = tj.Rest(p0=[0, 0, params.r], psi0=0.0, duration=1.0,
                         T_Bz=params.weight, mode=Mode.GROUND)
    air = tj.Line(p0=[2.0, 0, 1.2], velocity=[1.5, 0, 0], duration=2.0, mode=Mode.AERIAL)
    blend = tj.takeoff_landing_blend(
        ground_end, air, T_blend=2.0, a_max=2.2,
        yaw_bc=(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    )
    np.testing.assert_allclose(blend.flat(0.0)[:3], ground_end.end_flat()[:3], atol=1e-9)
    np.testing.assert_allclose(blend.flat(blend.duration)[:3], air.start_flat()[:3], atol=1e-9)


def test_takeoff_blend_extends_duration_on_accel_violation(params):
    ground_end = tj.Rest(p0=[0, 0, params.r], psi0=0.0, duration=1.0,
                         T_Bz=params.weight, mode=Mode.GROUND)
    air = tj.Line(p0=[4.0, 0, 2.0], velocity=[2.0, 0, 0], duration=2.0, mode=Mode.AERIAL)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        blend = tj.takeoff_landing_blend(ground_end, air, T_blend=0.5, a_max=2.0)
    assert blend.duration > 0.5
    assert any("extended" in str(x.message) for x in w)
    assert tj.segment_peaks(blend, n=501)[1] <= 2.0 + 1e-9
