import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wheeled_bicopter.core import Mode, VehicleParams
from wheeled_bicopter import cli
from wheeled_bicopter import trajectory as tj


class AerialRamp(tj.StraightRamp):
    """A straight aerial segment (`tj.StraightRamp` is a ground one)."""

    mode = Mode.AERIAL


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
    # at one speed: a constant-velocity leg
    p0, d = np.array([1.0, 2.0, 0.15]), np.array([0.6, -0.8, 0.0])
    leg = tj.StraightRamp(p0=p0, direction=d, v_start=1.2, v_end=1.2, duration=1.5)
    for tau in np.linspace(0.0, leg.duration, 7):
        f = leg.flat(float(tau))
        np.testing.assert_allclose(f[0], p0 + 1.2 * tau * d, rtol=0, atol=1e-14)
        np.testing.assert_allclose(f[1], 1.2 * d, rtol=0, atol=1e-15)
        assert not f[2:].any()
    fd_check(leg)


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


def test_paced_lemniscate_derivative_scaling():
    seg = tj.Lemniscate(A=1.5, B=0.7, omega=1.1)
    two = replace(seg, pace=2.0)
    assert two.duration == 2.0 * seg.duration
    f = seg.flat(0.4)
    g = two.flat(0.8)
    for order in range(5):
        np.testing.assert_allclose(g[order], f[order] / 2.0**order, atol=1e-12)
    fd_check(two)


def test_hybrid_rejects_discontinuous_joints(params):
    a = tj.StraightRamp(p0=[0, 0, params.r], direction=[1, 0, 0], v_start=1.0, v_end=1.0,
                        duration=1.0, T_Bz=5.0)
    b = tj.StraightRamp(p0=[5, 0, params.r], direction=[1, 0, 0], v_start=1.0, v_end=1.0,
                        duration=1.0, T_Bz=5.0)
    with pytest.raises(ValueError):
        tj.HybridTrajectory([a, b])


def test_hybrid_locate_and_duration(params):
    a = tj.StraightRamp(p0=[0, 0, params.r], direction=[1, 0, 0], v_start=1.0, v_end=1.0,
                        duration=1.0, T_Bz=5.0)
    b = tj.StraightRamp(p0=[1, 0, params.r], direction=[1, 0, 0], v_start=1.0, v_end=1.0,
                        duration=2.0, T_Bz=5.0)
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
    # and without a hint it holds heading 0.0 (a blend has no heading of its
    # own), or the hint with one
    start = np.array([[0, 0, 1.0], [0, 0, 0], [0, 0, 0]])
    end = np.array([[1.0, 0.5, 1.5], [0, 0, 0], [0, 0, 0]])
    traj = tj.HybridTrajectory([tj.QuinticBlend(start=start, end=end, duration=2.0)])
    ref = traj.reference(0.0, params)
    assert ref.heading == "held" and ref.psi == 0.0
    assert math.copysign(1.0, ref.psi) == 1.0
    assert traj.reference(0.0, params, psi_hint=7.0).psi == 7.0
    assert traj.reference(1.0, params).heading == "tangent"


def test_sample_references_hold_beyond_end(params):
    seg = tj.StraightRamp(p0=[0, 0, params.r], direction=[1, 0, 0], v_start=1.0, v_end=1.0,
                          duration=1.0, T_Bz=5.0)
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
    air = AerialRamp(p0=[2.0, 0, 1.2], direction=[1, 0, 0], v_start=1.5, v_end=1.5, duration=2.0)
    blend = tj.takeoff_landing_blend(
        ground_end, air, T_blend=2.0, a_max=2.2,
        yaw_bc=(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    )
    np.testing.assert_allclose(blend.flat(0.0)[:3], ground_end.end_flat()[:3], atol=1e-9)
    np.testing.assert_allclose(blend.flat(blend.duration)[:3], air.start_flat()[:3], atol=1e-9)


def test_takeoff_blend_extends_duration_on_accel_violation(params):
    ground_end = tj.Rest(p0=[0, 0, params.r], psi0=0.0, duration=1.0,
                         T_Bz=params.weight, mode=Mode.GROUND)
    air = AerialRamp(p0=[4.0, 0, 2.0], direction=[1, 0, 0], v_start=2.0, v_end=2.0, duration=2.0)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        blend = tj.takeoff_landing_blend(ground_end, air, T_blend=0.5, a_max=2.0)
    assert blend.duration > 0.5
    assert any("extended" in str(x.message) for x in w)
    assert tj.segment_peaks(blend, n=501)[1] <= 2.0 + 1e-9


# ---------------------------------------------------------------------------
# batched flat outputs and segment_peaks
# ---------------------------------------------------------------------------


def reference_flat(seg, tau: float) -> np.ndarray:
    """The scalar `flat` bodies from before `flat` took arrays (`math`
    sin/cos, one quintic derivative at a time), kept as the oracle of the
    per-tick bits."""
    out = np.zeros((5, 3))
    if isinstance(seg, tj.Lemniscate) and seg.pace != 1.0:
        # the unpaced eight at tau / pace, row k divided by pace**k
        out = reference_flat(replace(seg, pace=1.0), tau / seg.pace)
        for order in range(1, 5):
            out[order] /= seg.pace**order
    elif isinstance(seg, tj.Lemniscate):
        w, A, B = seg.omega, seg.A, seg.B
        s1, c1 = math.sin(w * tau), math.cos(w * tau)
        s2, c2 = math.sin(2 * w * tau), math.cos(2 * w * tau)
        out[0] = seg.center + np.array([A * s1, B * s2, 0.0])
        out[1] = [A * w * c1, 2 * B * w * c2, 0.0]
        out[2] = [-A * w**2 * s1, -4 * B * w**2 * s2, 0.0]
        out[3] = [-A * w**3 * c1, -8 * B * w**3 * c2, 0.0]
        out[4] = [A * w**4 * s1, 16 * B * w**4 * s2, 0.0]
    elif isinstance(seg, tj.Circle):
        w, R = seg.omega, seg.radius
        c, s = math.cos(w * tau), math.sin(w * tau)
        out[0] = np.zeros(3) + np.array([R * c, R * s, 0.0])  # offset as `_planar` does
        out[1] = [-R * w * s, R * w * c, 0.0]
        out[2] = [-R * w**2 * c, -R * w**2 * s, 0.0]
        out[3] = [R * w**3 * s, -R * w**3 * c, 0.0]
        out[4] = [R * w**4 * c, R * w**4 * s, 0.0]
    elif isinstance(seg, tj.Rest):
        out[0] = seg.p0
    elif isinstance(seg, tj.StraightRamp):
        L = 0.5 * (seg.v_start + seg.v_end) * seg.duration
        c = tj._quintic_coeffs(0.0, seg.v_start, 0.0, L, seg.v_end, 0.0, seg.duration)
        out[0] = seg.p0 + seg.direction * reference_quintic(c, tau, 0)
        for order in range(1, 5):
            out[order] = seg.direction * reference_quintic(c, tau, order)
    else:
        for i in range(3):
            c = tj._quintic_coeffs(*seg.start[:, i], *seg.end[:, i], seg.duration)
            for order in range(5):
                out[order, i] = reference_quintic(c, tau, order)
    return out


def reference_quintic(c, tau: float, order: int):
    out = 0.0
    for k in range(order, 6):
        f = 1.0
        for j in range(order):
            f *= k - j
        out += c[k] * f * tau ** (k - order)
    return out


def per_sample_peaks(seg, n: int = 2001):
    """The loop `segment_peaks` replaced: one scalar `flat` and two
    `np.linalg.norm` calls per sample."""
    pv = pa = 0.0
    for tau in np.linspace(0.0, seg.duration, n):
        f = seg.flat(float(tau))
        pv = max(pv, float(np.linalg.norm(f[1])))
        pa = max(pa, float(np.linalg.norm(f[2])))
    return pv, pa


def span(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


vec3 = st.tuples(span(-5.0, 5.0), span(-5.0, 5.0), span(-5.0, 5.0)).map(np.array)
duration = span(0.05, 8.0)
speed = span(0.0, 4.0)
SEGMENTS = {
    "lemniscate": st.builds(
        tj.Lemniscate, A=span(0.1, 5.0), B=span(0.1, 5.0), omega=span(0.05, 4.0),
        center=vec3, laps=span(0.1, 3.0), mode=st.sampled_from(Mode),
        pace=st.just(1.0) | span(0.2, 5.0)),
    "circle": st.builds(
        tj.Circle, radius=span(0.1, 5.0), omega=span(0.05, 4.0)),
    "rest": st.builds(tj.Rest, p0=vec3, psi0=span(-4.0, 4.0), duration=duration),
    # v_end is v_start (a constant-speed leg) or drawn on its own
    "ramp": speed.flatmap(lambda v: st.builds(
        tj.StraightRamp, p0=vec3,
        direction=st.tuples(span(-1.0, 1.0), span(-1.0, 1.0), st.just(0.0))
        .filter(lambda d: math.hypot(d[0], d[1]) > 0.1),
        v_start=st.just(v), v_end=st.just(v) | speed, duration=duration)),
    "blend": st.builds(
        tj.QuinticBlend,
        start=st.tuples(vec3, vec3, vec3).map(np.array),
        end=st.tuples(vec3, vec3, vec3).map(np.array), duration=duration,
        yaw_bc=st.none() | st.tuples(*[span(-4.0, 4.0)] * 6)),
}


@pytest.mark.parametrize("kind", sorted(SEGMENTS))
@settings(max_examples=30, deadline=None)
@given(data=st.data(), fractions=st.lists(span(0.0, 1.0), max_size=12))
def test_batched_flat_rows_have_the_bits_of_scalar_calls(kind, data, fractions):
    seg = data.draw(SEGMENTS[kind])
    taus = np.array([0.0, seg.duration] + [u * seg.duration for u in fractions])
    batch = seg.flat(taus)
    assert batch.shape == (len(taus), 5, 3)
    for row, tau in zip(batch, taus.tolist()):
        one = seg.flat(tau)
        assert one.shape == (5, 3)
        assert one.tobytes() == row.tobytes()
        assert one.tobytes() == reference_flat(seg, tau).tobytes()
    if kind == "blend" and seg.yaw_bc is not None:
        c = tj._quintic_coeffs(*seg.yaw_bc, seg.duration)
        for tau in taus.tolist():
            want = [reference_quintic(c, tau, k) for k in range(3)]
            assert np.array(seg.yaw(tau)).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("kind", ["blend", "circle", "lemniscate", "ramp"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_segment_peaks_equals_the_per_sample_loop(kind, data):
    seg = data.draw(SEGMENTS[kind])
    for n in (2001, 501):  # the counts scale_to_limits and the blends use
        assert tj.segment_peaks(seg, n) == per_sample_peaks(seg, n)


class Samples(tj.Segment):
    """Given velocity and acceleration rows at tau = 0, 1, ..., n - 1: the
    samples `segment_peaks(seg, n)` takes."""

    mode = Mode.GROUND

    def __init__(self, v, a):
        self.v, self.a = np.array(v, dtype=float), np.array(a, dtype=float)
        self.duration = len(self.v) - 1.0

    def flat(self, tau):
        i = np.rint(tau).astype(int)
        out = np.zeros(np.shape(tau) + (5, 3))
        out[..., 1, :], out[..., 2, :] = self.v[i], self.a[i]
        return out


def test_segment_peaks_of_a_rest_is_zero():
    seg = tj.Rest(p0=[1.0, 2.0, 0.1], psi0=0.3, duration=2.0)
    assert tj.segment_peaks(seg) == (0.0, 0.0) == per_sample_peaks(seg)


def test_segment_peaks_takes_the_exact_norm_of_tied_and_banded_rows():
    # with an FMA ddot (OpenBLAS's Haswell kernel) the sum-of-squares
    # screen and np.linalg.norm round these rows differently:
    # `alone` has a screened norm one ulp above its exact norm, and of the
    # permutations `screened` and `exact`, the screen ranks `screened`
    # higher while the exact norm of `exact` is larger, so `exact` is
    # chosen only from inside the band below the screened maximum
    alone = [0.320984112446955, 2.973001700606356, 1.7559715152825186]
    screened = [-1.697110455488831, -1.795386275032684, -2.801551875735428]
    exact = [screened[2], screened[0], screened[1]]
    tied = [[1.0, 2.0, 2.0], [2.0, 2.0, 1.0], [0.5, 0.0, 0.0]]
    just_inside = [3.0 * (1.0 - 0.4e-12), 0.0, 0.0]
    cases = [
        ([alone, [0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0], alone]),
        ([screened, exact, [1.0, 1.0, 1.0]], [exact, [0.0, 0.0, 0.0], screened]),
        (tied, tied[::-1]),
        ([[3.0, 0.0, 0.0], just_inside], [just_inside, [3.0, 0.0, 0.0]]),
    ]
    for v, a in cases:
        seg = Samples(v, a)
        assert tj.segment_peaks(seg, len(v)) == per_sample_peaks(seg, len(v))
    assert tj.segment_peaks(Samples(tied, tied), 3) == (3.0, 3.0)


# ---------------------------------------------------------------------------
# the bundled eights, paced as before `Lemniscate.pace`
# ---------------------------------------------------------------------------


class TimeDilated(tj.Segment):
    """The wrapper that paced every bundled eight before `Lemniscate.pace`:
    `inner` slowed by `factor`, derivative k divided by factor**k in place."""

    def __init__(self, inner, factor):
        self.inner, self.factor, self.mode = inner, factor, inner.mode
        self.duration = inner.duration * factor
        self._divisor = np.array([[factor**order] for order in range(1, 5)])

    def flat(self, tau):
        out = self.inner.flat(tau / self.factor)
        out[..., 1:, :] /= self._divisor
        return out

    def thrust_profile(self, tau):
        T, dT, ddT = self.inner.thrust_profile(tau / self.factor)
        return T, dT / self.factor, ddT / self.factor**2

    def yaw(self, tau):
        y = self.inner.yaw(tau / self.factor)
        return None if y is None else (y[0], y[1] / self.factor, y[2] / self.factor**2)


def dilated_scale_to_limits(seg, v_max, a_max):
    """`scale_to_limits` as it was, pacing through `TimeDilated`."""
    pv, pa = tj.segment_peaks(seg)
    factor = max(1.0, pv / v_max, math.sqrt(pa / a_max))
    return tj.ScaleReport(segment=TimeDilated(seg, factor), peak_speed=pv / factor,
                          peak_accel=pa / factor**2, dilation=factor)


def product_configs(name):
    """The configs whose trajectories a bundled scenario builds: one per
    speed case of `run_benchmark_slippery`, one per mode of
    `run_energy_compare`, else the scenario's own."""
    cfg = cli.ScenarioConfig.from_dict(cli.load_bundled_scenario(name), name)
    t = cfg.trajectory
    if name == "benchmark_slippery":
        return [replace(cfg, trajectory={**t, "kind": "eight_ground", "v_max": v, "a_max": a})
                for v, a in t["speed_cases"]]
    if name == "energy_compare":
        return [replace(cfg, trajectory={**t, "kind": kind})
                for kind in ("eight_ground", "eight_aerial")]
    return [cfg]


def bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("name", [
    "aerial_8shape", "ground_8shape_rough", "ground_8shape_slippery",
    "benchmark_slippery", "energy_compare", "hybrid_3d"])
def test_bundled_eights_have_the_bits_of_the_time_dilated_eights(name, monkeypatch):
    calls, scale = [], tj.scale_to_limits

    def recorded(seg, v_max, a_max):
        calls.append((seg, v_max, a_max, scale(seg, v_max, a_max)))
        return calls[-1][-1]

    monkeypatch.setattr(tj, "scale_to_limits", recorded)
    configs = product_configs(name)
    for cfg in configs:
        cli.build_trajectory(cfg)
    # hybrid_3d scales its aerial eight twice: at the origin, to find the
    # offset, and at the offset
    assert len(calls) == (3 if name == "hybrid_3d" else len(configs))
    rng = np.random.default_rng(0)
    for seg, v_max, a_max, rep in calls:
        want = dilated_scale_to_limits(seg, v_max, a_max)
        assert rep.dilation > 1.0 and seg.pace == 1.0
        assert (bits([rep.peak_speed, rep.peak_accel, rep.dilation])
                == bits([want.peak_speed, want.peak_accel, want.dilation]))
        got, ref = rep.segment, want.segment
        assert bits(got.duration) == bits(ref.duration)
        taus = np.concatenate([[0.0, ref.duration], rng.uniform(0.0, ref.duration, 50)])
        assert got.flat(taus).tobytes() == ref.flat(taus).tobytes()
        for tau in taus.tolist():
            assert got.flat(tau).tobytes() == ref.flat(tau).tobytes()
            assert bits(got.thrust_profile(tau)) == bits(ref.thrust_profile(tau))
            assert got.yaw(tau) is ref.yaw(tau) is None
