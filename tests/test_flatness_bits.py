"""The flatness transforms on Python floats against their numpy bodies
(`flatness_reference`): for every sample, both return the same bits of x,
u, psi, roll_residual, flags and heading, or raise the same exception type
with the same message.  Samples cover tangent, held and explicit headings,
hints across +-pi, ramped thrust, clamping on and off, 3-vectors given as
arrays, lists or tuples, and every way a transform raises."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flatness_reference as ref
from wheeled_bicopter import cli
from wheeled_bicopter import flatness as fl
from wheeled_bicopter import trajectory as tj
from wheeled_bicopter.core import SPEED_EPS, InfeasibleReferenceError, VehicleParams

PARAMS = VehicleParams()
WEIGHT = PARAMS.weight


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def outcome(transform, sample, clamp, params=PARAMS):
    """What a transform makes of a sample: the bits of its reference point,
    or the type and message of what it raised."""
    try:
        with np.errstate(all="ignore"):
            r = transform(sample, params, clamp=clamp)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    return (r.x.tobytes(), r.u.tobytes(), _bits(r.psi), _bits(r.roll_residual), r.flags,
            r.heading, r.mode, r.t)


def assert_same(sample, clamp, params=PARAMS):
    if isinstance(sample, fl.FlatSampleGround):
        new, old = fl.ground_flat_to_reference, ref.ground_flat_to_reference
    else:
        new, old = fl.aerial_flat_to_reference, ref.aerial_flat_to_reference
    got = outcome(new, sample, clamp, params)
    assert got == outcome(old, sample, clamp, params)
    return got


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

# a Vec3 is whatever supports indexing and `@` with an array
as_vec = st.sampled_from([np.array, list, tuple])


def scalar(bound):
    return st.one_of(st.floats(-bound, bound), st.sampled_from([0.0, -0.0]))


def components(bound, n):
    """n components in (-bound, bound): hypothesis' floats, which favour
    zeros and short values, or uniform draws from a seeded generator, whose
    products round as those of measured data do."""
    def uniform(seed):
        return tuple(np.random.default_rng(seed).uniform(-bound, bound, n).tolist())
    return st.one_of(st.tuples(*[scalar(bound)] * n), st.integers(0, 2**32 - 1).map(uniform))


def vec3(bound, z=None):
    if z is None:
        return components(bound, 3)
    return st.tuples(components(bound, 2), z).map(lambda c: (*c[0], c[1]))


# inside the speed dead band too, where a ground heading is held
deadband = st.floats(-0.6 * SPEED_EPS, 0.6 * SPEED_EPS)
planar_speed = st.one_of(components(3.0, 2), st.tuples(deadband, deadband))
hint = st.one_of(st.none(), st.floats(-3.0 * math.pi, 3.0 * math.pi),
                 st.sampled_from([math.pi, -math.pi]))


def rarely(strategy, other):
    """Mostly `strategy`, and one draw in eight from `other`."""
    return st.integers(0, 7).flatmap(lambda i: strategy if i else other)


# now and then a position that is not finite
position = rarely(vec3(50.0), st.sampled_from([(math.nan, 0.0, 0.1), (0.0, math.inf, 0.1)]))


@st.composite
def ground_samples(draw):
    wrap = draw(as_vec)
    # within the planarity tolerance, and now and then just outside it
    planar = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.2e-9, 1.2e-9))
    return fl.FlatSampleGround(
        p=wrap(draw(position)),
        v=wrap((*draw(planar_speed), draw(planar))),
        a=wrap(draw(vec3(8.0, planar))),
        j=wrap(draw(vec3(30.0))),
        s=wrap(draw(vec3(100.0))),
        # (0, m g] and now and then outside it
        T_Bz=draw(rarely(st.floats(0.05 * WEIGHT, WEIGHT), st.floats(-1.0, 1.5 * WEIGHT))),
        dT_Bz=draw(st.one_of(st.just(0.0), st.floats(-20.0, 20.0))),
        ddT_Bz=draw(st.one_of(st.just(0.0), st.floats(-200.0, 200.0))),
        t=draw(st.floats(0.0, 100.0)),
        psi_hint=draw(hint),
    )


@st.composite
def aerial_samples(draw):
    wrap = draw(as_vec)
    return fl.FlatSampleAerial(
        p=wrap(draw(position)),
        v=wrap(draw(vec3(5.0))),
        # down to free fall and below, where the thrust direction degenerates
        a=wrap(draw(vec3(12.0, st.floats(-1.2 * PARAMS.g, 15.0)))),
        j=wrap(draw(vec3(40.0))),
        s=wrap(draw(vec3(150.0))),
        psi=draw(st.floats(-3.0 * math.pi, 3.0 * math.pi)),
        psi_dot=draw(scalar(4.0)),
        psi_ddot=draw(scalar(20.0)),
        t=draw(st.floats(0.0, 100.0)),
        heading=draw(st.sampled_from(["explicit", "tangent", "held"])),
    )


def _ground(v=(1.0, 0.0, 0.0), a=(0.0, 0.0, 0.0), T_Bz=0.6 * WEIGHT, hint=None, **kw):
    return fl.FlatSampleGround(p=np.array([0.0, 0.0, PARAMS.r]), v=np.array(v),
                               a=np.array(a), j=np.zeros(3), s=np.zeros(3), T_Bz=T_Bz,
                               psi_hint=hint, **kw)


def _aerial(p=(0.0, 0.0, 1.0), a=(0.0, 0.0, 0.0), psi=0.0, psi_dot=0.0, **kw):
    return fl.FlatSampleAerial(p=list(p), v=(0.0, 0.0, 0.0), a=a, j=(0.0, 0.0, 0.0),
                               s=(0.0, 0.0, 0.0), psi=psi, psi_dot=psi_dot, psi_ddot=0.0, **kw)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@example(_ground(), False)
@example(_ground(v=(0.0, 0.0, 0.0), hint=3.0, dT_Bz=2.0, ddT_Bz=-5.0), False)  # held ramp
@example(_ground(v=(0.0, 0.0, 0.0)), False)  # at rest without a hint
@example(_ground(T_Bz=1.2 * WEIGHT), False)  # thrust above the weight
@example(_ground(v=(1.0, 0.0, 0.1)), False)  # off the plane
@example(_ground(a=(9.0, 0.0, 0.0)), False)  # pitch beyond the arcsine
@example(_ground(v=(-2.0, 0.1, 0.0), hint=-3.0), True)  # hint across -pi
@example(fl.FlatSampleGround(  # a tight turn lifts the inner wheel
    p=np.zeros(3), v=np.array([3.0, 0.0, 0.0]), a=np.array([0.0, 20.0, 0.0]),
    j=np.zeros(3), s=np.zeros(3), T_Bz=0.3 * WEIGHT), True)
@given(ground_samples(), st.booleans())
def test_ground_transform_on_floats_has_the_bits_of_the_numpy_body(sample, clamp):
    assert_same(sample, clamp)


@settings(max_examples=400, deadline=None)
@example(_aerial(), False)  # hover
@example(_aerial(a=(0.0, 0.0, -PARAMS.g)), False)  # free fall
@example(_aerial(a=(3.0, 2.0, 1.0), psi=3.1, psi_dot=2.0), False)  # over the bounds
@example(_aerial(a=(3.0, 2.0, 1.0), psi=-3.1, psi_dot=2.0), True)
@example(_aerial(p=(math.nan, 0.0, 1.0)), False)  # a non-finite state
@given(aerial_samples(), st.booleans())
def test_aerial_transform_on_floats_has_the_bits_of_the_numpy_body(sample, clamp):
    assert_same(sample, clamp)


def test_bundled_scenario_samples_have_the_bits_of_the_numpy_bodies(monkeypatch):
    # every sample the bundled trajectories make, held headings and thrust
    # ramps included, through the hint chain of an open loop
    seen = {"ground": 0, "aerial": 0, "held": 0, "ramp": 0}

    def checked(mode, transform):
        def call(sample, params, clamp=False):
            seen[mode] += 1
            seen["ramp"] += getattr(sample, "dT_Bz", 0.0) != 0.0
            assert_same(sample, clamp)
            out = transform(sample, params, clamp=clamp)
            seen["held"] += out.heading == "held"
            return out
        return call

    monkeypatch.setattr(tj, "ground_flat_to_reference",
                        checked("ground", fl.ground_flat_to_reference))
    monkeypatch.setattr(tj, "aerial_flat_to_reference",
                        checked("aerial", fl.aerial_flat_to_reference))
    for name in ("ground_8shape_slippery", "aerial_8shape", "hybrid_3d"):
        sc = cli.ScenarioConfig.from_dict(cli.load_bundled_scenario(name), name)
        traj, _ = cli.build_trajectory(sc)
        psi = None
        for t in np.linspace(0.0, traj.duration + 0.5, 400):
            try:
                psi = traj.reference(float(t), sc.params, psi_hint=psi, clamp=True).psi
            except InfeasibleReferenceError:
                psi = None
    assert min(seen.values()) > 0, seen


def test_a_singular_lateral_solve_divides_as_numpy_scalars_do():
    # the ground transform's 2x2 roll/yaw solve is singular where
    # A11 A22 = A12 A21; at rest (mu_eff = 0) and pitch asin(Z) that is
    # h1 = 3 r cos / (3 cos^2 + sin^2), searched to the float that makes
    # the determinant 0.0; 0/0 is then NaN, not ZeroDivisionError
    T = 0.6 * WEIGHT
    ax = 0.95 * T / PARAMS.m
    theta = math.asin((PARAMS.m * ax + 0.0 * PARAMS.m * PARAMS.g) / (1.0 * T)) - math.atan(0.0)
    sth, cth = math.sin(theta), math.cos(theta)
    r, l = PARAMS.r, PARAMS.l

    def det(h1):
        return ((3.0 * h1 * cth - 3.0 * r) * (cth * l)
                - (sth * l) * (-sth * h1 + 2.0 * 0.0 * (r - h1 * cth)))

    h1 = 3.0 * r * cth / (3.0 * cth * cth + sth * sth)
    for _ in range(1000):
        if det(h1) == 0.0:
            break
        h1 = math.nextafter(h1, math.inf if det(h1) < 0.0 else -math.inf)
    assert det(h1) == 0.0
    params = VehicleParams(h1=h1)
    got = assert_same(_ground(v=(0.0, 0.0, 0.0), a=(ax, 0.0, 0.0), T_Bz=T, hint=0.0),
                      False, params)
    assert np.isnan(np.frombuffer(got[1])).all()
