"""Closed-form flat trajectory generators with analytic derivatives.

Segments produce position derivatives up to 4th order (the ground transform
needs snap for the angular accelerations), a mode annotation, a yaw policy
for aerial samples and a vertical-thrust profile for ground samples.  A
HybridTrajectory concatenates segments, checks joint continuity, and samples
mode-appropriate reference points through the flatness transforms.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .core import InfeasibleReferenceError, Mode, VehicleParams
from .flatness import (
    FlatSampleAerial,
    FlatSampleGround,
    ReferencePoint,
    aerial_flat_to_reference,
    ground_flat_to_reference,
    heading_turns,
    travel_heading,
)


class Segment:
    """Base flat-trajectory segment; local time runs over [0, duration]."""

    duration: float
    mode: Mode
    T_Bz: float = 0.0  # ground vertical body thrust, for segments without their own

    def flat(self, tau):
        """Position derivatives [p, v, a, j, s] at local time, as a new
        array: (5, 3) for one time, (N, 5, 3) for a 1-D array of N times,
        where row i has the bits of the call at the one time tau[i]."""
        raise NotImplementedError

    def thrust_profile(self, tau: float) -> Tuple[float, float, float]:
        """Ground vertical body thrust (value, rate, accel) at local time."""
        return self.T_Bz, 0.0, 0.0

    def heading_hint(self, tau: float) -> Optional[float]:
        return getattr(self, "psi0", None)

    def yaw(self, tau: float) -> Optional[Tuple[float, float, float]]:
        """Aerial yaw profile: an aerial segment with a fixed heading `psi0`
        holds it; None means heading-tangent yaw."""
        psi0 = self.heading_hint(tau)
        if psi0 is None or self.mode is not Mode.AERIAL:
            return None
        return psi0, 0.0, 0.0

    def end_flat(self) -> np.ndarray:
        return self.flat(self.duration)

    def start_flat(self) -> np.ndarray:
        return self.flat(0.0)


@dataclass
class Lemniscate(Segment):
    """Figure-eight Lissajous curve x = A sin(w t), y = B sin(2 w t)."""

    A: float
    B: float
    omega: float
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    mode: Mode = Mode.GROUND
    laps: float = 1.0
    T_Bz: float = 0.0

    def __post_init__(self):
        if min(self.A, self.B, self.omega) <= 0:
            raise ValueError("lemniscate parameters must be positive")
        self.center = np.asarray(self.center, dtype=float)
        self.duration = self.laps * 2.0 * math.pi / self.omega

    def flat(self, tau):
        w, A, B = self.omega, self.A, self.B
        s1, c1 = np.sin(w * tau), np.cos(w * tau)
        s2, c2 = np.sin(2 * w * tau), np.cos(2 * w * tau)
        return _planar(
            self.center,
            [A * s1, A * w * c1, -A * w**2 * s1, -A * w**3 * c1, A * w**4 * s1],
            [B * s2, 2 * B * w * c2, -4 * B * w**2 * s2, -8 * B * w**3 * c2,
             16 * B * w**4 * s2],
        )


@dataclass
class Circle(Segment):
    """One ground lap of a circle about the origin in the plane z = 0."""

    radius: float
    omega: float
    mode = Mode.GROUND

    def __post_init__(self):
        if min(self.radius, self.omega) <= 0:
            raise ValueError("circle parameters must be positive")
        self.duration = 2.0 * math.pi / self.omega

    def flat(self, tau):
        w, R = self.omega, self.radius
        c, s = np.cos(w * tau), np.sin(w * tau)
        return _planar(
            np.zeros(3),
            [R * c, -R * w * s, -R * w**2 * c, R * w**3 * s, R * w**4 * c],
            [R * s, R * w * c, -R * w**2 * s, -R * w**3 * c, R * w**4 * s],
        )


def _planar(p0: np.ndarray, x: list, y: list) -> np.ndarray:
    """Rows of a curve in the plane z = p0[2]: x and y list derivatives 0..4
    of each coordinate (numpy scalars or arrays), offset by p0."""
    out = np.zeros(x[0].shape + (5, 3))
    out[..., :2] = np.array([x, y]).T
    out[..., 0, :] += p0
    return out


@dataclass
class Line(Segment):
    """Constant-velocity straight segment."""

    p0: np.ndarray
    velocity: np.ndarray
    duration: float
    T_Bz: float = 0.0
    mode = Mode.GROUND

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        self.p0 = np.asarray(self.p0, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        self.psi0 = math.atan2(self.velocity[1], self.velocity[0])

    def flat(self, tau):
        tau = np.asarray(tau)
        out = np.zeros(tau.shape + (5, 3))
        out[..., 0, :] = self.p0 + self.velocity * tau[..., None]
        out[..., 1, :] = self.velocity
        return out


@dataclass
class Rest(Segment):
    """Standstill with a fixed heading and an optionally ramped thrust."""

    p0: np.ndarray
    psi0: float
    duration: float
    mode: Mode = Mode.GROUND
    T_Bz: float = 0.0
    T_Bz_end: Optional[float] = None

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        self.p0 = np.asarray(self.p0, dtype=float)

    def flat(self, tau):
        out = np.zeros(np.asarray(tau).shape + (5, 3))
        out[..., 0, :] = self.p0
        return out

    def thrust_profile(self, tau: float) -> Tuple[float, float, float]:
        if self.T_Bz_end is None:
            return self.T_Bz, 0.0, 0.0
        # smoothstep quintic ramp: C2 in time
        T = self.duration
        x = min(max(tau / T, 0.0), 1.0)
        s = x**3 * (10 - 15 * x + 6 * x * x)
        sd = (30 * x**2 - 60 * x**3 + 30 * x**4) / T
        sdd = (60 * x - 180 * x**2 + 120 * x**3) / T**2
        dT = self.T_Bz_end - self.T_Bz
        return self.T_Bz + dT * s, dT * sd, dT * sdd


@dataclass
class StraightRamp(Segment):
    """Straight-line speed change along a fixed direction (quintic speed
    profile); heading stays constant so it is safe through zero speed."""

    p0: np.ndarray
    direction: np.ndarray  # unit-norm planar direction
    v_start: float
    v_end: float
    duration: float
    T_Bz: float = 0.0
    mode = Mode.GROUND

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        self.p0 = np.asarray(self.p0, dtype=float)
        d = np.asarray(self.direction, dtype=float)
        self.direction = d / np.linalg.norm(d)
        self.psi0 = math.atan2(self.direction[1], self.direction[0])
        # arc length chosen so accel vanishes at both ends
        L = 0.5 * (self.v_start + self.v_end) * self.duration
        self._table = _derivative_table(
            _quintic_coeffs(0.0, self.v_start, 0.0, L, self.v_end, 0.0, self.duration))

    def flat(self, tau):
        out = _quintic_eval(self._table, tau) * self.direction
        out[..., 0, :] += self.p0
        return out


def _quintic_coeffs(y0, yd0, ydd0, y1, yd1, ydd1, T):
    """Quintic polynomial coefficients matching value/rate/accel at 0 and T."""
    a0, a1, a2 = y0, yd0, 0.5 * ydd0
    T2, T3, T4, T5 = T**2, T**3, T**4, T**5
    b0 = y1 - (a0 + a1 * T + a2 * T2)
    b1 = yd1 - (a1 + 2 * a2 * T)
    b2 = ydd1 - 2 * a2
    a3 = (20 * b0 - 8 * b1 * T + b2 * T2) / (2 * T3)
    a4 = (-30 * b0 + 14 * b1 * T - 2 * b2 * T2) / (2 * T4)
    a5 = (12 * b0 - 6 * b1 * T + b2 * T2) / (2 * T5)
    return np.array([a0, a1, a2, a3, a4, a5])


def _derivative_table(c: np.ndarray) -> np.ndarray:
    """D[order, k] = c[k] k (k-1) ... (k-order+1), shape (5, 6, m) for the
    coefficients c of shape (6,) or (6, m): term k of derivative `order` of
    sum_k c[k] tau^k is D[order, k] * tau**(k - order), zero for k < order."""
    c = c.reshape(6, -1)
    D = np.zeros((5,) + c.shape)
    for order in range(5):
        for k in range(order, 6):
            f = 1.0
            for j in range(order):
                f *= k - j
            D[order, k] = c[k] * f
    return D


def _quintic_eval(D: np.ndarray, tau) -> np.ndarray:
    """Derivatives 0..4 at tau of the polynomial with table D, shape
    shape(tau) + (5, m); each sums its terms from 0.0 in the order of k."""
    # R[..., 5 - j] = tau**j by Python's float power (numpy's array power
    # rounds some powers differently), then four zeros for j < 0
    tau = np.asarray(tau)
    R = np.array([[t**j for j in range(5, -1, -1)] + [0.0] * 4
                  for t in tau.ravel().tolist()]).reshape(tau.shape + (10, 1))
    out = 0.0
    for k in range(6):
        # term k of every order: R[..., 5 - k + order] = tau**(k - order)
        out = out + D[:, k] * R[..., 5 - k : 10 - k, :]
    return out


@dataclass
class QuinticBlend(Segment):
    """C2 polynomial bridge between two flat states (per-coordinate quintic).

    Optionally carries a quintic yaw profile; used for the takeoff and
    landing blends.  It has no thrust profile of its own (`Segment.T_Bz`).
    """

    start: np.ndarray  # (3, 3): p, v, a rows
    end: np.ndarray
    duration: float
    mode: Mode = Mode.AERIAL
    yaw_bc: Optional[Tuple[float, float, float, float, float, float]] = None
    psi0: Optional[float] = None

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        self.start = np.asarray(self.start, dtype=float)
        self.end = np.asarray(self.end, dtype=float)
        self._table = _derivative_table(np.array([
            _quintic_coeffs(
                self.start[0, i], self.start[1, i], self.start[2, i],
                self.end[0, i], self.end[1, i], self.end[2, i], self.duration,
            )
            for i in range(3)
        ]).T)
        if self.yaw_bc is not None:
            p0, pd0, pdd0, p1, pd1, pdd1 = self.yaw_bc
            self._yaw_table = _derivative_table(
                _quintic_coeffs(p0, pd0, pdd0, p1, pd1, pdd1, self.duration))
        else:
            self._yaw_table = None

    def flat(self, tau):
        return _quintic_eval(self._table, tau)

    def yaw(self, tau: float):
        if self._yaw_table is None:
            return None  # tangent yaw
        return tuple(_quintic_eval(self._yaw_table, tau)[:3, 0])


@dataclass
class TimeDilated(Segment):
    """Uniform time dilation of an inner segment (slower by `factor`)."""

    inner: Segment
    factor: float

    def __post_init__(self):
        if self.factor <= 0:
            raise ValueError("dilation factor must be positive")
        self.duration = self.inner.duration * self.factor
        self.mode = self.inner.mode
        # derivative order k is divided by factor**k
        self._divisor = np.array([[self.factor**order] for order in range(1, 5)])

    def flat(self, tau):
        out = self.inner.flat(tau / self.factor)
        out[..., 1:, :] /= self._divisor
        return out

    def thrust_profile(self, tau: float):
        T, dT, ddT = self.inner.thrust_profile(tau / self.factor)
        return T, dT / self.factor, ddT / self.factor**2

    def heading_hint(self, tau: float):
        return self.inner.heading_hint(tau / self.factor)

    def yaw(self, tau: float):
        y = self.inner.yaw(tau / self.factor)
        if y is None:
            return None
        return y[0], y[1] / self.factor, y[2] / self.factor**2


@dataclass
class ScaleReport:
    segment: Segment
    peak_speed: float
    peak_accel: float
    dilation: float


# relative band under the screened maximum whose rows get the exact norm;
# the screen and the exact norm differ by a few ulps
PEAK_BAND = 1e-12


def _peak_norm(rows: np.ndarray) -> float:
    """Largest norm of the rows (N, 3), with the bits of `np.linalg.norm`
    (the square root of a BLAS dot, which no numpy reduction reproduces).
    A vectorized sum of squares screens the rows; only those within
    PEAK_BAND of its maximum get the exact norm."""
    sq = (rows * rows).sum(axis=1)
    near = rows[sq >= sq.max(initial=0.0) * (1.0 - PEAK_BAND)]
    return max((math.sqrt(v @ v) for v in near), default=0.0)


def segment_peaks(seg: Segment, n: int = 2001) -> Tuple[float, float]:
    """Peak speed and acceleration over n evenly spaced local times, sampled
    in one batched `flat` call."""
    f = seg.flat(np.linspace(0.0, seg.duration, n))
    return _peak_norm(f[:, 1]), _peak_norm(f[:, 2])


def scale_to_limits(seg: Segment, v_max: float, a_max: float) -> ScaleReport:
    """Uniformly dilate time so the realized peak speed equals
    min(v_max, acceleration-limited speed) and peak accel stays <= a_max."""
    if v_max <= 0 or a_max <= 0:
        raise ValueError("limits must be positive")
    pv, pa = segment_peaks(seg)
    factor = max(1.0, pv / v_max, math.sqrt(pa / a_max))
    scaled = TimeDilated(seg, factor) if factor != 1.0 else seg
    # dilation divides speed by the factor and acceleration by its square
    return ScaleReport(segment=scaled, peak_speed=pv / factor, peak_accel=pa / factor**2,
                       dilation=factor)


def takeoff_landing_blend(
    from_seg: Segment,
    to_seg: Segment,
    T_blend: float,
    a_max: Optional[float] = None,
    yaw_bc: Optional[Tuple[float, float, float, float, float, float]] = None,
    psi0: Optional[float] = None,
) -> QuinticBlend:
    """Quintic bridge from the end of one segment to the start of the next,
    matching position, velocity and acceleration at both ends.  If the blend
    would exceed a_max its duration is extended (with a warning)."""
    start = from_seg.end_flat()[:3]
    end = to_seg.start_flat()[:3]
    T = T_blend
    for _ in range(16):
        blend = QuinticBlend(
            start=start, end=end, duration=T, mode=Mode.AERIAL, yaw_bc=yaw_bc, psi0=psi0
        )
        if a_max is None:
            return blend
        _, pa = segment_peaks(blend, n=501)
        if pa <= a_max:
            if T > T_blend:
                warnings.warn(
                    f"blend duration extended {T_blend:.2f}s -> {T:.2f}s to respect a_max"
                )
            return blend
        T *= 1.25
    raise ValueError("could not satisfy a_max by extending the blend")


# largest position or velocity jump [m, m/s] allowed at a segment joint
JOINT_TOL = 1e-6


@dataclass
class HybridTrajectory:
    """Ordered flat segments with machine-checked joint continuity."""

    segments: Sequence[Segment]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("trajectory needs at least one segment")
        # segment start times as Python floats, for `bisect`
        self.starts = np.concatenate(
            [[0.0], np.cumsum([s.duration for s in self.segments])]
        ).tolist()
        for i in range(len(self.segments) - 1):
            a = self.segments[i].end_flat()
            b = self.segments[i + 1].start_flat()
            gap_p = np.max(np.abs(a[0] - b[0]))
            gap_v = np.max(np.abs(a[1] - b[1]))
            if gap_p > JOINT_TOL or gap_v > JOINT_TOL:
                raise ValueError(
                    f"discontinuous joint between segments {i} and {i+1}: "
                    f"|dp|={gap_p:.2e}, |dv|={gap_v:.2e}"
                )

    @property
    def duration(self) -> float:
        return self.starts[-1]

    def locate(self, t: float) -> Tuple[Segment, float]:
        if t >= self.duration:
            seg = self.segments[-1]
            return seg, seg.duration
        t = max(t, 0.0)
        idx = min(bisect.bisect_right(self.starts, t) - 1, len(self.segments) - 1)
        return self.segments[idx], t - self.starts[idx]

    def reference(
        self,
        t: float,
        params: VehicleParams,
        psi_hint: Optional[float] = None,
        clamp: bool = False,
    ) -> ReferencePoint:
        seg, tau = self.locate(t)
        past_end = t >= self.duration
        f = seg.flat(tau)
        if past_end:
            f[1:] = 0.0
        if seg.mode is Mode.GROUND:
            T, dT, ddT = seg.thrust_profile(tau)
            if past_end:
                dT = ddT = 0.0
            hint = psi_hint if psi_hint is not None else seg.heading_hint(tau)
            sample = FlatSampleGround(
                p=f[0], v=f[1], a=f[2], j=f[3], s=f[4],
                T_Bz=T, dT_Bz=dT, ddT_Bz=ddT, t=t, psi_hint=hint,
            )
            return ground_flat_to_reference(sample, params, clamp=clamp)
        yaw = seg.yaw(tau)
        heading = "explicit"
        if yaw is None:
            # at rest without a chain hint: the segment's heading, or 0
            yaw = travel_heading(f[1], f[2], f[3], psi_hint) or (
                seg.heading_hint(tau) or 0.0, 0.0, 0.0, True)
            heading = "held" if yaw[3] else "tangent"
        psi, psi_dot, psi_ddot = yaw[:3]
        if past_end:
            psi_dot = psi_ddot = 0.0
        sample = FlatSampleAerial(
            p=f[0], v=f[1], a=f[2], j=f[3], s=f[4],
            psi=psi, psi_dot=psi_dot, psi_ddot=psi_ddot, t=t, heading=heading,
        )
        return aerial_flat_to_reference(sample, params, clamp=clamp)

    def sample_references(
        self, t0: float, K: int, dt: float, params: VehicleParams, clamp: bool = False
    ) -> List[ReferencePoint]:
        """K+1 reference points starting at t0, spaced dt apart, with the
        heading thread kept continuous across the window."""
        table = ReferenceTable(self, params, clamp=clamp)
        return table.window([(k, t0 + k * dt) for k in range(K + 1)])


def _same_bits(a: float, b: Optional[float]) -> bool:
    """a and b are the same float, signed zeros told apart."""
    return b is not None and a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _note_sample(exc: Exception, k: int, t: float) -> None:
    """Attach the window position to an exception, keeping its type and
    args (the note `add_note` would add on Python >= 3.11)."""
    exc.__notes__ = [*getattr(exc, "__notes__", ()), f"sample {k} (t={t:.3f}s)"]


class ReferenceTable:
    """Hint-less reference samples shared by overlapping horizon windows.

    Each key (a control-grid index when the horizon nodes lie on the control
    grid) is transformed once without a heading hint; `window` threads the
    heading through the entries.  A node whose heading is held (or whose
    hint-less transform failed) needs a transform with the hint itself,
    unless its entry already holds the hint's bits.  That transform depends
    only on the key and the hint, so it is kept in `held` under (key, hint)
    and made once however many windows meet the node.  Keys must grow with
    time: entries below a window's first key are dropped from both.
    """

    def __init__(self, traj: HybridTrajectory, params: VehicleParams, clamp: bool = False):
        self.traj = traj
        self.params = params
        self.clamp = clamp
        self.entries: Dict[Hashable, Optional[ReferencePoint]] = {}
        self.held: Dict[Tuple[Hashable, Optional[float]], ReferencePoint] = {}

    def _sample(self, t: float) -> Optional[ReferencePoint]:
        try:
            return self.traj.reference(t, self.params, clamp=self.clamp)
        except InfeasibleReferenceError:
            # e.g. a ground stop with no heading to hold: _resolve samples
            # again with the hint, and raises there if it still fails
            return None

    def _resolve(self, key: Hashable, t: float, psi_hint: Optional[float]) -> ReferencePoint:
        """The reference at t with the heading continued from psi_hint, made
        from the entry of `key` at t (None if its transform failed).

        Only a held heading needs a fresh transform: an explicit yaw ignores
        the hint and a tangent heading is unwrapped afterwards.  A held
        heading is the hint itself, so an entry that already holds the
        hint's bits is that transform.
        """
        base = self.entries[key]
        if base is not None and base.heading == "held" and _same_bits(base.psi, psi_hint):
            return base
        if base is None or (psi_hint is not None and base.heading == "held"):
            ref = self.held.get((key, psi_hint))
            if ref is None:
                ref = self.traj.reference(t, self.params, psi_hint=psi_hint, clamp=self.clamp)
                self.held[key, psi_hint] = ref
            return ref
        if psi_hint is not None and base.heading == "tangent":
            return base.turned(heading_turns(base.psi, psi_hint))
        return base

    def window(self, nodes: Sequence[Tuple[Hashable, float]]) -> List[ReferencePoint]:
        """References at the (key, time) nodes, heading-continuous from the first."""
        first = nodes[0][0]
        stale = [key for key in self.entries if key < first]
        for key in stale:
            del self.entries[key]
        if stale and self.held:
            self.held = {memo: ref for memo, ref in self.held.items() if memo[0] >= first}
        refs: List[ReferencePoint] = []
        hint: Optional[float] = None
        for k, (key, t) in enumerate(nodes):
            try:
                if key not in self.entries:
                    self.entries[key] = self._sample(t)
                ref = self._resolve(key, t, hint)
            except Exception as exc:
                _note_sample(exc, k, t)
                raise
            refs.append(ref)
            hint = ref.psi
        return refs
