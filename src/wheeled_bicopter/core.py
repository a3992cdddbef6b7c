"""Shared domain types and rotation algebra for the wheeled bi-copter toolkit.

Conventions used throughout the package:

* World frame W: z up, gravity (0, 0, -g).
* Intermediate frame G: world frame yawed about z so that x_G follows the
  vehicle heading.
* Body frame B: x forward, z up through the body; thrust lies in the y-z
  body plane.
* Euler angles are intrinsic Z-Y-X (yaw psi, pitch theta, roll phi), so the
  rotation matrix is R = Rz(psi) @ Ry(theta) @ Rx(phi).
* Quaternions are scalar-first (w, x, y, z) and unit-norm.
* Angular velocity `omega` is expressed in the world frame and satisfies
  Rdot = skew(omega) @ R.

Vectors are plain float64 numpy arrays of shape (3,); `vec3` is a small
constructor helper.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Tuple

import numpy as np

Vec3 = np.ndarray  # shape (3,), float64

GRAVITY = 9.81

# Gimbal-lock guard band for the Euler inverse map: |theta| > pi/2 - this
# is rejected.
GIMBAL_LOCK_MARGIN = 1e-3

# Speed dead-band below which heading/rolling-friction direction is undefined.
SPEED_EPS = 0.01


class ConfigError(ValueError):
    """Invalid configuration or parameter set."""


class GimbalLockError(ValueError):
    """Euler extraction requested too close to |pitch| = pi/2."""


class InfeasibleReferenceError(ValueError):
    """A flat sample cannot be realized by the vehicle model."""


class ContactLossError(RuntimeError):
    """Ground-mode force balance produced a non-positive total normal force."""


class DivergenceError(RuntimeError):
    """Simulation state left the sane numeric range."""


def vec3(x: float, y: float, z: float) -> Vec3:
    return np.array([float(x), float(y), float(z)])


def require_integer(value, name: str, least: int) -> int:
    """`value` as an int; raises ValueError for a bool, a non-integer or a
    value below `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# Quaternion helpers (scalar-first, unit norm)
# ---------------------------------------------------------------------------


def quat_normalize(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = math.sqrt(float(q @ q))
    if n < 1e-12:
        raise ValueError("cannot normalize near-zero quaternion")
    return q / n


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product a (x) b, broadcasting over leading axes."""
    a, b = np.asarray(a), np.asarray(b)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion, broadcasting over leading axes."""
    q = np.asarray(q)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1 - 2 * (yy + zz)
    R[..., 0, 1] = 2 * (xy - wz)
    R[..., 0, 2] = 2 * (xz + wy)
    R[..., 1, 0] = 2 * (xy + wz)
    R[..., 1, 1] = 1 - 2 * (xx + zz)
    R[..., 1, 2] = 2 * (yz - wx)
    R[..., 2, 0] = 2 * (xz - wy)
    R[..., 2, 1] = 2 * (yz + wx)
    R[..., 2, 2] = 1 - 2 * (xx + yy)
    return R


def quat_from_euler(phi: float, theta: float, psi: float) -> np.ndarray:
    """Unit quaternion for the intrinsic Z-Y-X rotation Rz(psi)Ry(theta)Rx(phi)."""
    cphi, sphi = math.cos(phi / 2), math.sin(phi / 2)
    cth, sth = math.cos(theta / 2), math.sin(theta / 2)
    cpsi, spsi = math.cos(psi / 2), math.sin(psi / 2)
    return np.array(
        [
            cpsi * cth * cphi + spsi * sth * sphi,
            cpsi * cth * sphi - spsi * sth * cphi,
            cpsi * sth * cphi + spsi * cth * sphi,
            spsi * cth * cphi - cpsi * sth * sphi,
        ]
    )


def quat_to_euler(q) -> Tuple[float, float, float]:
    """Z-Y-X Euler angles (phi, theta, psi) of a unit quaternion.

    Raises GimbalLockError when |theta| exceeds pi/2 - GIMBAL_LOCK_MARGIN.
    """
    w, x, y, z = q
    sin_theta = 2.0 * (w * y - z * x)
    if abs(sin_theta) > math.sin(math.pi / 2 - GIMBAL_LOCK_MARGIN):
        raise GimbalLockError(f"pitch too close to +-pi/2 (sin(theta)={sin_theta:.6f})")
    phi = math.atan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    theta = math.asin(max(-1.0, min(1.0, sin_theta)))
    psi = math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return phi, theta, psi


def quat_derivative(q, omega_world) -> np.ndarray:
    """Quaternion rate 0.5 (0, omega) (x) q for world-frame angular velocity
    (Rdot = skew(omega) R); q (..., 4) and omega (..., 3) share their
    leading axes."""
    q, w = np.asarray(q, dtype=float), np.asarray(omega_world, dtype=float)
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    ox, oy, oz = w[..., 0], w[..., 1], w[..., 2]
    out = np.empty_like(q)
    out[..., 0] = 0.5 * (-ox * qx - oy * qy - oz * qz)
    out[..., 1] = 0.5 * (ox * qw + oy * qz - oz * qy)
    out[..., 2] = 0.5 * (oy * qw + oz * qx - ox * qz)
    out[..., 3] = 0.5 * (oz * qw + ox * qy - oy * qx)
    return out


@dataclass
class Orientation:
    """Unit-quaternion attitude with an Euler view."""

    q: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))

    def __post_init__(self):
        self.q = quat_normalize(self.q)

    @classmethod
    def from_euler(cls, phi: float, theta: float, psi: float) -> "Orientation":
        return cls(quat_from_euler(phi, theta, psi))

    def to_euler(self) -> Tuple[float, float, float]:
        return quat_to_euler(self.q)


# ---------------------------------------------------------------------------
# State, input, mode
# ---------------------------------------------------------------------------


class Mode(Enum):
    """Locomotion mode; the value is the ground-interaction switch s of the
    dynamics."""

    AERIAL = 0
    GROUND = 1


@dataclass
class RobotState:
    """Vehicle state: position/velocity (world), attitude, world-frame angular rate."""

    p: Vec3
    v: Vec3
    q: Orientation
    omega: Vec3

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if not isinstance(self.q, Orientation):
            self.q = Orientation(np.asarray(self.q, dtype=float))
        self.omega = np.asarray(self.omega, dtype=float)
        if not (
            np.all(np.isfinite(self.p))
            and np.all(np.isfinite(self.v))
            and np.all(np.isfinite(self.omega))
        ):
            raise ValueError("non-finite state component")

    @classmethod
    def rest(cls, p=(0.0, 0.0, 0.0)) -> "RobotState":
        """At rest at position p, level and heading along world x."""
        return cls(vec3(*p), np.zeros(3), Orientation(), np.zeros(3))

    def as_array(self) -> np.ndarray:
        """Pack as [p(3), v(3), q(4), omega(3)]."""
        return np.concatenate([self.p, self.v, self.q.q, self.omega])


@dataclass
class ControlInput:
    """Two rotor thrusts [N] and two servo tilt angles [rad]."""

    T1: float
    T2: float
    delta1: float
    delta2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.T1, self.T2, self.delta1, self.delta2])

    def validate(self, params: "VehicleParams") -> None:
        if not (0.0 <= self.T1 <= params.T_max and 0.0 <= self.T2 <= params.T_max):
            raise ValueError(
                f"thrust out of [0, {params.T_max}]: T1={self.T1}, T2={self.T2}"
            )
        if max(abs(self.delta1), abs(self.delta2)) > params.delta_max:
            raise ValueError(
                f"servo angle out of [-{params.delta_max}, {params.delta_max}]"
            )


@dataclass
class VehicleParams:
    """Physical constants of the vehicle and environment.

    Defaults are the prototype values used throughout the package; `c_q` and
    the friction coefficients are not part of that table and default to
    typical micro-air-vehicle magnitudes. `S` is the swept area of one
    5-inch propeller.
    """

    m: float = 0.83  # total mass [kg]
    m_w: float = 0.09  # single wheel mass [kg]
    J: np.ndarray = field(
        default_factory=lambda: np.array([4.1e-3, 2.8e-3, 3.5e-3])
    )  # diagonal inertia [kg m^2]
    l: float = 0.07  # rotor arm length [m]
    h1: float = 0.04  # servo axis to CoM, along body z [m]
    h2: float = 0.02  # wheel axle to CoM lever of the gravity pitch term [m]
    r: float = 0.15  # wheel radius [m]
    W: float = 0.09  # wheel to CoM lateral distance [m]
    mu: float = 0.01  # rolling friction coefficient
    mu_s: float = 0.8  # lateral (sticking) friction coefficient
    c_t: float = 1.75e-8  # thrust coefficient [N s^2]
    c_q: float = 1.75e-10  # rotor torque coefficient [N m s^2]
    g: float = GRAVITY
    T_max: float = 8.0  # per-rotor thrust cap [N]
    delta_max: float = math.pi / 4  # servo travel [rad]
    rho: float = 1.225  # air density [kg/m^3]
    S: float = math.pi * 0.0635**2  # rotor disk area [m^2]

    # fields that must be finite and strictly positive
    POSITIVE = ("m", "m_w", "l", "h1", "h2", "r", "W", "c_t", "c_q", "g", "T_max",
                "delta_max", "rho", "S")

    def __post_init__(self):
        self.J = np.asarray(self.J, dtype=float)
        if self.J.ndim == 2:
            off = self.J - np.diag(np.diag(self.J))
            if np.any(off != 0.0):
                raise ConfigError("inertia must be diagonal")
            self.J = np.diag(self.J).copy()
        if self.J.shape != (3,):
            raise ConfigError(f"inertia must be 3 diagonal entries, got {self.J.shape}")
        for name in self.POSITIVE:
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be strictly positive, got {value}")
        if np.any(self.J <= 0.0) or not np.all(np.isfinite(self.J)):
            raise ConfigError("inertia entries must be strictly positive")
        if not (self.mu >= 0.0 and self.mu_s >= 0.0):
            raise ConfigError("friction coefficients must be non-negative")
        if not self.h1 < self.r:
            raise ConfigError("h1 must be smaller than the wheel radius r")
        if self.m <= 2 * self.m_w:
            raise ConfigError("total mass must exceed the two wheel masses")
        self.J_inv = 1.0 / self.J

    @property
    def weight(self) -> float:
        return self.m * self.g

    @classmethod
    def from_dict(cls, d: dict) -> "VehicleParams":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown vehicle parameter keys: {sorted(unknown)}")
        return cls(**d)
