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
import sys
from dataclasses import dataclass, field
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

    def reason(self) -> str:
        """`infeasible reference: <message>` and the notes that name the
        sample, joined by "; ": a run's abort reason and the CLI's error."""
        return "; ".join([f"infeasible reference: {self}", *getattr(self, "__notes__", ())])


class ContactLossError(RuntimeError):
    """Ground-mode force balance produced a non-positive total normal force."""


class DivergenceError(RuntimeError):
    """Simulation state left the sane numeric range."""


class SolverFailure(RuntimeError):
    """The tracking controller stayed degraded for too many ticks in a row."""


def vec3(x: float, y: float, z: float) -> Vec3:
    return np.array([float(x), float(y), float(z)])


def require_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def require_integer(value, name: str, least: int) -> int:
    """`value` as an int; raises ConfigError for a bool, a non-integer or a
    value below `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def require_real(value, name: str, least: float, strict: bool) -> float:
    """`value` as a float; raises ConfigError for a bool, a non-number, a NaN
    or an infinity (an int beyond the float range too), and for a value
    below `least` (or equal to it when `strict`)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max or value < least
            or (strict and value == least)):
        bound = ">" if strict else ">="
        raise ConfigError(f"{name} must be a finite number {bound} {least}, got {value!r}")
    return float(value)


def require_reals(values, name: str, size: int, least: float, strict: bool) -> np.ndarray:
    """A list, tuple or array of `size` entries that pass `require_real`."""
    if not (isinstance(values, (list, tuple, np.ndarray)) and len(values) == size):
        raise ConfigError(f"{name} must be {size} numbers, got {values!r}")
    return np.array([require_real(v, f"{name}[{i}]", least, strict) for i, v in enumerate(values)])


# ---------------------------------------------------------------------------
# Quaternion helpers (scalar-first, unit norm)
# ---------------------------------------------------------------------------


def quat_normalize(q) -> np.ndarray:
    """q over the square root of the BLAS dot `q.dot(q)` (the bits of
    `q @ q`)."""
    q = np.asarray(q, dtype=float)
    n = math.sqrt(q.dot(q))
    if n < 1e-12:
        raise ValueError("cannot normalize near-zero quaternion")
    return q / n


def quat_multiply(aw, ax, ay, az, bw, bx, by, bz):
    """Components of the Hamilton product a (x) b of the quaternions
    a = (aw, ax, ay, az) and b = (bw, bx, by, bz): Python floats, or arrays
    evaluated elementwise."""
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_matrix_entries(w, x, y, z):
    """The nine entries, row by row, of the rotation matrix of the unit
    quaternion (w, x, y, z): Python floats, or arrays evaluated
    elementwise."""
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    return (
        1 - 2 * (yy + zz), 2 * (xy - wz), 2 * (xz + wy),
        2 * (xy + wz), 1 - 2 * (xx + zz), 2 * (yz - wx),
        2 * (xz - wy), 2 * (yz + wx), 1 - 2 * (xx + yy),
    )


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


def quat_rate(qw, qx, qy, qz, ox, oy, oz):
    """Components of the quaternion rate 0.5 (0, omega) (x) q for the
    world-frame angular velocity omega (Rdot = skew(omega) R): Python
    floats, or arrays evaluated elementwise."""
    return (
        0.5 * (-ox * qx - oy * qy - oz * qz),
        0.5 * (ox * qw + oy * qz - oz * qy),
        0.5 * (oy * qw + oz * qx - ox * qz),
        0.5 * (oz * qw + ox * qy - oy * qx),
    )


@dataclass
class Orientation:
    """Unit-quaternion attitude with an Euler view."""

    q: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))

    def __post_init__(self):
        self.q = quat_normalize(self.q)

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
    def rest(cls) -> "RobotState":
        """At rest at the origin, level and heading along world x."""
        return cls(vec3(0.0, 0.0, 0.0), np.zeros(3), Orientation(), np.zeros(3))

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

    # fields that must be finite and strictly positive (J too, entrywise)
    POSITIVE = ("m", "m_w", "l", "h1", "h2", "r", "W", "c_t", "c_q", "g", "T_max",
                "delta_max", "rho", "S")

    def __post_init__(self):
        self.J = require_reals(self.J, "J", 3, 0.0, True)
        for name in self.POSITIVE:
            setattr(self, name, require_real(getattr(self, name), name, 0.0, True))
        for name in ("mu", "mu_s"):
            setattr(self, name, require_real(getattr(self, name), name, 0.0, False))
        if not self.h1 < self.r:
            raise ConfigError("h1 must be smaller than the wheel radius r")
        if self.m <= 2 * self.m_w:
            raise ConfigError("total mass must exceed the two wheel masses")
        self.J_inv = 1.0 / self.J

    @property
    def weight(self) -> float:
        return self.m * self.g
