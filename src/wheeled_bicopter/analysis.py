"""Design-space calculators and experiment metrics.

Momentum-theory power and hover efficiency fix the rotor radius available to
each airframe layout at equal mass and efficiency; the minimum traversing
width then follows from each layout's rotor packing across the direction of
motion.  The yaw-authority comparison contrasts torque-from-rotor-drag
(quadrotor) with torque-from-vectored-thrust (bi-copter).  RMSE and the
energy-saving ratio summarize tracking runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence, Tuple

import numpy as np

from .core import GRAVITY, VehicleParams


def ideal_power(T: float, S: float, rho: float) -> float:
    """Ideal induced power to produce thrust T with one rotor of disk area S."""
    if T < 0 or S <= 0 or rho <= 0:
        raise ValueError("T must be >= 0, S and rho positive")
    return math.sqrt(T**3 / (2.0 * S * rho))


def hover_efficiency(m: float, k: int, S: float, rho: float) -> float:
    """Mass per ideal hover power for k rotors of disk area S each."""
    if min(m, k, S, rho) <= 0:
        raise ValueError("arguments must be positive")
    g = GRAVITY
    return math.sqrt(2.0 * k * S * rho) / (g * math.sqrt(m * g))


def rotor_radius(eta_h: float, m: float, k: int, rho: float) -> float:
    """Rotor radius implied by a hover efficiency target at given mass and
    rotor count; inverse of hover_efficiency with S = pi R^2."""
    if min(eta_h, m, k, rho) <= 0:
        raise ValueError("arguments must be positive")
    g = GRAVITY
    return eta_h * g * math.sqrt(m * g) / math.sqrt(2.0 * math.pi * k * rho)


class Layout(Enum):
    SINGLE_ROTOR = "single_rotor"
    BICOPTER_LONGITUDINAL = "bicopter_longitudinal"
    BICOPTER_HORIZONTAL = "bicopter_horizontal"
    QUADROTOR_X = "quadrotor_x"
    HEXACOPTER = "hexacopter"


@dataclass
class LayoutSpec:
    """Rotor count and the packing rule giving the width across the
    direction of motion as a multiple of the rotor radius."""

    kind: Layout
    k: int
    width_per_radius: float

    def width(self, R: float) -> float:
        return self.width_per_radius * R


# Zero-clearance packing rules (width across the direction of motion):
#   single rotor           one disk            2 R
#   longitudinal bi-copter rotors fore/aft     2 R
#   horizontal bi-copter   rotors side by side 4 R
#   quadrotor X            two disks abreast   4 R
#   hexacopter             pointy-top hex ring: adjacent rotor centers one
#                          diameter apart on a ring of radius 2R, so the
#                          across-track extent is 2 (sqrt(3) + 1) R
LAYOUTS: Tuple[LayoutSpec, ...] = (
    LayoutSpec(Layout.SINGLE_ROTOR, 1, 2.0),
    LayoutSpec(Layout.BICOPTER_LONGITUDINAL, 2, 2.0),
    LayoutSpec(Layout.BICOPTER_HORIZONTAL, 2, 4.0),
    LayoutSpec(Layout.QUADROTOR_X, 4, 4.0),
    LayoutSpec(Layout.HEXACOPTER, 6, 2.0 * (math.sqrt(3.0) + 1.0)),
)


def traversing_width(
    layout: LayoutSpec, m: float, eta_h: float, rho: float
) -> Tuple[float, float]:
    """Minimum traversing width of a layout at fixed mass and hover
    efficiency, and its ratio to the single-rotor baseline."""
    w = layout.width(rotor_radius(eta_h, m, layout.k, rho))
    baseline = 2.0 * rotor_radius(eta_h, m, 1, rho)
    return w, w / baseline


def width_table(m: float, eta_h: float, rho: float) -> List[dict]:
    rows = []
    for spec in LAYOUTS:
        w, ratio = traversing_width(spec, m, eta_h, rho)
        rows.append(
            {"layout": spec.kind.value, "rotors": spec.k, "width_m": w, "ratio": ratio}
        )
    return rows


class VehicleClass(Enum):
    QUADROTOR_BASED = "quadrotor_based"
    BICOPTER_BASED = "bicopter_based"


def max_yaw_torque(T_f: float, params: VehicleParams, vehicle: VehicleClass) -> float:
    """Peak yaw torque available while spinning in place at total thrust T_f."""
    if T_f <= 0:
        raise ValueError("total thrust must be positive")
    if vehicle is VehicleClass.QUADROTOR_BASED:
        return (params.c_q / params.c_t) * T_f
    return params.l * T_f


def steering_ratio(params: VehicleParams) -> float:
    """Bi-copter to quadrotor yaw-authority ratio; independent of thrust."""
    return params.l * params.c_t / params.c_q


def rmse(
    actual: Sequence, reference: Sequence, planar: bool = False
) -> float:
    """Root-mean-square position error between equal-length sample series.

    `planar` restricts the error to the horizontal components (used for
    two-dimensional tracking figures)."""
    a = np.asarray(actual, dtype=float)
    r = np.asarray(reference, dtype=float)
    if a.shape != r.shape or a.ndim != 2 or len(a) < 1:
        raise ValueError(f"mismatched series: {a.shape} vs {r.shape}")
    d = a - r
    if planar:
        d = d[:, :2]
    return float(np.sqrt(np.mean(np.sum(d * d, axis=1))))


def energy_saving(P_a: float, P_g: float) -> float:
    """Energy saving ratio of ground locomotion: 1 - P_g / P_a."""
    if P_a <= 0:
        raise ValueError("aerial power must be positive")
    return 1.0 - P_g / P_a

