"""The rotation matrix and the quaternion rate of packed unit quaternions,
the oracles the tests check rotations against, and the packing of
component tuples into arrays.  src evaluates both component by component
(`core.quat_matrix_entries`, `core.quat_rate`) and packs neither."""

import numpy as np

from wheeled_bicopter.core import quat_matrix_entries, quat_rate


def pack(components, lead: tuple) -> np.ndarray:
    """Pack components along a new last axis, the inverse of unpacking
    `a.T` (each component then spans the leading axes reversed)."""
    out = np.empty(lead + (len(components),))
    for i, c in enumerate(components):
        out.T[i] = c
    return out


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion, broadcasting over leading axes."""
    q = np.asarray(q, dtype=float)
    return pack(quat_matrix_entries(*q.T), q.shape[:-1]).reshape(q.shape[:-1] + (3, 3))


def quat_derivative(q, omega_world) -> np.ndarray:
    """`quat_rate` of q (..., 4) and the world-frame omega (..., 3)."""
    return pack(quat_rate(*q.T, *omega_world.T), q.shape[:-1])
