"""The rotation matrix of a unit quaternion, the oracle the tests check
rotations against.  src never forms the matrix: it evaluates the entries
component by component (`core.quat_matrix_entries`)."""

import numpy as np

from wheeled_bicopter.core import pack_components, quat_matrix_entries


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion, broadcasting over leading axes."""
    q = np.asarray(q, dtype=float)
    return pack_components(quat_matrix_entries(*q.T), q.shape[:-1]).reshape(q.shape[:-1] + (3, 3))
