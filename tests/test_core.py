import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wheeled_bicopter
from wheeled_bicopter.core import (
    ConfigError,
    ControlInput,
    GimbalLockError,
    InfeasibleReferenceError,
    Orientation,
    RobotState,
    VehicleParams,
    quat_from_euler,
    quat_normalize,
    vec3,
)
from wheeled_bicopter.flatness import heading_turns

from rotation import quat_derivative, quat_to_matrix


def test_euler_identity():
    o = Orientation(quat_from_euler(0.0, 0.0, 0.0))
    np.testing.assert_allclose(quat_to_matrix(o.q), np.eye(3), atol=1e-15)


def test_euler_yaw_quarter_turn_maps_x_to_y():
    o = Orientation(quat_from_euler(0.0, 0.0, math.pi / 2))
    np.testing.assert_allclose(quat_to_matrix(o.q) @ vec3(1, 0, 0), vec3(0, 1, 0), atol=1e-12)


def test_euler_round_trip_random():
    rng = np.random.default_rng(2)
    for _ in range(200):
        phi = rng.uniform(-math.pi, math.pi)
        theta = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01)
        psi = rng.uniform(-math.pi, math.pi)
        back = Orientation(quat_from_euler(phi, theta, psi)).to_euler()
        np.testing.assert_allclose(back, (phi, theta, psi), atol=1e-9)


def test_euler_matches_rotation_product():
    phi, theta, psi = 0.3, -0.4, 1.1
    o = Orientation(quat_from_euler(phi, theta, psi))
    Rx = np.array(
        [[1, 0, 0], [0, math.cos(phi), -math.sin(phi)], [0, math.sin(phi), math.cos(phi)]]
    )
    Ry = np.array(
        [[math.cos(theta), 0, math.sin(theta)], [0, 1, 0], [-math.sin(theta), 0, math.cos(theta)]]
    )
    Rz = np.array(
        [[math.cos(psi), -math.sin(psi), 0], [math.sin(psi), math.cos(psi), 0], [0, 0, 1]]
    )
    np.testing.assert_allclose(quat_to_matrix(o.q), Rz @ Ry @ Rx, atol=1e-12)


def test_gimbal_lock_reported():
    o = Orientation(quat_from_euler(0.0, math.pi / 2 - 5e-4, 0.0))
    with pytest.raises(GimbalLockError):
        o.to_euler()


def test_rotation_matrix_orthonormal():
    rng = np.random.default_rng(3)
    for _ in range(20):
        q = quat_normalize(rng.normal(size=4))
        R = quat_to_matrix(Orientation(q).q)
        np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(R) - 1.0) < 1e-9


def yaw_matrix(psi):
    """Rotation from the heading frame to the world frame: a pure yaw."""
    return quat_to_matrix(Orientation(quat_from_euler(0.0, 0.0, psi)).q)


def test_yaw_rotation_identity_and_pi():
    np.testing.assert_allclose(yaw_matrix(0.0), np.eye(3), atol=1e-15)
    R = yaw_matrix(math.pi)
    np.testing.assert_allclose(R @ vec3(1, 0, 0), vec3(-1, 0, 0), atol=1e-12)
    np.testing.assert_allclose(R @ vec3(0, 1, 0), vec3(0, -1, 0), atol=1e-12)
    np.testing.assert_allclose(R[:, 2], vec3(0, 0, 1), atol=1e-15)


def test_yaw_rotation_matches_euler():
    for psi in np.linspace(-3.0, 3.0, 13):
        c, s = math.cos(psi), math.sin(psi)
        np.testing.assert_allclose(
            yaw_matrix(psi), [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], atol=1e-12
        )


def test_yaw_rotation_heading_consistency():
    for psi in np.linspace(-3.0, 3.0, 7):
        v = vec3(math.cos(psi), math.sin(psi), 0.0)
        np.testing.assert_allclose(yaw_matrix(psi).T @ v, vec3(1, 0, 0), atol=1e-12)


def test_orientation_norm_drift_under_integration():
    # 1e4 naive quaternion-rate steps with renormalization stay unit norm
    rng = np.random.default_rng(4)
    q = np.array([1.0, 0.0, 0.0, 0.0])
    w = rng.normal(size=3)
    dt = 1e-3
    for _ in range(10_000):
        q = q + dt * quat_derivative(q, w)
        q = quat_normalize(q)
    assert abs(np.linalg.norm(q) - 1.0) < 1e-6


def test_infeasible_reason_joins_the_message_and_the_notes():
    exc = InfeasibleReferenceError("thrust negative")
    assert exc.reason() == "infeasible reference: thrust negative"
    exc.add_note("sample 4 (t=0.125s)")
    exc.add_note("tick 2")
    assert exc.reason() == "infeasible reference: thrust negative; sample 4 (t=0.125s); tick 2"


def test_params_defaults_valid():
    p = VehicleParams()
    assert p.weight == pytest.approx(0.83 * 9.81)
    assert p.h1 < p.r


@pytest.mark.parametrize(
    "kwargs",
    [
        {"m": -1.0},
        {"m_w": 0.0},
        {"h1": 0.2},  # violates h1 < r
        {"W": -0.01},
        {"mu": -0.1},
        {"J": [1e-3, -1e-3, 1e-3]},
        {"m": True},
        {"mu": True},
        {"J": [True, 1e-3, 1e-3]},
        {"J": [[True, 0, 0], [0, 1e-3, 0], [0, 0, 1e-3]]},
        {"m": 10**400},  # an int beyond the float range
    ],
)
def test_params_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        VehicleParams(**kwargs)


def test_params_rejects_off_diagonal_inertia():
    J = np.array([[4.1e-3, 1e-5, 0.0], [1e-5, 2.8e-3, 0.0], [0.0, 0.0, 3.5e-3]])
    with pytest.raises(ConfigError):
        VehicleParams(J=J)


def test_state_pack_round_trip():
    s = RobotState(
        vec3(1, 2, 3), vec3(0.1, -0.2, 0.3), Orientation(quat_from_euler(0.1, 0.2, 0.3)),
        vec3(1, 0, -1),
    )
    x = s.as_array()
    s2 = RobotState(x[0:3], x[3:6], x[6:10], x[10:13])
    np.testing.assert_allclose(s2.as_array(), s.as_array(), atol=1e-15)


def test_control_input_bounds():
    p = VehicleParams()
    ControlInput(1.0, 1.0, 0.1, -0.1).validate(p)
    with pytest.raises(ValueError):
        ControlInput(-0.1, 1.0, 0.0, 0.0).validate(p)
    with pytest.raises(ValueError):
        ControlInput(1.0, 1.0, 1.0, 0.0).validate(p)


def test_unwrap_angles():
    raw = [0.0, 3.0, -3.0, 3.0]  # jumps of ~6 rad get unwrapped
    out = [raw[0]]
    for a in raw[1:]:
        out.append(a + 2 * math.pi * heading_turns(a, out[-1]))
    assert np.all(np.abs(np.diff(out)) < math.pi)


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# imports the package (numpy first when asked) and reports the variables
# named on its command line and the thread count of the loaded OpenBLAS
# (None if numpy ships none), read as `perfbench/run.py` reads it
BLAS_PROBE = """
import ctypes, json, os, sys
from pathlib import Path
if sys.argv[1] == "numpy-first":
    import numpy
import wheeled_bicopter
import numpy

def threads():
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_int
                return int(getattr(lib, symbol)())
    return None

print(json.dumps({"env": {v: os.environ.get(v) for v in sys.argv[2:]}, "threads": threads()}))
"""


def _blas_after_import(order="package-first", **env_set):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(env_set, PYTHONPATH=str(Path(wheeled_bicopter.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", BLAS_PROBE, order, *BLAS_VARS], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    return json.loads(out.stdout)


def test_package_import_pins_blas_to_one_thread():
    report = _blas_after_import()
    assert report["env"] == dict.fromkeys(BLAS_VARS, "1")
    assert report["threads"] in (1, None)


def test_package_import_keeps_a_blas_thread_count_the_user_set():
    report = _blas_after_import(OPENBLAS_NUM_THREADS="2")
    assert report["env"] == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1",
                             "MKL_NUM_THREADS": "1"}


def test_package_import_after_numpy_leaves_the_blas_variables_alone():
    # numpy has already read them, so setting them would only mislead
    report = _blas_after_import("numpy-first")
    assert report["env"] == dict.fromkeys(BLAS_VARS)
