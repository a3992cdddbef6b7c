"""Simulation, reference generation and receding-horizon tracking control
for a bi-modal (aerial/ground) passive-wheeled bi-copter."""

import os
import sys

# One BLAS thread unless the caller chose a count: thread wake-ups on the
# loop's small matrices set its tail latency.  Read when numpy first loads.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from .core import (  # noqa: E402
    ControlInput,
    Mode,
    Orientation,
    RobotState,
    VehicleParams,
)

__all__ = [
    "ControlInput",
    "Mode",
    "Orientation",
    "RobotState",
    "VehicleParams",
]

__version__ = "0.1.0"
