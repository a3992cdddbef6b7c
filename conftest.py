"""Test-session setup shared by `tests/` and `perfbench/`.

BLAS is pinned to one thread before numpy is first imported, as
`perfbench/run.py` and `tools/digests.py` do: with default OpenBLAS
threading, thread wake-ups on the small matrices of the control loop
make the wall-time-bounded acceptance tests depend on host load.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
