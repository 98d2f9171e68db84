"""Reference helpers shared by the tests; the package itself never calls them."""

import numpy as np


def check_one_to_one(b) -> bool:
    """True iff the table satisfies the one-to-one equality constraints.

    Sums must equal 1 on the shorter side of the matrix and never exceed 1 on
    the longer side, so one-to-zero (surplus trackers) and zero-to-one (surplus
    detections) are allowed while double coincidences are not.
    """
    b = np.asarray(b, dtype=np.int64)
    n_t, n_d = b.shape
    cols = b.sum(axis=0)
    rows = b.sum(axis=1)
    col_ok = (cols == 1).all() if n_t >= n_d else (cols <= 1).all()
    row_ok = (rows == 1).all() if n_t <= n_d else (rows <= 1).all()
    return bool(col_ok and row_ok)


def bits_to_spins(bits) -> np.ndarray:
    """Map bits {0, 1} to spins {-1, +1} via ``s = 2b - 1``."""
    return 2 * np.asarray(bits, dtype=np.int64) - 1
