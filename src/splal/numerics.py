"""Double-precision kernels shared by the other modules.

All functions are pure and never produce NaN/Inf on finite inputs within
their documented domains.
"""

from __future__ import annotations

import numpy as np

LOG_EPS = 1e-12
# Rows per block wherever a whole pool is worked through a block at a time: forward passes, KNN, audits.
ROW_BLOCK = 256


def softmax_rows(Z: np.ndarray) -> np.ndarray:
    """Row-wise unit-temperature softmax for (B, K) logit matrices."""
    Z = np.asarray(Z, dtype=np.float64)
    shifted = Z - Z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def pow2_scaled_rows(M: np.ndarray) -> np.ndarray:
    """Each row times the power of two that puts its largest |entry| in [0.5, 1).

    An exact rescaling, so no ratio within a row changes, but the squared
    norm of a row of tiny entries no longer underflows into subnormals.
    """
    exponent = np.frexp(np.abs(M).max(axis=1, keepdims=True, initial=0.0))[1]
    return np.ldexp(M, -exponent)
