"""Double-precision kernels shared by the other modules.

All functions are pure and never produce NaN/Inf on finite inputs within
their documented domains.
"""

from __future__ import annotations

import numpy as np

from .errors import InputDomainError

LOG_EPS = 1e-12


def softmax_rows(Z: np.ndarray) -> np.ndarray:
    """Row-wise unit-temperature softmax for (B, K) logit matrices."""
    Z = np.asarray(Z, dtype=np.float64)
    shifted = Z - Z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def one_hot(index: int, length: int) -> np.ndarray:
    out = np.zeros(length, dtype=np.float64)
    out[index] = 1.0
    return out


def one_hot_argmax(v: np.ndarray) -> np.ndarray:
    """One-hot at the maximal index; ties break toward the lowest index."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise InputDomainError("one_hot_argmax of empty vector")
    return one_hot(int(np.argmax(v)), v.size)
