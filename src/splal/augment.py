"""Weak (flips) and strong (Gaussian blur) views of a (B, H, W) stack of grids.

Both views are pure functions of the grids and the flip bits, so recording
the bits is enough to replay a view exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import InputDomainError, check_array

BLUR_SIGMA = 1.0
FLIP_PROB = 0.5


def _gaussian_kernel_3x3(sigma: float = BLUR_SIGMA) -> np.ndarray:
    ax = np.array([-1.0, 0.0, 1.0])
    gx = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    k = np.outer(gx, gx)
    return k / k.sum()


_KERNEL = _gaussian_kernel_3x3()


def weak_augment(x: np.ndarray, flip_h: np.ndarray, flip_v: np.ndarray) -> np.ndarray:
    """Horizontal then vertical flip per the draw bits: (B,) bool masks, one bit per grid."""
    x = check_array("x", x, (None, None, None), dtype=np.float64)
    flip_h = check_array("flip_h", flip_h, (len(x),), "b")
    flip_v = check_array("flip_v", flip_v, (len(x),), "b")
    out = x.copy()
    out[flip_h] = out[flip_h][:, :, ::-1]
    out[flip_v] = out[flip_v][:, ::-1, :]
    return out


def strong_augment(x: np.ndarray) -> np.ndarray:
    """3x3 Gaussian blur (sigma 1.0) with reflect padding, grid by grid.

    The padded stack is filled by slices: the interior, then the edge rows,
    then the edge columns (so a corner takes its diagonal neighbour). The
    nine taps are summed in row-major order through one scratch stack.
    """
    x = check_array("x", x, (None, None, None), dtype=np.float64)
    h, w = x.shape[-2:]
    if min(h, w) < 3:
        raise InputDomainError(f"x: strong_augment needs grids of at least 3x3, got shape {x.shape}")
    padded = np.empty(x.shape[:-2] + (h + 2, w + 2))
    padded[..., 1:-1, 1:-1] = x
    padded[..., 0, 1:-1] = x[..., 1, :]
    padded[..., -1, 1:-1] = x[..., -2, :]
    padded[..., 0] = padded[..., 2]
    padded[..., -1] = padded[..., -3]
    out = np.zeros_like(x)
    tap = np.empty_like(x)
    for di in range(3):
        for dj in range(3):
            out += np.multiply(padded[..., di : di + h, dj : dj + w], _KERNEL[di, dj], out=tap)
    return out
