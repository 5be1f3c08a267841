"""Weak (flips) and strong (Gaussian blur) views of one HxW grid or a (B, H, W) stack.

Both views are pure functions of the grids and the flip bits, so recording
the bits is enough to replay a view exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import InputDomainError

BLUR_SIGMA = 1.0
FLIP_PROB = 0.5


def _gaussian_kernel_3x3(sigma: float = BLUR_SIGMA) -> np.ndarray:
    ax = np.array([-1.0, 0.0, 1.0])
    gx = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    k = np.outer(gx, gx)
    return k / k.sum()


_KERNEL = _gaussian_kernel_3x3()


def _grids(x, name: str, min_side: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-2] < min_side or x.shape[-1] < min_side:
        raise InputDomainError(
            f"{name} needs an HxW grid or a stack of them, at least {min_side}x{min_side}, "
            f"got shape {x.shape}"
        )
    return x


def weak_augment(x: np.ndarray, flip_h: bool | np.ndarray, flip_v: bool | np.ndarray) -> np.ndarray:
    """Horizontal then vertical flip per the draw bits.

    For a (B, H, W) stack, flip_h and flip_v are (B,) bool masks, one bit per grid.
    """
    x = _grids(x, "weak_augment", 1)
    if x.ndim == 2:
        return weak_augment(x[None], [flip_h], [flip_v])[0]
    flip_h = np.asarray(flip_h, dtype=bool)
    flip_v = np.asarray(flip_v, dtype=bool)
    if flip_h.shape != (len(x),) or flip_v.shape != (len(x),):
        raise InputDomainError(
            f"weak_augment needs one flip bit per grid: {len(x)} grids, "
            f"masks {flip_h.shape} and {flip_v.shape}"
        )
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
    x = _grids(x, "strong_augment", 3)
    h, w = x.shape[-2:]
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
