"""Total training objective: weighted classification plus alignment term.

The classification term is cross-entropy between each sample's label (or
soft pseudo-label) and the prediction on the original, un-augmented
input. The alignment term is cross-entropy between the prediction on a
weak view (treated as a fixed target by default) and the prediction on a
strong view of the same sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import FLIP_PROB, strong_augment, weak_augment
from .errors import check_convex
from .model import (
    Gradients,
    ModelParams,
    backward_from_dlogits,
    ce_value_and_dlogits,
    dlogits_from_dprobs,
    forward,
)
from .numerics import LOG_EPS


@dataclass(frozen=True)
class LossBreakdown:
    classification: float
    alignment: float
    total: float  # lam1 * classification + lam2 * alignment


def weak_views(grids: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Weak views of a (B, H, W) stack and the (B, 2) flip bits behind them.

    One (B, 2) draw takes the same stream as two scalar draws per grid,
    horizontal then vertical, in grid order.
    """
    flips = rng.random((len(grids), 2)) < FLIP_PROB
    return weak_augment(grids, flips[:, 0], flips[:, 1]), flips


def make_views(grids: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weak and strong views of a (B, H, W) stack, and the (B, 2) flip bits behind them."""
    weak, flips = weak_views(grids, rng)
    return weak, strong_augment(grids), flips


def total_loss(
    params: ModelParams,
    grids: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray | float,
    weak_grids: np.ndarray,
    strong_grids: np.ndarray,
    lam1: float,
    lam2: float,
    stop_gradient: bool = True,
    with_grads: bool = True,
) -> tuple[LossBreakdown, Gradients | None]:
    """Loss breakdown and (optionally) exact gradients for one batch.

    Views must be precomputed (see make_views) so the whole computation is
    a pure function of its arguments.
    """
    check_convex("lam1/lam2", (lam1, lam2))
    B = grids.shape[0]
    flat = grids.reshape(B, -1)
    fwd = forward(params, flat)
    cls_value, dlogits_cls = ce_value_and_dlogits(fwd, targets, weights)

    fwd_weak = forward(params, weak_grids.reshape(B, -1))
    fwd_strong = forward(params, strong_grids.reshape(B, -1))
    p_weak = fwd_weak.probabilities
    p_strong = fwd_strong.probabilities
    clipped_strong = np.clip(p_strong, LOG_EPS, 1.0)
    align_value = float(-(p_weak * np.log(clipped_strong)).sum(axis=1).mean())

    breakdown = LossBreakdown(cls_value, align_value, lam1 * cls_value + lam2 * align_value)
    if not with_grads:
        return breakdown, None

    grads = backward_from_dlogits(params, fwd, lam1 * dlogits_cls)
    dlogits_strong = lam2 * (p_strong - p_weak) / B
    grads.flat += backward_from_dlogits(params, fwd_strong, dlogits_strong).flat
    if not stop_gradient:
        # Symmetric variant: the weak prediction is also differentiated through.
        dprobs_weak = lam2 * (-np.log(clipped_strong)) / B
        dlogits_weak = dlogits_from_dprobs(p_weak, dprobs_weak)
        grads.flat += backward_from_dlogits(params, fwd_weak, dlogits_weak).flat
    return breakdown, grads
