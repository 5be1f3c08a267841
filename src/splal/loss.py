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
from .errors import InputDomainError, check_array, check_convex
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
    alignment: float | None  # None for a step over the clean rows alone
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
    params: ModelParams, grids: np.ndarray, targets: np.ndarray, weights: np.ndarray | float,
    weak_grids: np.ndarray, strong_grids: np.ndarray, lam1: float, lam2: float,
    stop_gradient: bool = True, with_grads: bool = True,
) -> tuple[LossBreakdown, Gradients | None]:
    """Loss breakdown and (optionally) exact gradients for one batch.

    Views must be precomputed (see make_views) so the whole computation is
    a pure function of its arguments; each is shaped like the (B, H, W) grids.
    They go through `stacked_loss` as one (3B, H, W) stack: clean, strong, weak.
    """
    grids = check_array("grids", grids, (None, None, None))
    weak_grids = check_array("weak_grids", weak_grids, grids.shape)
    strong_grids = check_array("strong_grids", strong_grids, grids.shape)
    views = np.concatenate([grids, strong_grids, weak_grids])
    return stacked_loss(params, views, targets, weights, lam1, lam2, stop_gradient, with_grads)[:2]


def stacked_loss(
    params: ModelParams, views: np.ndarray, targets: np.ndarray, weights: np.ndarray | float,
    lam1: float, lam2: float, stop_gradient: bool = True, with_grads: bool = True,
) -> tuple[LossBreakdown, Gradients | None, np.ndarray]:
    """`total_loss` of a (3B, H, W) stack of clean, strong and weak views, in that order, and
    the clean rows' (B, d) features, read from the weights the loss was taken at. A stack as
    long as `targets` holds the B clean rows alone: it needs `lam2 = 0`, and has no alignment.

    One forward covers the stack and one backward the rows with a gradient: the clean rows,
    then the strong ones, and the weak ones too without `stop_gradient`.
    """
    check_convex("lam1/lam2", (lam1, lam2))
    views = check_array("views", views, (None, None, None))
    clean_only = len(views) == len(check_array("targets", targets, (None, None)))
    B = len(views) if clean_only else len(views) // 3
    check_array("views", views, (B if clean_only else 3 * B, None, None))
    if clean_only and lam2:
        raise InputDomainError(f"views: {B} rows without strong and weak views need lam2 = 0, got {lam2}")
    fwd = forward(params, views.reshape(len(views), -1))
    cls_value, dlogits_cls = ce_value_and_dlogits(fwd.head(B), targets, weights)
    align_value = None
    if not clean_only:
        p_strong, p_weak = fwd.probabilities[B : 2 * B], fwd.probabilities[2 * B :]
        log_strong = np.log(np.clip(p_strong, LOG_EPS, 1.0))
        align_value = float(-(p_weak * log_strong).sum(axis=1).mean())
    breakdown = LossBreakdown(cls_value, align_value, lam1 * cls_value + lam2 * (align_value or 0.0))
    if not with_grads:
        return breakdown, None, fwd.features[:B]
    parts = [lam1 * dlogits_cls] + ([] if clean_only else [lam2 * (p_strong - p_weak) / B])
    if not (clean_only or stop_gradient):
        # Symmetric variant: the weak prediction is also differentiated through.
        parts.append(dlogits_from_dprobs(p_weak, lam2 * -log_strong / B))
    dlogits = np.concatenate(parts)
    return breakdown, backward_from_dlogits(params, fwd.head(len(dlogits)), dlogits), fwd.features[:B]
