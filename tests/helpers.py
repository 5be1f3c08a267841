"""Convenience forms the tests call and the engine does not.

Each is a thin wrapper over the engine's own building blocks, so a test that
uses one still exercises the code a run goes through.
"""

import numpy as np

from splal.augment import strong_augment, weak_augment
from splal.data import _centered_coords, _render
from splal.errors import InputDomainError, TrainingError
from splal.loss import LossBreakdown, make_views, total_loss
from splal.metrics import _sweep
from splal.model import (
    Gradients, adam_step, backward_from_dlogits, ce_value_and_dlogits, dlogits_from_dprobs, ema_update,
    OptimizerState, forward,
)
from splal.numerics import LOG_EPS
from splal.orchestrator import LOSSES, Trainer
from splal.prototypes import PrototypeBank


def backward(params, X, targets, weights=None):
    """Value and exact gradient of the weighted mean cross-entropy on a batch."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[0] == 0:
        raise InputDomainError("backward on empty batch")
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    weights = np.ones(X.shape[0]) if weights is None else np.asarray(weights, dtype=np.float64)
    fwd = forward(params, X)
    value, dlogits = ce_value_and_dlogits(fwd, targets, weights)
    return value, backward_from_dlogits(params, fwd, dlogits)


def zero_gradients(params):
    """All-zero gradients laid out like the params."""
    return Gradients._over(np.zeros_like(params.flat), params._layout)


def replay_views(grids, flips):
    """The weak and strong views make_views returned with these (B, 2) flip bits."""
    return weak_augment(grids, flips[:, 0], flips[:, 1]), strong_augment(grids)


def trainer(cfg, params, shuffle, augment=None):
    """A Trainer over these weights with a fresh optimizer and bank, and no teacher yet.

    The augment stream, if not given, and the audit stream draw from `shuffle`.
    """
    opt = OptimizerState.for_params(params, cfg.learning_rate)
    bank = PrototypeBank(params.num_classes, params.feature_dim, cfg.queue_capacity)
    return Trainer(cfg, params, opt, bank, shuffle, augment or shuffle, shuffle)


def train_epochs_per_batch(t, state, epochs, stage=-1):
    """`orchestrator._train_epochs` with both views made per batch by make_views, nothing cached.

    Each batch's loss goes through `total_loss`, and the bank push re-encodes
    the stacked views with the weights the loss was taken at.
    """
    cfg, params = t.cfg, t.params
    logs = []
    rows, targets = state.labeled_rows, state.targets
    class_ids = targets.argmax(axis=1)
    weights = np.ones(len(rows))
    starts = range(0, len(rows), cfg.batch_size)
    for epoch in range(epochs):
        order = t.rng_shuffle.permutation(len(rows))
        sums = np.zeros(3)
        for start in starts:
            idx = order[start : start + cfg.batch_size]
            grids = state.pool.grids[rows[idx]]
            weak, strong, _ = make_views(grids, t.rng_augment)
            breakdown, grads = total_loss(
                params, grids, targets[idx], weights[idx], weak, strong, cfg.lam1, cfg.lam2
            )
            # The bank takes the clean rows' features from the step's stacked forward: before the update.
            stacked = np.concatenate([grids, strong, weak]).reshape(3 * len(idx), -1)
            features = forward(params, stacked).features
            adam_step(params, grads, t.opt)
            if not params.all_finite():
                raise TrainingError("non-finite parameters after optimizer step")
            if t.ema is not None:
                ema_update(t.ema, params, cfg.ema_decay)
                t.bank.push(class_ids[idx], features[: len(idx)])
            sums += (breakdown.classification, breakdown.alignment, breakdown.total)
        mean = sums / max(len(starts), 1)
        logs.append({"stage": stage, "epoch": epoch, **dict(zip(LOSSES, mean.tolist()))})
    return logs


def per_view_loss(params, grids, targets, weights, weak_grids, strong_grids, lam1, lam2, stop_gradient=True):
    """`total_loss` one view at a time: a forward per view, a backward per view that
    has a gradient, and the gradients summed; the reference for the stacked step."""
    B = len(grids)
    fwd, fwd_weak, fwd_strong = (forward(params, g.reshape(B, -1)) for g in (grids, weak_grids, strong_grids))
    cls_value, dlogits_cls = ce_value_and_dlogits(fwd, targets, weights)
    p_weak, p_strong = fwd_weak.probabilities, fwd_strong.probabilities
    clipped_strong = np.clip(p_strong, LOG_EPS, 1.0)
    align_value = float(-(p_weak * np.log(clipped_strong)).sum(axis=1).mean())
    breakdown = LossBreakdown(cls_value, align_value, lam1 * cls_value + lam2 * align_value)
    grads = backward_from_dlogits(params, fwd, lam1 * dlogits_cls)
    grads.flat += backward_from_dlogits(params, fwd_strong, lam2 * (p_strong - p_weak) / B).flat
    if not stop_gradient:
        dlogits_weak = dlogits_from_dprobs(p_weak, lam2 * (-np.log(clipped_strong)) / B)
        grads.flat += backward_from_dlogits(params, fwd_weak, dlogits_weak).flat
    return breakdown, grads


def binary_auc_exact(scores, positives):
    """P(score_pos > score_neg) + half tie credit."""
    return _sweep(scores, positives)[0]


def roc_points(scores, positives):
    """(threshold, FPR, TPR) at every distinct score, thresholds descending."""
    return _sweep(scores, positives)[1]


def render_pattern(class_id, h, w, rng):
    """Noise-free pattern for one sample of a class; symmetric under both flips."""
    return _render(class_id, _centered_coords(h, w), rng)
