import math

import numpy as np
import pytest

from splal.errors import ConfigurationError
from splal.loss import make_views, total_loss
from splal.model import forward, init_params

from helpers import per_view_loss, replay_views
from test_model import finite_difference, max_rel_error


def small_batch(seed=0, batch=3, h=4, w=4, classes=3):
    rng = np.random.default_rng(seed)
    grids = rng.uniform(size=(batch, h, w))
    targets = np.eye(classes)[rng.integers(0, classes, size=batch)]
    weights = rng.uniform(0.5, 1.5, size=batch)
    params = init_params(h * w, (5, 4), classes, rng)
    weak, strong, draws = make_views(grids, rng)
    return params, grids, targets, weights, weak, strong, draws


@pytest.mark.parametrize("stop_gradient", [True, False])
@pytest.mark.parametrize("side, widths, batch", [(4, (5, 4), 3), (16, (64, 32), 32)])
def test_stacked_step_matches_per_view_reference(stop_gradient, side, widths, batch):
    # One forward over the stacked views and one backward against a forward and a backward per view.
    rng = np.random.default_rng(18)
    params = init_params(side * side, widths, 4, rng)
    grids = rng.uniform(size=(batch, side, side))
    targets = np.eye(4)[rng.integers(0, 4, size=batch)]
    weights = rng.uniform(0.5, 1.5, size=batch)
    weak, strong, _ = make_views(grids, rng)
    args = (params, grids, targets, weights, weak, strong, 0.7, 0.3, stop_gradient)
    (got, grads), (ref, ref_grads) = total_loss(*args), per_view_loss(*args)
    for a, b in zip((got.classification, got.alignment, got.total), (ref.classification, ref.alignment, ref.total)):
        assert abs(a - b) <= 1e-12 * abs(b)
    assert np.linalg.norm(grads.flat - ref_grads.flat) <= 1e-12 * np.linalg.norm(ref_grads.flat)


def test_lambda2_zero_is_pure_classification():
    params, grids, targets, weights, weak, strong, _ = small_batch()
    breakdown, _ = total_loss(params, grids, targets, weights, weak, strong, 1.0, 0.0)
    assert breakdown.total == pytest.approx(breakdown.classification, abs=1e-15)


def test_lambda_violation_rejected():
    params, grids, targets, weights, weak, strong, _ = small_batch()
    with pytest.raises(ConfigurationError):
        total_loss(params, grids, targets, weights, weak, strong, 0.6, 0.6)


def test_alignment_zero_for_identical_confident_views():
    # force the weak and strong branches to see the same input by using a
    # constant grid (flip- and blur-invariant), and drive the network to a
    # confident prediction with a large classifier bias
    rng = np.random.default_rng(1)
    params = init_params(4, (3,), 2, rng)
    params.classifier[1][...] = np.array([50.0, -50.0])
    grids = np.full((1, 2, 2), 0.5)
    weak = grids.copy()
    strong = grids.copy()
    targets = np.array([np.eye(2)[0]])
    breakdown, _ = total_loss(params, grids, targets, np.ones(1), weak, strong, 0.5, 0.5)
    assert breakdown.alignment == pytest.approx(0.0, abs=1e-9)


def test_hand_summed_terms_at_default_operating_point():
    params, grids, targets, weights, weak, strong, _ = small_batch(seed=4)
    breakdown, _ = total_loss(params, grids, targets, weights, weak, strong, 0.6, 0.4)
    B = grids.shape[0]
    cls = 0.0
    align = 0.0
    for i in range(B):
        p = forward(params, grids[i].ravel()).probabilities[0]
        cls += weights[i] * -sum(
            targets[i][k] * math.log(max(p[k], 1e-12)) for k in range(len(p))
        )
        pw = forward(params, weak[i].ravel()).probabilities[0]
        ps = forward(params, strong[i].ravel()).probabilities[0]
        align += -sum(pw[k] * math.log(max(ps[k], 1e-12)) for k in range(len(ps)))
    cls /= B
    align /= B
    assert breakdown.classification == pytest.approx(cls, abs=1e-12)
    assert breakdown.alignment == pytest.approx(align, abs=1e-12)
    assert breakdown.total == pytest.approx(0.6 * cls + 0.4 * align, abs=1e-12)


def test_total_linear_in_lambdas():
    params, grids, targets, weights, weak, strong, _ = small_batch(seed=5)
    b1, _ = total_loss(params, grids, targets, weights, weak, strong, 1.0, 0.0, with_grads=False)
    b2, _ = total_loss(params, grids, targets, weights, weak, strong, 0.0, 1.0, with_grads=False)
    b3, _ = total_loss(params, grids, targets, weights, weak, strong, 0.3, 0.7, with_grads=False)
    assert b3.total == pytest.approx(0.3 * b1.classification + 0.7 * b2.alignment, abs=1e-12)


def test_terms_nonnegative():
    for seed in range(5):
        params, grids, targets, weights, weak, strong, _ = small_batch(seed=seed)
        breakdown, _ = total_loss(
            params, grids, targets, weights, weak, strong, 0.6, 0.4, with_grads=False
        )
        assert breakdown.classification >= 0.0
        assert breakdown.alignment >= 0.0


def test_view_replay_is_exact():
    params, grids, targets, weights, weak, strong, draws = small_batch(seed=6)
    weak2, strong2 = replay_views(grids, draws)
    np.testing.assert_array_equal(weak2, weak)
    np.testing.assert_array_equal(strong2, strong)


@pytest.mark.parametrize("stop_gradient", [True, False])
@pytest.mark.parametrize("seed", range(3))
def test_gradient_matches_finite_differences(seed, stop_gradient):
    params, grids, targets, weights, weak, strong, _ = small_batch(seed=seed)
    _, grads = total_loss(
        params, grids, targets, weights, weak, strong, 0.6, 0.4, stop_gradient=stop_gradient
    )

    def value():
        breakdown, _ = total_loss(
            params, grids, targets, weights, weak, strong, 0.6, 0.4,
            stop_gradient=stop_gradient, with_grads=False,
        )
        if stop_gradient:
            # finite differences must see the same stop-gradient semantics:
            # recompute with the weak targets frozen at the base parameters
            return breakdown
        return breakdown

    if stop_gradient:
        # freeze the weak-branch predictions at the current parameters and
        # differentiate only the classification + strong branches
        base_weak_probs = forward(params, weak.reshape(len(grids), -1)).probabilities.copy()

        def loss_value():
            b, _ = total_loss(
                params, grids, targets, weights, weak, strong, 1.0, 0.0, with_grads=False
            )
            ps = forward(params, strong.reshape(len(grids), -1)).probabilities
            align = float(-(base_weak_probs * np.log(np.clip(ps, 1e-12, 1.0))).sum(axis=1).mean())
            return 0.6 * b.classification + 0.4 * align
    else:
        def loss_value():
            b, _ = total_loss(
                params, grids, targets, weights, weak, strong, 0.6, 0.4,
                stop_gradient=False, with_grads=False,
            )
            return b.total

    numeric = finite_difference(params, loss_value)
    assert max_rel_error(grads.flatten(), numeric) <= 1e-4
