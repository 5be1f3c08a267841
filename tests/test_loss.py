import math

import numpy as np
import pytest

from splal.errors import ConfigurationError, InputDomainError
from splal.loss import make_views, stacked_loss, total_loss
from splal.model import forward, init_params
from splal.orchestrator import DatasetState, _train_epochs

from helpers import per_view_loss, replay_views, trainer
from test_model import finite_difference, max_rel_error
from test_orchestrator import pool_of, tiny_config


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


@pytest.mark.parametrize("B", range(1, 33))
def test_clean_only_stack_matches_three_view_stack(B):
    # At lam2 = 0 the strong and weak rows carry no gradient, so the B clean rows alone give the
    # 3B stack's loss and gradient. Not bit for bit: BLAS may reduce B rows with another kernel than 2B.
    rng = np.random.default_rng(B)
    params = init_params(256, (64, 32), 4, rng)
    grids = rng.uniform(size=(B, 16, 16))
    targets = np.eye(4)[rng.integers(0, 4, size=B)]
    weights = rng.uniform(0.5, 1.5, size=B)
    weak, strong, _ = make_views(grids, rng)
    clean, grads, features = stacked_loss(params, grids, targets, weights, 1.0, 0.0)
    ref, ref_grads, ref_features = stacked_loss(
        params, np.concatenate([grids, strong, weak]), targets, weights, 1.0, 0.0
    )
    assert clean.alignment is None and ref.alignment is not None
    assert clean.total == 1.0 * clean.classification
    assert abs(clean.classification - ref.classification) <= 1e-14 * ref.classification
    assert np.linalg.norm(grads.flat - ref_grads.flat) <= 1e-14 * np.linalg.norm(ref_grads.flat)
    assert np.linalg.norm(features - ref_features) <= 1e-14 * np.linalg.norm(ref_features)


def test_clean_only_stack_needs_lam2_zero():
    params, grids, targets, weights, _, _, _ = small_batch()
    message = r"^views: 3 rows without strong and weak views need lam2 = 0, got 0.4$"
    with pytest.raises(InputDomainError, match=message):
        stacked_loss(params, grids, targets, weights, 0.6, 0.4)
    _, grads, _ = stacked_loss(params, grids, targets, weights, 1.0, 0.0)  # the same stack at lam2 = 0
    assert grads.all_finite()


@pytest.mark.parametrize("lam2", [0.0, 0.4])
def test_logged_classification_clips_only_below_log_eps(lam2):
    # Classifier weights of zero make each row's logits its bias, so the probabilities are known in
    # closed form: e^-20 / Z ~ 2e-9 is far below 1e-6 and counts as itself, e^-40 / Z ~ 4e-18 is
    # clipped to 1e-12. The loss a training step logs must be -sum t log max(p, 1e-12), row mean.
    cfg = tiny_config(lam1=1.0 - lam2, lam2=lam2, batch_size=8)
    params = init_params(9, (3,), 3, np.random.default_rng(0))
    logits = (0.0, -20.0, -40.0)
    params.classifier[0][...] = 0.0
    params.classifier[1][...] = logits
    z = sum(math.exp(x) for x in logits)
    p = [math.exp(x) / z for x in logits]
    truth = [1, 2, 1, 0, 2]
    expected = sum(-math.log(max(p[k], 1e-12)) for k in truth) / len(truth)
    rng = np.random.default_rng(1)
    state = DatasetState.split(pool_of(rng.uniform(size=(5, 3, 3)), truth), np.arange(5), 3)
    logs = _train_epochs(trainer(cfg, params, rng), state, 1)
    assert logs[0]["classification"] == pytest.approx(expected, rel=1e-12)
    assert expected > 19.0  # a clip at 1e-6 caps each of the four terms at 13.8: a mean of 11.05


@pytest.mark.parametrize("lam2", [0.4, 1.0])
def test_logged_alignment_clips_only_below_log_eps(lam2):
    # Zero classifier weights give every view of every row the bias's softmax, so the weak and
    # strong rows share p = (1 - 2e-9, 2e-9, 4e-18) in closed form. p_1 lies far below 1e-6 and
    # counts as itself; p_2 is clipped to 1e-12. The alignment a training step logs must be
    # -sum p_weak log max(p_strong, 1e-12).
    cfg = tiny_config(lam1=1.0 - lam2, lam2=lam2, batch_size=8)
    params = init_params(9, (3,), 3, np.random.default_rng(0))
    logits = (0.0, -20.0, -40.0)
    params.classifier[0][...] = 0.0
    params.classifier[1][...] = logits
    z = sum(math.exp(x) for x in logits)
    p = [math.exp(x) / z for x in logits]
    expected = -sum(q * math.log(max(q, 1e-12)) for q in p)
    rng = np.random.default_rng(1)
    state = DatasetState.split(pool_of(rng.uniform(size=(5, 3, 3)), [1, 2, 1, 0, 2]), np.arange(5), 3)
    logs = _train_epochs(trainer(cfg, params, rng), state, 1)
    assert logs[0]["alignment"] == pytest.approx(expected, rel=1e-6)
    clipped_at_1e6 = -sum(q * math.log(max(q, 1e-6)) for q in p)
    assert clipped_at_1e6 < 0.8 * expected


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
        p = forward(params, grids[i].reshape(1, -1)).probabilities[0]
        cls += weights[i] * -sum(
            targets[i][k] * math.log(max(p[k], 1e-12)) for k in range(len(p))
        )
        pw = forward(params, weak[i].reshape(1, -1)).probabilities[0]
        ps = forward(params, strong[i].reshape(1, -1)).probabilities[0]
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
