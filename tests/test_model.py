import json
import math
import pickle

import numpy as np
import pytest

from splal.errors import InputDomainError, TrainingError
from splal.loss import make_views, total_loss
from splal.model import (
    Gradients,
    ModelParams,
    OptimizerState,
    adam_step,
    ce_value_and_dlogits,
    ema_update,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from splal.numerics import LOG_EPS

from helpers import backward, zero_gradients


def tiny_net(rng, input_dim=4, widths=(3,), classes=3):
    return init_params(input_dim, widths, classes, rng)


class TestForward:
    def test_zero_weights_give_uniform(self):
        params = ModelParams(
            hidden=[(np.zeros((4, 3)), np.zeros(3))],
            classifier=(np.zeros((3, 2)), np.zeros(2)),
        )
        out = forward(params, np.ones((1, 4)))
        np.testing.assert_allclose(out.probabilities[0], [0.5, 0.5])

    def test_classifier_scaling_preserves_argmax(self):
        rng = np.random.default_rng(7)
        params = tiny_net(rng)
        x = rng.normal(size=(1, 4))
        before = int(np.argmax(forward(params, x).probabilities[0]))
        params.classifier[0][...] *= 3.0
        params.classifier[1][...] *= 3.0
        after = int(np.argmax(forward(params, x).probabilities[0]))
        assert before == after

    def test_matches_hand_matmul_oracle(self):
        # 2-2-2 network checked coordinate by coordinate against explicit
        # scalar arithmetic, no numpy matmul on the oracle side.
        W1 = np.array([[0.5, -0.3], [0.2, 0.8]])
        b1 = np.array([0.1, -0.2])
        Wc = np.array([[1.0, 0.4], [-0.6, 0.9]])
        bc = np.array([0.05, -0.05])
        params = ModelParams(hidden=[(W1, b1)], classifier=(Wc, bc))
        x = np.array([[0.7, -1.1]])
        a0 = 0.7 * 0.5 + (-1.1) * 0.2 + 0.1
        a1 = 0.7 * (-0.3) + (-1.1) * 0.8 + (-0.2)
        h0, h1 = max(a0, 0.0), max(a1, 0.0)
        logit0 = h0 * 1.0 + h1 * (-0.6) + 0.05
        logit1 = h0 * 0.4 + h1 * 0.9 + (-0.05)
        out = forward(params, x)
        np.testing.assert_allclose(out.logits[0], [logit0, logit1], atol=1e-15)
        np.testing.assert_allclose(out.features[0], [h0, h1], atol=1e-15)

    def test_pure_function_bit_identical(self):
        rng = np.random.default_rng(0)
        params = tiny_net(rng)
        x = rng.normal(size=(1, 4))
        a = forward(params, x)
        b = forward(params, x)
        assert np.array_equal(a.probabilities, b.probabilities)
        assert np.array_equal(a.features, b.features)

    def test_shape_mismatch_rejected(self):
        params = tiny_net(np.random.default_rng(0))
        with pytest.raises(InputDomainError):
            forward(params, np.ones((1, 5)))

    def test_one_flat_vector_rejected(self):
        # forward takes (B, D) rows only; a single (D,) vector is not read as a batch of one.
        params = tiny_net(np.random.default_rng(0))
        with pytest.raises(InputDomainError, match=r"^X: expected shape \(None, 4\)"):
            forward(params, np.ones(4))


def finite_difference(params, loss_fn, h=1e-6):
    flat = params.flatten()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += h
        params.set_flat(bumped)
        up = loss_fn()
        bumped[i] -= 2 * h
        params.set_flat(bumped)
        down = loss_fn()
        grad[i] = (up - down) / (2 * h)
    params.set_flat(flat)
    return grad


def max_rel_error(analytic, numeric):
    diff = np.abs(analytic - numeric)
    # entries where both sides agree to within the finite-difference noise
    # floor (e.g. exactly-zero gradients behind dead ReLU units) are fine
    diff = np.where(diff < 1e-9, 0.0, diff)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(diff / denom))


class TestBackward:
    def test_empty_batch_rejected(self):
        params = tiny_net(np.random.default_rng(1))
        with pytest.raises(InputDomainError):
            backward(params, np.zeros((0, 4)), np.zeros((0, 3)))

    def test_doubling_weights_doubles_gradient(self):
        rng = np.random.default_rng(2)
        params = tiny_net(rng)
        X = rng.normal(size=(5, 4))
        T = np.eye(3)[rng.integers(0, 3, size=5)]
        w = rng.uniform(0.5, 1.5, size=5)
        _, g1 = backward(params, X, T, w)
        _, g2 = backward(params, X, T, 2 * w)
        np.testing.assert_allclose(g2.flatten(), 2 * g1.flatten(), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        params = tiny_net(rng, input_dim=5, widths=(4, 3), classes=3)
        # nudge biases off zero so no pre-activation sits exactly on the
        # ReLU kink, where a two-sided difference quotient is meaningless
        for _, b in params.hidden:
            b += rng.uniform(0.01, 0.05, size=b.shape)
        X = rng.normal(size=(4, 5))
        T = np.eye(3)[rng.integers(0, 3, size=4)]
        w = rng.uniform(0.5, 1.5, size=4)
        _, grads = backward(params, X, T, w)
        numeric = finite_difference(params, lambda: backward(params, X, T, w)[0])
        assert max_rel_error(grads.flatten(), numeric) <= 1e-4


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        rng = np.random.default_rng(3)
        params = tiny_net(rng)
        before = params.flatten()
        state = OptimizerState.for_params(params, learning_rate=0.1)
        adam_step(params, zero_gradients(params), state)
        np.testing.assert_array_equal(params.flatten(), before)
        assert state.step == 1

    def test_first_step_hand_computed(self):
        # scalar parameter, g = 1, lr = 0.1: bias correction makes the first
        # update exactly lr * 1 / (1 + eps)
        params = ModelParams(hidden=[], classifier=(np.array([[0.0]]), np.array([0.0])))
        grads = Gradients(hidden=[], classifier=(np.array([[1.0]]), np.array([0.0])))
        state = OptimizerState.for_params(params, learning_rate=0.1)
        adam_step(params, grads, state)
        expected = -0.1 * 1.0 / (1.0 + 1e-8)
        assert params.classifier[0][0, 0] == pytest.approx(expected, abs=1e-12)

    def test_moment_decay_shrinks_update(self):
        params = ModelParams(hidden=[], classifier=(np.array([[0.0]]), np.array([0.0])))
        g1 = Gradients(hidden=[], classifier=(np.array([[1.0]]), np.array([0.0])))
        g0 = Gradients(hidden=[], classifier=(np.array([[0.0]]), np.array([0.0])))
        state = OptimizerState.for_params(params, learning_rate=0.1)
        adam_step(params, g1, state)
        p1 = params.classifier[0][0, 0]
        adam_step(params, g0, state)
        p2 = params.classifier[0][0, 0]
        adam_step(params, g0, state)
        p3 = params.classifier[0][0, 0]
        assert abs(p2 - p1) < abs(p1 - 0.0)
        assert abs(p3 - p2) < abs(p2 - p1)

    def test_nonfinite_gradient_rejected(self):
        params = tiny_net(np.random.default_rng(4))
        grads = zero_gradients(params)
        grads.classifier[0][0, 0] = np.nan
        state = OptimizerState.for_params(params)
        with pytest.raises(TrainingError):
            adam_step(params, grads, state)

    def test_matches_scalar_reference_where_eps_dominates(self):
        # Gradients of ~1e-10, some exactly zero, keep sqrt(v / bc2) near 1e-10, under eps = 1e-8,
        # so each update's size is set by eps. The reference is plain float arithmetic per entry.
        rng = np.random.default_rng(14)
        params = tiny_net(rng)
        state = OptimizerState.for_params(params, learning_rate=0.01)
        p, n = params.flatten().tolist(), params.num_params()
        m, v = [0.0] * n, [0.0] * n
        for t in range(1, 4):
            grads = zero_gradients(params)
            grads.flat[...] = rng.normal(scale=1e-10, size=n) * (rng.random(n) < 0.8)
            adam_step(params, grads, state)
            bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            for i, g in enumerate(grads.flat.tolist()):
                m[i] = 0.9 * m[i] + (1.0 - 0.9) * g
                v[i] = 0.999 * v[i] + (1.0 - 0.999) * g * g
                p[i] -= 0.01 * (m[i] / bc1) / (math.sqrt(v[i] / bc2) + 1e-8)
            assert params.flat.tolist() == pytest.approx(p, rel=1e-12, abs=1e-300)
        assert max(math.sqrt(x / bc2) for x in v) < 1e-8  # eps outweighs every denominator's root

    def test_params_stay_finite_under_large_gradients(self):
        rng = np.random.default_rng(5)
        params = tiny_net(rng)
        state = OptimizerState.for_params(params, learning_rate=0.5)
        for _ in range(20):
            grads = zero_gradients(params)
            for a in grads.arrays():
                a[...] = rng.normal(scale=1e3, size=a.shape)
            adam_step(params, grads, state)
        assert params.all_finite()


class TestEma:
    def test_decay_zero_copies_live(self):
        rng = np.random.default_rng(6)
        live = tiny_net(rng)
        shadow = tiny_net(rng)
        ema_update(shadow, live, 0.0)
        np.testing.assert_array_equal(shadow.flatten(), live.flatten())

    def test_decay_one_freezes_shadow(self):
        rng = np.random.default_rng(7)
        live = tiny_net(rng)
        shadow = tiny_net(rng)
        before = shadow.flatten()
        ema_update(shadow, live, 1.0)
        np.testing.assert_array_equal(shadow.flatten(), before)

    def test_two_half_updates(self):
        live = ModelParams(hidden=[], classifier=(np.array([[1.0]]), np.array([1.0])))
        shadow = ModelParams(hidden=[], classifier=(np.array([[0.0]]), np.array([0.0])))
        ema_update(shadow, live, 0.5)
        ema_update(shadow, live, 0.5)
        assert shadow.classifier[0][0, 0] == pytest.approx(0.75, abs=1e-15)

    def test_closed_form_on_scalar_sequence(self):
        rng = np.random.default_rng(8)
        rho = 0.9
        shadow0 = 0.3
        lives = rng.normal(size=12)
        shadow = ModelParams(hidden=[], classifier=(np.array([[shadow0]]), np.array([0.0])))
        for value in lives:
            live = ModelParams(hidden=[], classifier=(np.array([[value]]), np.array([0.0])))
            ema_update(shadow, live, rho)
        t = len(lives)
        expected = rho ** t * shadow0 + (1 - rho) * sum(
            rho ** (t - 1 - i) * lives[i] for i in range(t)
        )
        assert shadow.classifier[0][0, 0] == pytest.approx(expected, abs=1e-12)


class TestCheckpoint:
    def test_round_trip_reproduces_forward_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(9)
        live = tiny_net(rng, input_dim=6, widths=(5, 4), classes=3)
        ema = tiny_net(rng, input_dim=6, widths=(5, 4), classes=3)
        x = rng.normal(size=(1, 6))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, live, ema, {"seed": 42, "num_classes": 3, "height": 2, "width": 3})
        live2, ema2, meta = load_checkpoint(path)
        assert meta["seed"] == 42
        assert np.array_equal(
            forward(live, x).probabilities, forward(live2, x).probabilities
        )
        assert np.array_equal(
            forward(ema, x).probabilities, forward(ema2, x).probabilities
        )

    def test_other_version_rejected(self, tmp_path):
        rng = np.random.default_rng(9)
        live = tiny_net(rng)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, live, live, {"num_classes": 3, "height": 2, "width": 2})
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode())
        arrays["meta"] = np.frombuffer(json.dumps({**meta, "version": 2}).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(InputDomainError, match=r": unsupported checkpoint version: 2$"):
            load_checkpoint(path)


class TestFlatLayout:
    def test_view_writes_reach_flatten(self):
        params = tiny_net(np.random.default_rng(10))  # W0 (4, 3), b0 (3,), Wc (3, 3), bc (3,)
        params.hidden[0][1][2] = 7.5
        params.classifier[0][...] = 0.0
        flat = params.flatten()
        assert flat[12 + 2] == 7.5
        assert not flat[15:24].any()
        assert params.num_params() == flat.size == 27

    def test_constructor_and_copy_own_their_vectors(self):
        W, b = np.ones((4, 3)), np.zeros(3)
        params = ModelParams(hidden=[(W, b)], classifier=(np.ones((3, 2)), np.zeros(2)))
        W[0, 0] = 5.0
        twin = params.copy()
        twin.hidden[0][0][0, 0] = -1.0
        assert params.hidden[0][0][0, 0] == 1.0
        assert twin.flat[0] == -1.0
        assert not np.shares_memory(twin.flat, params.flat)

    def test_gradients_copy_is_gradients_over_its_own_vector(self):
        grads = zero_gradients(tiny_net(np.random.default_rng(14)))
        twin = grads.copy()
        assert type(twin) is Gradients
        assert not np.shares_memory(twin.flat, grads.flat)
        twin.classifier[1][0] = 2.0
        assert twin.flat[-3] == 2.0 and grads.flat[-3] == 0.0

    def test_pickled_copy_keeps_views_in_its_vector(self):
        params = tiny_net(np.random.default_rng(11))
        twin = pickle.loads(pickle.dumps(params))
        assert np.array_equal(twin.flat, params.flat)
        twin.classifier[1][0] = 3.0
        assert twin.flat[-3] == 3.0

    def test_all_finite_catches_nan_in_a_bias(self):
        params = tiny_net(np.random.default_rng(12))
        grads = zero_gradients(params)
        assert params.all_finite() and grads.all_finite()
        params.hidden[0][1][1] = np.nan
        grads.classifier[1][0] = np.inf
        assert not params.all_finite()
        assert not grads.all_finite()

    def test_zeros_like_is_all_zeros(self):
        rng = np.random.default_rng(13)
        params = tiny_net(rng)
        backward(params, rng.normal(size=(5, 4)), np.eye(3)[[0, 1, 2, 0, 1]])
        grads = zero_gradients(params)
        assert not grads.flat.any()
        assert [a.shape for a in grads.arrays()] == [a.shape for a in params.arrays()]

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_length_set_flat_leaves_params(self, delta):
        params = tiny_net(np.random.default_rng(14))
        before = params.flatten()
        with pytest.raises(InputDomainError):
            params.set_flat(np.zeros(before.size + delta))
        assert np.array_equal(params.flatten(), before)

    @pytest.mark.parametrize("hidden, classifier", [
        ([(np.zeros((4, 3)), np.zeros(2))], (np.zeros((3, 2)), np.zeros(2))),     # bias width
        ([(np.zeros((4, 3)), np.zeros(3)), (np.zeros((2, 5)), np.zeros(5))],
         (np.zeros((5, 2)), np.zeros(2))),                                        # hidden fan-in
        ([(np.zeros((4, 3)), np.zeros(3))], (np.zeros((4, 2)), np.zeros(2))),     # classifier fan-in
        ([(np.zeros(4), np.zeros(()))], (np.zeros((4, 2)), np.zeros(2))),         # 1-D weights
    ])
    def test_layers_must_chain(self, hidden, classifier):
        with pytest.raises(InputDomainError):
            ModelParams(hidden=hidden, classifier=classifier)

    def test_adam_rejects_state_of_another_net(self):
        rng = np.random.default_rng(15)
        params = tiny_net(rng)
        state = OptimizerState.for_params(tiny_net(rng, widths=(2,)))
        with pytest.raises(InputDomainError):
            adam_step(params, zero_gradients(params), state)


# Per-tensor reference of the training step: every (W, b) its own array,
# every expression a fresh temporary, as the update rules are written.

def ref_backward(arrays, X, dlogits):
    # The forward pass is recomputed here over every row of X, each
    # pre-activation from the weights and the layer below, so nothing is read
    # from a ForwardRecord. The gradient flows back from the first
    # len(dlogits) rows, as in the stacked training step.
    Ws, bs = arrays[::2], arrays[1::2]
    below, pre = [X], []
    for W, b in zip(Ws[:-1], bs[:-1]):
        pre.append(below[-1] @ W + b)
        below.append(np.maximum(pre[-1], 0.0))
    below, pre = [a[: len(dlogits)] for a in below], [a[: len(dlogits)] for a in pre]
    grads = [np.zeros_like(a) for a in arrays]
    grads[-2][...] = below[-1].T @ dlogits
    grads[-1][...] = dlogits.sum(axis=0)
    dh = dlogits @ Ws[-1].T
    for i in range(len(Ws) - 2, -1, -1):
        da = dh * (pre[i] > 0)
        grads[2 * i][...] = below[i].T @ da
        grads[2 * i + 1][...] = da.sum(axis=0)
        dh = da @ Ws[i].T
    return grads


def ref_adam(arrays, grads, m, v, t, lr, beta1, beta2, eps):
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for p, g, mi, vi in zip(arrays, grads, m, v):
        mi[...] = beta1 * mi + (1.0 - beta1) * g
        vi[...] = beta2 * vi + (1.0 - beta2) * g * g
        p -= lr * (mi / bc1) / (np.sqrt(vi / bc2) + eps)


def ref_ema(shadow, live, rho):
    for s, l in zip(shadow, live):
        s *= rho
        s += (1.0 - rho) * l


def concat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


class TestFusedStepMatchesPerTensorReference:
    @pytest.mark.parametrize("side, widths, classes", [(3, (5, 4), 3), (16, (64, 32), 4)])
    @pytest.mark.parametrize("stop_gradient", [True, False])
    def test_bitwise_equal_over_steps(self, side, widths, classes, stop_gradient):
        rng = np.random.default_rng(16)
        params = init_params(side * side, widths, classes, rng)
        opt = OptimizerState.for_params(params, learning_rate=0.01)
        shadow = params.copy()
        ref = [a.copy() for a in params.arrays()]
        ref_m = [np.zeros_like(a) for a in ref]
        ref_v = [np.zeros_like(a) for a in ref]
        ref_shadow = [a.copy() for a in ref]
        lam1, lam2, B = 0.7, 0.3, 8
        for t in range(1, 21):
            grids = rng.uniform(size=(B, side, side))
            targets = np.eye(classes)[rng.integers(0, classes, size=B)]
            weights = rng.uniform(0.5, 1.5, size=B)
            weak, strong, _ = make_views(grids, rng)
            _, grads = total_loss(params, grids, targets, weights, weak, strong, lam1, lam2,
                                  stop_gradient=stop_gradient)

            # One forward over the clean, strong and weak rows stacked, one backward over
            # the rows that have a gradient (the weak ones only without stop-gradient).
            net = ModelParams(hidden=list(zip(ref[:-2:2], ref[1:-2:2])), classifier=(ref[-2], ref[-1]))
            X = np.concatenate([grids, strong, weak]).reshape(3 * B, -1)
            fwd = forward(net, X)
            _, dlogits = ce_value_and_dlogits(fwd.head(B), targets, weights)
            p_strong, p_weak = fwd.probabilities[B : 2 * B], fwd.probabilities[2 * B :]
            parts = [lam1 * dlogits, lam2 * (p_strong - p_weak) / B]
            if not stop_gradient:
                dprobs = lam2 * (-np.log(np.clip(p_strong, LOG_EPS, 1.0))) / B
                inner = (dprobs * p_weak).sum(axis=1, keepdims=True)
                parts.append(p_weak * (dprobs - inner))
            ref_grads = ref_backward(ref, X, np.concatenate(parts))
            assert np.array_equal(grads.flat, concat(ref_grads))

            adam_step(params, grads, opt)
            ref_adam(ref, ref_grads, ref_m, ref_v, t, 0.01, 0.9, 0.999, 1e-8)
            ema_update(shadow, params, 0.9)
            ref_ema(ref_shadow, ref, 0.9)
            assert np.array_equal(params.flat, concat(ref))
            assert np.array_equal(opt.m, concat(ref_m))
            assert np.array_equal(opt.v, concat(ref_v))
            assert np.array_equal(shadow.flat, concat(ref_shadow))
