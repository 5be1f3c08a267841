import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from splal.errors import ConfigurationError, InputDomainError
from splal.model import ce_value_and_dlogits
from splal.numerics import softmax_rows
from splal.selector import cosine_matrix, gate

finite_vec = arrays(
    np.float64,
    st.integers(min_value=2, max_value=8),
    elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
)


def softmax(z, temperature=1.0):
    """One row through softmax_rows, the temperature applied as the gate applies it."""
    return softmax_rows(np.asarray(z, dtype=np.float64)[None, :] / temperature)[0]


def cosine(a, b):
    return float(cosine_matrix(np.asarray(b)[None, :], np.asarray(a)[None, :])[0, 0])


def cross_entropy(target, pred):
    """One sample, unit weight, through the batch cross-entropy of the training loss."""
    fwd = SimpleNamespace(probabilities=np.asarray(pred, dtype=np.float64)[None, :])
    return ce_value_and_dlogits(fwd, np.asarray(target, dtype=np.float64)[None, :], np.ones(1))[0]


def in_simplex(v, tol=1e-9):
    return bool(np.all(v >= -tol) and np.all(v <= 1.0 + tol) and abs(v.sum() - 1.0) <= tol)


class TestSoftmax:
    def test_symmetric_input_is_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), [1 / 3] * 3)

    def test_hand_computed_two_entry(self):
        # e / (e + 1/e) computed by hand before implementation
        out = softmax(np.array([1.0, -1.0]))
        np.testing.assert_allclose(out, [0.880797, 0.119203], atol=1e-6)

    def test_shift_invariance(self):
        z = np.array([0.3, -1.2, 2.5])
        np.testing.assert_allclose(softmax(z + 17.0), softmax(z), atol=1e-12)

    def test_nonpositive_temperature_rejected(self):
        # the temperature softmax is the gate's; it rejects t <= 0 before dividing
        with pytest.raises(ConfigurationError):
            gate(np.eye(2), np.ones((1, 2)), 0.99, 0.005, temperature=0.0)

    @given(finite_vec, st.floats(min_value=0.05, max_value=10))
    def test_sums_to_one_and_shift_invariant(self, z, tau):
        out = softmax(z, tau)
        assert abs(out.sum() - 1.0) <= 1e-9
        np.testing.assert_allclose(softmax(z + 3.7, tau), out, atol=1e-9)
        # every row of a matrix call is the row's own single-row result
        rows = np.stack([z, z[::-1], z + 3.7]) / tau
        np.testing.assert_array_equal(softmax_rows(rows)[0], out)

    def test_large_magnitudes_stay_finite(self):
        out = softmax_rows(np.array([[1e4, -1e4, 0.0], [-1e4, 1e4, 1e4]]) / 0.1)
        assert np.all(np.isfinite(out))
        assert all(in_simplex(row) for row in out)


class TestCosineSimilarity:
    def test_identical_direction(self):
        assert cosine(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == 1.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_opposition(self):
        assert cosine(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == -1.0

    def test_zero_norm_scores_zero(self):
        # A dead feature or a zero-norm prototype has no direction: 0, not an error.
        assert cosine(np.zeros(3), np.ones(3)) == 0.0
        assert cosine(np.ones(3), np.zeros(3)) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputDomainError):
            cosine_matrix(np.ones((2, 3)), np.ones((1, 4)))
        with pytest.raises(InputDomainError):
            cosine_matrix(np.ones((2, 1)), np.ones((1, 4)))

    def test_tiny_rows_keep_their_direction(self):
        # Unscaled, the squared norm of `a` underflows into subnormals and
        # cosine(a / 8, a + 1) read 0.99967.
        a = np.full(2, 4.82257118e-160)
        for scaled in (a, a / 8):
            assert cosine(scaled, a + 1.0) == pytest.approx(1.0, abs=1e-12)

    @given(finite_vec, st.floats(min_value=0.1, max_value=100))
    def test_symmetric_and_scale_invariant(self, a, lam):
        b = a + 1.0  # deterministic second vector of matching length
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        s = cosine(a, b)
        assert -1.0 <= s <= 1.0
        assert cosine(b, a) == pytest.approx(s, abs=1e-12)
        assert cosine(lam * a, b) == pytest.approx(s, abs=1e-9)


class TestCrossEntropy:
    def test_perfect_confident_match_near_zero(self):
        pred = np.array([1.0 - 1e-12, 1e-12])
        assert cross_entropy(np.eye(2)[0], pred) == pytest.approx(0.0, abs=1e-11)

    def test_uniform_self_entropy(self):
        assert cross_entropy(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_hand_computed_one_hot(self):
        assert cross_entropy(np.eye(2)[0], np.array([0.25, 0.75])) == pytest.approx(
            -math.log(0.25), abs=1e-12
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputDomainError):
            cross_entropy(np.ones(2) / 2, np.ones(3) / 3)
        with pytest.raises(InputDomainError):
            cross_entropy(np.ones(1), np.ones(3) / 3)

    @given(
        arrays(np.float64, 4, elements=st.floats(min_value=0.01, max_value=1.0)),
        arrays(np.float64, 4, elements=st.floats(min_value=0.01, max_value=1.0)),
    )
    def test_gibbs_inequality(self, t_raw, p_raw):
        target = t_raw / t_raw.sum()
        pred = p_raw / p_raw.sum()
        assert cross_entropy(target, pred) >= cross_entropy(target, target) - 1e-12
