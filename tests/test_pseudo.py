import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra.numpy import arrays

from splal.errors import ConfigurationError, InputDomainError
from splal.model import ModelParams, forward
from splal.numerics import ROW_BLOCK
from splal.pseudo import combine, ensemble, knn_prediction
from splal.selector import gate

ALPHAS = (0.2, 0.1, 0.7)


def run_ensemble(probabilities, posterior, seed=0):
    """The batched ensemble with a throwaway KNN part (every neighbor labeled 0)."""
    n, k = np.shape(probabilities)
    feats = np.random.default_rng(seed).normal(size=(n, 3))
    labels = np.eye(k)[np.zeros(n, dtype=int)]
    return ensemble(probabilities, posterior, feats, feats, labels, np.arange(n), 1, ALPHAS)


class TestLinearPrediction:
    def test_zero_weight_model_uniform(self):
        params = ModelParams(
            hidden=[(np.zeros((4, 3)), np.zeros(3))],
            classifier=(np.zeros((3, 4)), np.zeros(4)),
        )
        probs = forward(params, np.ones((5, 4))).probabilities
        out = run_ensemble(probs, np.full((5, 4), 0.25))
        np.testing.assert_allclose(out.linear, np.full((5, 4), 0.25))

    def test_matches_forward_probabilities(self):
        rng = np.random.default_rng(1)
        params = ModelParams(
            hidden=[(rng.normal(size=(4, 3)), rng.normal(size=3))],
            classifier=(rng.normal(size=(3, 2)), rng.normal(size=2)),
        )
        X = rng.normal(size=(6, 4))
        probs = forward(params, X).probabilities
        out = run_ensemble(probs, rng.dirichlet(np.ones(2), size=6))
        np.testing.assert_array_equal(out.linear, probs)
        # one batched pass gives each row's own single-row softmax
        for x, row in zip(X, out.linear):
            np.testing.assert_allclose(row, forward(params, x[None]).probabilities[0], rtol=0, atol=1e-15)
        for j in range(6):
            np.testing.assert_array_equal(
                out.combined[j], combine(out.linear[j], out.knn[j], out.similarity[j], ALPHAS)
            )


def brute_force_knn(feature, feats, labels, ids, k):
    def cosine(a, b):
        num = sum(x * y for x, y in zip(a, b))
        den = math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b))
        return num / den

    scored = sorted(
        range(len(ids)), key=lambda i: (1.0 - cosine(feats[i], feature), ids[i])
    )
    chosen = scored[:k]
    return np.mean([labels[i] for i in chosen], axis=0), {int(ids[i]) for i in chosen}


class TestKnnPrediction:
    def test_tiny_queries_rank_like_rescaled_copies(self):
        # Unscaled, a tiny query's squared norm underflows into subnormals and
        # reads a few parts in 1e4 off. Read low (the 1e-161 row), it pushes both
        # near-parallel neighbors past cosine 1: clipped, they tie, and id 0
        # beats the exactly parallel id 1.
        feats = np.array([[1.0, 1.0001], [1.0, 1.0], [1.0, 0.5], [-1.0, 0.0]])
        labels, ids = np.eye(4), np.arange(4)
        queries = np.array([[5.3e-161, 5.3e-161], [1e-161, 1e-161], [5.3e-161, 2.65e-161]])
        tiny = knn_prediction(queries, feats, labels, ids, k=1)
        np.testing.assert_array_equal(tiny, knn_prediction(np.ldexp(queries, 530), feats, labels, ids, k=1))
        np.testing.assert_array_equal(tiny, np.eye(4)[[1, 1, 2]])

    def test_blocked_batch_matches_single_queries_bitwise(self):
        # More than two blocks of queries, the last one partial; duplicated
        # labeled rows put exact ties among the nearest neighbors.
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(60, 6))
        feats[40:50] = feats[:10]
        labels = rng.dirichlet(np.ones(3), size=60)
        ids = rng.permutation(60)
        queries = np.vstack([feats[:5], rng.normal(size=(2 * ROW_BLOCK + 32, 6))])
        batch = knn_prediction(queries, feats, labels, ids, 7)
        single = np.stack([knn_prediction(q, feats, labels, ids, 7) for q in queries])
        np.testing.assert_array_equal(batch, single)

    def test_unanimous_neighbors(self):
        feats = np.array([[1.0, 0.0], [0.9, 0.1], [0.8, 0.2], [-1.0, 0.0]])
        labels = np.stack([np.eye(3)[2]] * 3 + [np.eye(3)[0]])
        ids = np.arange(4)
        out = knn_prediction(np.array([1.0, 0.05]), feats, labels, ids, k=3)
        np.testing.assert_array_equal(out, np.eye(3)[2])

    def test_hand_mean_two_to_one(self):
        feats = np.array([[1.0, 0.0], [0.95, 0.05], [0.9, 0.1], [-1.0, 0.5]])
        labels = np.stack([np.eye(3)[0], np.eye(3)[0], np.eye(3)[1], np.eye(3)[2]])
        ids = np.arange(4)
        out = knn_prediction(np.array([1.0, 0.02]), feats, labels, ids, k=3)
        np.testing.assert_allclose(out, [2 / 3, 1 / 3, 0.0], atol=1e-12)

    def test_too_few_labeled_rejected(self):
        feats = np.ones((2, 2))
        labels = np.eye(2)
        with pytest.raises(ConfigurationError):
            knn_prediction(np.ones(2), feats, labels, np.arange(2), k=3)

    def test_tie_breaks_by_sample_id(self):
        # two labeled points at identical distance; the lower id must win
        feats = np.array([[1.0, 0.0], [1.0, 0.0]])
        labels = np.stack([np.eye(2)[0], np.eye(2)[1]])
        out = knn_prediction(np.array([2.0, 0.0]), feats, labels, np.array([7, 3]), k=1)
        np.testing.assert_array_equal(out, np.eye(2)[1])
        # the same rule on every row of a query matrix
        queries = np.array([[2.0, 0.0], [0.0, 1.0], [5.0, 0.0]])
        out = knn_prediction(queries, feats, labels, np.array([7, 3]), k=1)
        np.testing.assert_array_equal(out, np.stack([np.eye(2)[1]] * 3))

    def test_dead_features_score_as_orthogonal(self):
        feats = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5]])
        labels = np.stack([np.eye(2)[0], np.eye(2)[1], np.eye(2)[0]])
        # a zero-norm labeled feature sits at distance 1 and loses to both
        out = knn_prediction(np.array([1.0, 0.1]), feats, labels, np.arange(3), k=2)
        np.testing.assert_array_equal(out, np.eye(2)[0])
        # a zero-norm query sees every neighbor at distance 1; ids break ties
        out = knn_prediction(np.zeros(2), feats, labels, np.arange(3), k=2)
        np.testing.assert_allclose(out, [0.5, 0.5])

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 500
        feats = rng.normal(size=(n, 8))
        labels = np.eye(4)[rng.integers(0, 4, size=n)]
        # exact copies sit at exactly tied distances from any query
        feats[400:420] = feats[:20]
        ids = rng.permutation(n)
        feature = rng.normal(size=8)
        for k in (1, 5, 25):
            got = knn_prediction(feature, feats, labels, ids, k)
            want, _ = brute_force_knn(feature, feats, labels, ids, k)
            np.testing.assert_allclose(got, want, atol=1e-12)
        # a query matrix answers each row as a single-query call would; the
        # first rows hit duplicated features, so k = 1 turns on the id order
        queries = np.vstack([feats[:3], rng.normal(size=(9, 8))])
        for k in (1, 5, 25):
            batch = knn_prediction(queries, feats, labels, ids, k)
            assert batch.shape == (12, 4)
            for q, row in zip(queries, batch):
                np.testing.assert_array_equal(row, knn_prediction(q, feats, labels, ids, k))
                want, _ = brute_force_knn(q, feats, labels, ids, k)
                np.testing.assert_allclose(row, want, atol=1e-12)


class TestSimilarityPrediction:
    def test_one_hot_at_winner(self):
        out = run_ensemble(np.full((1, 3), 1 / 3), np.array([[0.992, 0.004, 0.004]]))
        np.testing.assert_array_equal(out.similarity, [[1, 0, 0]])

    def test_matches_winning_class(self):
        rng = np.random.default_rng(0)
        g = gate(rng.normal(size=(4, 5)), rng.normal(size=(200, 5)), 0.6, 0.2, 0.3)
        out = run_ensemble(np.full((200, 4), 0.25), g.posterior)
        assert g.reliable.any()
        np.testing.assert_array_equal(out.similarity.sum(axis=1), np.ones(200))
        np.testing.assert_array_equal(
            out.similarity[g.reliable].argmax(axis=1), g.winners[g.reliable]
        )

    def test_unreliable_row_votes_at_posterior_argmax(self):
        # the random-subset control arm scores unreliable rows too: the vote
        # goes to the highest posterior, ties to the lowest class
        posterior = np.array([[0.3, 0.7], [0.5, 0.5]])
        out = run_ensemble(np.full((2, 2), 0.5), posterior)
        np.testing.assert_array_equal(out.similarity, [[0, 1], [1, 0]])

    @given(
        arrays(np.float64, st.integers(min_value=2, max_value=8),
               elements=st.floats(min_value=-50, max_value=50, allow_nan=False)),
        st.floats(min_value=0.1, max_value=10),
        st.floats(min_value=-5, max_value=5),
    )
    def test_positive_scale_and_shift_invariant(self, v, c, shift):
        # skip instances where the winner's margin could be lost to floating
        # point absorption when the shift is added
        top_two = np.sort(v)[-2:]
        assume(c * (top_two[1] - top_two[0]) > 1e-9 * (1 + abs(shift) + np.abs(v).max()))
        uniform = np.full((1, len(v)), 1 / len(v))
        np.testing.assert_array_equal(
            run_ensemble(uniform, [c * v + shift]).similarity, run_ensemble(uniform, [v]).similarity
        )


class TestCombine:
    def test_convexity_fixed_point(self):
        p = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(combine(p, p, p, (0.2, 0.1, 0.7)), p, atol=1e-15)

    def test_hand_arithmetic(self):
        out = combine(
            np.array([0.5, 0.5]), np.array([1.0, 0.0]), np.array([1.0, 0.0]),
            (0.2, 0.1, 0.7),
        )
        np.testing.assert_allclose(out, [0.9, 0.1], atol=1e-15)

    def test_alpha_sum_violation_rejected(self):
        p = np.array([0.5, 0.5])
        with pytest.raises(ConfigurationError):
            combine(p, p, p, (0.5, 0.5, 0.5))
        with pytest.raises(ConfigurationError):
            combine(p, p, p, (-0.1, 0.4, 0.7))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputDomainError):
            combine(np.ones(2) / 2, np.ones(3) / 3, np.ones(2) / 2, (0.2, 0.1, 0.7))

    def test_output_on_simplex(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            parts = [rng.uniform(size=4) for _ in range(3)]
            parts = [p / p.sum() for p in parts]
            raw = rng.uniform(size=3)
            alphas = tuple(raw / raw.sum())
            out = combine(*parts, alphas)
            assert abs(out.sum() - 1.0) <= 1e-9
            assert np.all(out >= -1e-12)

    def test_order_insensitive_under_matched_permutation(self):
        rng = np.random.default_rng(3)
        parts = [rng.dirichlet(np.ones(3)) for _ in range(3)]
        alphas = (0.2, 0.1, 0.7)
        base = combine(parts[0], parts[1], parts[2], alphas)
        perm = combine(parts[2], parts[0], parts[1], (0.7, 0.2, 0.1))
        np.testing.assert_allclose(perm, base, atol=1e-15)

    def test_similarity_dominance_witnesses(self):
        # alpha3 > 0.5: the combined argmax follows the similarity winner
        # unless the other two components jointly outweigh it
        alphas = (0.2, 0.1, 0.7)
        sim = np.array([1.0, 0.0])
        agree = combine(np.array([0.4, 0.6]), np.array([0.5, 0.5]), sim, alphas)
        assert int(np.argmax(agree)) == 0
        # 0.2*0 + 0.1*0 + 0.7 = 0.70 vs 0.2 + 0.1 + 0 = 0.30: still follows sim
        extreme = combine(np.array([0.0, 1.0]), np.array([0.0, 1.0]), sim, alphas)
        assert int(np.argmax(extreme)) == 0
        # with a weaker alpha3 the other components can flip it
        flipped = combine(np.array([0.0, 1.0]), np.array([0.0, 1.0]), sim, (0.3, 0.3, 0.4))
        assert int(np.argmax(flipped)) == 1
