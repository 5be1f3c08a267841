import math

import numpy as np
import pytest

from splal.errors import ConfigurationError
from splal.selector import (
    cosine_matrix,
    gamma2_from_gamma1,
    gate,
    max_attainable_posterior,
    reachability_warning,
    select_reliable,
    two_thresholds,
)


def similarities(prototypes, f):
    """The gate's cosine similarities for one feature."""
    return gate(prototypes, np.asarray(f, dtype=np.float64)[None, :], 0.9, 0.05).similarities[0]


def is_reliable(v, gamma1, gamma2):
    """The gate's two-threshold verdict on one posterior: (reliable, winner or -1)."""
    reliable, winners = two_thresholds(np.asarray(v, dtype=np.float64)[None, :], gamma1, gamma2)
    return bool(reliable[0]), int(winners[0])


class TestSimilarityVector:
    def test_parallel_and_orthogonal(self):
        prototypes = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 5.0]])
        f = np.array([3.0, 0.0, 0.0])
        np.testing.assert_allclose(similarities(prototypes, f), [1.0, 0.0, 0.0])

    def test_equiangular_feature_gives_constant(self):
        prototypes = np.array([[1.0, 0.0], [0.0, 1.0]])
        f = np.array([1.0, 1.0])
        w = similarities(prototypes, f)
        assert w[0] == pytest.approx(w[1], abs=1e-12)

    def test_zero_feature_scores_zero(self):
        np.testing.assert_array_equal(similarities(np.eye(2), np.zeros(2)), [0.0, 0.0])

    def test_matches_per_entry_recompute_oracle(self):
        rng = np.random.default_rng(3)
        prototypes = rng.normal(size=(3, 5))
        f = rng.normal(size=5)
        w = similarities(prototypes, f)
        for k in range(3):
            num = sum(prototypes[k][i] * f[i] for i in range(5))
            den = math.sqrt(sum(v * v for v in prototypes[k])) * math.sqrt(sum(v * v for v in f))
            assert w[k] == pytest.approx(num / den, abs=1e-12)


class TestIsReliable:
    def test_passing_case(self):
        ok, j = is_reliable(np.array([0.992, 0.004, 0.004]), 0.99, 0.005)
        assert ok and j == 0

    def test_second_entry_exceeds_lower_threshold(self):
        ok, j = is_reliable(np.array([0.992, 0.006, 0.002]), 0.99, 0.005)
        assert not ok and j == -1

    def test_uniform_never_reliable(self):
        v = np.full(7, 1 / 7)
        ok, _ = is_reliable(v, 0.99, 0.005)
        assert not ok

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            gate(np.eye(2), np.eye(2), 0.6, 0.7)

    def test_uniqueness_automatic_above_half_by_enumeration(self):
        # exhaustive small grid over the 3-simplex: whenever gamma1 > 0.5
        # at most one entry can clear it, so the unique-index clause never
        # changes the verdict relative to the literal criterion
        gamma1, gamma2 = 0.6, 0.25
        step = 0.05
        n = round(1.0 / step)
        for i in range(n + 1):
            for j in range(n + 1 - i):
                v = np.array([i * step, j * step, 1.0 - (i + j) * step])
                above = [k for k in range(3) if v[k] >= gamma1]
                assert len(above) <= 1
                literal = len(above) == 1 and all(
                    v[k] <= gamma2 for k in range(3) if k != above[0]
                )
                assert is_reliable(v, gamma1, gamma2)[0] == literal


def brute_force_gate(prototypes, f, gamma1, gamma2, tau):
    """(w, v, reliable, winner) for one feature, straight from the definition."""
    def norm(x):
        return math.sqrt(sum(a * a for a in x))

    w = [
        0.0 if norm(c) == 0.0 or norm(f) == 0.0
        else sum(a * b for a, b in zip(c, f)) / (norm(c) * norm(f))
        for c in prototypes
    ]
    exps = [math.exp(x / tau) for x in w]
    v = [e / sum(exps) for e in exps]
    above = [k for k in range(len(v)) if v[k] >= gamma1]
    ok = len(above) == 1 and all(v[k] <= gamma2 for k in range(len(v)) if k != above[0])
    return w, v, ok, above[0] if ok else None


class TestSelectReliable:
    def _setup(self, seed=0, n=200, k=3, d=6):
        rng = np.random.default_rng(seed)
        prototypes = rng.normal(size=(k, d))
        features = [(i, rng.normal(size=d)) for i in range(n)]
        return prototypes, features

    def test_empty_input_empty_output(self):
        prototypes, _ = self._setup()
        assert select_reliable([], prototypes, 0.9, 0.05) == []

    def test_unreachable_gamma1_selects_nothing(self):
        prototypes, features = self._setup()
        assert select_reliable(features, prototypes, 1.0, 0.0, temperature=1.0) == []

    def test_matches_brute_force_definition(self):
        prototypes, features = self._setup(seed=5)
        gamma1, gamma2, tau = 0.6, 0.2, 0.3
        got = {sid for sid, _ in select_reliable(features, prototypes, gamma1, gamma2, tau)}
        expected = {
            sid for sid, f in features if brute_force_gate(prototypes, f, gamma1, gamma2, tau)[2]
        }
        assert got == expected
        assert expected  # the instance should actually exercise selection

        # The batched gate on a matrix with dead rows, with and without a
        # zero-norm prototype, equals the rule applied row by row.
        F = np.stack([f for _, f in features])
        F[::7] = 0.0
        for protos in (prototypes, np.vstack([prototypes, np.zeros(prototypes.shape[1])])):
            g = gate(protos, F, gamma1, gamma2, tau)
            assert g.reliable.any() and not g.reliable[::7].any()
            for i, f in enumerate(F):
                w, v, ok, winner = brute_force_gate(protos, f, gamma1, gamma2, tau)
                np.testing.assert_allclose(g.similarities[i], w, rtol=0, atol=1e-12)
                np.testing.assert_allclose(g.posterior[i], v, rtol=0, atol=1e-12)
                assert bool(g.reliable[i]) == ok
                assert g.winners[i] == (-1 if winner is None else winner)

    def test_monotone_in_gamma1(self):
        prototypes, features = self._setup(seed=9)
        gamma2 = 0.2
        previous = None
        for gamma1 in (0.5, 0.6, 0.7, 0.8, 0.95):
            selected = {
                sid for sid, _ in select_reliable(features, prototypes, gamma1, gamma2, 0.3)
            }
            if previous is not None:
                assert selected <= previous
            previous = selected

    def test_verdict_consistency(self):
        prototypes, features = self._setup(seed=2)
        selected = select_reliable(features, prototypes, 0.6, 0.2, 0.3)
        assert selected
        for sid, winner in selected:
            # A single-row gate call agrees with the batched selection.
            again = gate(prototypes, dict(features)[sid][None, :], 0.6, 0.2, 0.3)
            assert again.reliable[0] and again.winners[0] == winner
            assert again.posterior[0, winner] >= 0.6
            assert winner == brute_force_gate(prototypes, dict(features)[sid], 0.6, 0.2, 0.3)[3]


class TestDeadFeature:
    def test_zero_feature_is_unreliable_not_an_error(self):
        g = gate(np.eye(3), np.zeros((1, 3)), 0.9, 0.05)
        assert not g.reliable[0]
        assert g.winners[0] == -1
        np.testing.assert_allclose(g.posterior[0], np.full(3, 1 / 3))

    def test_zero_feature_still_validates_thresholds(self):
        with pytest.raises(ConfigurationError):
            gate(np.eye(3), np.zeros((1, 3)), 0.6, 0.7)

    def test_zero_prototype_scores_as_orthogonal(self):
        prototypes = np.array([[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(cosine_matrix(prototypes, np.array([[2.0, 0.0]])), [[1.0, 0.0]])

    def test_select_skips_zero_features(self):
        features = [(0, np.zeros(3)), (1, np.array([1.0, 0.0, 0.0]))]
        selected = select_reliable(features, np.eye(3) + 1e-6, 0.9, 0.05, 0.1)
        assert all(sid != 0 for sid, _ in selected)


class TestGammaCoupling:
    def test_default_operating_point(self):
        assert gamma2_from_gamma1(0.99) == pytest.approx(0.005, abs=1e-15)

    def test_endpoint(self):
        assert gamma2_from_gamma1(1.0) == 0.0

    def test_hand_arithmetic(self):
        assert gamma2_from_gamma1(0.90) == pytest.approx(0.05, abs=1e-15)


class TestReachability:
    def test_seven_class_unit_temperature_cap(self):
        # e / (e + 6/e), hand-computed
        cap = max_attainable_posterior(7, 1.0)
        assert cap == pytest.approx(math.e / (math.e + 6 / math.e), abs=1e-12)
        assert cap == pytest.approx(0.552, abs=1e-3)

    def test_tiny_temperature_cap_is_one(self):
        # exp(1 / 1e-3) would overflow a float; the cap does not need it
        assert max_attainable_posterior(4, 1e-3) == 1.0
        assert reachability_warning(4, 1e-3, 0.99) is None

    def test_warning_when_gate_unattainable(self):
        msg = reachability_warning(7, 1.0, 0.99)
        assert msg is not None and "unattainable" in msg

    def test_no_warning_at_default_temperature(self):
        assert reachability_warning(7, 0.1, 0.99) is None
