import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splal.errors import EvaluationError, InputDomainError
from splal.metrics import (
    auc_ovr,
    confusion,
    summary,
)

from helpers import binary_auc_exact, roc_points


class TestConfusion:
    def test_hand_counts(self):
        # (truth, prediction) pairs: (0,0) (1,1) (0,1) (2,2) (1,0)
        m = confusion(np.array([0, 1, 1, 2, 0]), np.array([0, 1, 0, 2, 1]), 3)
        np.testing.assert_array_equal(m, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])

    def test_row_sums_are_supports(self):
        rng = np.random.default_rng(0)
        truths = rng.integers(0, 4, size=300)
        preds = rng.integers(0, 4, size=300)
        m = confusion(preds, truths, 4)
        for c in range(4):
            assert m[c].sum() == int((truths == c).sum())
        assert m.sum() == 300

    def test_out_of_range_rejected(self):
        with pytest.raises(InputDomainError):
            confusion(np.array([3]), np.array([0]), 3)
        with pytest.raises(InputDomainError):
            confusion(np.array([0]), np.array([0, 1]), 3)


class TestSummary:
    def test_perfect_predictions(self):
        m = confusion(np.array([0, 1, 2, 2]), np.array([0, 1, 2, 2]), 3)
        s = summary(m)
        assert s.accuracy == 1.0
        assert s.macro_f1 == 1.0
        assert s.macro_recall == 1.0
        assert s.macro_specificity == 1.0

    def test_hand_worked_binary_case(self):
        # truths: 6 of class 0, 4 of class 1; predictions confuse two each way
        # class 0: tp=4, fn=2, fp=2, tn=2 -> precision=recall=f1=2/3, spec=1/2
        # class 1: tp=2, fn=2, fp=2, tn=4 -> precision=recall=f1=1/2, spec=2/3
        m = np.array([[4, 2], [2, 2]])
        s = summary(m)
        assert s.accuracy == pytest.approx(0.6, abs=1e-12)
        assert s.macro_precision == pytest.approx((4 / 6 + 2 / 4) / 2, abs=1e-12)
        assert s.macro_recall == pytest.approx((4 / 6 + 2 / 4) / 2, abs=1e-12)
        assert s.macro_f1 == pytest.approx((4 / 6 + 2 / 4) / 2, abs=1e-12)
        assert s.macro_specificity == pytest.approx((4 / 8 + 4 / 6) / 2, abs=1e-12)

    def test_zero_support_class_flagged(self):
        m = np.array([[5, 0], [0, 0]])
        s = summary(m)
        assert s.zero_support_classes == [1]
        assert s.per_class[1]["f1"] == 0.0
        assert s.macro_f1 == pytest.approx(0.5, abs=1e-12)

    def test_empty_matrix_rejected(self):
        with pytest.raises(InputDomainError):
            summary(np.zeros((3, 3), dtype=np.int64))

    def test_accuracy_equals_weighted_recall(self):
        rng = np.random.default_rng(1)
        truths = rng.integers(0, 3, size=200)
        preds = rng.integers(0, 3, size=200)
        m = confusion(preds, truths, 3)
        s = summary(m)
        weighted = sum(
            row["support"] * row["recall"] for row in s.per_class
        ) / m.sum()
        assert s.accuracy == pytest.approx(weighted, abs=1e-12)


def brute_force_auc(scores, positives):
    # pairwise Mann-Whitney statistic with half credit for ties
    pos = [s for s, p in zip(scores, positives) if p]
    neg = [s for s, p in zip(scores, positives) if not p]
    wins = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestBinaryAuc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        positives = np.array([True, True, False, False])
        assert binary_auc_exact(scores, positives) == 1.0

    def test_reversed_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        positives = np.array([True, True, False, False])
        assert binary_auc_exact(scores, positives) == 0.0

    def test_all_tied_is_half(self):
        scores = np.ones(6)
        positives = np.array([True, False] * 3)
        assert binary_auc_exact(scores, positives) == 0.5

    def test_hand_case_with_tie(self):
        # pos scores {0.8, 0.5}, neg {0.5, 0.2}; pairs: 1 + 1 + 0.5 + 1 = 3.5/4
        scores = np.array([0.8, 0.5, 0.5, 0.2])
        positives = np.array([True, True, False, False])
        assert binary_auc_exact(scores, positives) == pytest.approx(0.875, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.uniform(size=80), 2)  # rounding forces ties
        positives = rng.uniform(size=80) < 0.4
        if positives.all() or not positives.any():
            positives[0] = ~positives[0]
        want = brute_force_auc(scores, positives)
        assert binary_auc_exact(scores, positives) == pytest.approx(want, abs=1e-12)

    def test_degenerate_classes_rejected(self):
        with pytest.raises(EvaluationError):
            binary_auc_exact(np.ones(3), np.array([True, True, True]))
        with pytest.raises(EvaluationError):
            roc_points(np.ones(3), np.array([False, False, False]))

    @given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=4, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_exact_matches_pairwise_oracle(self, raw):
        # both sides count half-integer wins exactly and divide once
        scores = np.array(raw)
        positives = np.arange(len(scores)) % 2 == 0
        assert binary_auc_exact(scores, positives) == brute_force_auc(scores, positives)

    def test_large_sample_matches_searchsorted_count(self):
        # 20 000 rows with ties: each positive beats the negatives below it
        # and half of those equal to it, counted by binary search
        rng = np.random.default_rng(7)
        scores = np.round(rng.uniform(size=20_000), 3)
        positives = rng.uniform(size=20_000) < 0.3
        neg = np.sort(scores[~positives])
        below = np.searchsorted(neg, scores[positives], side="left")
        tied = np.searchsorted(neg, scores[positives], side="right") - below
        want = (below.sum() + tied.sum() / 2) / (positives.sum() * len(neg))
        assert binary_auc_exact(scores, positives) == want


class TestRocPoints:
    def test_starts_at_origin_ends_at_one_one(self):
        scores = np.array([0.9, 0.7, 0.4, 0.2])
        positives = np.array([True, False, True, False])
        pts = roc_points(scores, positives)
        assert pts[0] == (float("inf"), 0.0, 0.0)
        assert pts[-1][1] == 1.0 and pts[-1][2] == 1.0

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=50)
        positives = rng.uniform(size=50) < 0.5
        positives[0], positives[1] = True, False
        pts = roc_points(scores, positives)
        for (t0, f0, tp0), (t1, f1, tp1) in zip(pts, pts[1:]):
            assert t1 <= t0
            assert f1 >= f0 and tp1 >= tp0

    def test_hand_trace(self):
        scores = np.array([0.9, 0.8, 0.3])
        positives = np.array([True, False, True])
        pts = roc_points(scores, positives)
        assert pts == [
            (float("inf"), 0.0, 0.0),
            (0.9, 0.0, 0.5),
            (0.8, 1.0, 0.5),
            (0.3, 1.0, 1.0),
        ]


class TestAucOvr:
    def test_perfect_scores(self):
        truths = np.array([0, 1, 2, 0, 1, 2])
        scores = np.eye(3)[truths]
        report = auc_ovr(scores, truths)
        assert report.macro_auc == 1.0
        assert report.excluded_classes == []

    def test_matches_per_class_oracle(self):
        rng = np.random.default_rng(4)
        truths = rng.integers(0, 3, size=120)
        raw = rng.uniform(size=(120, 3))
        scores = raw / raw.sum(axis=1, keepdims=True)
        report = auc_ovr(scores, truths)
        per = []
        for c in range(3):
            want = brute_force_auc(scores[:, c], truths == c)
            assert report.per_class_auc[c] == pytest.approx(want, abs=1e-12)
            per.append(want)
        assert report.macro_auc == pytest.approx(np.mean(per), abs=1e-12)

    def test_absent_class_excluded(self):
        truths = np.array([0, 0, 1, 1])
        scores = np.random.default_rng(5).uniform(size=(4, 3))
        report = auc_ovr(scores, truths)
        assert report.excluded_classes == [2]
        assert set(report.per_class_auc) == {0, 1}

    def test_no_evaluable_class_rejected(self):
        with pytest.raises(EvaluationError):
            auc_ovr(np.random.default_rng(5).uniform(size=(4, 2)), np.zeros(4, dtype=int))
