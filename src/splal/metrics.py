"""Evaluation suite: confusion matrix, macro rates, one-vs-rest AUC, ROC points.

All multi-class rates are macro averages of per-class one-vs-rest values.
AUC is the exact Mann-Whitney statistic (half credit for ties), read with
the ROC points off one stable descending sort of each class's scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, InputDomainError, check_array


def confusion(predictions: np.ndarray, truths: np.ndarray, num_classes: int) -> np.ndarray:
    """Count matrix indexed (true class, predicted class)."""
    predictions = check_array("predictions", predictions, (None,), "iu", np.int64, below=num_classes)
    truths = check_array("truths", truths, predictions.shape, "iu", np.int64, below=num_classes)
    cells = np.bincount(truths * num_classes + predictions, minlength=num_classes * num_classes)
    return cells.reshape(num_classes, num_classes)


@dataclass
class SummaryMetrics:
    accuracy: float
    macro_f1: float
    macro_precision: float
    macro_recall: float
    macro_specificity: float
    per_class: list[dict] = field(default_factory=list)
    zero_support_classes: list[int] = field(default_factory=list)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den per class, 0.0 where den is not positive."""
    return np.divide(num, den, out=np.zeros(len(den)), where=den > 0)


def summary(matrix: np.ndarray) -> SummaryMetrics:
    """Macro one-vs-rest rates from a confusion matrix.

    Classes with zero support contribute F1 = 0 and are flagged.
    """
    matrix = check_array("matrix", matrix, (None, None), "iu", dtype=np.int64)
    check_array("matrix", matrix, (len(matrix),) * 2)
    total = matrix.sum()
    if total == 0:
        raise InputDomainError("matrix: empty confusion matrix")
    accuracy = float(np.trace(matrix) / total)
    tp = np.diagonal(matrix)
    support = matrix.sum(axis=1)
    predicted = matrix.sum(axis=0)
    fn, fp = support - tp, predicted - tp
    tn = total - tp - fn - fp
    precision, recall = _ratio(tp, predicted), _ratio(tp, support)
    specificity = _ratio(tn, tn + fp)
    f1 = _ratio(2 * precision * recall, precision + recall)
    f1[support == 0] = 0.0
    columns = {
        "support": support, "tp": tp, "fp": fp, "fn": fn, "tn": tn,
        "precision": precision, "recall": recall, "specificity": specificity, "f1": f1,
    }
    rows = zip(*(col.tolist() for col in columns.values()))
    return SummaryMetrics(
        accuracy=accuracy,
        macro_f1=float(np.mean(f1)),
        macro_precision=float(np.mean(precision)),
        macro_recall=float(np.mean(recall)),
        macro_specificity=float(np.mean(specificity)),
        per_class=[{"class": c, **dict(zip(columns, row))} for c, row in enumerate(rows)],
        zero_support_classes=np.flatnonzero(support == 0).tolist(),
    )


def _sweep(scores: np.ndarray, positives: np.ndarray) -> tuple[float, list[tuple[float, float, float]]]:
    """AUC and ROC points from one stable descending sort of the scores.

    Each run of equal scores (0.0 and -0.0 compare equal) gives one ROC point,
    its threshold the run's first score in sorted order. Each positive counts
    the negatives ranked below its run plus half of those tied with it, so
    twice the Mann-Whitney U is an exact integer.
    """
    n_pos = int(positives.sum())
    n_neg = len(positives) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("AUC needs at least one positive and one negative")
    order = np.argsort(-scores, kind="mergesort")
    ranked = scores[order]
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    tp = np.cumsum(positives[order])[ends]
    fp = ends + 1 - tp
    twice_u = int(np.diff(tp, prepend=0) @ (2 * (n_neg - fp) + np.diff(fp, prepend=0)))
    thresholds = ranked[np.append(0, ends[:-1] + 1)].tolist()
    points = list(zip(thresholds, (fp / n_neg).tolist(), (tp / n_pos).tolist()))
    return twice_u / 2 / (n_pos * n_neg), [(float("inf"), 0.0, 0.0), *points]


@dataclass
class AucReport:
    macro_auc: float
    per_class_auc: dict[int, float]
    excluded_classes: list[int]
    roc: dict[int, list[tuple[float, float, float]]]


def auc_ovr(scores: np.ndarray, truths: np.ndarray) -> AucReport:
    """Macro one-vs-rest AUC over a (N, K) score matrix.

    Classes without both a positive and a negative are excluded and flagged.
    """
    scores = check_array("scores", scores, (None, None), dtype=np.float64)
    n, k = scores.shape
    truths = check_array("truths", truths, (n,), "iu", below=k)
    per_class: dict[int, float] = {}
    roc: dict[int, list[tuple[float, float, float]]] = {}
    excluded: list[int] = []
    for c in range(k):
        positives = truths == c
        n_pos = int(positives.sum())
        if n_pos == 0 or n_pos == n:
            excluded.append(c)
            continue
        per_class[c], roc[c] = _sweep(scores[:, c], positives)
    if not per_class:
        raise EvaluationError("no class is evaluable for AUC")
    macro = float(np.mean(list(per_class.values())))
    return AucReport(macro_auc=macro, per_class_auc=per_class, excluded_classes=excluded, roc=roc)
