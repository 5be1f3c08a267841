"""Three component classifiers and their weighted combination into pseudo-labels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputDomainError
from .numerics import pow2_scaled_rows

ALPHA_TOL = 1e-9


@dataclass(frozen=True)
class Ensemble:
    """Component and combined predictions, one (N, K) row per queried sample."""

    linear: np.ndarray
    knn: np.ndarray
    similarity: np.ndarray
    combined: np.ndarray


def _unit_rows(X: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; a dead (all-zero) row stays zero."""
    X = pow2_scaled_rows(np.asarray(X, dtype=np.float64))
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    return np.divide(X, norms, out=np.zeros(X.shape), where=norms != 0.0)


def knn_prediction(
    features: np.ndarray,
    labeled_features: np.ndarray,
    labeled_labels: np.ndarray,
    labeled_ids: np.ndarray,
    k: int,
) -> np.ndarray:
    """Mean label vector of the k nearest labeled features under cosine distance.

    `features` is one (d,) query, answered with a (K,) vector, or an (N, d)
    matrix of queries, answered row by row with an (N, K) matrix. Distance
    ties break by sample id ascending; a dead feature on either side scores
    the pair as orthogonal. Labels may be soft vectors (pseudo-labeled
    neighbors contribute their stored distributions).
    """
    n = len(labeled_ids)
    if k < 1:
        raise ConfigurationError(f"neighbor count must be >= 1, got {k}")
    if n < k:
        raise ConfigurationError(f"need at least {k} labeled samples, have {n}")
    queries = _unit_rows(np.atleast_2d(features))
    units = _unit_rows(labeled_features)
    out = np.empty((len(queries), np.shape(labeled_labels)[1]))
    # One query row at a time keeps memory at O(n), not an (N, n) matrix.
    for i, q in enumerate(queries):
        dists = 1.0 - np.clip(units @ q, -1.0, 1.0)
        nearest = np.lexsort((labeled_ids, dists))[:k]
        out[i] = labeled_labels[nearest].mean(axis=0)
    return out[0] if np.ndim(features) == 1 else out


def combine(
    linear: np.ndarray,
    knn: np.ndarray,
    similarity: np.ndarray,
    alphas: tuple[float, float, float],
) -> np.ndarray:
    """Elementwise convex combination of the three component predictions."""
    a1, a2, a3 = alphas
    if min(a1, a2, a3) < 0 or abs(a1 + a2 + a3 - 1.0) > ALPHA_TOL:
        raise ConfigurationError(f"alphas must be nonnegative and sum to 1, got {alphas}")
    if not (np.shape(linear) == np.shape(knn) == np.shape(similarity)):
        raise InputDomainError("component prediction length mismatch")
    return a1 * np.asarray(linear) + a2 * np.asarray(knn) + a3 * np.asarray(similarity)


def ensemble(
    probabilities: np.ndarray,
    posterior: np.ndarray,
    features: np.ndarray,
    labeled_features: np.ndarray,
    labeled_labels: np.ndarray,
    labeled_ids: np.ndarray,
    k: int,
    alphas: tuple[float, float, float],
) -> Ensemble:
    """Pseudo-label predictions for a batch of rows.

    The linear part is the model's softmax rows, the KNN part votes over the
    labeled features, and the similarity part is a one-hot at each row's
    highest gate posterior (the winning class of a reliable row).
    """
    linear = np.asarray(probabilities, dtype=np.float64)
    posterior = np.asarray(posterior, dtype=np.float64)
    knn = knn_prediction(features, labeled_features, labeled_labels, labeled_ids, k)
    similarity = np.eye(posterior.shape[1])[posterior.argmax(axis=1)]
    return Ensemble(linear, knn, similarity, combine(linear, knn, similarity, alphas))
