"""Three component classifiers and their weighted combination into pseudo-labels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_array, check_convex
from .numerics import ROW_BLOCK
from .selector import cosine_matrix


@dataclass(frozen=True)
class Ensemble:
    """Component and combined predictions, one (N, K) row per queried sample."""

    linear: np.ndarray
    knn: np.ndarray
    similarity: np.ndarray
    combined: np.ndarray


def knn_prediction(
    features: np.ndarray,
    labeled_features: np.ndarray,
    labeled_labels: np.ndarray,
    labeled_ids: np.ndarray,
    k: int,
) -> np.ndarray:
    """Mean label vector of the k nearest labeled features under cosine distance.

    `features` is one (d,) query, answered with a (K,) vector, or an (N, d) matrix of queries,
    answered row by row with an (N, K) matrix. Distances are 1 - the gate's `cosine_matrix`, so a
    dead feature on either side scores the pair as orthogonal; ties break by sample id ascending.
    Labels may be soft vectors (pseudo-labeled neighbors contribute their stored distributions).
    """
    n, d = check_array("labeled_features", labeled_features, (None, None), finite=True).shape
    labeled_labels = check_array("labeled_labels", labeled_labels, (n, None))
    labeled_ids = check_array("labeled_ids", labeled_ids, (n,), "iu")
    features = check_array("features", features, None)
    check_array("features", features, (d,) if features.ndim == 1 else (None, d))
    if k < 1:
        raise ConfigurationError(f"k: must be >= 1, got {k}")
    if n < k:
        raise ConfigurationError(f"k: {k} exceeds the {n} labeled samples")
    queries = np.atleast_2d(features)
    out = np.empty((len(queries), labeled_labels.shape[1]))
    # A block of queries at a time keeps memory at O(ROW_BLOCK * n), not O(N * n); cosine_matrix's
    # row sums make each row's distances independent of the block.
    for start in range(0, len(queries), ROW_BLOCK):
        dists = 1.0 - cosine_matrix(labeled_features, queries[start : start + ROW_BLOCK])
        order = np.lexsort((np.broadcast_to(labeled_ids, dists.shape), dists), axis=1)
        out[start : start + ROW_BLOCK] = labeled_labels[order[:, :k]].mean(axis=1)
    return out[0] if features.ndim == 1 else out


def combine(
    linear: np.ndarray,
    knn: np.ndarray,
    similarity: np.ndarray,
    alphas: tuple[float, float, float],
) -> np.ndarray:
    """Elementwise convex combination of the three component predictions, shaped like `linear`."""
    check_array("alphas", alphas, (3,))
    check_convex("alpha1/alpha2/alpha3", alphas)
    a1, a2, a3 = alphas
    linear = check_array("linear", linear, None)
    knn = check_array("knn", knn, linear.shape)
    similarity = check_array("similarity", similarity, linear.shape)
    return a1 * linear + a2 * knn + a3 * similarity


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
    linear = check_array("probabilities", probabilities, (None, None), dtype=np.float64)
    posterior = check_array("posterior", posterior, linear.shape, dtype=np.float64)
    check_array("features", features, (len(linear), None))
    check_array("labeled_labels", labeled_labels, (None, linear.shape[1]))
    knn = knn_prediction(features, labeled_features, labeled_labels, labeled_ids, k)
    similarity = np.eye(posterior.shape[1])[posterior.argmax(axis=1)]
    return Ensemble(linear, knn, similarity, combine(linear, knn, similarity, alphas))
