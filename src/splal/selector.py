"""Reliability gate over unlabeled samples.

An unlabeled sample is reliable when the temperature softmax over its
cosine similarities to the class prototypes has exactly one entry at or
above the upper threshold while every other entry sits at or below the
lower threshold. `gate` applies the rule to a whole (N, d) feature matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputDomainError, check_array, check_within
from .numerics import pow2_scaled_rows, softmax_rows

DEFAULT_TEMPERATURE = 0.1


@dataclass(frozen=True)
class GateResult:
    """Gate outcome for a batch of features, one row per feature."""

    similarities: np.ndarray      # (N, K) cosine similarities W
    posterior: np.ndarray         # (N, K) temperature softmax V of W
    reliable: np.ndarray          # (N,) two-threshold verdicts
    winners: np.ndarray           # (N,) winning class, -1 where unreliable


def cosine_matrix(prototypes: np.ndarray, features: np.ndarray) -> np.ndarray:
    """(N, K) cosine similarities of feature rows against prototype rows.

    A zero-norm prototype (every queued feature dead for that class) or a
    dead (all-zero) feature has no direction; the pair scores 0, orthogonal.
    A non-finite entry on either side raises InputDomainError.
    """
    P = check_array("prototypes", prototypes, (None, None), dtype=np.float64, finite=True)
    F = check_array("features", features, (None, P.shape[1]), dtype=np.float64, finite=True)
    P, F = pow2_scaled_rows(P), pow2_scaled_rows(F)
    # Row sums of elementwise products, not a matmul, so each row's result
    # does not depend on how many rows share the call; one prototype at a
    # time keeps the temporary at (N, d).
    dots = np.empty((len(F), len(P)))
    for j, p in enumerate(P):
        dots[:, j] = (F * p).sum(axis=1)
    denom = np.linalg.norm(F, axis=1)[:, None] * np.linalg.norm(P, axis=1)[None, :]
    W = np.divide(dots, denom, out=np.zeros(denom.shape), where=denom != 0.0)
    return np.clip(W, -1.0, 1.0)


def check_gate(num_classes: int, gamma1: float, gamma2: float, temperature: float) -> None:
    """Raise SplalError, naming the field, unless the class count and the gate's parameters are in range.

    gamma1 must exceed 1/K, so a uniform posterior cannot pass the gate.
    """
    check_within("num_classes", num_classes, "[2, inf)", InputDomainError)
    chance = 1 / num_classes
    if not (chance < gamma1 <= 1):
        raise ConfigurationError(f"gamma1: must lie in (1/num_classes, 1] = ({chance:g}, 1], got {gamma1}")
    if not (0 <= gamma2 < gamma1):
        raise ConfigurationError(f"gamma2: must lie in [0, gamma1), got {gamma2}")
    if not temperature > 0:
        raise ConfigurationError(f"temperature: must be positive, got {temperature}")
    if not math.isfinite(2 / float(temperature)):  # cosines span [-1, 1], so logits span 2 / temperature
        raise ConfigurationError(f"temperature: 2 / temperature must be finite, got {temperature}")


def two_thresholds(posterior: np.ndarray, gamma1: float, gamma2: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise criterion on (N, K) posteriors: (reliable mask, winners or -1)."""
    above = posterior >= gamma1
    reliable = (above.sum(axis=1) == 1) & ((posterior <= gamma2) | above).all(axis=1)
    return reliable, np.where(reliable, above.argmax(axis=1), -1)


def gate(
    prototypes: np.ndarray,
    features: np.ndarray,
    gamma1: float,
    gamma2: float,
    temperature: float = DEFAULT_TEMPERATURE,
) -> GateResult:
    """Similarities, posteriors and verdicts for every row of an (N, d) matrix.

    A dead feature has all-zero similarities, hence a uniform posterior,
    which can never clear gamma1 > 1/K: it is unreliable, not an error.
    """
    W = cosine_matrix(prototypes, features)
    check_gate(W.shape[1], gamma1, gamma2, temperature)
    V = softmax_rows(W / temperature)
    reliable, winners = two_thresholds(V, gamma1, gamma2)
    return GateResult(similarities=W, posterior=V, reliable=reliable, winners=winners)


def select_reliable(
    features_by_id: list[tuple[int, np.ndarray]],
    prototypes: np.ndarray,
    gamma1: float,
    gamma2: float,
    temperature: float = DEFAULT_TEMPERATURE,
) -> list[tuple[int, int]]:
    """Pure filter over (sample id, feature) pairs: (sample id, winning class) of each reliable one."""
    if not features_by_id:
        return []
    result = gate(prototypes, np.stack([f for _, f in features_by_id]), gamma1, gamma2, temperature)
    return [(features_by_id[i][0], int(result.winners[i])) for i in np.flatnonzero(result.reliable)]


def gamma2_from_gamma1(gamma1: float) -> float:
    """Lower-threshold coupling used by the threshold sweep."""
    return abs(1.0 - gamma1) / 2.0


def max_attainable_posterior(num_classes: int, temperature: float) -> float:
    """Largest softmax entry reachable from cosine similarities in [-1, 1].

    That is e^(1/t) / (e^(1/t) + (K - 1) e^(-1/t)), written so that no
    exponent is positive and a tiny temperature cannot overflow.
    """
    return 1.0 / (1.0 + (num_classes - 1) * math.exp(-2.0 / temperature))


def reachability_warning(num_classes: int, temperature: float, gamma1: float) -> str | None:
    """A message when the gate can never fire, else None."""
    cap = max_attainable_posterior(num_classes, temperature)
    if gamma1 > cap:
        return (
            f"reliability gate unattainable: gamma1={gamma1} exceeds the maximum "
            f"achievable posterior {cap:.4f} for {num_classes} classes at "
            f"temperature {temperature}; no sample can ever be selected"
        )
    return None
