"""Small MLP classifier with exact reverse-mode gradients.

The model is a feature encoder (fully connected layers with rectifier
nonlinearity) followed by a linear classifier over the last hidden
activation, which doubles as the feature vector fed to the prototype
bank and the KNN classifier.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InputDomainError, TrainingError
from .numerics import LOG_EPS, softmax_rows

CHECKPOINT_VERSION = 1


@dataclass
class ModelParams:
    """Encoder weights (list of (W, b) per hidden layer) plus the final linear map.

    W matrices are (fan_in, fan_out); activations are row vectors.
    """

    hidden: list[tuple[np.ndarray, np.ndarray]]
    classifier: tuple[np.ndarray, np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.hidden[0][0].shape[0] if self.hidden else self.classifier[0].shape[0]

    @property
    def feature_dim(self) -> int:
        return self.classifier[0].shape[0]

    @property
    def num_classes(self) -> int:
        return self.classifier[0].shape[1]

    def copy(self) -> "ModelParams":
        return ModelParams(
            hidden=[(W.copy(), b.copy()) for W, b in self.hidden],
            classifier=(self.classifier[0].copy(), self.classifier[1].copy()),
        )

    def arrays(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for W, b in self.hidden:
            out.extend((W, b))
        out.extend(self.classifier)
        return out

    def num_params(self) -> int:
        return sum(a.size for a in self.arrays())

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for a in self.arrays())

    def flatten(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays()])

    def set_flat(self, flat: np.ndarray) -> None:
        offset = 0
        for a in self.arrays():
            a[...] = flat[offset : offset + a.size].reshape(a.shape)
            offset += a.size
        if offset != flat.size:
            raise InputDomainError("flat parameter vector has wrong length")


def init_params(
    input_dim: int,
    hidden_widths: Sequence[int],
    num_classes: int,
    rng: np.random.Generator,
) -> ModelParams:
    """Symmetric uniform init scaled by fan-in, drawn from the given stream."""
    hidden: list[tuple[np.ndarray, np.ndarray]] = []
    fan_in = input_dim
    for width in hidden_widths:
        bound = 1.0 / np.sqrt(fan_in)
        W = rng.uniform(-bound, bound, size=(fan_in, width))
        b = np.zeros(width)
        hidden.append((W, b))
        fan_in = width
    bound = 1.0 / np.sqrt(fan_in)
    Wc = rng.uniform(-bound, bound, size=(fan_in, num_classes))
    bc = np.zeros(num_classes)
    return ModelParams(hidden=hidden, classifier=(Wc, bc))


@dataclass
class ForwardRecord:
    """All intermediates of one forward pass over a batch of row vectors."""

    inputs: np.ndarray                 # (B, D)
    pre_activations: list[np.ndarray]  # per hidden layer, (B, width)
    activations: list[np.ndarray]      # rectified, (B, width)
    features: np.ndarray               # (B, d) last hidden activation
    logits: np.ndarray                 # (B, K)
    probabilities: np.ndarray          # (B, K), row softmax at unit temperature


def forward(params: ModelParams, X: np.ndarray) -> ForwardRecord:
    """Deterministic forward pass; X is (B, D) or a single flat (D,) vector."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != params.input_dim:
        raise InputDomainError(
            f"input width {X.shape[1]} does not match model input {params.input_dim}"
        )
    h = X
    pre: list[np.ndarray] = []
    act: list[np.ndarray] = []
    for W, b in params.hidden:
        a = h @ W + b
        h = np.maximum(a, 0.0)
        pre.append(a)
        act.append(h)
    Wc, bc = params.classifier
    logits = h @ Wc + bc
    probs = softmax_rows(logits)
    return ForwardRecord(
        inputs=X, pre_activations=pre, activations=act,
        features=h, logits=logits, probabilities=probs,
    )


@dataclass
class Gradients:
    """Gradient arrays shaped identically to ModelParams."""

    hidden: list[tuple[np.ndarray, np.ndarray]]
    classifier: tuple[np.ndarray, np.ndarray]

    @staticmethod
    def zeros_like(params: ModelParams) -> "Gradients":
        return Gradients(
            hidden=[(np.zeros_like(W), np.zeros_like(b)) for W, b in params.hidden],
            classifier=(
                np.zeros_like(params.classifier[0]),
                np.zeros_like(params.classifier[1]),
            ),
        )

    def arrays(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for W, b in self.hidden:
            out.extend((W, b))
        out.extend(self.classifier)
        return out

    def add_scaled(self, other: "Gradients", scale: float = 1.0) -> None:
        for mine, theirs in zip(self.arrays(), other.arrays()):
            mine += scale * theirs

    def flatten(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays()])

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for a in self.arrays())


def backward_from_dlogits(
    params: ModelParams, fwd: ForwardRecord, dlogits: np.ndarray
) -> Gradients:
    """Backpropagate an upstream (B, K) logit gradient to all parameters."""
    grads = Gradients.zeros_like(params)
    Wc, _ = params.classifier
    grads.classifier[0][...] = fwd.features.T @ dlogits
    grads.classifier[1][...] = dlogits.sum(axis=0)
    dh = dlogits @ Wc.T
    for i in range(len(params.hidden) - 1, -1, -1):
        da = dh * (fwd.pre_activations[i] > 0)
        below = fwd.inputs if i == 0 else fwd.activations[i - 1]
        grads.hidden[i][0][...] = below.T @ da
        grads.hidden[i][1][...] = da.sum(axis=0)
        dh = da @ params.hidden[i][0].T
    return grads


def dlogits_from_dprobs(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. softmax outputs back through the softmax rows."""
    inner = (dprobs * probs).sum(axis=1, keepdims=True)
    return probs * (dprobs - inner)


def ce_value_and_dlogits(
    fwd: ForwardRecord, targets: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray]:
    """Weighted mean cross-entropy over a batch and its logit gradient.

    Targets are rows on the probability simplex; the gradient treats them
    as constants (stop-gradient on the target side).
    """
    if targets.shape != fwd.probabilities.shape:
        raise InputDomainError(
            f"cross-entropy shape mismatch: targets {targets.shape}, predictions {fwd.probabilities.shape}"
        )
    B = fwd.probabilities.shape[0]
    clipped = np.clip(fwd.probabilities, LOG_EPS, 1.0)
    per_sample = -(targets * np.log(clipped)).sum(axis=1)
    value = float((weights * per_sample).sum() / B)
    dlogits = (weights[:, None] * (fwd.probabilities - targets)) / B
    return value, dlogits


def backward(
    params: ModelParams,
    X: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[float, Gradients]:
    """Value and exact gradient of the weighted mean cross-entropy on a batch."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[0] == 0:
        raise InputDomainError("backward on empty batch")
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if weights is None:
        weights = np.ones(X.shape[0])
    weights = np.asarray(weights, dtype=np.float64)
    fwd = forward(params, X)
    value, dlogits = ce_value_and_dlogits(fwd, targets, weights)
    return value, backward_from_dlogits(params, fwd, dlogits)


@dataclass
class OptimizerState:
    """Adam moment accumulators, one pair of arrays per parameter tensor."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @staticmethod
    def for_params(params: ModelParams, learning_rate: float = 1e-3,
                   beta1: float = 0.9, beta2: float = 0.999,
                   eps: float = 1e-8) -> "OptimizerState":
        return OptimizerState(
            learning_rate=learning_rate, beta1=beta1, beta2=beta2, eps=eps,
            m=[np.zeros_like(a) for a in params.arrays()],
            v=[np.zeros_like(a) for a in params.arrays()],
        )


def adam_step(params: ModelParams, grads: Gradients, state: OptimizerState) -> None:
    """One bias-corrected Adam update, in place on params and state."""
    if not grads.all_finite():
        raise TrainingError("non-finite gradient in adam_step")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for p, g, m, v in zip(params.arrays(), grads.arrays(), state.m, state.v):
        m[...] = state.beta1 * m + (1.0 - state.beta1) * g
        v[...] = state.beta2 * v + (1.0 - state.beta2) * g * g
        p -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


@dataclass
class EmaParams:
    """Shadow copy of the live weights, moved toward them with decay rho."""

    shadow: ModelParams
    decay: float

    @staticmethod
    def from_live(live: ModelParams, decay: float) -> "EmaParams":
        return EmaParams(shadow=live.copy(), decay=decay)


def ema_update(ema: EmaParams, live: ModelParams) -> None:
    """shadow <- rho * shadow + (1 - rho) * live, elementwise, in place."""
    rho = ema.decay
    for s, l in zip(ema.shadow.arrays(), live.arrays()):
        s *= rho
        s += (1.0 - rho) * l


def save_checkpoint(path, live: ModelParams, ema: ModelParams, meta: dict) -> None:
    """Versioned npz container; reloading reproduces forward outputs bit-exactly."""
    arrays: dict[str, np.ndarray] = {}
    for tag, params in (("live", live), ("ema", ema)):
        for i, (W, b) in enumerate(params.hidden):
            arrays[f"{tag}_hW{i}"] = W
            arrays[f"{tag}_hb{i}"] = b
        arrays[f"{tag}_cW"] = params.classifier[0]
        arrays[f"{tag}_cb"] = params.classifier[1]
    header = dict(meta)
    header["version"] = CHECKPOINT_VERSION
    header["num_hidden"] = len(live.hidden)
    arrays["meta"] = np.frombuffer(json.dumps(header, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path) -> tuple[ModelParams, ModelParams, dict]:
    """(live, ema, meta) from save_checkpoint's file.

    A file that is not such a container, or lacks one of its entries, raises
    InputDomainError naming the file.
    """
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            if meta.get("version") != CHECKPOINT_VERSION:
                raise InputDomainError(f"{path}: unsupported checkpoint version: {meta.get('version')}")
            n = meta["num_hidden"]
            out = []
            for tag in ("live", "ema"):
                hidden = [(data[f"{tag}_hW{i}"].copy(), data[f"{tag}_hb{i}"].copy()) for i in range(n)]
                out.append(ModelParams(hidden=hidden, classifier=(data[f"{tag}_cW"].copy(), data[f"{tag}_cb"].copy())))
    except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise InputDomainError(f"{path}: not a readable checkpoint ({type(exc).__name__}: {exc})") from exc
    return out[0], out[1], meta
