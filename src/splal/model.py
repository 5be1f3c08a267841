"""Small MLP classifier with exact reverse-mode gradients.

The model is a feature encoder (fully connected layers with rectifier
nonlinearity) followed by a linear classifier over the last hidden
activation, which doubles as the feature vector fed to the prototype
bank and the KNN classifier.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InputDomainError, TrainingError
from .numerics import LOG_EPS, softmax_rows

CHECKPOINT_VERSION = 1

# Adam's moment decays and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


_Layout = tuple[tuple[int, int, tuple[int, ...]], ...]


def _layout(hidden, classifier) -> _Layout:
    """(start, stop, shape) in the flat vector of each W and b, layer by layer.

    The layers must chain: each W is 2-D, each b is as wide as its W's
    fan-out, and each fan-in equals the fan-out of the layer below.
    """
    layout: list[tuple[int, int, tuple[int, ...]]] = []
    fan_in, offset = None, 0
    for i, (W, b) in enumerate([*hidden, classifier]):
        w_shape, b_shape = np.shape(W), np.shape(b)
        if len(w_shape) != 2 or b_shape != w_shape[1:] or fan_in not in (None, w_shape[0]):
            raise InputDomainError(
                f"layer {i}: weights {w_shape} and bias {b_shape} do not chain"
                + ("" if fan_in is None else f" onto a layer of width {fan_in}")
            )
        fan_in = w_shape[1]
        for shape in (w_shape, b_shape):
            size = math.prod(shape)
            layout.append((offset, offset + size, shape))
            offset += size
    return tuple(layout)


class _FlatLayers:
    """(W, b) per hidden layer plus the classifier's, as views into one float64 vector.

    `flat` holds every entry, layer by layer, W before b; `hidden` and
    `classifier` are reshaped views into it, so writing either writes the
    other. The constructor copies the given arrays into a new vector.
    """

    def __init__(self, hidden, classifier):
        layout = _layout(hidden, classifier)
        self._bind(np.empty(layout[-1][1]), layout)
        for view, a in zip(self.arrays(), (a for layer in (*hidden, classifier) for a in layer)):
            view[...] = a

    @classmethod
    def _over(cls, flat: np.ndarray, layout: _Layout):
        """An instance whose views lie in the given vector, without copying it."""
        obj = cls.__new__(cls)
        obj._bind(flat, layout)
        return obj

    def _bind(self, flat: np.ndarray, layout: _Layout) -> None:
        self.flat = flat
        self._layout = layout
        views = [flat[start:stop].reshape(shape) for start, stop, shape in layout]
        layers = list(zip(views[::2], views[1::2]))
        self.hidden: list[tuple[np.ndarray, np.ndarray]] = layers[:-1]
        self.classifier: tuple[np.ndarray, np.ndarray] = layers[-1]

    def __reduce__(self):
        # Rebuild through the constructor, so a pickled copy's views share its vector.
        return type(self), (self.hidden, self.classifier)

    def arrays(self) -> list[np.ndarray]:
        return [a for layer in (*self.hidden, self.classifier) for a in layer]

    def flatten(self) -> np.ndarray:
        return self.flat.copy()

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


class ModelParams(_FlatLayers):
    """Encoder weights (list of (W, b) per hidden layer) plus the final linear map.

    W matrices are (fan_in, fan_out); activations are row vectors.
    """

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
        return ModelParams._over(self.flat.copy(), self._layout)

    def num_params(self) -> int:
        return self.flat.size

    def set_flat(self, flat: np.ndarray) -> None:
        """Overwrite every parameter from a vector laid out like flatten(); all or nothing."""
        flat = np.asarray(flat)
        if flat.shape != self.flat.shape:
            raise InputDomainError(
                f"flat parameter vector has shape {flat.shape}, expected {self.flat.shape}"
            )
        self.flat[...] = flat


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

    layers: list[np.ndarray]   # the (B, D) input, then each hidden layer's rectified (B, width) output
    logits: np.ndarray         # (B, K)
    probabilities: np.ndarray  # (B, K), row softmax at unit temperature

    @property
    def features(self) -> np.ndarray:
        """The (B, d) last hidden activation."""
        return self.layers[-1]


def _encode(params: ModelParams, X: np.ndarray) -> list[np.ndarray]:
    """The (B, D) input, then each hidden layer's output, rectified in place."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != params.input_dim:
        raise InputDomainError(
            f"input width {X.shape[1]} does not match model input {params.input_dim}"
        )
    layers = [X]
    for W, b in params.hidden:
        h = layers[-1] @ W + b
        layers.append(np.maximum(h, 0.0, out=h))
    return layers


def encode(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """The (B, d) features alone: `forward(params, X).features`, bit for bit."""
    return _encode(params, X)[-1]


def forward(params: ModelParams, X: np.ndarray) -> ForwardRecord:
    """Deterministic forward pass; X is (B, D) or a single flat (D,) vector."""
    layers = _encode(params, X)
    Wc, bc = params.classifier
    logits = layers[-1] @ Wc + bc
    return ForwardRecord(layers, logits, softmax_rows(logits))


class Gradients(_FlatLayers):
    """Gradient arrays shaped identically to ModelParams, laid out like its `flat`."""


def backward_from_dlogits(
    params: ModelParams, fwd: ForwardRecord, dlogits: np.ndarray
) -> Gradients:
    """Backpropagate an upstream (B, K) logit gradient to all parameters.

    Every gradient entry is written by one matmul or bias sum, straight
    into its view, so the vector starts uninitialised. A hidden unit passes
    gradient where its rectified output is positive, which is exactly where
    its pre-activation is.
    """
    grads = Gradients._over(np.empty_like(params.flat), params._layout)
    np.matmul(fwd.features.T, dlogits, out=grads.classifier[0])
    np.sum(dlogits, axis=0, out=grads.classifier[1])
    upstream, W_above = dlogits, params.classifier[0]
    for i in range(len(params.hidden) - 1, -1, -1):
        da = upstream @ W_above.T
        da *= fwd.layers[i + 1] > 0
        np.matmul(fwd.layers[i].T, da, out=grads.hidden[i][0])
        np.sum(da, axis=0, out=grads.hidden[i][1])
        upstream, W_above = da, params.hidden[i][0]
    return grads


def dlogits_from_dprobs(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. softmax outputs back through the softmax rows."""
    inner = (dprobs * probs).sum(axis=1, keepdims=True)
    return probs * (dprobs - inner)


def ce_value_and_dlogits(
    fwd: ForwardRecord, targets: np.ndarray, weights: np.ndarray | float
) -> tuple[float, np.ndarray]:
    """Weighted mean cross-entropy over a batch and its logit gradient.

    Targets are rows on the probability simplex; the gradient treats them
    as constants (stop-gradient on the target side). The weights are one
    per row, or one scalar for every row.
    """
    if targets.shape != fwd.probabilities.shape:
        raise InputDomainError(
            f"cross-entropy shape mismatch: targets {targets.shape}, predictions {fwd.probabilities.shape}"
        )
    B = fwd.probabilities.shape[0]
    clipped = np.clip(fwd.probabilities, LOG_EPS, 1.0)
    per_sample = -(targets * np.log(clipped)).sum(axis=1)
    value = float((weights * per_sample).sum() / B)
    dlogits = (np.reshape(weights, (-1, 1)) * (fwd.probabilities - targets)) / B
    return value, dlogits


@dataclass
class OptimizerState:
    """Adam moment accumulators, each one vector laid out like ModelParams.flat."""

    learning_rate: float = 1e-3
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        # Two vectors of scratch for adam_step, reused on every step.
        self._scratch = np.empty((2, self.m.size))

    @staticmethod
    def for_params(params: ModelParams, learning_rate: float = 1e-3) -> "OptimizerState":
        return OptimizerState(
            learning_rate=learning_rate, m=np.zeros_like(params.flat), v=np.zeros_like(params.flat)
        )


def adam_step(params: ModelParams, grads: Gradients, state: OptimizerState) -> None:
    """One bias-corrected Adam update, in place on params and state.

    m <- b1 m + (1 - b1) g;  v <- b2 v + (1 - b2) g g;
    p <- p - lr (m / bc1) / (sqrt(v / bc2) + eps),
    each product and quotient rounded once, in this order, over the flat
    vectors, through the state's two scratch vectors.
    """
    g = grads.flat
    if not params.flat.shape == g.shape == state.m.shape == state.v.shape == state._scratch[0].shape:
        raise InputDomainError(
            f"adam_step sizes differ: params {params.flat.size}, grads {g.size}, "
            f"moments {state.m.size} and {state.v.size}"
        )
    if not np.isfinite(g).all():
        raise TrainingError("non-finite gradient in adam_step")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    m, v, (step, denom) = state.m, state.v, state._scratch
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
    v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=step)
    step *= g
    v += step
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, bc1, out=step)
    step *= state.learning_rate
    step /= denom
    params.flat -= step


def ema_update(shadow: ModelParams, live: ModelParams, rho: float) -> None:
    """shadow <- rho * shadow + (1 - rho) * live, elementwise, in place."""
    shadow.flat *= rho
    shadow.flat += (1.0 - rho) * live.flat


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

    A file that is not such a container, lacks one of its entries (the
    meta's grid shape and class count included), or holds layers that do not
    chain, raises InputDomainError naming the file.
    """
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            if meta.get("version") != CHECKPOINT_VERSION:
                raise InputDomainError(f"{path}: unsupported checkpoint version: {meta.get('version')}")
            if not {"height", "width", "num_classes"} <= meta.keys():
                raise InputDomainError(f"{path}: checkpoint meta lacks height, width or num_classes")
            n = meta["num_hidden"]
            out = []
            for tag in ("live", "ema"):
                hidden = [(data[f"{tag}_hW{i}"], data[f"{tag}_hb{i}"]) for i in range(n)]
                try:
                    out.append(ModelParams(hidden=hidden, classifier=(data[f"{tag}_cW"], data[f"{tag}_cb"])))
                except InputDomainError as exc:
                    raise InputDomainError(f"{path}: {tag} weights: {exc}") from exc
    except (ValueError, KeyError, TypeError, AttributeError, EOFError, zipfile.BadZipFile) as exc:
        raise InputDomainError(f"{path}: not a readable checkpoint ({type(exc).__name__}: {exc})") from exc
    return out[0], out[1], meta
