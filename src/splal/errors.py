"""Exception hierarchy shared across the engine, and the array, class-count and convexity rules."""

import numpy as np


class SplalError(Exception):
    """Base class for all engine errors."""


class ConfigurationError(SplalError):
    """A hyperparameter or config-file value violates its contract."""


class InputDomainError(SplalError):
    """An operation was called with inputs outside its documented domain."""


class TrainingError(SplalError):
    """A non-recoverable numerical failure during optimization."""


class EvaluationError(SplalError):
    """The evaluation set cannot support a requested metric."""


class ParseError(SplalError):
    """A dataset file is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def check_convex(name: str, weights) -> None:
    """Raise ConfigurationError, naming the fields, unless the weights are nonnegative and sum to 1."""
    if not (abs(sum(weights) - 1.0) <= 1e-9 and min(weights) >= 0):
        got = ", ".join(map(str, weights))
        raise ConfigurationError(f"{name}: must be nonnegative and sum to 1, got ({got})")


def check_array(name: str, x, shape: tuple, kinds: str = "biuf", dtype=None) -> np.ndarray:
    """`np.asarray(x)`, as `dtype` if given; InputDomainError, naming the argument, both shapes and the
    dtype, unless its shape matches `shape` (None matches any length) and its dtype kind is in `kinds`.
    """
    a = np.asarray(x)
    if a.ndim != len(shape) or a.dtype.kind not in kinds or any(
        n is not None and n != got for n, got in zip(shape, a.shape)
    ):
        raise InputDomainError(
            f"{name}: expected shape {shape} of dtype kind '{kinds}', got shape {a.shape} of dtype {a.dtype}"
        )
    return a if dtype is None else a.astype(dtype, copy=False)


def check_num_classes(num_classes: int) -> None:
    """Raise InputDomainError unless there are at least 2 classes, whatever the data source."""
    if num_classes < 2:
        raise InputDomainError("num_classes: need at least 2 classes")
