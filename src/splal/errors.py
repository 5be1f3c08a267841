"""Exception hierarchy shared across the engine, and the array, field-domain and convexity rules."""

from dataclasses import field, fields

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


def check_array(
    name: str, x, shape: tuple | None, kinds: str | None = "biuf", dtype=None, below: int | None = None,
    finite: bool = False,
) -> np.ndarray:
    """`np.asarray(x)`, as `dtype` if given; InputDomainError, naming the argument, unless x is a rectangular
    array whose shape matches `shape` (None matches any shape, a None entry any length), whose dtype kind
    is in `kinds` (None: any kind), if `below` is given, whose entries are class ids in [0, below) and,
    if `finite`, whose entries are all finite.
    """
    try:
        a = np.asarray(x)
    except ValueError as exc:  # a ragged nested sequence; numpy's message names no argument
        raise InputDomainError(f"{name}: cannot read as an array: {exc}") from None
    if (kinds is not None and a.dtype.kind not in kinds) or shape is not None and (
        a.ndim != len(shape) or any(n is not None and n != got for n, got in zip(shape, a.shape))
    ):
        raise InputDomainError(
            f"{name}: expected shape {shape} of dtype kind '{kinds}', got shape {a.shape} of dtype {a.dtype}"
        )
    if below is not None and ((a < 0) | (a >= below)).any():
        raise InputDomainError(f"{name}: class id {a[(a < 0) | (a >= below)][0]} out of range [0, {below})")
    if finite and not np.isfinite((a.min(initial=0), a.max(initial=0))).all():  # no mask the size of a
        raise InputDomainError(f"{name}: every entry must be finite")
    return a if dtype is None else a.astype(dtype, copy=False)


def within(default, interval: str):
    """A dataclass field whose value, or each entry of a tuple value, must lie in `interval`, e.g. "(0, 1]"."""
    return field(default=default, metadata={"interval": interval})


def check_within(name: str, value, interval: str, error: type = ConfigurationError) -> None:
    """Raise `error` naming the field unless `value` lies in `interval`; integer ends compare exactly."""
    lo, hi = (int(end) if end.lstrip("-").isdigit() else float(end) for end in interval[1:-1].split(", "))
    above = lo < value if interval[0] == "(" else lo <= value
    if not (above and (value < hi if interval[-1] == ")" else value <= hi)):
        raise error(f"{name}: must lie in {interval}, got {value}")


def check_fields(obj, error: type = ConfigurationError) -> None:
    """`check_within` for each field of a dataclass declared by `within`, in declaration order."""
    for f in fields(obj):
        if "interval" in f.metadata:
            value = getattr(obj, f.name)
            for entry in value if f.type.startswith("tuple") else (value,):
                check_within(f.name, entry, f.metadata["interval"], error)
