"""Exception hierarchy shared across the engine, and the one convexity rule for weights."""


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
