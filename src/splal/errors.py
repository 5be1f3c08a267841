"""Exception hierarchy shared across the engine."""


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
