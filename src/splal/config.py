"""Experiment configuration: defaults, flat key=value files, validation."""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .data import SyntheticSpec, checked_test_spec
from .errors import ConfigurationError, InputDomainError, check_convex, check_num_classes
from .selector import DEFAULT_TEMPERATURE, check_gate, gamma2_from_gamma1, reachability_warning

MODES = ("splal", "baseline")


@dataclass
class ExperimentConfig:
    # dataset: synthetic spec, or CSV paths overriding it
    data_csv: str | None = None
    test_csv: str | None = None
    num_classes: int = SyntheticSpec.num_classes
    class_counts: tuple[int, ...] = SyntheticSpec.class_counts
    height: int = SyntheticSpec.height
    width: int = SyntheticSpec.width
    noise_sigma: float = SyntheticSpec.noise_sigma
    data_seed: int = SyntheticSpec.seed
    test_per_class: int = 50
    labeled_ratio: float = 0.10

    # reliability gate
    gamma1: float = 0.99
    gamma2: float | None = None     # None couples it to gamma1 via |1-gamma1|/2
    temperature: float = DEFAULT_TEMPERATURE

    # pseudo-label ensemble
    alpha1: float = 0.20
    alpha2: float = 0.10
    alpha3: float = 0.70
    knn_k: int = 25

    # loss
    lam1: float = 0.60
    lam2: float = 0.40

    # model / optimizer
    hidden_widths: tuple[int, ...] = (64, 32)
    learning_rate: float = 1e-3
    ema_decay: float = 0.99

    # schedule
    stages: int = 5
    epochs_warmup: int = 20
    epochs_stage: int = 10
    batch_size: int = 32
    queue_capacity: int = 64

    # run control
    seeds: tuple[int, ...] = (0,)
    mode: str = "splal"

    def effective_gamma2(self) -> float:
        return gamma2_from_gamma1(self.gamma1) if self.gamma2 is None else self.gamma2

    def synthetic_spec(self) -> SyntheticSpec:
        """The synthetic training set this config describes when data_csv is unset."""
        return SyntheticSpec(
            num_classes=self.num_classes,
            class_counts=tuple(self.class_counts),
            height=self.height,
            width=self.width,
            noise_sigma=self.noise_sigma,
            seed=self.data_seed,
        )

    def normalized(self) -> "ExperimentConfig":
        """Apply mode semantics: baseline trains supervised only, no alignment."""
        if self.mode == "baseline":
            return replace(self, stages=0, lam1=1.0, lam2=0.0)
        return self

    def validate(self) -> list[str]:
        """Raise ConfigurationError naming the offending field; return warnings."""
        def fail(name: str, msg: str):
            raise ConfigurationError(f"{name}: {msg}")

        if self.mode not in MODES:
            fail("mode", f"must be one of {MODES}, got {self.mode!r}")
        if not self.seeds:
            fail("seeds", "need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            fail("seeds", f"each seed may appear once, got {','.join(map(str, self.seeds))}")
        if min(self.seeds) < 0 or self.data_seed < 0:
            fail("seeds/data_seed", "must be nonnegative")
        try:
            check_num_classes(self.num_classes)
            spec = self.synthetic_spec() if self.data_csv is None else None
            if spec is not None:
                spec.validate()
            checked_test_spec("test_per_class", self.test_per_class, spec)
        except InputDomainError as exc:
            raise ConfigurationError(str(exc)) from exc
        if self.data_csv is not None and self.test_csv is None:
            fail("test_csv", "required when data_csv is given")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                fail(f.name, f"must be finite, got {value}")
        if not (0 < self.labeled_ratio <= 1):
            fail("labeled_ratio", f"must lie in (0, 1], got {self.labeled_ratio}")
        check_convex("lam1/lam2", (self.lam1, self.lam2))
        check_convex("alpha1/alpha2/alpha3", (self.alpha1, self.alpha2, self.alpha3))
        check_gate(self.num_classes, self.gamma1, self.effective_gamma2(), self.temperature)
        if self.knn_k < 1:
            fail("knn_k", "must be >= 1")
        if not (0 <= self.ema_decay <= 1):
            fail("ema_decay", f"must lie in [0, 1], got {self.ema_decay}")
        if self.learning_rate <= 0:
            fail("learning_rate", "must be positive")
        if self.stages < 0 or self.epochs_warmup < 0 or self.epochs_stage < 0:
            fail("stages/epochs_warmup/epochs_stage", "must be nonnegative")
        if self.batch_size < 1:
            fail("batch_size", "must be >= 1")
        if not 1 <= self.queue_capacity <= sys.maxsize:
            fail("queue_capacity", f"must lie in [1, {sys.maxsize}], got {self.queue_capacity}")
        if not all(1 <= width <= sys.maxsize for width in self.hidden_widths):
            fail("hidden_widths", f"every width must lie in [1, {sys.maxsize}], got {self.hidden_widths}")

        notes = []
        msg = reachability_warning(self.num_classes, self.temperature, self.gamma1)
        if msg is not None:
            notes.append(msg)
            # Warned from this line, so the registry a forked worker inherits
            # shows one line per command, not one per validating process.
            warnings.warn(msg, UserWarning, stacklevel=1)
        return notes


# One parser per field annotation (annotations are strings under
# `from __future__ import annotations`); a field type needs an entry here.
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[int, ...]": lambda raw: tuple(int(part) for part in raw.split(",") if part.strip()),
    "str | None": lambda raw: None if raw.lower() in ("", "none") else raw,
    "float | None": lambda raw: None if raw.lower() in ("", "none", "auto") else float(raw),
}


def _parse_value(name: str, raw: str, annotation: str):
    parse = _PARSERS[annotation]
    raw = raw.strip()
    try:
        return parse(raw)
    except ValueError:
        raise ConfigurationError(f"{name}: cannot parse {raw!r} as {annotation}") from None


def load_config(path) -> ExperimentConfig:
    """Read a flat key = value file into a validated-parseable config."""
    text = Path(path).read_text()
    return parse_config(text)


def parse_config(text: str, cls=ExperimentConfig, what: str = "config"):
    """Flat key = value text into an instance of the dataclass `cls`."""
    known = {f.name: f.type for f in fields(cls)}
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{what} line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigurationError(f"{what} line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw, known[key])
    return cls(**values)


def config_to_text(cfg) -> str:
    """Echo a config (or spec) dataclass as the flat key = value text parse_config reads."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif value is None:
            value = "none"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
