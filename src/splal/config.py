"""Experiment configuration: defaults, flat key=value files, validation."""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .data import SyntheticSpec, checked_test_spec
from .errors import ConfigurationError, InputDomainError, check_convex, check_fields, within
from .selector import DEFAULT_TEMPERATURE, check_gate, gamma2_from_gamma1, reachability_warning

MODES = ("splal", "baseline")


@dataclass
class ExperimentConfig:
    # dataset: synthetic spec, or CSV paths overriding it
    data_csv: str | None = None
    test_csv: str | None = None
    num_classes: int = within(SyntheticSpec.num_classes, "[2, inf)")  # whatever the data source
    class_counts: tuple[int, ...] = SyntheticSpec.class_counts
    height: int = SyntheticSpec.height
    width: int = SyntheticSpec.width
    noise_sigma: float = SyntheticSpec.noise_sigma
    data_seed: int = within(SyntheticSpec.seed, "[0, inf)")
    test_per_class: int = within(50, "[1, inf)")
    labeled_ratio: float = within(0.10, "(0, 1]")

    # reliability gate
    gamma1: float = 0.99
    gamma2: float | None = None     # None couples it to gamma1 via |1-gamma1|/2
    temperature: float = DEFAULT_TEMPERATURE

    # pseudo-label ensemble
    alpha1: float = 0.20
    alpha2: float = 0.10
    alpha3: float = 0.70
    knn_k: int = within(25, "[1, inf)")

    # loss
    lam1: float = 0.60
    lam2: float = 0.40

    # model / optimizer
    hidden_widths: tuple[int, ...] = within((64, 32), f"[1, {sys.maxsize}]")
    learning_rate: float = within(1e-3, "(0, inf)")
    ema_decay: float = within(0.99, "[0, 1]")

    # schedule
    stages: int = within(5, "[0, inf)")
    epochs_warmup: int = within(20, "[0, inf)")
    epochs_stage: int = within(10, "[0, inf)")
    batch_size: int = within(32, "[1, inf)")
    queue_capacity: int = within(64, f"[1, {sys.maxsize}]")

    # run control
    seeds: tuple[int, ...] = within((0,), "[0, inf)")
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
        """Raise ConfigurationError naming the offending field; return warnings. CSV mode skips the synthetic keys."""
        def fail(name: str, msg: str):
            raise ConfigurationError(f"{name}: {msg}")

        if self.mode not in MODES:
            fail("mode", f"must be one of {MODES}, got {self.mode!r}")
        if not self.seeds:
            fail("seeds", "need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            fail("seeds", f"each seed may appear once, got {','.join(map(str, self.seeds))}")
        check_fields(self)
        for given, needed in (("data_csv", "test_csv"), ("test_csv", "data_csv")):
            if getattr(self, given) is not None and getattr(self, needed) is None:
                fail(needed, f"required when {given} is given")
        if self.data_csv is None:
            spec = self.synthetic_spec()
            try:
                spec.validate()
                checked_test_spec("test_per_class", self.test_per_class, spec)
            except InputDomainError as exc:
                raise ConfigurationError(str(exc)) from exc
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                fail(f.name, f"must be finite, got {value}")
        check_convex("lam1/lam2", (self.lam1, self.lam2))
        check_convex("alpha1/alpha2/alpha3", (self.alpha1, self.alpha2, self.alpha3))
        check_gate(self.num_classes, self.gamma1, self.effective_gamma2(), self.temperature)

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


def load_config(path, cls=ExperimentConfig, what: str = "config"):
    """Read a flat key = value UTF-8 file into an unvalidated instance of `cls`."""
    raw = Path(path).read_bytes()
    try:
        return parse_config(raw.decode(), cls, what)
    except UnicodeDecodeError as exc:
        line = len((raw[: exc.start] + b".").decode().splitlines())  # as parse_config numbers lines
        raise ConfigurationError(f"{path} line {line}: cannot decode byte 0x{raw[exc.start]:02x} as UTF-8") from None


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
