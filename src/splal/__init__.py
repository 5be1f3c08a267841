"""Prototype-gated pseudo-labeling engine for imbalanced semi-supervised classification."""

import importlib

# Each export's module, imported on first access (PEP 562), so `import splal` loads no numpy.
_EXPORTS = {"ExperimentConfig": "config", "load_config": "config", "parse_config": "config",
            "run": "orchestrator", "RunResult": "orchestrator"}
__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
