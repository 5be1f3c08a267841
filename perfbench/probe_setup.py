"""Set-up probe: import the CLI, parse a config and materialise its pools, then exit.

    python3 perfbench/probe_setup.py CONFIG SEED

run.py times this whole process from outside, so the figure covers a fresh
interpreter, `import splal.cli`, config parsing and `build_pools` (synthetic
generation or CSV load). It prints the pool sizes for run.py to check.
"""

import sys

import splal.cli  # noqa: F401  (its import time is part of set-up)
from splal.config import load_config
from splal.orchestrator import build_pools


def main(config_path: str, seed: str) -> None:
    cfg = load_config(config_path).normalized()
    cfg.validate()
    labeled, unlabeled, test = build_pools(cfg, int(seed))
    print(len(labeled), len(unlabeled), len(test))


if __name__ == "__main__":
    main(*sys.argv[1:])
