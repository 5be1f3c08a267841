"""Metric floats pinned bit for bit against a checked-in fixture.

`summary` and `auc_ovr` are compared by `repr`, so a change in the last bit
of any rate, AUC or ROC point fails. Exact comparison is safe here: the
inputs are built with integer arithmetic and correctly rounded divisions,
not an RNG stream, and the metric path has no BLAS call, only integer
counts, sorts and correctly rounded divisions, so the floats do not depend
on the machine.

Regenerate the fixture with

    PYTHONPATH=src python tests/test_metrics_fixture.py

only for a change that is meant to alter metric values, and log which
values moved.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from splal.metrics import auc_ovr, confusion, summary

FIXTURE = Path(__file__).parent / "golden" / "metrics.json"


def ties(n=90):
    """Softmax-like rows of small integers: many tied scores per class."""
    i = np.arange(n)
    raw = (i[:, None] * [37, 11, 5] + 3) % 13 + 1
    return raw / raw.sum(axis=1, keepdims=True), (i * i + i // 4) % 3


def signed_zero(n=40):
    """Scores from {0.0, -0.0, 0.5, 1.0}: a run holds both zeros, led by 0.0 or -0.0."""
    i = np.arange(n)
    grid = np.array([0.0, -0.0, 0.5, 1.0])
    return grid[(i[:, None] * [3, 5] + [0, 1] + i[:, None] // 7) % 4], (i // 3) % 2


def absent_class(n=50):
    """Class 2 has no sample: excluded from the AUC, zero support in the summary."""
    i = np.arange(n)
    scores = ((i[:, None] * [37, 11, 5, 23] + 9) % 101) / 100
    return scores, np.array([0, 1, 3])[(i * 5 + i // 2) % 3]


def large(n=12_000):
    """More than 10 000 rows, 101 distinct scores per class."""
    i = np.arange(n)
    return ((i[:, None] * [37, 11, 5] + 1) % 101) / 100, (i * 13 + i // 11) % 3


CASES = {f.__name__: f for f in (ties, signed_zero, absent_class, large)}


def record(scores, truths) -> dict:
    k = scores.shape[1]
    report = auc_ovr(scores, truths)
    return {
        "summary": repr(summary(confusion(scores.argmax(axis=1), truths, k))),
        "macro_auc": repr(report.macro_auc),
        "per_class_auc": repr(report.per_class_auc),
        "excluded_classes": repr(report.excluded_classes),
        "roc": {str(c): [repr(p) for p in pts] for c, pts in report.roc.items()},
    }


@pytest.mark.parametrize("name", list(CASES))
def test_metrics_match_fixture(name):
    want = json.loads(FIXTURE.read_text())[name]
    got = record(*CASES[name]())
    for key in want:
        assert got[key] == want[key], f"{name}: {key} moved"
    assert set(got) == set(want)


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({name: record(*make()) for name, make in CASES.items()}, indent=1) + "\n"
    )
    print(f"wrote {FIXTURE}")
