"""Golden-behaviour gate: integer fingerprints of fixed runs against a checked-in fixture.

A fingerprint holds only decisions: per stage the reliable count, the
selected sample ids and the argmax of each pseudo-label, then the final
confusion matrix. A last-ulp float difference fails the gate only when it
flips one of these outcomes. The CSV-backed source writes its training rows
in a permuted id order, so the pools must not depend on file order.

Regenerate the fixture with

    PYTHONPATH=src python tests/test_golden.py

only for a change that is meant to alter behaviour, and log which
fingerprints moved.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from splal.cli import main
from splal.config import ExperimentConfig
from splal.orchestrator import run

FIXTURE = Path(__file__).parent / "golden" / "fingerprints.json"

CSV_SPEC = """\
num_classes = 4
class_counts = 60,30,12,6
height = 10
width = 10
noise_sigma = 0.15
seed = 21
"""


def csv_config(tmp: Path) -> ExperimentConfig:
    """Config over generate-data CSVs whose training rows are in a permuted id order."""
    spec, train, test = tmp / "spec.txt", tmp / "train.csv", tmp / "test.csv"
    spec.write_text(CSV_SPEC)
    code = main(["generate-data", "--spec", str(spec), "--out", str(train),
                 "--test-out", str(test), "--test-per-class", "10"])
    assert code == 0
    lines = train.read_text().splitlines(keepends=True)
    order = np.random.default_rng(0).permutation(len(lines) - 2)
    train.write_text("".join(lines[:2] + [lines[2 + i] for i in order]))
    return ExperimentConfig(
        data_csv=str(train), test_csv=str(test), num_classes=4, class_counts=(60, 30, 12, 6),
        height=10, width=10, labeled_ratio=0.2, hidden_widths=(32, 16), epochs_warmup=6,
        epochs_stage=3, stages=3, batch_size=16, knn_k=5, gamma1=0.9,
    )


def fingerprint(result) -> dict:
    stages = []
    for report in result.stage_reports:
        records = [rec for rec in result.audits["pseudo"] if rec["stage"] == report.stage]
        stages.append({
            "reliable": int(report.num_selected),
            "selected": [int(rec["sample_id"]) for rec in records],
            "argmax": [int(rec["predicted"]) for rec in records],
        })
    return {"stages": stages, "confusion": [[int(x) for x in row] for row in result.metrics["confusion"]]}


def source_fingerprint(name: str) -> dict:
    if name.startswith("default-seed"):
        return fingerprint(run(ExperimentConfig(), int(name[len("default-seed"):]), collect_audits=True))
    if name == "baseline-seed0":
        return fingerprint(run(ExperimentConfig(mode="baseline"), 0, collect_audits=True))
    if name == "csv-permuted-seed0":
        with tempfile.TemporaryDirectory() as tmp:
            return fingerprint(run(csv_config(Path(tmp)), 0, collect_audits=True))
    raise KeyError(name)


SOURCES = [f"default-seed{s}" for s in range(5)] + ["baseline-seed0", "csv-permuted-seed0"]


@pytest.mark.parametrize("name", SOURCES)
def test_fingerprint_matches_fixture(name):
    expected = json.loads(FIXTURE.read_text())[name]
    assert source_fingerprint(name) == expected


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    fixture = {name: source_fingerprint(name) for name in SOURCES}
    # One source per line, so a diff of the fixture names the runs that moved.
    body = ",\n".join(f" {json.dumps(name)}: {json.dumps(fp, sort_keys=True)}" for name, fp in fixture.items())
    FIXTURE.write_text("{\n" + body + "\n}\n")
    print(f"wrote {len(fixture)} fingerprints to {FIXTURE}", file=sys.stderr)
