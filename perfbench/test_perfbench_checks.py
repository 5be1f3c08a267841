"""The benchmark's own checks accept real splal output and reject perturbed output.

Each test copies one small run's output, changes a single value, and expects
the matching check to raise CheckError.
"""

import csv
import json
import re
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from splal import cli  # noqa: E402

import checks  # noqa: E402

SMALL_TRAIN = """\
class_counts = 120,60,24,12
stages = 2
epochs_warmup = 10
epochs_stage = 2
test_per_class = 10
seeds = 0
"""
SMALL_SWEEP = """\
mode = baseline
class_counts = 60,30,12,6
epochs_warmup = 2
test_per_class = 10
seeds = 0,1
"""
RATIOS = (0.05, 0.10, 0.20, 0.30)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("runs")
    (base / "train.cfg").write_text(SMALL_TRAIN)
    (base / "sweep.cfg").write_text(SMALL_SWEEP)
    assert cli.main(["train", "--config", str(base / "train.cfg"), "--out-dir", str(base / "train")]) == 0
    assert cli.main(["ablate", "--config", str(base / "sweep.cfg"), "--sweep", "label-ratio",
                     "--out-dir", str(base / "sweep")]) == 0
    return base


@pytest.fixture
def seed_dir(runs, tmp_path):
    return Path(shutil.copytree(runs / "train" / "seed_0", tmp_path / "seed_0"))


def _rewrite_csv(path, edit):
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    edit(rows)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def test_unperturbed_run_passes(seed_dir):
    f1 = checks.check_train_seed_dir(seed_dir)
    assert f1 == pytest.approx(json.loads((seed_dir / "metrics.json").read_text())["macro_f1"], abs=1e-12)
    with (seed_dir / "pseudo_audit.csv").open() as fh:
        assert len(fh.readlines()) > 1, "the small run must pseudo-label something"


def test_one_f1_digit_is_rejected(seed_dir):
    path = seed_dir / "metrics.json"
    text = path.read_text()
    match = re.search(r'"macro_f1": 0\.(\d)(\d)', text)
    digit = match.group(2)
    start = match.start(2)
    path.write_text(text[:start] + str((int(digit) + 1) % 10) + text[start + 1:])
    with pytest.raises(checks.CheckError, match="macro_f1"):
        checks.check_train_seed_dir(seed_dir)


def test_one_confusion_count_is_rejected(seed_dir):
    path = seed_dir / "metrics.json"
    metrics = json.loads(path.read_text())
    metrics["confusion"][0][0] += 1
    path.write_text(json.dumps(metrics))
    with pytest.raises(checks.CheckError, match="confusion"):
        checks.check_metrics(seed_dir)


def test_one_audit_flag_is_rejected(seed_dir):
    def flip_first(rows):
        rows[0]["reliable"] = str(1 - int(rows[0]["reliable"]))

    _rewrite_csv(seed_dir / "selector_audit.csv", flip_first)
    with pytest.raises(checks.CheckError, match="reliable"):
        checks.check_train_seed_dir(seed_dir)


def test_posterior_not_softmax_is_rejected(seed_dir):
    def swap_v(rows):
        rows[0]["v0"], rows[0]["v1"] = rows[0]["v1"], rows[0]["v0"]

    _rewrite_csv(seed_dir / "selector_audit.csv", swap_v)
    with pytest.raises(checks.CheckError, match="softmax"):
        checks.check_train_seed_dir(seed_dir)


def test_one_combined_entry_is_rejected(seed_dir):
    def nudge(rows):
        rows[0]["combined0"] = repr(float(rows[0]["combined0"]) + 1e-6)

    _rewrite_csv(seed_dir / "pseudo_audit.csv", nudge)
    with pytest.raises(checks.CheckError, match="alpha-weighted"):
        checks.check_train_seed_dir(seed_dir)


def test_pseudo_ids_must_match_reliable_ids(seed_dir):
    _rewrite_csv(seed_dir / "pseudo_audit.csv", lambda rows: rows.pop())
    with pytest.raises(checks.CheckError, match="reliable ids"):
        checks.check_train_seed_dir(seed_dir)


def test_num_selected_must_match_audit(seed_dir):
    path = seed_dir / "stage_reports.json"
    reports = json.loads(path.read_text())
    reports[0]["num_selected"] += 1
    path.write_text(json.dumps(reports))
    with pytest.raises(checks.CheckError, match="num_selected"):
        checks.check_train_seed_dir(seed_dir)


def test_sweep_csv_passes_and_rejects_perturbations(runs, tmp_path):
    path = Path(shutil.copy(runs / "sweep" / "label-ratio.csv", tmp_path / "sweep.csv"))
    assert len(checks.check_sweep_csv(path, RATIOS, [0, 1])) == 8
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check_sweep_csv(path, RATIOS, [0, 1, 2])

    def skew_accuracy(rows):
        rows[0]["accuracy"] = repr(float(rows[0]["macro_recall"]) / 2)

    _rewrite_csv(path, skew_accuracy)
    with pytest.raises(checks.CheckError, match="macro_recall"):
        checks.check_sweep_csv(path, RATIOS, [0, 1])


def test_sweep_rate_outside_unit_interval_is_rejected(runs, tmp_path):
    path = Path(shutil.copy(runs / "sweep" / "label-ratio.csv", tmp_path / "sweep.csv"))

    def push_auc(rows):
        rows[0]["macro_auc"] = "1.5"

    _rewrite_csv(path, push_auc)
    with pytest.raises(checks.CheckError, match="outside"):
        checks.check_sweep_csv(path, RATIOS, [0, 1])


def test_digests_must_repeat():
    checks.check_same_digests([{"seed_0": "a"}, {"seed_0": "a"}])
    with pytest.raises(checks.CheckError, match="seed_0"):
        checks.check_same_digests([{"seed_0": "a"}, {"seed_0": "b"}])
