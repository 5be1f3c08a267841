import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splal import cli, data, orchestrator
from splal.cli import (
    ALPHA_GRID,
    LAMBDA2_GRID,
    METRIC_KEYS,
    SWEEPS,
    build_parser,
    main,
    run_sweep,
    run_training,
    sweep_configs,
)
from splal.config import ExperimentConfig, config_to_text
from splal.data import SyntheticSpec, file_sha256, generate, load_csv, save_csv
from splal.errors import ConfigurationError, ParseError, TrainingError
from splal.model import init_params, load_checkpoint, save_checkpoint
from splal.orchestrator import run

from test_orchestrator import tiny_config


def write_config(tmp_path, **overrides):
    cfg = tiny_config(**{"seeds": (0,), "stages": 1, "epochs_warmup": 2, "epochs_stage": 1, **overrides})
    path = tmp_path / "exp.cfg"
    path.write_text(config_to_text(cfg))
    return path, cfg


SPEC_TEXT = """
num_classes = 4
class_counts = 8,6,5,4
height = 8
width = 8
noise_sigma = 0.1
seed = 3
"""


def write_csv_pair(tmp_path, spec_text=SPEC_TEXT):
    """generate-data train and test CSVs from a spec; returns their paths."""
    spec = tmp_path / "spec.txt"
    spec.write_text(spec_text)
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    assert main(["generate-data", "--spec", str(spec), "--out", str(train),
                 "--test-out", str(test), "--test-per-class", "3"]) == 0
    return train, test


class TestGenerateData:
    def test_writes_csv_and_manifest(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_TEXT)
        out = tmp_path / "data.csv"
        test_out = tmp_path / "test.csv"
        code = main([
            "generate-data", "--spec", str(spec), "--out", str(out),
            "--test-out", str(test_out), "--test-per-class", "3",
        ])
        assert code == 0
        samples, h, w, k = load_csv(out)
        assert (h, w, k) == (8, 8, 4)
        assert len(samples) == 23
        test_samples, *_ = load_csv(test_out)
        assert len(test_samples) == 12
        manifest = json.loads((tmp_path / "data.csv.manifest.json").read_text())
        assert manifest["class_counts"] == [8, 6, 5, 4]
        assert manifest["csv_sha256"] == file_sha256(out)

    def test_deterministic_output(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_TEXT)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["generate-data", "--spec", str(spec), "--out", str(a)]) == 0
        assert main(["generate-data", "--spec", str(spec), "--out", str(b)]) == 0
        assert file_sha256(a) == file_sha256(b)

    def test_bad_spec_key_exits_one(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("bogus = 1\n")
        code = main(["generate-data", "--spec", str(spec), "--out", str(tmp_path / "x.csv")])
        assert code == 1

    @pytest.mark.parametrize("line", [
        "noise_sigma = nan", "noise_sigma = -0.1", "seed = -1", "num_classes = 0\nclass_counts =",
    ])
    def test_unusable_spec_exits_two_without_output(self, tmp_path, capsys, line):
        spec = tmp_path / "spec.txt"
        spec.write_text(line + "\n")
        out = tmp_path / "d" / "x.csv"
        code = main(["generate-data", "--spec", str(spec), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.parent.exists()

    def test_creates_each_output_directory(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_TEXT)
        out, test_out = tmp_path / "a" / "train.csv", tmp_path / "b" / "c" / "test.csv"
        code = main(["generate-data", "--spec", str(spec), "--out", str(out),
                     "--test-out", str(test_out), "--test-per-class", "3"])
        assert code == 0
        assert capsys.readouterr().out == f"wrote 23 samples to {out}\n"
        assert len(load_csv(out)[0]) == 23
        assert len(load_csv(test_out)[0]) == 12
        manifest = json.loads((tmp_path / "b" / "c" / "test.csv.manifest.json").read_text())
        assert manifest["class_counts"] == [3, 3, 3, 3]
        assert manifest["csv_sha256"] == file_sha256(test_out)

    def test_unusable_test_spec_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "d"
        out.mkdir()
        code = main(["generate-data", "--out", str(out / "train.csv"),
                     "--test-out", str(out / "test.csv"), "--test-per-class", "0"])
        assert code == 2
        assert capsys.readouterr().err == "error: --test-per-class: the test set's class_counts: must lie in [1, inf), got 0\n"
        assert list(out.iterdir()) == []


DATASET_RULES = [
    "num_classes = 1\nclass_counts = 5", "class_counts = 1,2", "class_counts = 500,0,60,20",
    "height = 4", "width = 7", "noise_sigma = -0.1", "noise_sigma = nan",
]


@pytest.mark.parametrize("lines", DATASET_RULES)
def test_dataset_rule_reads_the_same_from_config_and_spec(tmp_path, capsys, lines):
    # One set of synthetic-dataset rules: generate-data reports a data error
    # (exit 2), a training config a config error (exit 1), with one message.
    spec, cfg = tmp_path / "spec.txt", tmp_path / "exp.cfg"
    spec.write_text(lines + "\n")
    cfg.write_text(lines + "\n")
    assert main(["generate-data", "--spec", str(spec), "--out", str(tmp_path / "x.csv")]) == 2
    spec_err = capsys.readouterr().err
    assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o" / "seed_0").exists()
    cfg_err = capsys.readouterr().err
    assert spec_err.startswith("error: ") and cfg_err.startswith("config error: ")
    message = spec_err.removeprefix("error: ")
    assert cfg_err.removeprefix("config error: ") == message
    assert lines.partition(" =")[0] in message.partition(":")[0]


class TestTrain:
    def test_artifacts_and_exit_code(self, tmp_path, capsys):
        cfg_path, cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        assert (out / "config.txt").exists()
        assert (out / "aggregate.csv").exists()
        seed_dir = out / "seed_0"
        for name in ("metrics.json", "checkpoint.npz", "test.csv",
                     "loss_log.csv", "selector_audit.csv", "pseudo_audit.csv"):
            assert (seed_dir / name).exists(), name
        agg = (out / "aggregate.csv").read_text().strip().splitlines()
        assert agg[0] == "metric,mean,sd"
        assert len(agg) == 7
        assert "accuracy=" in capsys.readouterr().out

    @pytest.mark.parametrize("overrides", [{"mode": "baseline"}, {"lam1": 1.0, "lam2": 0.0, "gamma1": 0.8}])
    def test_lam2_zero_leaves_the_alignment_empty(self, tmp_path, overrides):
        # Without an alignment term no alignment is computed: loss_log.csv leaves its field
        # empty and stage_reports.json writes null.
        cfg_path, _ = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        lines = (out / "seed_0" / "loss_log.csv").read_text().splitlines()
        assert lines[0] == "stage,epoch,classification,alignment,total"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2 + 1 * ("mode" not in overrides)  # warm-up epochs, then one stage's
        for stage, epoch, classification, alignment, total in rows:
            assert alignment == "" and total == classification and float(total) > 0
        reports = json.loads((out / "seed_0" / "stage_reports.json").read_text())
        assert len(reports) == ("mode" not in overrides)
        assert all(row["alignment"] is None for r in reports for row in r["epoch_losses"])

    def test_aggregate_csv_bytes(self, tmp_path):
        # csv's excel dialect: \r\n row ends; each mean and sd is written by repr
        cfg_path, _ = write_config(tmp_path)
        cfg_path.write_text(cfg_path.read_text().replace("seeds = 0", "seeds = 0,1"))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        per_seed = [json.loads((out / f"seed_{seed}" / "metrics.json").read_text()) for seed in (0, 1)]
        expected = b"metric,mean,sd\r\n"
        for key in METRIC_KEYS:
            values = np.array([m[key] for m in per_seed])
            expected += f"{key},{float(values.mean())!r},{float(values.std())!r}\r\n".encode()
        assert (out / "aggregate.csv").read_bytes() == expected

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg"),
                     "--out-dir", str(tmp_path / "o")]) == 2

    def test_invalid_config_value_exits_one(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("gamma1 = 2.0\n")
        assert main(["train", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1

    def test_unlabeled_test_row_exits_two(self, tmp_path, capsys):
        # The reader takes labels in [0, K) only, so -1 is a parse error at its line.
        train, test = write_csv_pair(tmp_path)
        lines = test.read_text().splitlines()
        fields = lines[2].split(",")
        fields[1] = "-1"
        lines[2] = ",".join(fields)
        test.write_text("\n".join(lines) + "\n")
        cfg_path, _ = write_config(tmp_path, data_csv=str(train), test_csv=str(test))
        code = main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "line 3: label -1 out of range for K=4" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["data_csv", "test_csv"])
    def test_csv_without_rows_exits_two_before_training(self, tmp_path, capsys, which):
        train, test = write_csv_pair(tmp_path)
        empty = train if which == "data_csv" else test
        empty.write_text("".join(empty.read_text().splitlines(keepends=True)[:2]))
        cfg_path, _ = write_config(tmp_path, data_csv=str(train), test_csv=str(test))
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 3: no data rows" in err
        assert not (out / "seed_0").exists()

    def test_data_csv_without_test_csv_exits_one_writing_nothing(self, tmp_path, capsys):
        train, _ = write_csv_pair(tmp_path)
        cfg_path, _ = write_config(tmp_path, data_csv=str(train))
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "config error: test_csv: required when data_csv is given\n"
        assert not (out / "config.txt").exists()

    def test_test_csv_without_data_csv_exits_one_writing_nothing(self, tmp_path, capsys):
        # Only a data_csv reads a test_csv, so alone it would be echoed and ignored.
        cfg_path, _ = write_config(tmp_path, test_csv=str(tmp_path / "missing.csv"))
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "config error: data_csv: required when test_csv is given\n"
        assert not out.exists()

    @pytest.mark.parametrize("num_classes", [0, -3, 1])
    def test_csv_config_with_under_two_classes_exits_one_writing_nothing(self, tmp_path, capsys, num_classes):
        train, test = write_csv_pair(tmp_path)
        cfg_path, _ = write_config(tmp_path, data_csv=str(train), test_csv=str(test), num_classes=num_classes)
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: num_classes: must lie in [2, inf), got {num_classes}\n"
        assert not out.exists()

    @pytest.mark.parametrize("meta,message", [
        ("# H=4 W=16 K=4", "grid shape 4x16 does not match the model's 8x8"),
        ("# H=8 W=8 K=5", "5 classes do not match the model's 4"),
    ])
    def test_test_csv_mismatch_names_both_values(self, tmp_path, capsys, meta, message):
        train, test = write_csv_pair(tmp_path)
        test.write_text("".join([meta + "\n", *test.read_text().splitlines(keepends=True)[1:]]))
        cfg_path, _ = write_config(tmp_path, data_csv=str(train), test_csv=str(test))
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: test_csv: {message}\n"
        assert not (out / "seed_0").exists()

    def test_zero_test_per_class_exits_one_writing_nothing(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, test_per_class=0)
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "config error: test_per_class: must lie in [1, inf), got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_tiny_temperature_exits_zero(self, tmp_path, command):
        # exp(1/t) overflows a float below t ~ 0.0014; the gate's reachable cap must not
        cfg_path, _ = write_config(tmp_path, temperature=1e-3)
        sweep = ["--sweep", "gamma1"] if command == "ablate" else []
        assert main([command, "--config", str(cfg_path), "--out-dir", str(tmp_path / "o"), *sweep]) == 0

    @pytest.mark.parametrize("missing", [(3,), (1,), (1, 3)])
    def test_training_csv_without_a_class_exits_two(self, tmp_path, capsys, missing):
        train, test = write_csv_pair(tmp_path)
        lines = train.read_text().splitlines(keepends=True)
        train.write_text("".join(lines[:2] + [r for r in lines[2:] if int(r.split(",")[1]) not in missing]))
        cfg_path, _ = write_config(tmp_path, data_csv=str(train), test_csv=str(test))
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: classes with zero samples: {list(missing)}\n"

    def test_repeated_seed_exits_one_before_training(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        cfg_path.write_text(cfg_path.read_text().replace("seeds = 0", "seeds = 1,1"))
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: seeds: ")
        assert not (out / "seed_1").exists()

    def test_unparseable_gamma2_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("gamma2 = high\n")
        assert main(["train", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error: gamma2: ")

    def test_checkpoint_records_the_data_grid_shape(self, tmp_path):
        # the CSV grids are 8x8; the config keeps the 16x16 synthetic default
        train, test = write_csv_pair(tmp_path)
        cfg_path, _ = write_config(
            tmp_path, data_csv=str(train), test_csv=str(test), height=16, width=16
        )
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        _, _, meta = load_checkpoint(out / "seed_0" / "checkpoint.npz")
        assert (meta["height"], meta["width"]) == (8, 8)


class TestEvaluate:
    def test_matches_training_metrics(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        seed_dir = out / "seed_0"
        eval_dir = tmp_path / "eval"
        code = main([
            "evaluate", "--checkpoint", str(seed_dir / "checkpoint.npz"),
            "--data", str(seed_dir / "test.csv"), "--out-dir", str(eval_dir),
        ])
        assert code == 0
        trained = json.loads((seed_dir / "metrics.json").read_text())
        evaluated = json.loads((eval_dir / "metrics.json").read_text())
        assert evaluated["accuracy"] == trained["accuracy"]
        assert evaluated["confusion"] == trained["confusion"]
        assert (eval_dir / "confusion.csv").exists()

    def test_shape_mismatch_exits_one(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "# H=4 W=4 K=4\n"
            + ",".join(["id", "label"] + [f"p{i}" for i in range(16)]) + "\n"
            + "0,0," + ",".join(["0.5"] * 16) + "\n"
        )
        code = main([
            "evaluate", "--checkpoint", str(out / "seed_0" / "checkpoint.npz"),
            "--data", str(bad), "--out-dir", str(tmp_path / "e"),
        ])
        assert code == 1

    def test_grid_shape_mismatch_with_equal_size_exits_one(self, tmp_path, capsys):
        # 4x16 has the 8x8 checkpoint's 64 inputs, but not its grid shape
        cfg_path, _ = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        lines = (out / "seed_0" / "test.csv").read_text().splitlines(keepends=True)
        bad = tmp_path / "reshaped.csv"
        bad.write_text("".join(["# H=4 W=16 K=4\n", *lines[1:]]))
        capsys.readouterr()
        code = main([
            "evaluate", "--checkpoint", str(out / "seed_0" / "checkpoint.npz"),
            "--data", str(bad), "--out-dir", str(tmp_path / "e"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "4x16" in err and "8x8" in err
        assert not (tmp_path / "e").exists()

    def test_class_count_mismatch_names_both_values(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.npz"
        net = init_params(64, (16, 8), 3, np.random.default_rng(0))
        save_checkpoint(ckpt, net, net, {"seed": 0, "num_classes": 3, "height": 8, "width": 8})
        _, test = write_csv_pair(tmp_path)  # K=4
        code = main([
            "evaluate", "--checkpoint", str(ckpt), "--data", str(test),
            "--out-dir", str(tmp_path / "e"),
        ])
        assert code == 1
        assert capsys.readouterr().err == "config error: data: 4 classes do not match the model's 3\n"
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("key", ["height", "width", "num_classes"])
    def test_checkpoint_meta_without_shape_exits_two(self, tmp_path, capsys, key):
        ckpt = tmp_path / "ckpt.npz"
        net = init_params(64, (16, 8), 4, np.random.default_rng(0))
        meta = {"seed": 0, "num_classes": 4, "height": 8, "width": 8}
        del meta[key]
        save_checkpoint(ckpt, net, net, meta)
        _, test = write_csv_pair(tmp_path)
        code = main([
            "evaluate", "--checkpoint", str(ckpt), "--data", str(test),
            "--out-dir", str(tmp_path / "e"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ckpt) in err and key in err

    @pytest.mark.parametrize("kind", ["not-npz", "no-meta", "meta-not-an-object", "layers-do-not-chain"])
    def test_malformed_checkpoint_exits_two(self, tmp_path, capsys, kind):
        ckpt = tmp_path / "ckpt.npz"
        if kind == "not-npz":
            ckpt.write_text("not a checkpoint\n")
        elif kind == "no-meta":
            np.savez(ckpt, live_cW=np.zeros((2, 2)))
        elif kind == "meta-not-an-object":
            np.savez(ckpt, meta=np.frombuffer(json.dumps([1, 2]).encode(), dtype=np.uint8))
        else:
            net = init_params(256, (64, 32), 4, np.random.default_rng(0))
            save_checkpoint(ckpt, net, net, {"seed": 0, "num_classes": 4, "height": 16, "width": 16})
            with np.load(ckpt) as z:
                entries = dict(z)
            entries["ema_hW1"] = np.zeros((16, 32))  # after a (256, 64) layer
            np.savez(ckpt, **entries)
        _, test = write_csv_pair(tmp_path)
        code = main([
            "evaluate", "--checkpoint", str(ckpt), "--data", str(test),
            "--out-dir", str(tmp_path / "e"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ckpt) in err

    def test_data_without_rows_exits_two(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        empty = tmp_path / "empty.csv"
        empty.write_text("".join((out / "seed_0" / "test.csv").read_text().splitlines(keepends=True)[:2]))
        code = main([
            "evaluate", "--checkpoint", str(out / "seed_0" / "checkpoint.npz"),
            "--data", str(empty), "--out-dir", str(tmp_path / "e"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 3: no data rows" in err

    def test_missing_checkpoint_exits_two(self, tmp_path):
        code = main([
            "evaluate", "--checkpoint", str(tmp_path / "nope.npz"),
            "--data", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path / "e"),
        ])
        assert code == 2


class TestSweepConfigs:
    DATA_FIELDS = ("data_csv", "test_csv", "num_classes", "class_counts", "height", "width",
                   "noise_sigma", "data_seed", "test_per_class")

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_no_variant_changes_a_data_field(self, sweep):
        # So run_sweep reads the base config's pools once for every variant.
        for cfg in (ExperimentConfig(), tiny_config(data_csv="train.csv", test_csv="test.csv")):
            for _, variant in sweep_configs(cfg, sweep):
                for name in self.DATA_FIELDS:
                    assert getattr(variant.normalized(), name) == getattr(cfg, name), (sweep, name)

    def test_lambda2_grid_sums_to_one(self):
        cfg = ExperimentConfig()
        variants = sweep_configs(cfg, "lambda2")
        assert len(variants) == len(LAMBDA2_GRID)
        for value, v in variants:
            assert v.lam1 + v.lam2 == pytest.approx(1.0, abs=1e-12)
            assert v.lam2 == float(value)

    def test_alpha_grid_on_simplex(self):
        cfg = ExperimentConfig()
        variants = sweep_configs(cfg, "alpha")
        assert len(variants) == len(ALPHA_GRID)
        for _, v in variants:
            assert v.alpha1 + v.alpha2 + v.alpha3 == pytest.approx(1.0, abs=1e-9)

    def test_combo_renormalization(self):
        cfg = ExperimentConfig()
        variants = dict(sweep_configs(cfg, "classifier-combo"))
        no_knn = variants["similarity+linear"]
        assert no_knn.alpha2 == 0.0
        assert no_knn.alpha1 + no_knn.alpha3 == pytest.approx(1.0, abs=1e-12)
        no_linear = variants["similarity+knn"]
        assert no_linear.alpha1 == 0.0
        assert no_linear.alpha2 + no_linear.alpha3 == pytest.approx(1.0, abs=1e-12)
        full = variants["similarity+knn+linear"]
        assert (full.alpha1, full.alpha2, full.alpha3) == (0.20, 0.10, 0.70)

    def test_every_named_sweep_builds(self):
        cfg = ExperimentConfig()
        for sweep in SWEEPS:
            assert sweep_configs(cfg, sweep)

    @pytest.mark.parametrize("alphas", [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0)])
    def test_combo_without_remaining_weight_rejected(self, tmp_path, alphas):
        cfg = ExperimentConfig(alpha1=alphas[0], alpha2=alphas[1], alpha3=alphas[2])
        with pytest.raises(ConfigurationError, match=r"alphas \("):
            sweep_configs(cfg, "classifier-combo")
        path = tmp_path / "exp.cfg"
        path.write_text(config_to_text(cfg))
        assert main(["ablate", "--config", str(path), "--sweep", "classifier-combo",
                     "--out-dir", str(tmp_path / "o")]) == 1

    def test_unknown_sweep_rejected(self):
        from splal.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            sweep_configs(ExperimentConfig(), "bogus")


class TestAblate:
    def test_lambda2_sweep_csv(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path)
        out = tmp_path / "ablate"
        code = main(["ablate", "--config", str(cfg_path), "--sweep", "lambda2",
                     "--out-dir", str(out)])
        assert code == 0
        lines = (out / "lambda2.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["sweep", "value", "seed"]
        assert "macro_f1" in header
        assert "minority_recall" in header
        assert len(lines) == 1 + len(LAMBDA2_GRID) * len(cfg.seeds)
        values = {line.split(",")[1] for line in lines[1:]}
        assert values == {str(v) for v in LAMBDA2_GRID}
        for line in lines[1:]:
            fields = dict(zip(header, line.split(",")))
            assert 0.0 <= float(fields["macro_f1"]) <= 1.0
            assert 0.0 <= float(fields["minority_recall"]) <= 1.0

    def test_invalid_config_exits_one_creating_no_out_dir(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, gamma1=2.0)
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(cfg_path), "--sweep", "lambda2", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: gamma1")
        assert not out.exists()

    @pytest.mark.parametrize("sweep,overrides", [
        ("lambda2", {"mode": "baseline"}),
        ("gamma1", {"mode": "baseline"}),
        ("alpha", {"mode": "baseline"}),
        ("classifier-combo", {"mode": "baseline"}),
        ("gamma1", {"stages": 0}),
    ])
    def test_values_that_run_one_config_exit_one_creating_no_out_dir(self, tmp_path, capsys, monkeypatch,
                                                                      sweep, overrides):
        # Baseline mode sets stages = 0, lam1 = 1 and lam2 = 0, and with no stage the gate and
        # ensemble fields are never read: each row would carry another value over the same run.
        monkeypatch.setattr(cli, "load_pools", lambda cfg: pytest.fail("pools read"))
        cfg_path, cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(cfg_path), "--sweep", sweep, "--out-dir", str(out)]) == 1
        values = ", ".join(value for value, _ in sweep_configs(cfg, sweep))
        assert capsys.readouterr().err == (f"config error: sweep {sweep}: values {values} run the same config "
                                           f"(mode = {cfg.mode}, stages = 0)\n")
        assert not out.exists()

    def test_sweep_csv_bytes(self, tmp_path):
        # csv's excel dialect: \r\n row ends; each metric is written by repr
        cfg = tiny_config(mode="baseline", seeds=(0,), epochs_warmup=1)
        path = tmp_path / "label-ratio.csv"
        rows = run_sweep(cfg, "label-ratio", path)
        expected = (b"sweep,value,seed,accuracy,macro_f1,macro_auc,macro_precision,"
                    b"macro_recall,macro_specificity,minority_recall\r\n")
        for row in rows:
            metrics = [row[key] for key in (*METRIC_KEYS, "minority_recall")]
            assert all(type(v) is float for v in metrics)
            expected += ",".join(["label-ratio", row["value"], str(row["seed"]), *map(repr, metrics)]).encode()
            expected += b"\r\n"
        assert [row["value"] for row in rows] == ["0.05", "0.1", "0.2", "0.3"]
        assert path.read_bytes() == expected

    def test_minority_class_comes_from_the_data(self, tmp_path):
        # three classes in the CSV; the config's synthetic class_counts has four
        train, test = write_csv_pair(tmp_path, SPEC_TEXT.replace("num_classes = 4", "num_classes = 3")
                                     .replace("class_counts = 8,6,5,4", "class_counts = 8,6,4"))
        cfg_path, cfg = write_config(tmp_path, num_classes=3, mode="baseline",
                                     data_csv=str(train), test_csv=str(test))
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(cfg_path), "--sweep", "label-ratio",
                     "--out-dir", str(out)]) == 0
        lines = (out / "label-ratio.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        fields = dict(zip(header, lines[1].split(",")))
        variant = replace(cfg, labeled_ratio=float(fields["value"])).normalized()
        expected = run(variant, int(fields["seed"])).metrics["per_class"][2]["recall"]
        assert float(fields["minority_recall"]) == expected


def one_cpu(monkeypatch):
    """Make the commands see a single usable core, so every run stays in-process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def two_cpus(monkeypatch):
    """Make the commands see two usable cores, so two runs go to two forked workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def log_calls(monkeypatch, module, name: str, log: Path):
    """Wrap `module.name` so each call, in any process, appends its pid to `log`; returns a reader of the pids."""
    real = getattr(module, name)
    log.touch()

    def logged(*args, **kwargs):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, logged)
    return lambda: log.read_text().split()


def tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def on_both_paths(monkeypatch, capsys, tmp_path, args) -> list[tuple[dict[str, bytes], str]]:
    """Run a command with a process pool, then in-process; (files, stdout) of each."""
    outputs = []
    for name in ("pool", "serial"):
        if name == "serial":
            one_cpu(monkeypatch)
        out = tmp_path / name
        assert main([*args, "--out-dir", str(out)]) == 0
        outputs.append((tree(out), capsys.readouterr().out.replace(str(out), "OUT")))
    return outputs


def no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in this process if the block runs longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def named(count: int) -> list[str]:
    return [f"job {i}" for i in range(count)]


def record_forks(monkeypatch) -> list[int]:
    """The pids of the workers this process forks from now on, in fork order."""
    forked, real = [], os.fork

    def fork():
        pid = real()
        forked.extend([pid] if pid else [])
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forked


class TestParallelRuns:
    """Independent runs go to up to min(cores, runs) processes; the bytes do not depend on it.

    On a one-core machine both sides of each comparison run in-process.
    """

    def test_default_train_tree_is_the_same_on_both_paths(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("seeds = 0,1,2,3\nepochs_warmup = 2\nepochs_stage = 1\n")
        pool, serial = on_both_paths(monkeypatch, capsys, tmp_path, ["train", "--config", str(cfg_path)])
        assert sorted(p for p in pool[0] if "/" not in p) == ["aggregate.csv", "config.txt"]
        assert len(pool[0]) == 2 + 4 * 13
        assert pool == serial

    def test_baseline_sweep_csv_is_the_same_on_both_paths(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("mode = baseline\nepochs_warmup = 5\nseeds = 0,1,2\n")
        pool, serial = on_both_paths(monkeypatch, capsys, tmp_path,
                                     ["ablate", "--config", str(cfg_path), "--sweep", "label-ratio"])
        assert pool == serial
        lines = pool[0]["label-ratio.csv"].decode().splitlines()
        assert [line.split(",")[1:3] for line in lines[1:]] == [
            [str(ratio), str(seed)] for ratio in (0.05, 0.1, 0.2, 0.3) for seed in (0, 1, 2)
        ]

    def test_seeds_keep_config_order(self, tmp_path, capsys, monkeypatch):
        cfg_path, _ = write_config(tmp_path)
        cfg_path.write_text(cfg_path.read_text().replace("seeds = 0", "seeds = 3,0"))
        pool, serial = on_both_paths(monkeypatch, capsys, tmp_path, ["train", "--config", str(cfg_path)])
        assert pool == serial
        files, stdout = pool
        assert [line.split(":")[0] for line in stdout.splitlines()] == ["seed 3", "seed 0"]
        per_seed = [json.loads(files[f"seed_{seed}/metrics.json"]) for seed in (3, 0)]
        rows = files["aggregate.csv"].decode().splitlines()[1:]
        for row in rows:
            name, mean, sd = row.split(",")
            values = np.array([m[name] for m in per_seed])
            assert (float(mean), float(sd)) == (values.mean(), values.std(ddof=0))

    @pytest.mark.parametrize("cpus,workers", [(1, 1), (2, 2), (3, 3), (8, 4)])
    def test_workers_are_capped_by_cores_and_runs(self, tmp_path, monkeypatch, cpus, workers):
        # With one worker the runs stay in the test's process.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        ran = log_calls(monkeypatch, cli, "_train_job", tmp_path / "ran.log")
        forked = record_forks(monkeypatch)
        cfg = tiny_config(seeds=(0, 1, 2, 3), stages=1, epochs_warmup=1, epochs_stage=1)
        per_seed = run_training(cfg, tmp_path / "train")
        assert list(per_seed) == [0, 1, 2, 3]
        pids = [str(pid) for pid in forked] or [str(os.getpid())]
        assert len(set(pids)) == len(pids) == workers
        assert len(ran()) == 4 and set(ran()) <= set(pids)

    def test_sweep_workers_are_capped_by_cores_and_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        forked = record_forks(monkeypatch)
        cfg = tiny_config(mode="baseline", seeds=(0, 1, 2), epochs_warmup=1)
        rows = run_sweep(cfg, "label-ratio", tmp_path / "label-ratio.csv")
        assert len(rows) == 12
        assert len(set(forked)) == len(forked) == 12

    def test_many_jobs_finish(self, monkeypatch):
        # 80000 bytes of job indices: more than a pipe holds, so the feed waits on the workers.
        two_cpus(monkeypatch)
        with deadline(60):
            assert cli._map_runs(abs, [(-i,) for i in range(20000)], named(20000)) == list(range(20000))
        assert no_child_left()

    def test_an_unpicklable_result_is_a_named_error(self, monkeypatch):
        two_cpus(monkeypatch)
        with deadline(60), pytest.raises(TrainingError, match="^the outcome of job 1 cannot be sent"):
            cli._map_runs(lambda i: (lambda: i) if i == 1 else i, [(i,) for i in range(3)], named(3))
        assert no_child_left()

    def test_failing_run_reports_as_a_single_run_does(self, tmp_path, capsys):
        train, test = write_csv_pair(tmp_path)
        lines = train.read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 1)[0] + ",abc"
        train.write_text("\n".join(lines) + "\n")
        reports = []
        for seeds in ("0", "0,1"):
            cfg_path, cfg = write_config(tmp_path, data_csv=str(train), test_csv=str(test))
            cfg_path.write_text(cfg_path.read_text().replace("seeds = 0", f"seeds = {seeds}"))
            code = main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / seeds)])
            reports.append((code, capsys.readouterr().err))
        assert reports[0] == reports[1]
        assert reports[0][0] == 2 and reports[0][1].startswith("error: line 5: ")
        with pytest.raises(ParseError) as err:
            run_training(replace(cfg, seeds=(0, 1)), tmp_path / "api")
        assert err.value.line == 5 and str(err.value).count("line 5") == 1

    def test_unpicklable_jobs_run_in_forked_workers(self, monkeypatch):
        two_cpus(monkeypatch)
        results = cli._map_runs(lambda f, x: (f(x), os.getpid()), [(lambda x: x + 1, i) for i in range(4)], named(4))
        assert [value for value, _ in results] == [1, 2, 3, 4]
        assert os.getpid() not in {pid for _, pid in results}

    def test_a_dead_worker_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        parent = os.getpid()

        def die(*args):
            if os.getpid() == parent:  # never end the test process itself
                raise AssertionError("the job ran in-process")
            os._exit(1)

        two_cpus(monkeypatch)
        monkeypatch.setattr(cli, "_train_job", die)
        cfg_path, _ = write_config(tmp_path, seeds=(0, 1))
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a worker process ended abruptly") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_a_dead_worker_names_its_seed_and_the_other_runs_finish(self, tmp_path, capsys, monkeypatch):
        parent, real = os.getpid(), cli._train_job

        def die_at_seed_1(cfg, seed, *args):
            if seed == 1:
                assert os.getpid() != parent, "the job ran in-process"
                os._exit(1)
            return real(cfg, seed, *args)

        cfg_path, _ = write_config(tmp_path, seeds=(0, 1))
        one_cpu(monkeypatch)
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "healthy")]) == 0
        capsys.readouterr()
        two_cpus(monkeypatch)
        monkeypatch.setattr(cli, "_train_job", die_at_seed_1)
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith(" while running seed 1\n") and "Traceback" not in err
        seed_0 = tree(tmp_path / "out" / "seed_0")
        assert len(seed_0) == 13 and seed_0 == tree(tmp_path / "healthy" / "seed_0")
        assert no_child_left()

    def test_a_dead_sweep_worker_names_the_value_and_seed(self, tmp_path, capsys, monkeypatch):
        def die_at(sweep, value, cfg, seed, pools):
            if (value, seed) == ("0.2", 1):
                os._exit(1)
            return {"value": value, "seed": seed}

        two_cpus(monkeypatch)
        monkeypatch.setattr(cli, "_sweep_job", die_at)
        cfg_path, _ = write_config(tmp_path, mode="baseline", seeds=(0, 1))
        assert main(["ablate", "--config", str(cfg_path), "--sweep", "label-ratio",
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith(" while running label-ratio = 0.2, seed 1\n")

    def test_no_worker_outlives_a_failing_job(self):
        def job(i):
            if i == 1:
                raise ValueError("job 1 failed")
            return i

        with pytest.raises(ValueError, match="^job 1 failed$"):
            cli._map_runs(job, [(i,) for i in range(4)], named(4))
        assert no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_no_job_starts_after_a_failing_one(self, tmp_path, monkeypatch, cpus):
        # Job 0 fails once job 1 has started (in-process, after 1 s); job 1 runs on to its end.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

        def job(i):
            if i == 0:
                stop = time.monotonic() + 1
                while not (tmp_path / "started-1").exists() and time.monotonic() < stop:
                    time.sleep(0.01)
                raise ValueError("job 0 failed")
            (tmp_path / f"started-{i}").touch()
            time.sleep(0.5)
            (tmp_path / f"ended-{i}").touch()

        with deadline(50), pytest.raises(ValueError, match="^job 0 failed$"):
            cli._map_runs(job, [(i,) for i in range(6)], named(6))
        expected = [] if cpus == 1 else ["ended-1", "started-1"]
        assert sorted(p.name for p in tmp_path.iterdir()) == expected
        assert no_child_left()

    def test_no_worker_outlives_a_failing_reader(self, tmp_path, monkeypatch):
        # The first forked worker returns once the second holds a job; the second holds it until killed.
        # So the reader, first called when the first worker has ended, fails while the second still runs.
        busy = tmp_path / "busy"

        def job(i):
            if forked:
                busy.touch()
                time.sleep(60)
            while not busy.exists():
                time.sleep(0.01)
            return i

        def fail(out):
            raise RuntimeError("reader failed")

        two_cpus(monkeypatch)
        forked = record_forks(monkeypatch)
        monkeypatch.setattr(cli, "_read_outcomes", fail)
        start = time.monotonic()
        with deadline(50), pytest.raises(RuntimeError, match="^reader failed$"):
            cli._map_runs(job, [(0,), (1,)], named(2))
        assert time.monotonic() - start < 30 and busy.exists()
        assert no_child_left()

    @pytest.mark.parametrize("exit_", [SystemExit, KeyboardInterrupt])
    def test_a_job_that_exits_ends_only_its_worker(self, tmp_path, monkeypatch, exit_):
        def job(i):
            if i == 1:
                raise exit_
            return i

        parent = os.getpid()
        two_cpus(monkeypatch)
        try:
            with pytest.raises(TrainingError, match=" while running job 1$"):
                cli._map_runs(job, [(i,) for i in range(4)], named(4))
        finally:
            if os.getpid() != parent:  # a worker that came back into this test: record it and end it
                (tmp_path / f"escaped-{os.getpid()}").touch()
                os._exit(0)
        assert not list(tmp_path.glob("escaped-*"))
        assert no_child_left()

    def test_a_command_reads_its_data_once(self, tmp_path, monkeypatch):
        train, test = write_csv_pair(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        calls = {name: log_calls(monkeypatch, module, name, tmp_path / f"{name}.log")
                 for module, name in ((data, "_parse_data"), (data, "_write_entry"), (orchestrator, "generate"))}
        two_cpus(monkeypatch)
        cfg_path, _ = write_config(tmp_path, data_csv=str(train), test_csv=str(test), seeds=(0, 1))
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "train")]) == 0
        here = str(os.getpid())
        assert calls["_parse_data"]() == [here, here] and calls["_write_entry"]() == [here, here]
        assert len(list((tmp_path / "cache" / "splal").iterdir())) == 2
        cfg_path.write_text("mode = baseline\nepochs_warmup = 1\nseeds = 0,1\n")
        assert main(["ablate", "--config", str(cfg_path), "--sweep", "label-ratio",
                     "--out-dir", str(tmp_path / "ablate")]) == 0
        assert calls["generate"]() == [here, here]  # the train and the test pool


class TestOversizedInputs:
    """Sizes no run could hold end as one error line, before anything large is allocated."""

    @staticmethod
    def one_line(capsys, prefix: str) -> str:
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1 and "Traceback" not in err
        return err

    @pytest.mark.parametrize("which", ["data_csv", "test_csv", "evaluate"])
    def test_csv_grid_past_a_record_exits_two(self, tmp_path, capsys, which):
        train, test = write_csv_pair(tmp_path)
        big = tmp_path / "big.csv"
        big.write_text("# H=100000 W=100000 K=4\nid,label,p0\n0,0,0.5\n")
        if which == "evaluate":
            cfg_path, _ = write_config(tmp_path)
            assert main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 0
            capsys.readouterr()
            args = ["evaluate", "--checkpoint", str(tmp_path / "o" / "seed_0" / "checkpoint.npz"),
                    "--data", str(big), "--out-dir", str(tmp_path / "e")]
        else:
            paths = {"data_csv": str(train), "test_csv": str(test), which: str(big)}
            cfg_path, _ = write_config(tmp_path, **paths)
            args = ["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "t")]
        assert main(args) == 2
        self.one_line(capsys, "error: line 1: H and W too large: one row of a 100000x100000 grid takes ")

    @pytest.mark.parametrize("line,message", [
        ("height = 100000\nwidth = 100000", "config error: height/width: one row of a 100000x100000 grid"),
        ("test_per_class = 100000000000000000000",
         "config error: test_per_class: the test set's class_counts: the total 400000000000000000000 "),
    ])
    def test_synthetic_sizes_past_64_bits_or_a_record_exit_one(self, tmp_path, capsys, line, message):
        cfg_path = tmp_path / "big.cfg"
        cfg_path.write_text(line + "\n")
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 1
        self.one_line(capsys, message)
        assert not (tmp_path / "o").exists()

    def test_test_set_past_64_bits_exits_two_writing_nothing(self, tmp_path, capsys):
        # The test spec is checked with the training spec, before train.csv is written.
        out = tmp_path / "d"
        out.mkdir()
        code = main(["generate-data", "--out", str(out / "train.csv"), "--test-out", str(out / "test.csv"),
                     "--test-per-class", "100000000000000000000"])
        assert code == 2
        self.one_line(capsys, "error: --test-per-class: the test set's class_counts: the total "
                              "400000000000000000000 does not fit in 64 bits")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("line,message", [
        ("temperature = 1e-310", "config error: temperature: 2 / temperature must be finite, got 1e-310\n"),
        ("queue_capacity = 9223372036854775808",
         "config error: queue_capacity: must lie in [1, 9223372036854775807], got 9223372036854775808\n"),
        ("hidden_widths = 100000000000000000000", "config error: hidden_widths: must lie in "
         "[1, 9223372036854775807], got 100000000000000000000\n"),
    ])
    def test_values_past_a_float_or_a_queue_exit_one_writing_nothing(self, tmp_path, capsys, line, message):
        cfg_path = tmp_path / "big.cfg"
        cfg_path.write_text(line + "\n")
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 1
        assert self.one_line(capsys, "config error: ") == message
        assert not (tmp_path / "o").exists()

    def test_batch_past_the_pool_trains_on_one_whole_pool_batch(self, tmp_path):
        trees = []
        for batch_size in (10**20, sum(tiny_config().class_counts)):  # every stage's labeled pool fits the pool
            cfg_path, _ = write_config(tmp_path, batch_size=batch_size, seeds=(0, 1))
            out = tmp_path / str(batch_size)
            assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
            trees.append({name: body for name, body in tree(out).items() if not name.endswith("config.txt")})
        assert len(trees[0]) == 1 + 2 * 12 and trees[0] == trees[1]

    @pytest.mark.parametrize("message,shown", [
        ("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)",
         "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"),
        ("", "MemoryError"),
    ])
    def test_memory_error_exits_two(self, tmp_path, capsys, monkeypatch, message, shown):
        def out_of_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run_training", out_of_memory)
        cfg_path, _ = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 2
        assert self.one_line(capsys, "error: ") == f"error: out of memory: {shown}\n"


class TestUndecodableBytes:
    """A byte that is not UTF-8 is one error line naming the line it is on, never a traceback."""

    @staticmethod
    def with_byte(path: Path, line: int) -> None:
        """Put a 0xff byte in the middle of a 1-based line of the file."""
        lines = path.read_bytes().split(b"\n")
        middle = len(lines[line - 1]) // 2
        lines[line - 1] = lines[line - 1][:middle] + b"\xff" + lines[line - 1][middle:]
        path.write_bytes(b"\n".join(lines))

    def test_config_names_its_file_and_line(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        self.with_byte(cfg_path, 3)
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {cfg_path} line 3: cannot decode byte 0xff as UTF-8\n"
        assert not out.exists()

    def test_spec_names_its_file_and_line(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_TEXT)
        self.with_byte(spec, 6)
        out = tmp_path / "d" / "x.csv"
        assert main(["generate-data", "--spec", str(spec), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {spec} line 6: cannot decode byte 0xff as UTF-8\n"
        assert not out.parent.exists()

    @pytest.mark.parametrize("line", [1, 2, 6])  # metadata, header, a data line in the first 8 KiB read
    def test_csv_line_is_the_line_of_the_byte(self, tmp_path, capsys, line):
        train, test = write_csv_pair(tmp_path)
        self.with_byte(test, line)
        cfg_path, _ = write_config(tmp_path, data_csv=str(train), test_csv=str(test))
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: line {line}: cannot decode byte 0xff as UTF-8\n"
        assert not (out / "seed_0").exists()


class TestUsageErrors:
    def test_no_command_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_bad_sweep_choice_exits_one(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["ablate", "--config", "x", "--sweep", "nope", "--out-dir", "y"])
        assert err.value.code == 1

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["generate-data", "--out", "x.csv"])
        assert args.command == "generate-data"


SRC = Path(__file__).resolve().parents[1] / "src"
UNATTAINABLE_GATE_CONFIG = """\
num_classes = 7
class_counts = 6,6,6,6,6,6,6
height = 8
width = 8
test_per_class = 2
temperature = 1.0
hidden_widths = 8,4
epochs_warmup = 1
epochs_stage = 1
stages = 1
seeds = 0,1,2
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity calls")
@pytest.mark.parametrize("one_core", [True, False], ids=["one-core", "all-cores"])
def test_unattainable_gate_warns_once_per_command(tmp_path, one_core):
    # Pinned to one core the seeds run in-process; unrestricted they may go to
    # forked workers. Either way stderr carries the warning once, while every
    # run still records it in its metrics.
    cfg, out = tmp_path / "exp.cfg", tmp_path / "o"
    cfg.write_text(UNATTAINABLE_GATE_CONFIG)
    core = min(os.sched_getaffinity(0))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "splal.cli", "train", "--config", str(cfg), "--out-dir", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=(lambda: os.sched_setaffinity(0, {core})) if one_core else None,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count(": UserWarning: ") == 1, proc.stderr
    for seed in (0, 1, 2):
        notes = json.loads((out / f"seed_{seed}" / "metrics.json").read_text())["config_warnings"]
        assert len(notes) == 1 and "unattainable" in notes[0]


@pytest.mark.parametrize("warnings_filter", [None, "error::RuntimeWarning"],
                         ids=["default-warnings", "warnings-as-errors"])
def test_diverging_training_is_one_error_line(tmp_path, warnings_filter):
    # A learning rate of 1e308 puts the weights near the float limit after one step, and the
    # next forward overflows. Training raises at that overflow, so no RuntimeWarning line and
    # no traceback reach stderr, whatever the warning filters.
    cfg, out = tmp_path / "exp.cfg", tmp_path / "o"
    cfg.write_text("learning_rate = 1e308\nepochs_warmup = 1\nepochs_stage = 1\n")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(SRC)
    if warnings_filter:
        env["PYTHONWARNINGS"] = warnings_filter
    proc = subprocess.run(
        [sys.executable, "-m", "splal.cli", "train", "--config", str(cfg), "--out-dir", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: training diverged: overflow encountered in ")
    assert proc.stderr.count("\n") == 1, proc.stderr


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@pytest.mark.parametrize("module, preset, expected", [
    ("splal.cli", {}, ["1"] * 5),
    ("splal.cli", {"OPENBLAS_NUM_THREADS": "2"}, [None, "2", None, None, None]),
    ("splal.cli", {"OMP_NUM_THREADS": "2"}, ["2", None, None, None, None]),
    ("splal", {}, [None] * 5),
], ids=["cli-default", "openblas-set", "omp-set", "bare-package"])
def test_blas_thread_defaults(module, preset, expected):
    # A fresh interpreter, since this one may have imported numpy already. With no thread
    # variable set, the CLI module sets all five to 1 before numpy loads; with one set, it
    # leaves them all, so OpenBLAS reads the set one. The bare package touches neither the
    # environment nor numpy.
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    env.update(preset, PYTHONPATH=str(SRC))
    script = (f"import json, os, sys, {module}; "
              f"print(json.dumps([[os.environ.get(v) for v in {THREAD_VARS!r}], 'numpy' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [expected, module == "splal.cli"]


# --- property: malformed inputs end in an exit code, never a traceback -------

BAD_VALUES = ("nan", "inf", "1e309", "-1", "0", "2", "0.5", "1e-3", "abc", "")
PROPERTY_CONFIG = """\
data_csv = {train}
test_csv = {test}
num_classes = 4
class_counts = 8,6,4,2
height = 8
width = 8
labeled_ratio = 0.25
hidden_widths = 8,4
epochs_warmup = 2
epochs_stage = 1
stages = 1
batch_size = 8
knn_k = 3
gamma1 = 0.9
temperature = 0.1
learning_rate = 0.001
alpha1 = 0.2
lam2 = 0.4
queue_capacity = 8
seeds = 0
gamma2 = 0.05
mode = splal
alpha2 = 0.1
alpha3 = 0.7
lam1 = 0.6
ema_decay = 0.99
"""


def _apply_edit(lines: list[str], edit) -> None:
    """Mutate a CSV (its metadata line or rows) or config lines in place."""
    target, row, kind, value = edit
    if target == "config":
        i = row % len(lines)
        key = lines[i].partition("=")[0]
        lines[i] = f"{key}= {value}" if kind == "value" else ""
        return
    if kind == "meta":
        lines[0] = f"# H={value} W={value} K=4"
        return
    if kind == "drop_rows":
        del lines[2:]
    if kind == "blank_line":
        lines.insert(2 + row % (len(lines) - 1), "")
        return
    data = [i for i in range(2, len(lines)) if lines[i]]
    if not data:
        return  # no data row left to edit
    i = data[row % len(data)]
    fields = lines[i].split(",")
    if kind == "quote_field":
        j = row % len(fields)
        fields[j] = f'"{fields[j]}"'
    elif kind == "label":
        fields[1] = value
    elif kind == "pixel":
        fields[2 + row % (len(fields) - 2)] = value
    elif kind == "dup_id":
        fields[0] = lines[2 + (i - 1) % (len(lines) - 2)].split(",")[0]
    else:
        fields.pop()
    lines[i] = ",".join(fields)


EDITS = st.one_of(
    st.tuples(st.just("config"), st.integers(0, 40), st.sampled_from(["value", "drop"]),
              st.sampled_from(BAD_VALUES)),
    st.tuples(st.sampled_from(["train", "test"]), st.integers(0, 200),
              st.sampled_from(["label", "pixel", "dup_id", "drop_field", "drop_rows", "meta",
                               "blank_line", "quote_field"]),
              st.sampled_from(BAD_VALUES)),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(EDITS, min_size=1, max_size=3))
def test_train_on_mutated_inputs_exits_cleanly(edits):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        train, test = tmp / "train.csv", tmp / "test.csv"
        spec = SyntheticSpec(class_counts=(8, 6, 4, 2), height=8, width=8, seed=1)
        save_csv(generate(spec), train, 4)
        save_csv(generate(replace(spec, class_counts=(2, 2, 2, 2), seed=2)), test, 4)
        files = {
            "config": (tmp / "exp.cfg", PROPERTY_CONFIG.format(train=train, test=test)),
            "train": (train, train.read_text()),
            "test": (test, test.read_text()),
        }
        texts = {name: text.splitlines() for name, (_, text) in files.items()}
        for edit in edits:
            _apply_edit(texts[edit[0]], edit)
        for name, (path, _) in files.items():
            path.write_text("\n".join(texts[name]) + "\n")
        code = main(["train", "--config", str(tmp / "exp.cfg"), "--out-dir", str(tmp / "out")])
    assert code in (0, 1, 2)
