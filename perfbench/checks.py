"""Correctness checks on splal's output files, made apart from the program.

Nothing here imports splal: every value is recomputed from the files a CLI
command leaves behind (checkpoint, test CSV, audits, reports) with this
module's own code, and compared with what the program wrote. A failed check
raises CheckError naming the file and the value.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Tolerances: values the program writes with repr() round-trip exactly, so
# these only absorb a different summation order in the recomputation.
EXACT_TOL = 1e-12
SUM_TOL = 1e-9

SWEEP_METRICS = (
    "accuracy", "macro_f1", "macro_auc", "macro_precision",
    "macro_recall", "macro_specificity", "minority_recall",
)


class CheckError(Exception):
    """An output file disagrees with the value recomputed from its inputs."""


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_config_echo(path) -> dict[str, str]:
    """The flat `key = value` echo a run directory holds, as raw strings."""
    out = {}
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def gate_thresholds(cfg: dict[str, str]) -> tuple[float, float, float]:
    """(gamma1, gamma2, temperature); gamma2 'none' couples to |1 - gamma1| / 2."""
    gamma1 = float(cfg["gamma1"])
    raw = cfg["gamma2"].lower()
    gamma2 = abs(1.0 - gamma1) / 2.0 if raw in ("none", "auto", "") else float(raw)
    return gamma1, gamma2, float(cfg["temperature"])


def labeled_count(class_counts, ratio: float) -> int:
    """Size of the stratified labeled split: ceil(ratio * n_k), at least 1, per class."""
    return sum(max(1, math.ceil(ratio * n)) for n in class_counts)


def read_grid_csv(path) -> tuple[np.ndarray, np.ndarray, int]:
    """(pixels (N, H*W), labels (N,), K) from a dataset CSV with its '# H= W= K=' line."""
    with Path(path).open() as fh:
        meta = dict(part.split("=") for part in fh.readline().lstrip("# ").split())
        rows = list(csv.reader(fh))[1:]
    k = int(meta["K"])
    labels = np.array([int(r[1]) for r in rows], dtype=np.int64)
    pixels = np.array([[float(v) for v in r[2:]] for r in rows], dtype=np.float64)
    if pixels.shape[1] != int(meta["H"]) * int(meta["W"]):
        raise CheckError(f"{path}: {pixels.shape[1]} pixels per row, metadata says H*W")
    return pixels, labels, k


def ema_weights(checkpoint) -> list[tuple[np.ndarray, np.ndarray]]:
    """EMA layers [(W, b), ...] from an npz checkpoint, classifier last."""
    with np.load(checkpoint) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        layers = [
            (data[f"ema_hW{i}"].copy(), data[f"ema_hb{i}"].copy())
            for i in range(meta["num_hidden"])
        ]
        layers.append((data["ema_cW"].copy(), data["ema_cb"].copy()))
    return layers


def mlp_predict(layers, X: np.ndarray) -> np.ndarray:
    """Argmax of the softmax of a ReLU MLP whose last layer is linear."""
    h = X
    for W, b in layers[:-1]:
        h = np.maximum(h @ W + b, 0.0)
    W, b = layers[-1]
    logits = h @ W + b
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).argmax(axis=1)


def macro_f1(matrix: np.ndarray) -> float:
    """Mean over classes of one-vs-rest F1; a class with no support scores 0."""
    scores = []
    for c in range(matrix.shape[0]):
        tp = matrix[c, c]
        fn = matrix[c].sum() - tp
        fp = matrix[:, c].sum() - tp
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * p * r / (p + r) if p + r and tp + fn else 0.0)
    return float(sum(scores) / len(scores))


def check_metrics(seed_dir) -> float:
    """Recompute test predictions from checkpoint.npz and test.csv; return macro-F1."""
    seed_dir = Path(seed_dir)
    metrics = json.loads((seed_dir / "metrics.json").read_text())
    X, truths, k = read_grid_csv(seed_dir / "test.csv")
    if (truths < 0).any():
        raise CheckError(f"{seed_dir}/test.csv: unlabeled test row")
    predictions = mlp_predict(ema_weights(seed_dir / "checkpoint.npz"), X)
    matrix = np.zeros((k, k), dtype=np.int64)
    np.add.at(matrix, (truths, predictions), 1)
    if matrix.tolist() != metrics["confusion"]:
        raise CheckError(f"{seed_dir}: confusion matrix differs from the recomputed one")
    f1 = macro_f1(matrix)
    if abs(f1 - metrics["macro_f1"]) > EXACT_TOL:
        raise CheckError(f"{seed_dir}: macro_f1 {metrics['macro_f1']!r}, recomputed {f1!r}")
    accuracy = np.trace(matrix) / matrix.sum()
    if abs(accuracy - metrics["accuracy"]) > EXACT_TOL:
        raise CheckError(f"{seed_dir}: accuracy {metrics['accuracy']!r}, recomputed {accuracy!r}")
    return f1


def _audit_rows(path) -> list[dict[str, str]]:
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))


def _vec(row: dict[str, str], prefix: str, k: int) -> np.ndarray:
    return np.array([float(row[f"{prefix}{i}"]) for i in range(k)])


def check_selector_audit(path, cfg: dict[str, str]) -> dict[int, set[int]]:
    """v is the temperature softmax of w; reliable follows the two-threshold rule on v.

    Returns the reliable sample ids of each stage.
    """
    k = int(cfg["num_classes"])
    gamma1, gamma2, temperature = gate_thresholds(cfg)
    reliable: dict[int, set[int]] = {}
    for n, row in enumerate(_audit_rows(path), start=2):
        w, v = _vec(row, "w", k), _vec(row, "v", k)
        e = np.exp(w / temperature - (w / temperature).max())
        if np.abs(v - e / e.sum()).max() > SUM_TOL:
            raise CheckError(f"{path} line {n}: v is not the softmax of w at t={temperature}")
        above = np.flatnonzero(v >= gamma1)
        rule = len(above) == 1 and bool(np.all(np.delete(v, above) <= gamma2))
        if bool(int(row["reliable"])) != rule:
            raise CheckError(f"{path} line {n}: reliable={row['reliable']}, rule gives {int(rule)}")
        winner = str(int(above[0])) if rule else ""
        if row["winning_class"] != winner:
            raise CheckError(f"{path} line {n}: winning_class {row['winning_class']!r}, rule gives {winner!r}")
        if rule:
            reliable.setdefault(int(row["stage"]), set()).add(int(row["sample_id"]))
    return reliable


def check_pseudo_audit(path, cfg: dict[str, str]) -> dict[int, list[int]]:
    """combined = alpha-weighted sum of its parts, sums to 1, sim one-hot.

    Returns the pseudo-labeled sample ids of each stage, in file order.
    """
    k = int(cfg["num_classes"])
    alphas = tuple(float(cfg[f"alpha{i}"]) for i in (1, 2, 3))
    ids: dict[int, list[int]] = {}
    for n, row in enumerate(_audit_rows(path), start=2):
        lin, knn, sim, comb = (_vec(row, p, k) for p in ("linear", "knn", "sim", "combined"))
        expected = alphas[0] * lin + alphas[1] * knn + alphas[2] * sim
        if np.abs(comb - expected).max() > EXACT_TOL:
            raise CheckError(f"{path} line {n}: combined is not the alpha-weighted sum")
        if abs(comb.sum() - 1.0) > SUM_TOL:
            raise CheckError(f"{path} line {n}: combined sums to {comb.sum()!r}")
        if sorted(sim.tolist()) != [0.0] * (k - 1) + [1.0]:
            raise CheckError(f"{path} line {n}: sim is not one-hot")
        ids.setdefault(int(row["stage"]), []).append(int(row["sample_id"]))
    return ids


def check_train_seed_dir(seed_dir) -> float:
    """Every check on one `splal train` seed directory; returns its macro-F1."""
    seed_dir = Path(seed_dir)
    cfg = read_config_echo(seed_dir / "config.txt")
    f1 = check_metrics(seed_dir)
    reports = json.loads((seed_dir / "stage_reports.json").read_text())
    reliable = check_selector_audit(seed_dir / "selector_audit.csv", cfg)
    pseudo = check_pseudo_audit(seed_dir / "pseudo_audit.csv", cfg)
    seen: set[int] = set()
    for rep in reports:
        stage = rep["stage"]
        chosen = pseudo.get(stage, [])
        if set(chosen) != reliable.get(stage, set()):
            raise CheckError(f"{seed_dir}: stage {stage} reliable ids differ from pseudo-audit ids")
        if len(chosen) != rep["num_selected"]:
            raise CheckError(f"{seed_dir}: stage {stage} num_selected {rep['num_selected']}, audit has {len(chosen)}")
        if seen & set(chosen) or len(set(chosen)) != len(chosen):
            raise CheckError(f"{seed_dir}: stage {stage} pseudo-labels an id a second time")
        seen |= set(chosen)
    extra = (set(reliable) | set(pseudo)) - {rep["stage"] for rep in reports}
    if extra:
        raise CheckError(f"{seed_dir}: audit rows for stages without a report: {sorted(extra)}")
    return f1


def check_sweep_csv(path, expected_values, expected_seeds) -> list[dict[str, str]]:
    """Rows = values x seeds, every rate in [0, 1], accuracy == macro_recall (balanced test set)."""
    rows = _audit_rows(path)
    keys = sorted((float(r["value"]), int(r["seed"])) for r in rows)
    want = sorted((float(v), int(s)) for v in expected_values for s in expected_seeds)
    if keys != want:
        raise CheckError(f"{path}: {len(rows)} rows, expected {len(want)} (values x seeds)")
    for n, row in enumerate(rows, start=2):
        for key in SWEEP_METRICS:
            if not 0.0 <= float(row[key]) <= 1.0:
                raise CheckError(f"{path} line {n}: {key}={row[key]} outside [0, 1]")
        if abs(float(row["accuracy"]) - float(row["macro_recall"])) > EXACT_TOL:
            raise CheckError(f"{path} line {n}: accuracy != macro_recall on a balanced test set")
    return rows


def check_same_digests(digests_by_round: list[dict[str, str]]) -> None:
    """Every repetition of a command wrote byte-identical results per key."""
    first = digests_by_round[0]
    for n, other in enumerate(digests_by_round[1:], start=1):
        if other != first:
            diff = sorted(k for k in first.keys() | other.keys() if first.get(k) != other.get(k))
            raise CheckError(f"repetition {n} differs from repetition 0 in {diff}")
