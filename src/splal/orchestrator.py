"""End-to-end training loop: warm-up, staged selection, pseudo-labeling,
set migration, re-optimization, and EMA maintenance.

Pools are conserved and disjoint at every step; a sample is pseudo-labeled
at most once and never returns to the unlabeled pool.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .config import ExperimentConfig, config_to_text
from .data import (
    GROUND_TRUTH,
    PSEUDO,
    Sample,
    SyntheticSpec,
    balanced_test_spec,
    generate,
    load_csv,
    require_labels,
    split_labeled,
)
from .errors import ConfigurationError, TrainingError
from .loss import total_loss, make_views
from .model import (
    EmaParams,
    ModelParams,
    OptimizerState,
    adam_step,
    ema_update,
    forward,
    init_params,
    save_checkpoint,
)
from .numerics import one_hot_argmax
from .prototypes import PrototypeBank
from .pseudo import Ensemble, ensemble
from .selector import gate

# Named sub-streams derived from the master seed.
STREAM_INIT = 0
STREAM_SPLIT = 1
STREAM_SHUFFLE = 2
STREAM_AUGMENT = 3
STREAM_AUDIT = 4


def substream(master_seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(stream,)))


@dataclass
class DatasetState:
    """Labeled and unlabeled pools with conservation instrumentation."""

    labeled: list[Sample]
    unlabeled: list[Sample]
    stage: int = 0
    pseudo_ever: set = field(default_factory=set)

    def total(self) -> int:
        return len(self.labeled) + len(self.unlabeled)

    def check_invariants(self, expected_total: int) -> None:
        lab = {s.sample_id for s in self.labeled}
        unl = {s.sample_id for s in self.unlabeled}
        if lab & unl:
            raise TrainingError(f"pools overlap: {sorted(lab & unl)[:5]}")
        if len(lab) + len(unl) != expected_total:
            raise TrainingError(
                f"pool conservation violated: {len(lab)} + {len(unl)} != {expected_total}"
            )


@dataclass
class StageReport:
    stage: int
    num_selected: int
    pseudo_accuracy: float | None
    random_subset_accuracy: float | None
    epoch_losses: list[dict]

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "num_selected": self.num_selected,
            "pseudo_accuracy": self.pseudo_accuracy,
            "random_subset_accuracy": self.random_subset_accuracy,
            "epoch_losses": self.epoch_losses,
        }


@dataclass
class RunResult:
    live: ModelParams
    ema: EmaParams
    state: DatasetState
    stage_reports: list[StageReport]
    warmup_losses: list[dict]
    metrics: dict
    test_samples: list[Sample]
    config_warnings: list[str]
    audits: dict | None = None


def batch_outputs(params: ModelParams, samples: list[Sample]) -> tuple[np.ndarray, np.ndarray]:
    """Features and softmax rows of one forward pass over the samples' grids.

    Only these two arrays outlive the call; the pass's other intermediates
    include the (N, D) inputs.
    """
    fwd = forward(params, np.stack([s.grid.ravel() for s in samples]))
    return fwd.features, fwd.probabilities


def batch_features(params: ModelParams, samples: list[Sample]) -> np.ndarray:
    return batch_outputs(params, samples)[0]


def _train_epochs(
    params: ModelParams,
    opt: OptimizerState,
    ema: EmaParams | None,
    labeled: list[Sample],
    epochs: int,
    cfg: ExperimentConfig,
    rng_shuffle: np.random.Generator,
    rng_augment: np.random.Generator,
    bank=None,
    stage: int = -1,
) -> list[dict]:
    """Train on the labeled pool; optionally keep the bank and EMA fresh.

    Targets, weights, class ids and the queue mask are pool arrays built
    once per call; grids are stacked per batch, never for the whole pool.
    """
    logs = []
    n = len(labeled)
    targets = np.stack([s.visible_label for s in labeled])
    class_ids = targets.argmax(axis=1)
    ground = np.array([s.provenance == GROUND_TRUTH for s in labeled])
    weights = np.where(ground, 1.0, cfg.pseudo_weight)
    queued = ground | (np.array([s.provenance == PSEUDO for s in labeled]) & cfg.pseudo_in_queue)
    for epoch in range(epochs):
        order = rng_shuffle.permutation(n)
        sums = np.zeros(3)
        num_batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            grids = np.stack([labeled[i].grid for i in idx])
            weak, strong, _ = make_views(grids, rng_augment)
            breakdown, grads = total_loss(
                params, grids, targets[idx], weights[idx], weak, strong,
                cfg.lam1, cfg.lam2, stop_gradient=cfg.stop_gradient,
            )
            adam_step(params, grads, opt)
            if not params.all_finite():
                raise TrainingError("non-finite parameters after optimizer step")
            if ema is not None:
                ema_update(ema, params)
            if bank is not None:
                feats = forward(params, grids.reshape(len(idx), -1)).features
                keep = queued[idx]
                bank.push(class_ids[idx][keep], feats[keep])
            sums += (breakdown.classification, breakdown.alignment, breakdown.total)
            num_batches += 1
        mean = sums / max(num_batches, 1)
        logs.append(
            {
                "stage": stage,
                "epoch": epoch,
                "classification": float(mean[0]),
                "alignment": float(mean[1]),
                "total": float(mean[2]),
            }
        )
    return logs


def warmup(
    params: ModelParams,
    opt: OptimizerState,
    labeled: list[Sample],
    cfg: ExperimentConfig,
    rng_shuffle: np.random.Generator,
    rng_augment: np.random.Generator,
    bank,
) -> tuple[EmaParams, list[dict]]:
    """Supervised warm-up, then seed the bank with one push of the whole labeled pool."""
    if not labeled:
        raise ConfigurationError("warm-up requires a nonempty labeled pool")
    class_ids = np.stack([s.visible_label for s in labeled]).argmax(axis=1)
    missing = set(range(cfg.num_classes)) - set(class_ids.tolist())
    if missing:
        raise ConfigurationError(f"unseeded class: no labeled samples for classes {sorted(missing)}")
    logs = _train_epochs(
        params, opt, None, labeled, cfg.epochs_warmup, cfg, rng_shuffle, rng_augment
    )
    bank.push(class_ids, batch_features(params, labeled))
    ema = EmaParams.from_live(params, cfg.ema_decay)
    return ema, logs


def _ensemble_accuracy(
    rows: np.ndarray,
    unlabeled: list[Sample],
    probs: np.ndarray,
    feats: np.ndarray,
    posterior: np.ndarray,
    labeled: tuple[np.ndarray, np.ndarray, np.ndarray],
    cfg: ExperimentConfig,
) -> tuple[float | None, Ensemble]:
    """Ensemble predictions for the given unlabeled rows and their accuracy vs hidden truth."""
    k_eff = min(cfg.knn_k, len(labeled[2]))
    pred = ensemble(
        probs[rows], posterior[rows], feats[rows], *labeled, k_eff,
        (cfg.alpha1, cfg.alpha2, cfg.alpha3),
    )
    truths = [unlabeled[i].true_label for i in rows]
    hits = [int(p == t) for p, t in zip(pred.combined.argmax(axis=1), truths) if t is not None]
    return (sum(hits) / len(hits) if hits else None), pred


def run_stage(
    state: DatasetState,
    params: ModelParams,
    ema: EmaParams,
    opt: OptimizerState,
    bank,
    cfg: ExperimentConfig,
    rng_shuffle: np.random.Generator,
    rng_augment: np.random.Generator,
    rng_audit: np.random.Generator,
    audits: dict | None = None,
) -> StageReport:
    """One selection / pseudo-labeling / migration / re-optimization round.

    The unlabeled pool goes through one forward pass and one gate call; the
    selection, the audits and the control arm all read those arrays.
    """
    expected_total = state.total()
    feature_params = ema.shadow if cfg.ema_for_pseudo_labeling else params
    unlabeled = state.unlabeled
    feats, probs = batch_outputs(feature_params, unlabeled)
    g = gate(bank.prototypes(), feats, cfg.gamma1, cfg.effective_gamma2(), cfg.temperature)
    if audits is not None:
        audits["selector"].extend(
            {"stage": state.stage, "sample_id": s.sample_id, **vars(g.verdict(i))}
            for i, s in enumerate(unlabeled)
        )

    labeled = (
        batch_outputs(feature_params, state.labeled)[0],
        np.stack([s.visible_label for s in state.labeled]),
        np.array([s.sample_id for s in state.labeled]),
    )
    chosen = np.flatnonzero(g.reliable)
    pseudo_acc, pred = _ensemble_accuracy(chosen, unlabeled, probs, feats, g.posterior, labeled, cfg)

    # Control arm: the same ensemble on a random equal-size unlabeled subset.
    random_acc = None
    if len(chosen):
        pick = np.sort(rng_audit.choice(len(unlabeled), size=len(chosen), replace=False))
        random_acc, _ = _ensemble_accuracy(pick, unlabeled, probs, feats, g.posterior, labeled, cfg)

    # Migration: selected samples get a permanent pseudo-label and move pools.
    for j, i in enumerate(chosen):
        sample = unlabeled[i]
        if sample.sample_id in state.pseudo_ever:
            raise TrainingError(f"sample {sample.sample_id} pseudo-labeled twice")
        combined = pred.combined[j]
        label = combined if cfg.soft_pseudo_labels else one_hot_argmax(combined)
        sample.visible_label = np.array(label, dtype=np.float64)
        sample.provenance = PSEUDO
        state.pseudo_ever.add(sample.sample_id)
        if audits is not None:
            audits["pseudo"].append({
                "stage": state.stage, "sample_id": sample.sample_id,
                "linear": pred.linear[j], "knn": pred.knn[j],
                "sim": pred.similarity[j], "combined": combined,
                "predicted": int(np.argmax(combined)), "true_label": sample.true_label,
            })
    state.labeled = state.labeled + [unlabeled[i] for i in chosen]
    state.unlabeled = [s for s, reliable in zip(unlabeled, g.reliable) if not reliable]
    state.check_invariants(expected_total)

    logs = _train_epochs(
        params, opt, ema, state.labeled, cfg.epochs_stage, cfg,
        rng_shuffle, rng_augment, bank=bank, stage=state.stage,
    )
    report = StageReport(
        stage=state.stage,
        num_selected=len(chosen),
        pseudo_accuracy=pseudo_acc,
        random_subset_accuracy=random_acc,
        epoch_losses=logs,
    )
    state.stage += 1
    return report


def evaluate_params(params: ModelParams, samples: list[Sample], num_classes: int) -> dict:
    """Metrics report dict for a parameter snapshot on a labeled evaluation set."""
    truths = np.array([s.true_label for s in samples], dtype=np.int64)
    _, probs = batch_outputs(params, samples)
    predictions = probs.argmax(axis=1)
    matrix = metrics_mod.confusion(predictions, truths, num_classes)
    summ = metrics_mod.summary(matrix)
    auc = metrics_mod.auc_ovr(probs, truths)
    return {
        "accuracy": summ.accuracy,
        "macro_f1": summ.macro_f1,
        "macro_precision": summ.macro_precision,
        "macro_recall": summ.macro_recall,
        "macro_specificity": summ.macro_specificity,
        "macro_auc": auc.macro_auc,
        "per_class": summ.per_class,
        "per_class_auc": {str(k): v for k, v in auc.per_class_auc.items()},
        "auc_excluded_classes": auc.excluded_classes,
        "zero_support_classes": summ.zero_support_classes,
        "confusion": matrix.tolist(),
        "roc": {str(k): pts for k, pts in auc.roc.items()},
    }


def build_pools(cfg: ExperimentConfig, seed: int) -> tuple[list[Sample], list[Sample], list[Sample]]:
    """Materialize (labeled, unlabeled, test) pools from the config."""
    if cfg.data_csv is not None:
        samples, h, w, k = load_csv(cfg.data_csv)
        if k != cfg.num_classes:
            raise ConfigurationError(
                f"data_csv: file declares {k} classes, config says {cfg.num_classes}"
            )
        if cfg.test_csv is None:
            raise ConfigurationError("test_csv: required when data_csv is given")
        test_samples, th, tw, tk = load_csv(cfg.test_csv)
        if (th, tw, tk) != (h, w, k):
            raise ConfigurationError("test_csv: shape metadata differs from data_csv")
        require_labels(test_samples, "test_csv")
    else:
        spec = SyntheticSpec(
            num_classes=cfg.num_classes,
            class_counts=cfg.class_counts,
            height=cfg.height,
            width=cfg.width,
            noise_sigma=cfg.noise_sigma,
            seed=cfg.data_seed,
        )
        samples = generate(spec)
        test_samples = generate(balanced_test_spec(spec, per_class=cfg.test_per_class))
    split_rng_seed = int(substream(seed, STREAM_SPLIT).integers(0, 2**31 - 1))
    labeled, unlabeled = split_labeled(samples, cfg.labeled_ratio, split_rng_seed)
    return labeled, unlabeled, test_samples


def run(cfg: ExperimentConfig, seed: int, collect_audits: bool = False) -> RunResult:
    """Warm-up then stages until the budget is exhausted or no unlabeled remain.

    The returned metrics are computed with the EMA shadow weights.
    """
    cfg = cfg.normalized()
    notes = cfg.validate()

    labeled, unlabeled, test_samples = build_pools(cfg, seed)
    state = DatasetState(labeled=labeled, unlabeled=unlabeled)
    expected_total = state.total()

    input_dim = labeled[0].grid.size
    params = init_params(
        input_dim, cfg.hidden_widths, cfg.num_classes, substream(seed, STREAM_INIT)
    )
    opt = OptimizerState.for_params(
        params, cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    )
    bank = PrototypeBank(cfg.num_classes, params.feature_dim, cfg.queue_capacity)
    rng_shuffle = substream(seed, STREAM_SHUFFLE)
    rng_augment = substream(seed, STREAM_AUGMENT)
    rng_audit = substream(seed, STREAM_AUDIT)

    ema, warmup_losses = warmup(params, opt, state.labeled, cfg, rng_shuffle, rng_augment, bank)

    audits = {"selector": [], "pseudo": []} if collect_audits else None
    stage_reports: list[StageReport] = []
    while state.stage < cfg.stages and state.unlabeled:
        report = run_stage(
            state, params, ema, opt, bank, cfg,
            rng_shuffle, rng_augment, rng_audit, audits,
        )
        stage_reports.append(report)
        state.check_invariants(expected_total)

    metrics = evaluate_params(ema.shadow, test_samples, cfg.num_classes)
    metrics["config_warnings"] = notes
    result = RunResult(
        live=params,
        ema=ema,
        state=state,
        stage_reports=stage_reports,
        warmup_losses=warmup_losses,
        metrics=metrics,
        test_samples=test_samples,
        config_warnings=notes,
        audits=audits,
    )
    return result


def _write_csv(path: Path, rows) -> None:
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _reprs(values) -> list[str]:
    return [repr(float(x)) for x in values]


def write_metrics(out: Path, metrics: dict) -> None:
    """metrics.json (without the ROC points), confusion.csv and one roc_class<k>.csv per class."""
    body = {key: value for key, value in metrics.items() if key != "roc"}
    (out / "metrics.json").write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    _write_csv(out / "confusion.csv", metrics["confusion"])
    for key, points in metrics["roc"].items():
        _write_csv(out / f"roc_class{key}.csv", [["threshold", "fpr", "tpr"], *map(_reprs, points)])


def write_run_dir(out_dir, cfg: ExperimentConfig, seed: int, result: RunResult) -> None:
    """Emit the run directory: config echo, logs, audits, metrics, checkpoint, ROC."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(config_to_text(cfg))

    epochs = result.warmup_losses + [row for rep in result.stage_reports for row in rep.epoch_losses]
    losses = ("classification", "alignment", "total")
    _write_csv(out / "loss_log.csv", [
        ["stage", "epoch", *losses],
        *([row["stage"], row["epoch"], *_reprs(row[key] for key in losses)] for row in epochs),
    ])
    write_metrics(out, result.metrics)
    (out / "stage_reports.json").write_text(
        json.dumps([r.to_dict() for r in result.stage_reports], indent=2) + "\n"
    )
    height, width = result.state.labeled[0].grid.shape
    save_checkpoint(
        out / "checkpoint.npz", result.live, result.ema.shadow,
        {"seed": seed, "num_classes": cfg.num_classes, "height": height, "width": width},
    )

    if result.audits is not None:
        k = range(cfg.num_classes)
        _write_csv(out / "selector_audit.csv", [
            ["stage", "sample_id", *(f"w{i}" for i in k), *(f"v{i}" for i in k),
             "reliable", "winning_class"],
            *([rec["stage"], rec["sample_id"], *_reprs(rec["similarities"]), *_reprs(rec["posterior"]),
               int(rec["reliable"]), "" if rec["winning_class"] is None else rec["winning_class"]]
              for rec in result.audits["selector"]),
        ])
        parts = ("linear", "knn", "sim", "combined")

        def pseudo_row(rec: dict) -> list:
            truth = rec["true_label"]
            tail = ["", ""] if truth is None else [truth, int(rec["predicted"] == truth)]
            return [rec["stage"], rec["sample_id"], *(x for p in parts for x in _reprs(rec[p])), *tail]

        _write_csv(out / "pseudo_audit.csv", [
            ["stage", "sample_id", *(f"{p}{i}" for p in parts for i in k), "true_label", "correct"],
            *map(pseudo_row, result.audits["pseudo"]),
        ])
