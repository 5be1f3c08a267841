"""End-to-end training loop: warm-up, staged selection, pseudo-labeling,
set migration, re-optimization, and EMA maintenance.

Pools are conserved and disjoint at every step; a sample is pseudo-labeled
at most once and never returns to the unlabeled pool.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .augment import strong_augment
from .config import ExperimentConfig, config_to_text
from .data import (
    GROUND_TRUTH,
    PSEUDO,
    Pool,
    Sample,
    SyntheticSpec,
    balanced_test_spec,
    generate,
    load_csv,
    load_eval_csv,
    split_labeled,
)
from .errors import ConfigurationError, TrainingError
from .loss import total_loss, weak_views
from .model import (
    ModelParams,
    OptimizerState,
    adam_step,
    ema_update,
    encode,
    forward,
    init_params,
    save_checkpoint,
)
from .prototypes import PrototypeBank
from .pseudo import Ensemble, ensemble
from .selector import GateResult, gate

# Named sub-streams derived from the master seed.
STREAM_INIT = 0
STREAM_SPLIT = 1
STREAM_SHUFFLE = 2
STREAM_AUGMENT = 3
STREAM_AUDIT = 4


def substream(master_seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(stream,)))


# The loss terms each epoch's log row averages over its batches.
LOSSES = ("classification", "alignment", "total")


@dataclass
class DatasetState:
    """The labeled and unlabeled pools over one id-sorted training pool.

    `labeled_rows` lists the labeled rows in join order: the initial split
    ascending (its first `num_truth` entries), then each stage's picks
    ascending. `targets` holds their label rows in the same order. Training
    batches are drawn by position in that list, so its order is part of the
    behaviour. The unlabeled rows are the other rows, in id order.
    """

    pool: Pool
    labeled_rows: np.ndarray
    targets: np.ndarray
    num_truth: int
    stage: int = 0

    @classmethod
    def split(cls, pool: Pool, labeled_rows: np.ndarray, num_classes: int) -> "DatasetState":
        """Ground-truth one-hot labels on the given rows; every other row unlabeled."""
        return cls(pool, labeled_rows, np.eye(num_classes)[pool.truth[labeled_rows]], len(labeled_rows))

    @property
    def unlabeled_rows(self) -> np.ndarray:
        free = np.ones(len(self.pool), dtype=bool)
        free[self.labeled_rows] = False
        return np.flatnonzero(free)

    @property
    def labeled(self) -> "PoolView":
        return PoolView(self, self.labeled_rows)

    @property
    def unlabeled(self) -> "PoolView":
        return PoolView(self, self.unlabeled_rows)

    def check_invariants(self) -> None:
        """No row joined the labeled pool twice, so every row is in exactly one pool."""
        twice = np.bincount(self.labeled_rows, minlength=len(self.pool)) > 1
        if twice.any():
            raise TrainingError(f"rows joined the labeled pool twice: {self.pool.ids[twice][:5].tolist()}")


@dataclass(frozen=True)
class PoolView:
    """Sized, iterable read-only Sample records for some rows of a DatasetState."""

    state: DatasetState
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        s = self.state
        position = np.full(len(s.pool), -1)  # of each row in labeled_rows
        position[s.labeled_rows] = np.arange(len(s.labeled_rows))
        for r, p in zip(self.rows.tolist(), position[self.rows].tolist()):
            yield Sample(
                int(s.pool.ids[r]), int(s.pool.truth[r]),
                None if p < 0 else s.targets[p].copy(),
                None if p < 0 else GROUND_TRUTH if p < s.num_truth else PSEUDO,
            )


@dataclass
class StageReport:
    stage: int
    num_selected: int
    pseudo_accuracy: float | None
    random_subset_accuracy: float | None
    epoch_losses: list[dict]


@dataclass(frozen=True)
class StageAudit:
    """One stage's decisions, as the arrays `run_stage` computed them."""

    stage: int
    ids: np.ndarray        # (N,) the stage's unlabeled ids, ascending
    gate: GateResult       # over those N rows
    chosen: np.ndarray     # (M,) indices into ids of the reliable rows
    pred: Ensemble         # (M, K) rows over the chosen rows; combined's argmax is the label
    truth: np.ndarray      # (M,) hidden truth of the chosen rows


@dataclass
class RunResult:
    live: ModelParams
    ema: ModelParams  # the EMA shadow of the live weights
    state: DatasetState
    stage_reports: list[StageReport]
    warmup_losses: list[dict]
    metrics: dict
    test_samples: Pool
    stage_audits: list[StageAudit] | None = None

    @property
    def audits(self) -> dict | None:
        """`{"pseudo": records}`, one (stage, sample_id, predicted) dict per pseudo-label, built on access."""
        if self.stage_audits is None:
            return None
        return {"pseudo": [
            {"stage": a.stage, "sample_id": sid, "predicted": c}
            for a in self.stage_audits
            for sid, c in zip(a.ids[a.chosen].tolist(), a.pred.combined.argmax(axis=1).tolist())
        ]}


def _flat(grids: np.ndarray) -> np.ndarray:
    return grids.reshape(len(grids), np.prod(grids.shape[1:], dtype=int))  # n may be 0


def _train_epochs(
    params: ModelParams,
    opt: OptimizerState,
    ema: ModelParams | None,
    state: DatasetState,
    epochs: int,
    cfg: ExperimentConfig,
    rng_shuffle: np.random.Generator,
    rng_augment: np.random.Generator,
    bank=None,
    stage: int = -1,
) -> list[dict]:
    """Train on the labeled pool; optionally keep the bank and EMA fresh.

    Class ids and strong views are built once per call, the blur a
    batch-sized chunk at a time (one blur of the whole set would hold ~4x the
    cache in temporaries); each batch gathers its grids and draws its flips.
    Every row weighs 1.
    """
    if not epochs:
        return []  # nothing would read the cache
    logs = []
    rows, targets = state.labeled_rows, state.targets
    n = len(rows)
    class_ids = targets.argmax(axis=1)
    starts = range(0, n, cfg.batch_size)
    strong_all = np.empty((n,) + state.pool.grids.shape[1:])
    for start in starts:
        chunk = rows[start : start + cfg.batch_size]
        strong_all[start : start + cfg.batch_size] = strong_augment(state.pool.grids[chunk])
    for epoch in range(epochs):
        order = rng_shuffle.permutation(n)
        sums = np.zeros(3)
        for start in starts:
            idx = order[start : start + cfg.batch_size]
            grids = state.pool.grids[rows[idx]]
            weak, _ = weak_views(grids, rng_augment)
            breakdown, grads = total_loss(
                params, grids, targets[idx], 1.0, weak, strong_all[idx], cfg.lam1, cfg.lam2
            )
            adam_step(params, grads, opt)
            if not params.all_finite():
                raise TrainingError("non-finite parameters after optimizer step")
            if ema is not None:
                ema_update(ema, params, cfg.ema_decay)
            if bank is not None:
                bank.push(class_ids[idx], encode(params, _flat(grids)))
            sums += (breakdown.classification, breakdown.alignment, breakdown.total)
        mean = sums / max(len(starts), 1)
        logs.append({"stage": stage, "epoch": epoch, **dict(zip(LOSSES, mean.tolist()))})
    return logs


def warmup(
    params: ModelParams,
    opt: OptimizerState,
    state: DatasetState,
    cfg: ExperimentConfig,
    rng_shuffle: np.random.Generator,
    rng_augment: np.random.Generator,
    bank,
) -> tuple[ModelParams, list[dict]]:
    """Supervised warm-up, then seed the bank with one push of the whole labeled pool.

    Returns the EMA shadow, a copy of the warmed-up weights, and the epoch logs.
    A class with no labeled row stays unseeded, and `bank.prototypes()` names it.
    """
    rows = state.labeled_rows
    class_ids = state.targets.argmax(axis=1)
    logs = _train_epochs(
        params, opt, None, state, cfg.epochs_warmup, cfg, rng_shuffle, rng_augment
    )
    bank.push(class_ids, encode(params, _flat(state.pool.grids[rows])))
    return params.copy(), logs


def _ensemble_accuracy(
    rows: np.ndarray,
    truth: np.ndarray,
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
    hits = int((pred.combined.argmax(axis=1) == truth[rows]).sum())
    return (hits / len(rows) if len(rows) else None), pred


def run_stage(
    state: DatasetState,
    params: ModelParams,
    ema: ModelParams,
    opt: OptimizerState,
    bank,
    cfg: ExperimentConfig,
    rng_shuffle: np.random.Generator,
    rng_augment: np.random.Generator,
    rng_audit: np.random.Generator,
) -> tuple[StageReport, StageAudit]:
    """One selection / pseudo-labeling / migration / re-optimization round.

    The unlabeled pool goes through one forward pass and one gate call; the
    selection, the audit and the control arm all read those arrays.
    """
    pool = state.pool
    unlabeled = state.unlabeled_rows
    ids, truth = pool.ids[unlabeled], pool.truth[unlabeled]
    fwd = forward(params, _flat(pool.grids[unlabeled]))
    feats, probs = fwd.features, fwd.probabilities
    del fwd  # its layer outputs would otherwise stay alive through retraining
    g = gate(bank.prototypes(), feats, cfg.gamma1, cfg.effective_gamma2(), cfg.temperature)

    rows = state.labeled_rows
    labeled = (encode(params, _flat(pool.grids[rows])), state.targets, pool.ids[rows])
    chosen = np.flatnonzero(g.reliable)
    pseudo_acc, pred = _ensemble_accuracy(chosen, truth, probs, feats, g.posterior, labeled, cfg)

    # Control arm: the same ensemble on a random equal-size unlabeled subset.
    random_acc = None
    if len(chosen):
        pick = np.sort(rng_audit.choice(len(unlabeled), size=len(chosen), replace=False))
        random_acc, _ = _ensemble_accuracy(pick, truth, probs, feats, g.posterior, labeled, cfg)

    # Migration: selected samples get a permanent pseudo-label and move pools.
    winners = pred.combined.argmax(axis=1)
    labels = pred.combined if cfg.soft_pseudo_labels else np.eye(cfg.num_classes)[winners]
    state.labeled_rows, state.targets = (
        np.concatenate([rows, unlabeled[chosen]]), np.concatenate([state.targets, labels])
    )
    state.check_invariants()

    logs = _train_epochs(
        params, opt, ema, state, cfg.epochs_stage, cfg,
        rng_shuffle, rng_augment, bank=bank, stage=state.stage,
    )
    report = StageReport(
        stage=state.stage,
        num_selected=len(chosen),
        pseudo_accuracy=pseudo_acc,
        random_subset_accuracy=random_acc,
        epoch_losses=logs,
    )
    audit = StageAudit(state.stage, ids, g, chosen, pred, truth[chosen])
    state.stage += 1
    return report, audit


def evaluate_params(params: ModelParams, samples: Pool) -> dict:
    """Metrics report dict for a parameter snapshot on a labeled evaluation set."""
    truths = samples.truth
    probs = forward(params, _flat(samples.grids)).probabilities
    predictions = probs.argmax(axis=1)
    matrix = metrics_mod.confusion(predictions, truths, params.num_classes)
    summ = metrics_mod.summary(matrix)
    auc = metrics_mod.auc_ovr(probs, truths)
    return {
        **asdict(summ),
        "macro_auc": auc.macro_auc,
        "per_class_auc": {str(k): v for k, v in auc.per_class_auc.items()},
        "auc_excluded_classes": auc.excluded_classes,
        "confusion": matrix.tolist(),
        "roc": {str(k): pts for k, pts in auc.roc.items()},
    }


@functools.lru_cache(maxsize=2)
def _synthetic_pool(spec: SyntheticSpec) -> Pool:
    """`generate(spec)`, built once per process for the train and the test spec.

    Runs share the arrays, so they are read-only: a write raises instead of
    changing the data of every later run.
    """
    pool = generate(spec)
    for array in (pool.ids, pool.grids, pool.truth):
        array.flags.writeable = False
    return pool


def build_pools(cfg: ExperimentConfig, seed: int) -> tuple[PoolView, PoolView, Pool]:
    """The labeled and unlabeled views of a fresh DatasetState (reached as `.state`), and the test pool."""
    if cfg.data_csv is not None:
        train, h, w, k = load_csv(cfg.data_csv)
        if k != cfg.num_classes:
            raise ConfigurationError(
                f"data_csv: file declares {k} classes, config says {cfg.num_classes}"
            )
        test = load_eval_csv(cfg.test_csv, "test_csv", h, w, k)
    else:
        spec = cfg.synthetic_spec()
        train = _synthetic_pool(spec)
        test = _synthetic_pool(balanced_test_spec(spec, per_class=cfg.test_per_class))
    # Sort only when needed: freeing a copy of an already sorted 3k-row pool
    # here raised the large-pool RSS peak by ~6 MB.
    if (np.diff(train.ids) <= 0).any():
        order = np.argsort(train.ids, kind="stable")
        train = Pool(train.ids[order], train.grids[order], train.truth[order])
    split_rng_seed = int(substream(seed, STREAM_SPLIT).integers(0, 2**31 - 1))
    labeled_rows, _ = split_labeled(train, cfg.labeled_ratio, split_rng_seed, cfg.num_classes)
    state = DatasetState.split(train, labeled_rows, cfg.num_classes)
    return state.labeled, state.unlabeled, test


def run(cfg: ExperimentConfig, seed: int, collect_audits: bool = False) -> RunResult:
    """Warm-up then stages until the budget is exhausted or no unlabeled remain.

    The returned metrics are computed with the EMA shadow weights.
    """
    cfg = cfg.normalized()
    notes = cfg.validate()

    labeled, _, test_samples = build_pools(cfg, seed)
    state = labeled.state

    input_dim = state.pool.grids[0].size
    params = init_params(
        input_dim, cfg.hidden_widths, cfg.num_classes, substream(seed, STREAM_INIT)
    )
    opt = OptimizerState.for_params(params, cfg.learning_rate)
    bank = PrototypeBank(cfg.num_classes, params.feature_dim, cfg.queue_capacity)
    rng_shuffle = substream(seed, STREAM_SHUFFLE)
    rng_augment = substream(seed, STREAM_AUGMENT)
    rng_audit = substream(seed, STREAM_AUDIT)

    ema, warmup_losses = warmup(params, opt, state, cfg, rng_shuffle, rng_augment, bank)

    stage_audits: list[StageAudit] | None = [] if collect_audits else None
    stage_reports: list[StageReport] = []
    while state.stage < cfg.stages and len(state.unlabeled_rows):
        report, audit = run_stage(
            state, params, ema, opt, bank, cfg, rng_shuffle, rng_augment, rng_audit
        )
        stage_reports.append(report)
        if stage_audits is not None:
            stage_audits.append(audit)

    metrics = evaluate_params(ema, test_samples)
    metrics["config_warnings"] = notes
    return RunResult(
        live=params,
        ema=ema,
        state=state,
        stage_reports=stage_reports,
        warmup_losses=warmup_losses,
        metrics=metrics,
        test_samples=test_samples,
        stage_audits=stage_audits,
    )


def write_csv(path: Path, rows, header=None) -> None:
    """Write the header, if given, then the rows as the iterable yields them."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def write_metrics(out: Path, metrics: dict) -> None:
    """metrics.json (without the ROC points), confusion.csv and one roc_class<k>.csv per class."""
    body = {key: value for key, value in metrics.items() if key != "roc"}
    (out / "metrics.json").write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    write_csv(out / "confusion.csv", metrics["confusion"])
    for key, points in metrics["roc"].items():
        write_csv(out / f"roc_class{key}.csv", (map(repr, p) for p in points), ["threshold", "fpr", "tpr"])


def _selector_rows(a: StageAudit):
    g = a.gate
    columns = (a.ids, g.similarities, g.posterior, g.reliable, g.winners)
    for sid, w, v, ok, winner in zip(*(c.tolist() for c in columns)):
        yield [a.stage, sid, *map(repr, w), *map(repr, v), int(ok), winner if ok else ""]


def _pseudo_rows(a: StageAudit):
    p = a.pred
    hits = p.combined.argmax(axis=1) == a.truth
    columns = (a.ids[a.chosen], p.linear, p.knn, p.similarity, p.combined, a.truth, hits)
    for sid, *parts, truth, hit in zip(*(c.tolist() for c in columns)):
        yield [a.stage, sid, *(repr(x) for part in parts for x in part), truth, int(hit)]


def write_run_dir(out_dir, cfg: ExperimentConfig, seed: int, result: RunResult) -> None:
    """Emit the run directory: config echo, logs, audits, metrics, checkpoint, ROC."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(config_to_text(cfg))

    epochs = result.warmup_losses + [row for rep in result.stage_reports for row in rep.epoch_losses]
    write_csv(
        out / "loss_log.csv",
        ([row["stage"], row["epoch"], *(repr(row[key]) for key in LOSSES)] for row in epochs),
        ["stage", "epoch", *LOSSES],
    )
    write_metrics(out, result.metrics)
    (out / "stage_reports.json").write_text(
        json.dumps([asdict(r) for r in result.stage_reports], indent=2) + "\n"
    )
    height, width = result.state.pool.grids.shape[1:]
    save_checkpoint(
        out / "checkpoint.npz", result.live, result.ema,
        {"seed": seed, "num_classes": cfg.num_classes, "height": height, "width": width},
    )

    if result.stage_audits is not None:
        # Rows are made one stage at a time, so no audit CSV is held whole.
        k = range(cfg.num_classes)
        write_csv(
            out / "selector_audit.csv", (row for a in result.stage_audits for row in _selector_rows(a)),
            ["stage", "sample_id", *(f"w{i}" for i in k), *(f"v{i}" for i in k), "reliable", "winning_class"],
        )
        parts = ("linear", "knn", "sim", "combined")
        write_csv(
            out / "pseudo_audit.csv", (row for a in result.stage_audits for row in _pseudo_rows(a)),
            ["stage", "sample_id", *(f"{p}{i}" for p in parts for i in k), "true_label", "correct"],
        )
