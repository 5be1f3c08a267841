"""End-to-end training loop: warm-up, staged selection, pseudo-labeling,
set migration, re-optimization, and EMA maintenance.

Pools are conserved and disjoint at every step; a sample is pseudo-labeled
at most once and never returns to the unlabeled pool.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .augment import strong_augment
from .config import ExperimentConfig, config_to_text
from .data import (GROUND_TRUTH, PSEUDO, Pool, Sample, balanced_test_spec, generate, load_csv,
                   load_eval_csv, split_labeled, write_csv)
from .errors import ConfigurationError, TrainingError, check_array
from .loss import stacked_loss, weak_views
from .model import (
    ModelParams,
    OptimizerState,
    adam_step,
    ema_update,
    forward,
    init_params,
    save_checkpoint,
)
from .numerics import ROW_BLOCK
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
Pools = tuple[Pool, Pool]  # a config's (train, test) pools, as `load_pools` reads them


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
        truth = check_array("pool.truth", pool.truth, (len(pool),), "iu", below=num_classes)
        return cls(pool, labeled_rows, np.eye(num_classes)[truth[labeled_rows]], len(labeled_rows))

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
    pred: Ensemble         # (M, K) rows over the chosen rows
    labels: np.ndarray     # (M,) their pseudo-label classes, combined's argmax
    truth: np.ndarray      # (M,) hidden truth of the chosen rows


@dataclass
class RunResult:
    live: ModelParams
    ema: ModelParams  # the EMA shadow of the live weights
    state: DatasetState
    stage_reports: list[StageReport]
    warmup_losses: list[dict]
    metrics: dict
    stage_audits: list[StageAudit] | None = None

    @property
    def audits(self) -> dict | None:
        """`{"pseudo": records}`, one (stage, sample_id, predicted) dict per pseudo-label, built on access."""
        if self.stage_audits is None:
            return None
        return {"pseudo": [
            {"stage": a.stage, "sample_id": sid, "predicted": c}
            for a in self.stage_audits
            for sid, c in zip(a.ids[a.chosen].tolist(), a.labels.tolist())
        ]}


def _forward_rows(params: ModelParams, grids: np.ndarray, rows: np.ndarray | None = None):
    """(features, probabilities) of `forward` over grids[rows] (every row when None), ROW_BLOCK rows at a time.

    Only one block of grids and layer outputs is alive at once. The result is one `forward` call's,
    bit for bit: a one-row block would take numpy's gemv path, not gemm, and move the last bits, so a
    one-row tail joins the block before it.
    """
    n = len(grids) if rows is None else len(rows)
    feats, probs = np.empty((n, params.feature_dim)), np.empty((n, params.num_classes))
    bounds = [*range(0, n, ROW_BLOCK), n]
    if len(bounds) > 2 and n - bounds[-2] == 1:
        del bounds[-2]
    for start, stop in zip(bounds, bounds[1:]):
        block = grids[start:stop] if rows is None else grids[rows[start:stop]]
        fwd = forward(params, block.reshape(len(block), -1))
        feats[start:stop], probs[start:stop] = fwd.features, fwd.probabilities
        del block, fwd  # freed before the next block is gathered
    return feats, probs


@dataclass
class Trainer:
    """The one student a run trains through warm-up and every stage, and what trains it.

    `ema` is the teacher: `None` until warm-up ends, then updated after every
    step, as the bank is pushed.
    """

    cfg: ExperimentConfig
    params: ModelParams
    opt: OptimizerState
    bank: PrototypeBank
    rng_shuffle: np.random.Generator
    rng_augment: np.random.Generator
    rng_audit: np.random.Generator
    ema: ModelParams | None = None

    @classmethod
    def start(cls, cfg: ExperimentConfig, seed: int, input_dim: int) -> "Trainer":
        """Fresh weights, optimizer and bank, and the seed's named sub-streams."""
        params = init_params(input_dim, cfg.hidden_widths, cfg.num_classes, substream(seed, STREAM_INIT))
        return cls(
            cfg, params, OptimizerState.for_params(params, cfg.learning_rate),
            PrototypeBank(cfg.num_classes, params.feature_dim, cfg.queue_capacity),
            *(substream(seed, s) for s in (STREAM_SHUFFLE, STREAM_AUGMENT, STREAM_AUDIT)),
        )


def _train_epochs(t: Trainer, state: DatasetState, epochs: int, stage: int = -1) -> list[dict]:
    """Train on the labeled pool; once there is a teacher, keep it and the bank fresh.

    Class ids and strong views are built once per call, the blur a
    batch-sized chunk at a time (one blur of the whole set would hold ~4x the
    cache in temporaries). Each batch gathers its clean, strong and weak views
    into one reused stack for `stacked_loss`, every row weighing 1; the bank
    takes the clean rows' features from that forward, before the update.
    At lam2 = 0 the stack holds the clean rows alone: no view is made or drawn.
    """
    if not epochs:
        return []  # nothing would read the cache
    cfg, params = t.cfg, t.params
    logs = []
    rows, targets = state.labeled_rows, state.targets
    n, views, shape = len(rows), 3 if cfg.lam2 else 1, state.pool.grids.shape[1:]
    class_ids = targets.argmax(axis=1)
    starts = range(0, n, cfg.batch_size)
    strong_all = np.empty((n if views == 3 else 0,) + shape)
    try:
        with np.errstate(over="raise", invalid="raise"):  # once per call: an overflow ends training
            for start in range(0, len(strong_all), cfg.batch_size):
                chunk = rows[start : start + cfg.batch_size]
                strong_all[start : start + cfg.batch_size] = strong_augment(state.pool.grids[chunk])
            stack = np.empty((views * min(cfg.batch_size, n),) + shape)  # no batch holds more than n rows
            for epoch in range(epochs):
                order = t.rng_shuffle.permutation(n)
                sums = np.zeros(3)
                for start in starts:
                    idx = order[start : start + cfg.batch_size]
                    B = len(idx)
                    stack[:B] = state.pool.grids[rows[idx]]
                    if views == 3:
                        stack[B : 2 * B] = strong_all[idx]
                        stack[2 * B : 3 * B] = weak_views(stack[:B], t.rng_augment)[0]
                    breakdown, grads, features = stacked_loss(
                        params, stack[: views * B], targets[idx], 1.0, cfg.lam1, cfg.lam2
                    )
                    adam_step(params, grads, t.opt)
                    if not params.all_finite():
                        raise TrainingError("non-finite parameters after optimizer step")
                    if t.ema is not None:
                        ema_update(t.ema, params, cfg.ema_decay)
                        t.bank.push(class_ids[idx], features)
                    sums += (breakdown.classification, breakdown.alignment or 0.0, breakdown.total)
                log = {"stage": stage, "epoch": epoch, **dict(zip(LOSSES, (sums / max(len(starts), 1)).tolist()))}
                logs.append(log if views == 3 else {**log, "alignment": None})
    except FloatingPointError as exc:
        raise TrainingError(f"training diverged: {exc}") from None
    return logs


def warmup(t: Trainer, state: DatasetState) -> list[dict]:
    """Supervised warm-up; the teacher starts as a copy of the warmed-up weights.

    The bank stays empty: the first stage seeds it. Returns the epoch logs.
    """
    logs = _train_epochs(t, state, t.cfg.epochs_warmup)
    t.ema = t.params.copy()
    return logs


def run_stage(t: Trainer, state: DatasetState) -> tuple[StageReport, StageAudit]:
    """One selection / pseudo-labeling / migration / re-optimization round.

    The labeled pool is encoded once: the first stage seeds the bank with
    those features before the gate (an unseeded class is named there), and
    the KNN reads them. The unlabeled pool goes through one blocked forward
    pass and one gate call; the selection, the audit and the control arm all
    read those arrays. Each chosen row's pseudo-label class is decided once,
    as `labels`; the report's accuracy and the audit read it.
    """
    cfg, pool = t.cfg, state.pool
    rows = state.labeled_rows
    labeled = (_forward_rows(t.params, pool.grids, rows)[0], state.targets, pool.ids[rows])
    if state.stage == 0:
        t.bank.push(state.targets.argmax(axis=1), labeled[0])
    unlabeled = state.unlabeled_rows
    ids, truth = pool.ids[unlabeled], pool.truth[unlabeled]
    feats, probs = _forward_rows(t.params, pool.grids, unlabeled)
    g = gate(t.bank.prototypes(), feats, cfg.gamma1, cfg.effective_gamma2(), cfg.temperature)

    # The chosen rows, then a control arm: a random equal-size unlabeled subset.
    chosen = np.flatnonzero(g.reliable)
    arms = [chosen]
    if len(chosen):
        arms.append(np.sort(t.rng_audit.choice(len(unlabeled), size=len(chosen), replace=False)))
    k_eff, alphas = min(cfg.knn_k, len(rows)), (cfg.alpha1, cfg.alpha2, cfg.alpha3)
    preds = [ensemble(probs[r], g.posterior[r], feats[r], *labeled, k_eff, alphas) for r in arms]
    classes = [p.combined.argmax(axis=1) for p in preds]
    accuracy = [int((c == truth[r]).sum()) / len(r) for r, c in zip(arms, classes) if len(r)]
    pseudo_acc, random_acc = accuracy or (None, None)
    pred, labels = preds[0], classes[0]

    # Migration: selected samples move pools, their combined rows their permanent pseudo-labels.
    state.labeled_rows, state.targets = (
        np.concatenate([rows, unlabeled[chosen]]), np.concatenate([state.targets, pred.combined])
    )
    state.check_invariants()
    del feats, probs, labeled, preds  # retraining reads none of them; freed, they do not raise its peak RSS

    logs = _train_epochs(t, state, cfg.epochs_stage, stage=state.stage)
    report = StageReport(
        stage=state.stage,
        num_selected=len(chosen),
        pseudo_accuracy=pseudo_acc,
        random_subset_accuracy=random_acc,
        epoch_losses=logs,
    )
    audit = StageAudit(state.stage, ids, g, chosen, pred, labels, truth[chosen])
    state.stage += 1
    return report, audit


def evaluate_params(params: ModelParams, samples: Pool) -> dict:
    """Metrics report dict for a parameter snapshot on a labeled evaluation set."""
    truths = samples.truth
    probs = _forward_rows(params, samples.grids)[1]
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


def load_pools(cfg: ExperimentConfig) -> Pools:
    """The config's (train, test) pools, the train pool sorted by id; every array read-only.

    No seed or sweep value changes them, so a command reads them once for all
    its runs, and a write raises instead of changing every later run's data.
    """
    if cfg.data_csv is not None:
        train, h, w, k = load_csv(cfg.data_csv)
        if k != cfg.num_classes:
            raise ConfigurationError(
                f"data_csv: file declares {k} classes, config says {cfg.num_classes}"
            )
        test = load_eval_csv(cfg.test_csv, "test_csv", h, w, k)
    else:
        spec = cfg.synthetic_spec()
        train, test = generate(spec), generate(balanced_test_spec(spec, per_class=cfg.test_per_class))
    # Sort only when needed: freeing a copy of an already sorted 3k-row pool
    # here raised the large-pool RSS peak by ~6 MB.
    if (np.diff(train.ids) <= 0).any():
        order = np.argsort(train.ids, kind="stable")
        train = Pool(train.ids[order], train.grids[order], train.truth[order])
    for pool in (train, test):
        for array in (pool.ids, pool.grids, pool.truth):
            array.flags.writeable = False
    return train, test


def build_pools(cfg: ExperimentConfig, seed: int, pools: Pools | None = None) -> tuple[PoolView, PoolView, Pool]:
    """The labeled and unlabeled views of a fresh DatasetState (reached as `.state`), and the test pool."""
    train, test = load_pools(cfg) if pools is None else pools
    split_rng_seed = int(substream(seed, STREAM_SPLIT).integers(0, 2**31 - 1))
    labeled_rows, _ = split_labeled(train, cfg.labeled_ratio, split_rng_seed, cfg.num_classes)
    state = DatasetState.split(train, labeled_rows, cfg.num_classes)
    return state.labeled, state.unlabeled, test


def run(cfg: ExperimentConfig, seed: int, collect_audits: bool = False, pools: Pools | None = None) -> RunResult:
    """Warm-up then stages until the budget is exhausted or no unlabeled remain.

    `pools` are `load_pools(cfg)`'s, read here when not given. The returned
    metrics are computed with the EMA shadow weights.
    """
    cfg = cfg.normalized()
    notes = cfg.validate()

    labeled, _, test = build_pools(cfg, seed, pools)
    state = labeled.state
    t = Trainer.start(cfg, seed, state.pool.grids[0].size)
    warmup_losses = warmup(t, state)

    stage_audits: list[StageAudit] | None = [] if collect_audits else None
    stage_reports: list[StageReport] = []
    while state.stage < cfg.stages and len(state.unlabeled_rows):
        report, audit = run_stage(t, state)
        stage_reports.append(report)
        if stage_audits is not None:
            stage_audits.append(audit)

    metrics = evaluate_params(t.ema, test)
    metrics["config_warnings"] = notes
    return RunResult(
        live=t.params,
        ema=t.ema,
        state=state,
        stage_reports=stage_reports,
        warmup_losses=warmup_losses,
        metrics=metrics,
        stage_audits=stage_audits,
    )


def write_metrics(out: Path, metrics: dict) -> None:
    """metrics.json (without the ROC points), confusion.csv and one roc_class<k>.csv per class."""
    body = {key: value for key, value in metrics.items() if key != "roc"}
    (out / "metrics.json").write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    write_csv(out / "confusion.csv", metrics["confusion"])
    for key, points in metrics["roc"].items():
        write_csv(out / f"roc_class{key}.csv", points, ["threshold", "fpr", "tpr"])


def _block_rows(*columns):
    """The columns' rows as Python values, converted ROW_BLOCK rows at a time."""
    for start in range(0, len(columns[0]), ROW_BLOCK):
        yield from zip(*(c[start : start + ROW_BLOCK].tolist() for c in columns))


def _selector_rows(a: StageAudit):
    g = a.gate
    for sid, w, v, ok, winner in _block_rows(a.ids, g.similarities, g.posterior, g.reliable, g.winners):
        yield [a.stage, sid, *w, *v, int(ok), winner if ok else ""]


def _pseudo_rows(a: StageAudit):
    p = a.pred
    columns = (a.ids[a.chosen], p.linear, p.knn, p.similarity, p.combined, a.truth, a.labels == a.truth)
    for sid, lin, knn, sim, comb, truth, hit in _block_rows(*columns):
        yield [a.stage, sid, *lin, *knn, *sim, *comb, truth, int(hit)]


def write_run_dir(out_dir, cfg: ExperimentConfig, seed: int, result: RunResult) -> None:
    """Emit the run directory: config echo, logs, audits, metrics, checkpoint, ROC."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(config_to_text(cfg))

    epochs = result.warmup_losses + [row for rep in result.stage_reports for row in rep.epoch_losses]
    write_csv(
        out / "loss_log.csv",
        ([row[key] for key in ("stage", "epoch", *LOSSES)] for row in epochs),  # float: repr; None: empty
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
        write_audits(out, cfg.num_classes, result.stage_audits)


def write_audits(out: Path, num_classes: int, stage_audits: list[StageAudit]) -> None:
    """selector_audit.csv and pseudo_audit.csv, made a block of one stage at a time, never held whole."""
    k = range(num_classes)
    write_csv(
        out / "selector_audit.csv", (row for a in stage_audits for row in _selector_rows(a)),
        ["stage", "sample_id", *(f"w{i}" for i in k), *(f"v{i}" for i in k), "reliable", "winning_class"],
    )
    parts = ("linear", "knn", "sim", "combined")
    write_csv(
        out / "pseudo_audit.csv", (row for a in stage_audits for row in _pseudo_rows(a)),
        ["stage", "sample_id", *(f"{p}{i}" for p in parts for i in k), "true_label", "correct"],
    )
