import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from splal import loss, orchestrator
from splal.config import ExperimentConfig, load_config
from splal.data import GROUND_TRUTH, PSEUDO, Pool, SyntheticSpec, generate, save_csv, split_labeled
from splal.errors import ConfigurationError, TrainingError
from splal.model import OptimizerState, forward, init_params
from splal.orchestrator import (
    _forward_rows,
    STREAM_AUGMENT,
    STREAM_INIT,
    STREAM_SHUFFLE,
    STREAM_SPLIT,
    DatasetState,
    Trainer,
    _train_epochs,
    build_pools,
    evaluate_params,
    load_pools,
    run,
    run_stage,
    substream,
    warmup,
    write_run_dir,
)

from helpers import train_epochs_per_batch, trainer


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        num_classes=4,
        class_counts=(24, 16, 12, 8),
        height=8,
        width=8,
        noise_sigma=0.10,
        labeled_ratio=0.25,
        hidden_widths=(16, 8),
        epochs_warmup=3,
        epochs_stage=2,
        stages=2,
        batch_size=16,
        knn_k=5,
        test_per_class=8,
        gamma1=0.90,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSubstreams:
    def test_deterministic(self):
        a = substream(42, STREAM_INIT).uniform(size=5)
        b = substream(42, STREAM_INIT).uniform(size=5)
        np.testing.assert_array_equal(a, b)

    def test_streams_distinct(self):
        a = substream(42, STREAM_SHUFFLE).uniform(size=5)
        b = substream(42, STREAM_AUGMENT).uniform(size=5)
        assert not np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = substream(1, STREAM_INIT).uniform(size=5)
        b = substream(2, STREAM_INIT).uniform(size=5)
        assert not np.array_equal(a, b)


def pool_of(grids, truth) -> Pool:
    grids = np.asarray(grids, dtype=np.float64)
    return Pool(np.arange(len(grids)), grids, np.asarray(truth))


class TestInvariants:
    def _state(self, n=3):
        # Row 0 labeled, the rest unlabeled; ids 10, 11, ...
        pool = Pool(np.arange(10, 10 + n), np.zeros((n, 2, 2)), np.zeros(n, dtype=int))
        return DatasetState.split(pool, np.array([0]), 1)

    def test_row_joined_twice_detected(self):
        state = self._state()
        state.labeled_rows = np.array([0, 2, 1, 2])  # row 2 joined twice
        with pytest.raises(TrainingError, match=r"joined the labeled pool twice: \[12\]"):
            state.check_invariants()
        assert state.unlabeled_rows.tolist() == []

    def test_valid_state_passes(self):
        state = self._state()
        state.check_invariants()
        assert state.unlabeled_rows.tolist() == [1, 2]


class TestWarmup:
    """Warm-up leaves the bank empty; the first stage seeds it before its gate reads it.

    At epochs_stage = 0 the stage retrains nothing, so its seed is all the bank holds.
    """

    def test_leaves_every_queue_empty(self):
        cfg = tiny_config()
        state = build_pools(cfg, 0)[0].state
        t = Trainer.start(cfg, 0, state.pool.grids[0].size)
        warmup(t, state)
        assert [len(t.bank.queue_contents(k)) for k in range(4)] == [0, 0, 0, 0]

    def test_missing_class_rejected(self):
        cfg = tiny_config(epochs_stage=0)
        rng = np.random.default_rng(0)
        t = trainer(cfg, init_params(64, cfg.hidden_widths, 4, rng), rng)
        state = DatasetState.split(pool_of(rng.uniform(size=(3, 8, 8)), [0, 1, 1]), np.arange(2), 4)
        warmup(t, state)
        with pytest.raises(ConfigurationError, match=r"^unseeded class queues: \[2, 3\]$"):
            run_stage(t, state)

    def test_empty_labeled_pool_names_every_class(self):
        cfg = tiny_config(epochs_stage=0)
        rng = np.random.default_rng(0)
        t = trainer(cfg, init_params(64, cfg.hidden_widths, 4, rng), rng)
        state = DatasetState.split(pool_of(rng.uniform(size=(2, 8, 8)), [0, 1]), np.arange(0), 4)
        warmup(t, state)
        with pytest.raises(ConfigurationError) as err:
            run_stage(t, state)
        assert str(err.value) == "unseeded class queues: [0, 1, 2, 3]"

    def test_seeds_every_class_queue(self):
        cfg = tiny_config(epochs_stage=0)
        rng = np.random.default_rng(1)
        t = trainer(cfg, init_params(64, cfg.hidden_widths, 4, rng), rng)
        pool = pool_of(rng.uniform(size=(8, 8, 8)), [0, 1, 2, 3, 0, 2, 1, 3])
        state = DatasetState.split(pool, np.arange(6), 4)
        logs = warmup(t, state)
        assert len(logs) == cfg.epochs_warmup
        # EMA shadow starts as an exact copy of the post-warm-up weights
        np.testing.assert_array_equal(t.ema.classifier[0], t.params.classifier[0])
        run_stage(t, state)
        assert [len(t.bank.queue_contents(k)) for k in range(4)] == [2, 1, 2, 1]


class TestStrongViewCache:
    """`_train_epochs` blurs the labeled rows once per call; the bits match blurring every batch."""

    @staticmethod
    def _setup(n_pool, side, labeled_rows, cfg, shuffle, augment=None, seed=0, teacher=True):
        """A pool, and a Trainer over it whose teacher (if any) is a copy of its weights."""
        rng = np.random.default_rng(seed)
        pool = pool_of(rng.uniform(size=(n_pool, side, side)), rng.integers(0, 4, size=n_pool))
        state = DatasetState.split(pool, labeled_rows, 4)
        t = trainer(cfg, init_params(side * side, cfg.hidden_widths, 4, np.random.default_rng(seed + 1)),
                    shuffle, augment)
        if teacher:
            t.ema = t.params.copy()
        return state, t

    def test_matches_per_batch_reference(self):
        # 45 labeled rows (not a multiple of the batch size 16), out of order as after a migration
        cfg = tiny_config(queue_capacity=8)
        rows = np.random.default_rng(5).permutation(61)[:45]
        runs = []
        for train in (_train_epochs, train_epochs_per_batch):
            state, t = self._setup(61, 8, rows, cfg, np.random.default_rng(7), np.random.default_rng(8))
            logs = train(t, state, 3, stage=1)
            runs.append((logs, t))
        (logs, t), (ref_logs, ref) = runs
        assert logs == ref_logs
        assert np.array_equal(t.params.flat, ref.params.flat)
        assert np.array_equal(t.opt.m, ref.opt.m) and np.array_equal(t.opt.v, ref.opt.v)
        assert np.array_equal(t.ema.flat, ref.ema.flat)
        for k in range(4):
            assert np.array_equal(t.bank.queue_contents(k), ref.bank.queue_contents(k))
        assert t.rng_shuffle.bit_generator.state == ref.rng_shuffle.bit_generator.state
        assert t.rng_augment.bit_generator.state == ref.rng_augment.bit_generator.state

    def test_no_epochs_no_blur(self, monkeypatch):
        cfg = tiny_config()
        state, t = self._setup(20, 8, np.arange(20), cfg, np.random.default_rng(0), teacher=False)
        blurred = []
        monkeypatch.setattr(orchestrator, "strong_augment", blurred.append)
        assert _train_epochs(t, state, 0) == []
        assert blurred == []

    def test_cache_is_filled_in_chunks(self):
        # numpy reports its buffers to tracemalloc; blurring all n rows in one
        # call peaks at ~4x the (n, H, W) cache, chunk by chunk at ~1x.
        cfg = tiny_config(batch_size=32)
        n = 3000
        state, t = self._setup(n, 16, np.arange(n), cfg, np.random.default_rng(0), teacher=False)
        cache_bytes = n * 16 * 16 * 8
        tracemalloc.start()
        try:
            _train_epochs(t, state, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cache_bytes <= peak < 2 * cache_bytes


class TestForwardRows:
    """Whole-pool passes run a block of rows at a time, with the bits of one `forward` call."""

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 258, 513, 2964])
    def test_matches_one_forward_call_bit_for_bit(self, n):
        # 257 and 513 leave a one-row tail, which numpy's gemv path would give other last bits.
        rng = np.random.default_rng(n)
        params = init_params(256, (64, 32), 4, rng)
        grids = rng.uniform(size=(n + 9, 16, 16))
        rows = np.sort(rng.choice(n + 9, size=n, replace=False))
        for (feats, probs), gathered in ((_forward_rows(params, grids, rows), grids[rows]),
                                         (_forward_rows(params, grids[:n]), grids[:n])):
            one = forward(params, gathered.reshape(n, -1))
            assert np.array_equal(feats, one.features) and np.array_equal(probs, one.probabilities)

    @pytest.mark.parametrize("every_row", [True, False])
    def test_memory_is_one_block_not_the_pool(self, every_row):
        # An 8000-row record-array pool, as load_csv returns it: one forward call over gathered rows
        # would hold ~16 MB of grids; the blocked pass holds one block beside its outputs.
        n, rng = 8000, np.random.default_rng(3)
        records = np.zeros(n, [("id", np.int64), ("label", np.int64), ("px", np.float64, (16, 16))])
        records["px"] = rng.uniform(size=(n, 16, 16))
        params = init_params(256, (64, 32), 4, rng)
        rows = None if every_row else np.arange(1, n, dtype=np.intp)
        tracemalloc.start()
        try:
            feats, probs = _forward_rows(params, records["px"], rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - feats.nbytes - probs.nbytes < 2 * 2**20


class TestStackedStep:
    """One forward and one backward per batch; the bank push reads that forward's clean rows."""

    def test_push_reads_pre_step_features_of_one_forward(self, monkeypatch):
        cfg = tiny_config(queue_capacity=64)
        rows = np.random.default_rng(5).permutation(61)[:45]  # 3 batches of 16, 16 and 13
        state, t = TestStrongViewCache._setup(61, 8, rows, cfg, np.random.default_rng(7), np.random.default_rng(8))
        calls, steps, pushes = {"forward": 0, "backward_from_dlogits": 0}, [], []
        for name in calls:
            def counted(*args, _fn=getattr(loss, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(loss, name, counted)

        def stacked_loss(params, views, *args):
            steps.append((params.copy(), views.copy()))
            return real_loss(params, views, *args)

        def push(class_ids, features):
            pushes.append(features.copy())
            real_push(class_ids, features)

        def no_pass(*args):
            raise AssertionError("_train_epochs runs a forward pass outside the step's")

        real_loss, real_push = orchestrator.stacked_loss, t.bank.push
        monkeypatch.setattr(orchestrator, "stacked_loss", stacked_loss)
        monkeypatch.setattr(orchestrator, "_forward_rows", no_pass)
        monkeypatch.setattr(orchestrator, "forward", no_pass)
        monkeypatch.setattr(t.bank, "push", push)
        _train_epochs(t, state, 2)

        assert len(steps) == len(pushes) == 6
        assert calls == {"forward": 6, "backward_from_dlogits": 6}
        for (before, views), pushed in zip(steps, pushes):
            B = len(pushed)
            assert np.array_equal(pushed, forward(before, views.reshape(3 * B, -1)).features[:B])
            clean = forward(before, views[:B].reshape(B, -1)).features
            assert np.linalg.norm(pushed - clean) <= 1e-12 * np.linalg.norm(clean)
        after = forward(t.params, steps[-1][1][:13].reshape(13, -1)).features
        assert not np.array_equal(pushes[-1], after)  # the last update moved the features


class TestCleanOnlyStep:
    """At lam2 = 0 each step trains on the clean rows alone: no strong or weak view is made."""

    def test_stacks_hold_the_clean_rows_and_nothing_is_drawn(self, monkeypatch):
        cfg = tiny_config(lam1=1.0, lam2=0.0)
        rows = np.random.default_rng(5).permutation(61)[:45]  # 3 batches of 16, 16 and 13
        augment = np.random.default_rng(8)
        state, t = TestStrongViewCache._setup(61, 8, rows, cfg, np.random.default_rng(7), augment)
        stacks = []

        def stacked_loss(params, views, targets, *args):
            stacks.append((len(views), len(targets)))
            return real_loss(params, views, targets, *args)

        def no_blur(grids):
            raise AssertionError("a strong view was made at lam2 = 0")

        real_loss = orchestrator.stacked_loss
        monkeypatch.setattr(orchestrator, "stacked_loss", stacked_loss)
        monkeypatch.setattr(orchestrator, "strong_augment", no_blur)
        before = augment.bit_generator.state
        logs = _train_epochs(t, state, 2)
        assert stacks == [(16, 16), (16, 16), (13, 13)] * 2
        assert augment.bit_generator.state == before
        assert [row["alignment"] for row in logs] == [None, None]
        assert all(row["total"] == row["classification"] for row in logs)

    def test_training_matches_the_three_view_step(self):
        # The per-batch reference stacks all three views and weighs the alignment by zero; the two
        # differ in the last bits only (the BLAS reductions run over B or 2B rows).
        cfg = tiny_config(lam1=1.0, lam2=0.0, queue_capacity=8)
        rows = np.random.default_rng(5).permutation(61)[:45]
        runs = []
        for train in (_train_epochs, train_epochs_per_batch):
            state, t = TestStrongViewCache._setup(61, 8, rows, cfg, np.random.default_rng(7), np.random.default_rng(8))
            runs.append((train(t, state, 3, stage=1), t))
        (logs, t), (ref_logs, ref) = runs
        for row, ref_row in zip(logs, ref_logs):
            assert row["classification"] == pytest.approx(ref_row["classification"], rel=1e-12)
        for a, b in ((t.params.flat, ref.params.flat), (t.ema.flat, ref.ema.flat)):
            assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)
        for k in range(4):
            np.testing.assert_allclose(t.bank.queue_contents(k), ref.bank.queue_contents(k), rtol=1e-10, atol=1e-12)

    def test_non_finite_parameters_after_a_step_stop_training(self):
        # Equal classifier biases of half the float range keep the forward finite (every softmax
        # row is uniform) and the gradient too; one Adam step of learning rate 1e308 then carries
        # a bias past the range. A rate alone would stop at the next step's non-finite gradient.
        # Training raises at the overflowing update, whatever the caller's errstate.
        cfg = tiny_config()
        state, t = TestStrongViewCache._setup(20, 8, np.arange(20), cfg, np.random.default_rng(0), teacher=False)
        t.params.classifier[1][...] = np.finfo(np.float64).max / 2
        t.opt = OptimizerState.for_params(t.params, learning_rate=1e308)
        with np.errstate(over="ignore"), pytest.raises(TrainingError) as err:
            _train_epochs(t, state, 1)
        assert str(err.value) == "training diverged: overflow encountered in subtract"
        assert t.opt.step == 1


class TestFullRun:
    def test_identical_seeds_identical_results(self):
        cfg = tiny_config()
        a = run(cfg, seed=7)
        b = run(cfg, seed=7)
        np.testing.assert_array_equal(a.live.classifier[0], b.live.classifier[0])
        np.testing.assert_array_equal(a.ema.classifier[0], b.ema.classifier[0])
        assert a.metrics["accuracy"] == b.metrics["accuracy"]
        assert a.metrics["confusion"] == b.metrics["confusion"]
        assert [r.num_selected for r in a.stage_reports] == [
            r.num_selected for r in b.stage_reports
        ]

    def test_different_seeds_differ(self):
        cfg = tiny_config()
        a = run(cfg, seed=1)
        b = run(cfg, seed=2)
        assert not np.array_equal(a.live.classifier[0], b.live.classifier[0])

    def test_pool_conservation_and_provenance(self):
        cfg = tiny_config()
        result = run(cfg, seed=3)
        total = sum(cfg.class_counts)
        assert len(result.state.labeled) + len(result.state.unlabeled) == total
        ids_l = {s.sample_id for s in result.state.labeled}
        ids_u = {s.sample_id for s in result.state.unlabeled}
        assert not (ids_l & ids_u)
        for s in result.state.labeled:
            assert s.provenance in (GROUND_TRUTH, PSEUDO)
            assert s.visible_label is not None
            assert s.true_label is not None  # hidden truth never erased
        pseudo = {s.sample_id for s in result.state.labeled if s.provenance == PSEUDO}
        state = result.state
        assert pseudo == set(state.pool.ids[state.labeled_rows[state.num_truth:]].tolist())
        for s in result.state.unlabeled:
            assert s.provenance is None and s.visible_label is None

    def test_pool_order(self):
        # Labeled: the initial split ascending, then each stage's picks
        # ascending (training batches depend on this order). Unlabeled: ascending.
        cfg = tiny_config(gamma1=0.8, stages=3)
        pool = generate(SyntheticSpec(class_counts=cfg.class_counts, height=8, width=8,
                                      noise_sigma=cfg.noise_sigma, seed=cfg.data_seed))
        for seed in range(4):
            result = run(cfg, seed=seed, collect_audits=True)
            split_seed = int(substream(seed, STREAM_SPLIT).integers(0, 2**31 - 1))
            expected = pool.ids[split_labeled(pool, cfg.labeled_ratio, split_seed, 4)[0]].tolist()
            assert [a.stage for a in result.stage_audits] == list(range(len(result.stage_reports)))
            for audit in result.stage_audits:
                expected += sorted(audit.ids[audit.chosen].tolist())
            assert [s.sample_id for s in result.state.labeled] == expected
            unlabeled = [s.sample_id for s in result.state.unlabeled]
            assert unlabeled == sorted(unlabeled)
            if seed == 0:
                assert len(result.stage_reports) >= 2 and all(r.num_selected for r in result.stage_reports[:2])

    def test_stage_budget_respected(self):
        result = run(tiny_config(stages=2), seed=4)
        assert len(result.stage_reports) <= 2
        assert result.state.stage == len(result.stage_reports)

    def test_baseline_mode_has_no_stages(self):
        result = run(tiny_config(mode="baseline"), seed=5)
        assert result.stage_reports == []
        assert all(s.provenance == GROUND_TRUTH for s in result.state.labeled)
        # pure supervised loss: the total carries no alignment weight
        for row in result.warmup_losses:
            assert row["total"] == pytest.approx(row["classification"], abs=1e-12)

    def test_metrics_are_from_ema_shadow(self):
        cfg = tiny_config()
        pools = load_pools(cfg)
        result = run(cfg, seed=6, pools=pools)
        again = evaluate_params(result.ema, pools[1])
        assert again["accuracy"] == result.metrics["accuracy"]
        assert again["confusion"] == result.metrics["confusion"]

    def test_soft_pseudo_labels_are_distributions(self):
        result = run(tiny_config(gamma1=0.8), seed=8)
        saw_pseudo = False
        for s in result.state.labeled:
            if s.provenance == PSEUDO:
                saw_pseudo = True
                assert s.visible_label.sum() == pytest.approx(1.0, abs=1e-9)
                assert np.all(s.visible_label >= -1e-12)
        assert saw_pseudo

    def test_audit_collection(self):
        cfg = tiny_config()
        result = run(cfg, seed=9, collect_audits=True)
        assert result.stage_audits is not None
        stages_seen = {a.stage for a in result.stage_audits}
        assert stages_seen <= set(range(cfg.stages))
        for a in result.stage_audits:
            assert len(a.gate.reliable) == len(a.ids)
            assert len(a.pred.combined) == len(a.truth) == len(a.chosen) == a.gate.reliable.sum()
        # every migration left a pseudo-label audit row, and vice versa
        n_pseudo = len([s for s in result.state.labeled if s.provenance == PSEUDO])
        audited = [sid for a in result.stage_audits for sid in a.ids[a.chosen].tolist()]
        assert len(audited) == n_pseudo
        assert set(audited) == {s.sample_id for s in result.state.labeled if s.provenance == PSEUDO}


class TestStageRecord:
    """Each stage's pseudo-label classes are decided once, as `StageAudit.labels`."""

    def test_report_and_audit_records_read_the_labels(self):
        seen_empty = seen_chosen = False
        for seed in (0, 3, 6, 7):  # at seed 6, stages 0-3 select nothing
            result = run(ExperimentConfig(), seed, collect_audits=True)
            predicted = {}
            for rec in result.audits["pseudo"]:
                predicted.setdefault(rec["stage"], []).append(rec["predicted"])
            for report, a in zip(result.stage_reports, result.stage_audits, strict=True):
                assert a.labels.shape == a.chosen.shape and a.labels.dtype.kind == "i"
                np.testing.assert_array_equal(a.labels, a.pred.combined.argmax(axis=1))
                if len(a.chosen):
                    assert report.pseudo_accuracy == float(np.mean(a.labels == a.truth))
                else:
                    assert report.pseudo_accuracy is None
                assert (report.random_subset_accuracy is None) == (report.num_selected == 0)
                assert predicted.get(a.stage, []) == a.labels.tolist()
                seen_empty |= not len(a.chosen)
                seen_chosen |= bool(len(a.chosen))
        assert seen_empty and seen_chosen


def same_run(a, b) -> bool:
    """Two RunResults with the same metrics, weights, losses and pools, bit for bit."""
    return (
        json.dumps(a.metrics) == json.dumps(b.metrics)
        and np.array_equal(a.live.flat, b.live.flat)
        and np.array_equal(a.ema.flat, b.ema.flat)
        and a.warmup_losses == b.warmup_losses
        and [asdict(r) for r in a.stage_reports] == [asdict(r) for r in b.stage_reports]
        and np.array_equal(a.state.labeled_rows, b.state.labeled_rows)
        and np.array_equal(a.state.targets, b.state.targets)
    )


class TestLoadPools:
    """`load_pools` reads a config's pools once; every run given them matches a run that reads its own."""

    @pytest.fixture(params=["synthetic", "csv"])
    def cfg(self, request, tmp_path):
        if request.param == "synthetic":
            return tiny_config()
        spec = SyntheticSpec(class_counts=(10, 8, 6, 6), height=8, width=8)
        pool = generate(spec)
        order = np.random.default_rng(1).permutation(len(pool))  # load_pools sorts it back
        save_csv(Pool(pool.ids[order], pool.grids[order], pool.truth[order]), tmp_path / "train.csv", 4)
        test_spec = SyntheticSpec(class_counts=(4, 4, 4, 4), height=8, width=8, seed=99)
        save_csv(generate(test_spec), tmp_path / "test.csv", 4)
        return tiny_config(data_csv=str(tmp_path / "train.csv"), test_csv=str(tmp_path / "test.csv"))

    def test_every_array_refuses_writes(self, cfg):
        for pool in load_pools(cfg):
            for array in (pool.ids, pool.grids, pool.truth):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0
        labeled, _, test = build_pools(cfg, seed=0)
        assert not labeled.state.pool.grids.flags.writeable and not test.grids.flags.writeable

    def test_shared_pools_give_the_same_run(self, cfg):
        pools = load_pools(cfg)
        for seed in (2, 3):
            assert same_run(run(cfg, seed, collect_audits=True, pools=pools), run(cfg, seed, collect_audits=True))
        assert build_pools(cfg, 2, pools)[0].state.pool is pools[0]


class TestCsvPools:
    def _write(self, tmp_path, name, counts=(6, 6, 6, 6), seed=0):
        spec = SyntheticSpec(class_counts=counts, height=8, width=8, seed=seed)
        samples = generate(spec)
        path = tmp_path / name
        save_csv(samples, path, 4)
        return path

    def test_run_from_csv(self, tmp_path):
        train = self._write(tmp_path, "train.csv", counts=(10, 8, 6, 6))
        test = self._write(tmp_path, "test.csv", counts=(4, 4, 4, 4), seed=99)
        cfg = tiny_config(data_csv=str(train), test_csv=str(test), stages=1)
        result = run(cfg, seed=0)
        assert len(result.state.pool) == 30
        assert 0.0 <= result.metrics["accuracy"] <= 1.0

    def test_training_pool_sorted_by_id(self, tmp_path):
        spec = SyntheticSpec(class_counts=(6, 5, 4, 3), height=8, width=8)
        pool = generate(spec)
        order = np.random.default_rng(1).permutation(len(pool))
        train = tmp_path / "train.csv"
        save_csv(Pool(pool.ids[order], pool.grids[order], pool.truth[order]), train, 4)
        test = self._write(tmp_path, "test.csv", seed=99)
        labeled, unlabeled, _ = build_pools(tiny_config(data_csv=str(train), test_csv=str(test)), 0)
        state = labeled.state
        np.testing.assert_array_equal(state.pool.ids, pool.ids)
        np.testing.assert_array_equal(state.pool.grids, pool.grids)
        np.testing.assert_array_equal(state.pool.truth, pool.truth)
        assert (np.diff(state.labeled_rows) > 0).all() and len(labeled) + len(unlabeled) == len(pool)

    def test_missing_test_csv_rejected(self, tmp_path):
        train = self._write(tmp_path, "train.csv")
        cfg = tiny_config(data_csv=str(train))
        with pytest.raises(ConfigurationError, match="test_csv"):
            run(cfg, seed=0)

    def test_class_count_mismatch_rejected(self, tmp_path):
        train = self._write(tmp_path, "train.csv")
        test = self._write(tmp_path, "test.csv", seed=99)
        cfg = tiny_config(
            data_csv=str(train), test_csv=str(test),
            num_classes=5, class_counts=(1, 1, 1, 1, 1),
        )
        with pytest.raises(ConfigurationError, match="classes"):
            run(cfg, seed=0)


class TestRunDir:
    def test_emits_expected_artifacts(self, tmp_path):
        cfg = tiny_config()
        result = run(cfg, seed=11, collect_audits=True)
        out = tmp_path / "run"
        write_run_dir(out, cfg, 11, result)

        expected = {
            "config.txt", "loss_log.csv", "metrics.json", "stage_reports.json",
            "confusion.csv", "checkpoint.npz", "selector_audit.csv", "pseudo_audit.csv",
        }
        names = {p.name for p in out.iterdir()}
        assert expected <= names
        assert any(n.startswith("roc_class") for n in names)

        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["accuracy"] == result.metrics["accuracy"]
        assert "roc" not in metrics

        # config echo parses back to the exact config
        assert load_config(out / "config.txt") == cfg

        # loss log has warm-up plus executed stage epochs
        rows = (out / "loss_log.csv").read_text().strip().splitlines()
        expected_rows = 1 + cfg.epochs_warmup + sum(
            len(r.epoch_losses) for r in result.stage_reports
        )
        assert len(rows) == expected_rows

        reports = json.loads((out / "stage_reports.json").read_text())
        assert [r["num_selected"] for r in reports] == [
            r.num_selected for r in result.stage_reports
        ]

    def test_checkpoint_matches_run(self, tmp_path):
        from splal.model import load_checkpoint

        cfg = tiny_config()
        result = run(cfg, seed=12)
        out = tmp_path / "run"
        write_run_dir(out, cfg, 12, result)
        live, ema, meta = load_checkpoint(out / "checkpoint.npz")
        np.testing.assert_array_equal(live.classifier[0], result.live.classifier[0])
        np.testing.assert_array_equal(ema.classifier[0], result.ema.classifier[0])
        assert meta["seed"] == 12


def test_feature_batch_shape():
    # The first stage seeds the bank from one forward over the whole labeled pool.
    cfg = tiny_config(num_classes=3, class_counts=(3, 2, 2), hidden_widths=(6, 5), epochs_warmup=1,
                      epochs_stage=0)
    rng = np.random.default_rng(0)
    t = trainer(cfg, init_params(16, cfg.hidden_widths, 3, rng), rng)
    pool = pool_of(rng.uniform(size=(8, 4, 4)), [0, 0, 0, 1, 1, 2, 2, 0])
    state = DatasetState.split(pool, np.arange(7), 3)
    warmup(t, state)
    run_stage(t, state)
    queued = [f for k in range(3) for f in t.bank.queue_contents(k)]
    assert len(queued) == 7 and all(f.shape == (5,) for f in queued)


def test_baseline_run_seeds_no_bank(monkeypatch):
    # A baseline run has no stage, so nothing encodes the labeled pool or seeds the bank,
    # and the one whole-pool pass of the run is evaluate_params' over the test pool.
    cfg = tiny_config(mode="baseline")
    pools = load_pools(cfg)
    expected = run(cfg, seed=4).metrics
    passes, real = [], orchestrator._forward_rows

    def recorded(params, grids, rows=None):
        passes.append((grids, rows))
        return real(params, grids, rows)

    monkeypatch.setattr(orchestrator, "_forward_rows", recorded)
    result = run(cfg, seed=4, pools=pools)
    assert result.metrics == expected
    assert len(passes) == 1 and passes[0][0] is pools[1].grids and passes[0][1] is None


class RecordingGenerator:
    """A Generator whose `choice` calls are recorded as (a, size, replace, result)."""

    def __init__(self, rng):
        self.rng, self.choices = rng, []

    def choice(self, a, size=None, replace=True, **kwargs):
        result = self.rng.choice(a, size=size, replace=replace, **kwargs)
        self.choices.append((a, size, replace, result))
        return result

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestStageOracles:
    """What each `run_stage` call draws and migrates, checked against the stage's own report and audit."""

    @staticmethod
    def _stages(cfg, seed):
        """Warm up a run's Trainer, then yield (unlabeled count before, report, audit, trainer, state) per stage."""
        state = build_pools(cfg, seed)[0].state
        t = Trainer.start(cfg, seed, state.pool.grids[0].size)
        t.rng_audit = RecordingGenerator(t.rng_audit)
        warmup(t, state)
        while state.stage < cfg.stages:
            unlabeled = len(state.unlabeled_rows)
            yield (unlabeled, *run_stage(t, state), t, state)

    def test_first_gate_reads_the_warmed_up_labeled_features_pushed_in_row_order(self, monkeypatch):
        # Stage 0 pushes forward(warmed-up weights, labeled grids).features, in labeled-row order, before
        # its gate; its prototypes are those rows' class means. Stage 1 pushes only its retraining batches.
        cfg = tiny_config(stages=2, queue_capacity=64)
        state = build_pools(cfg, 3)[0].state
        t = Trainer.start(cfg, 3, state.pool.grids[0].size)
        warmup(t, state)
        rows, classes, warmed = state.labeled_rows, state.targets.argmax(axis=1), t.params.copy()
        gated, pushes, real_gate, real_push = [], [], orchestrator.gate, t.bank.push

        def recording_gate(prototypes, *args):
            gated.append((prototypes.copy(), [t.bank.queue_contents(k) for k in range(4)], len(pushes)))
            return real_gate(prototypes, *args)

        def recording_push(class_ids, features):
            pushes.append(len(class_ids))
            real_push(class_ids, features)

        monkeypatch.setattr(orchestrator, "gate", recording_gate)
        monkeypatch.setattr(t.bank, "push", recording_push)
        run_stage(t, state)
        stage0_pushes = len(pushes)
        run_stage(t, state)

        features = forward(warmed, state.pool.grids[rows].reshape(len(rows), -1)).features
        prototypes, queues, before_gate = gated[0]
        assert pushes[:before_gate] == [len(rows)]
        for k in range(4):
            assert np.array_equal(np.stack(queues[k]), features[classes == k])
            assert np.array_equal(prototypes[k], features[classes == k].mean(axis=0))
        stage1_batches = cfg.epochs_stage * -(-len(state.labeled_rows) // cfg.batch_size)  # after its migration
        assert gated[1][2] == stage0_pushes and len(pushes) == stage0_pushes + stage1_batches

    def test_control_arm_is_distinct_unlabeled_rows(self):
        cfg = tiny_config(stages=3)  # seed 3 selects 10, 6 and 0 rows
        expected = []
        for unlabeled, report, _, t, _ in self._stages(cfg, seed=3):
            n = report.num_selected
            if n:
                expected.append((unlabeled, n, False))
                hits = round(report.random_subset_accuracy * n)
                assert report.random_subset_accuracy == hits / n
            else:
                assert report.random_subset_accuracy is None
        assert expected, "no stage selected a row"
        draws = t.rng_audit.choices
        assert [(a, size, replace) for a, size, replace, _ in draws] == expected
        for a, size, _, rows in draws:
            assert len(np.unique(rows)) == size and 0 <= rows.min() and rows.max() < a

    def test_soft_targets_are_the_combined_rows(self):
        cfg = tiny_config(stages=3)
        selected = 0
        for _, report, audit, _, state in self._stages(cfg, seed=3):
            n = report.num_selected
            assert np.array_equal(state.targets[len(state.targets) - n :], audit.pred.combined)
            selected += n
        assert selected

    def test_ema_is_the_closed_form_decayed_average(self, monkeypatch):
        # The teacher ends as rho^T s0 + (1 - rho) sum_t rho^(T - t) w_t: s0 the
        # warmed-up weights, w_t the live weights after each later Adam step.
        # The steps are recorded at the optimizer, so a skipped update shows.
        cfg = tiny_config(stages=3)
        start, live = [], []
        real_warmup, real_step = orchestrator.warmup, orchestrator.adam_step

        def recording_warmup(t, state):
            logs = real_warmup(t, state)
            start.append(t.params.flat.copy())
            return logs

        def recording_step(params, grads, opt):
            real_step(params, grads, opt)
            if start:
                live.append(params.flat.copy())

        monkeypatch.setattr(orchestrator, "warmup", recording_warmup)
        monkeypatch.setattr(orchestrator, "adam_step", recording_step)
        result = run(cfg, seed=3)
        assert len(result.stage_reports) == 3 and live
        rho, T = cfg.ema_decay, len(live)
        expected = rho**T * start[0] + (1 - rho) * sum(rho ** (T - i) * w for i, w in enumerate(live, 1))
        assert np.linalg.norm(result.ema.flat - expected) <= 1e-12 * np.linalg.norm(expected)
