import json
import tracemalloc

import numpy as np
import pytest

from splal import orchestrator
from splal.config import ExperimentConfig, load_config
from splal.data import GROUND_TRUTH, PSEUDO, Pool, SyntheticSpec, generate, save_csv, split_labeled
from splal.errors import ConfigurationError, TrainingError
from splal.model import OptimizerState, init_params
from splal.orchestrator import (
    _synthetic_pool,
    STREAM_AUGMENT,
    STREAM_INIT,
    STREAM_SHUFFLE,
    STREAM_SPLIT,
    DatasetState,
    _train_epochs,
    build_pools,
    evaluate_params,
    run,
    substream,
    warmup,
    write_run_dir,
)
from splal.prototypes import PrototypeBank

from helpers import train_epochs_per_batch


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
    def test_missing_class_rejected(self):
        cfg = tiny_config()
        rng = np.random.default_rng(0)
        params = init_params(64, cfg.hidden_widths, 4, rng)
        opt = OptimizerState.for_params(params, cfg.learning_rate)
        bank = PrototypeBank(4, params.feature_dim, cfg.queue_capacity)
        state = DatasetState.split(pool_of(rng.uniform(size=(2, 8, 8)), [0, 1]), np.arange(2), 4)
        warmup(params, opt, state, cfg, rng, rng, bank)
        with pytest.raises(ConfigurationError, match=r"^unseeded class queues: \[2, 3\]$"):
            bank.prototypes()

    def test_empty_labeled_pool_names_every_class(self):
        cfg = tiny_config()
        rng = np.random.default_rng(0)
        params = init_params(64, cfg.hidden_widths, 4, rng)
        opt = OptimizerState.for_params(params, cfg.learning_rate)
        bank = PrototypeBank(4, params.feature_dim, cfg.queue_capacity)
        state = DatasetState.split(pool_of(rng.uniform(size=(2, 8, 8)), [0, 1]), np.arange(0), 4)
        warmup(params, opt, state, cfg, rng, rng, bank)
        with pytest.raises(ConfigurationError) as err:
            bank.prototypes()
        assert str(err.value) == "unseeded class queues: [0, 1, 2, 3]"

    def test_seeds_every_class_queue(self):
        cfg = tiny_config()
        rng = np.random.default_rng(1)
        params = init_params(64, cfg.hidden_widths, 4, rng)
        opt = OptimizerState.for_params(params, cfg.learning_rate)
        bank = PrototypeBank(4, params.feature_dim, cfg.queue_capacity)
        state = DatasetState.split(pool_of(rng.uniform(size=(6, 8, 8)), [0, 1, 2, 3, 0, 2]), np.arange(6), 4)
        ema, logs = warmup(params, opt, state, cfg, rng, rng, bank)
        assert len(logs) == cfg.epochs_warmup
        assert [len(bank.queue_contents(k)) for k in range(4)] == [2, 1, 2, 1]
        # EMA shadow starts as an exact copy of the post-warm-up weights
        np.testing.assert_array_equal(ema.classifier[0], params.classifier[0])


class TestStrongViewCache:
    """`_train_epochs` blurs the labeled rows once per call; the bits match blurring every batch."""

    @staticmethod
    def _setup(n_pool, side, labeled_rows, cfg, seed=0):
        rng = np.random.default_rng(seed)
        pool = pool_of(rng.uniform(size=(n_pool, side, side)), rng.integers(0, 4, size=n_pool))
        state = DatasetState.split(pool, labeled_rows, 4)
        params = init_params(side * side, cfg.hidden_widths, 4, np.random.default_rng(seed + 1))
        opt = OptimizerState.for_params(params, cfg.learning_rate)
        ema = params.copy()
        bank = PrototypeBank(4, params.feature_dim, cfg.queue_capacity)
        return state, params, opt, ema, bank

    def test_matches_per_batch_reference(self):
        # 45 labeled rows (not a multiple of the batch size 16), out of order as after a migration
        cfg = tiny_config(queue_capacity=8)
        rows = np.random.default_rng(5).permutation(61)[:45]
        runs = []
        for train in (_train_epochs, train_epochs_per_batch):
            state, params, opt, ema, bank = self._setup(61, 8, rows, cfg)
            shuffle, augment = np.random.default_rng(7), np.random.default_rng(8)
            logs = train(params, opt, ema, state, 3, cfg, shuffle, augment, bank=bank, stage=1)
            runs.append((logs, params, opt, ema, bank, shuffle, augment))
        (logs, params, opt, ema, bank, shuffle, augment), ref = runs
        assert logs == ref[0]
        assert np.array_equal(params.flat, ref[1].flat)
        assert np.array_equal(opt.m, ref[2].m) and np.array_equal(opt.v, ref[2].v)
        assert np.array_equal(ema.flat, ref[3].flat)
        for k in range(4):
            assert np.array_equal(bank.queue_contents(k), ref[4].queue_contents(k))
        assert shuffle.bit_generator.state == ref[5].bit_generator.state
        assert augment.bit_generator.state == ref[6].bit_generator.state

    def test_no_epochs_no_blur(self, monkeypatch):
        cfg = tiny_config()
        state, params, opt, _, _ = self._setup(20, 8, np.arange(20), cfg)
        rng, blurred = np.random.default_rng(0), []
        monkeypatch.setattr(orchestrator, "strong_augment", blurred.append)
        assert _train_epochs(params, opt, None, state, 0, cfg, rng, rng) == []
        assert blurred == []

    def test_cache_is_filled_in_chunks(self):
        # numpy reports its buffers to tracemalloc; blurring all n rows in one
        # call peaks at ~4x the (n, H, W) cache, chunk by chunk at ~1x.
        cfg = tiny_config(batch_size=32)
        n = 3000
        state, params, opt, _, _ = self._setup(n, 16, np.arange(n), cfg)
        cache_bytes = n * 16 * 16 * 8
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            _train_epochs(params, opt, None, state, 1, cfg, rng, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cache_bytes <= peak < 2 * cache_bytes


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
        result = run(cfg, seed=6)
        again = evaluate_params(result.ema, result.test_samples)
        assert again["accuracy"] == result.metrics["accuracy"]
        assert again["confusion"] == result.metrics["confusion"]

    def test_hard_pseudo_label_switch(self):
        result = run(tiny_config(soft_pseudo_labels=False, gamma1=0.8), seed=8)
        for s in result.state.labeled:
            if s.provenance == PSEUDO:
                assert sorted(set(np.round(s.visible_label, 12))) in ([0.0, 1.0], [1.0])
                assert s.visible_label.sum() == pytest.approx(1.0, abs=1e-12)

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


class TestSyntheticPoolCache:
    def test_pools_are_read_only_and_a_second_run_matches_a_fresh_one(self):
        cfg = tiny_config()
        _synthetic_pool.cache_clear()
        fresh = run(cfg, seed=2)
        labeled, _, test = build_pools(cfg, seed=2)
        assert _synthetic_pool.cache_info().hits == 2
        for pool in (labeled.state.pool, test):
            for array in (pool.ids, pool.grids, pool.truth):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0
        again = run(cfg, seed=2)
        assert _synthetic_pool.cache_info().hits == 4
        assert json.dumps(again.metrics) == json.dumps(fresh.metrics)
        assert np.array_equal(again.live.flat, fresh.live.flat)
        assert np.array_equal(again.ema.flat, fresh.ema.flat)
        assert again.warmup_losses == fresh.warmup_losses


class TestCsvPools:
    def _write(self, tmp_path, name, counts=(6, 6, 6, 6), seed=0):
        spec = SyntheticSpec(class_counts=counts, height=8, width=8, seed=seed)
        samples = generate(spec)
        path = tmp_path / name
        save_csv(samples, path, 4)
        return path

    def test_csv_pools_are_not_cached(self, tmp_path):
        train = self._write(tmp_path, "train.csv")
        test = self._write(tmp_path, "test.csv", seed=1)
        _synthetic_pool.cache_clear()
        labeled, _, _ = build_pools(tiny_config(data_csv=str(train), test_csv=str(test)), seed=0)
        assert _synthetic_pool.cache_info().currsize == 0
        assert labeled.state.pool.grids.flags.writeable

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
    # warmup seeds the bank from one forward over the whole labeled pool.
    cfg = tiny_config(num_classes=3, class_counts=(3, 2, 2), hidden_widths=(6, 5), epochs_warmup=1)
    rng = np.random.default_rng(0)
    params = init_params(16, cfg.hidden_widths, 3, rng)
    opt = OptimizerState.for_params(params, cfg.learning_rate)
    bank = PrototypeBank(3, params.feature_dim, cfg.queue_capacity)
    state = DatasetState.split(pool_of(rng.uniform(size=(7, 4, 4)), [0, 0, 0, 1, 1, 2, 2]), np.arange(7), 3)
    warmup(params, opt, state, cfg, rng, rng, bank)
    queued = [f for k in range(3) for f in bank.queue_contents(k)]
    assert len(queued) == 7 and all(f.shape == (5,) for f in queued)
