import pytest

from splal.config import ExperimentConfig, config_to_text, load_config, parse_config
from splal.errors import ConfigurationError


class TestDefaults:
    def test_default_operating_point(self):
        cfg = ExperimentConfig()
        assert cfg.gamma1 == 0.99
        assert cfg.effective_gamma2() == pytest.approx(0.005, abs=1e-15)
        assert (cfg.alpha1, cfg.alpha2, cfg.alpha3) == (0.20, 0.10, 0.70)
        assert (cfg.lam1, cfg.lam2) == (0.60, 0.40)
        assert cfg.class_counts == (500, 200, 60, 20)
        assert cfg.labeled_ratio == 0.10
        assert cfg.validate() == []

    def test_explicit_gamma2_overrides_coupling(self):
        cfg = ExperimentConfig(gamma2=0.01)
        assert cfg.effective_gamma2() == 0.01


class TestNormalized:
    def test_baseline_disables_staging_and_alignment(self):
        cfg = ExperimentConfig(mode="baseline").normalized()
        assert cfg.stages == 0
        assert cfg.lam1 == 1.0
        assert cfg.lam2 == 0.0

    def test_splal_unchanged(self):
        cfg = ExperimentConfig()
        assert cfg.normalized() is cfg


class TestValidate:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"mode": "bogus"}, "mode"),
            ({"num_classes": 1, "class_counts": (5,)}, "num_classes"),
            ({"class_counts": (1, 2)}, "class_counts"),
            ({"height": 4}, "height"),
            ({"noise_sigma": -0.1}, "noise_sigma"),
            ({"labeled_ratio": 0.0}, "labeled_ratio"),
            ({"labeled_ratio": 1.5}, "labeled_ratio"),
            ({"lam1": 0.5, "lam2": 0.6}, "lam1"),
            ({"alpha1": 0.5, "alpha2": 0.5, "alpha3": 0.5}, "alpha"),
            ({"gamma1": 0.0}, "gamma1"),
            ({"gamma1": 1.2}, "gamma1"),
            ({"gamma2": 0.995}, "gamma2"),
            ({"temperature": 0.0}, "temperature"),
            ({"knn_k": 0}, "knn_k"),
            ({"ema_decay": 1.5}, "ema_decay"),
            ({"learning_rate": 0.0}, "learning_rate"),
            ({"stages": -1}, "stages"),
            ({"batch_size": 0}, "batch_size"),
            ({"queue_capacity": 0}, "queue_capacity"),
            ({"pseudo_weight": 0.0}, "pseudo_weight"),
            ({"seeds": ()}, "seeds"),
            ({"seeds": (1, 1)}, "seeds"),
        ],
    )
    def test_rejections_name_the_field(self, kwargs, field):
        cfg = ExperimentConfig(**kwargs)
        with pytest.raises(ConfigurationError) as err:
            cfg.validate()
        assert field in str(err.value)

    def test_unattainable_gate_warns_but_passes(self):
        cfg = ExperimentConfig(temperature=1.0, num_classes=7, class_counts=(10,) * 7)
        with pytest.warns(UserWarning, match="unattainable"):
            notes = cfg.validate()
        assert len(notes) == 1

    def test_csv_mode_skips_synthetic_checks(self):
        cfg = ExperimentConfig(data_csv="d.csv", test_csv="t.csv", class_counts=(1, 2))
        assert cfg.validate() == []


class TestParsing:
    def test_round_trip_through_text(self):
        cfg = ExperimentConfig(
            gamma1=0.95, temperature=0.2, seeds=(3, 4, 5), hidden_widths=(8, 4),
            mode="baseline", stop_gradient=False, data_csv="x.csv",
        )
        again = parse_config(config_to_text(cfg))
        assert again == cfg

    def test_basic_keys(self):
        cfg = parse_config(
            """
            # comment
            gamma1 = 0.9
            gamma2 = auto
            seeds = 1,2,3
            stop_gradient = false
            mode = baseline
            data_csv = none
            """
        )
        assert cfg.gamma1 == 0.9
        assert cfg.gamma2 is None
        assert cfg.seeds == (1, 2, 3)
        assert cfg.stop_gradient is False
        assert cfg.mode == "baseline"
        assert cfg.data_csv is None

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigurationError, match="line 1"):
            parse_config("bogus_key = 1")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("gamma1 0.9")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigurationError, match="gamma1"):
            parse_config("gamma1 = high")

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigurationError, match="stop_gradient"):
            parse_config("stop_gradient = maybe")

    def test_bad_tuple_rejected(self):
        with pytest.raises(ConfigurationError, match="seeds"):
            parse_config("seeds = 1,two")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("gamma1 = 0.95\nstages = 2\n")
        cfg = load_config(path)
        assert cfg.gamma1 == 0.95
        assert cfg.stages == 2
