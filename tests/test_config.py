import math
import re
from dataclasses import asdict, fields
from pathlib import Path

import pytest

import numpy as np

from splal.cli import main
from splal.config import ExperimentConfig, config_to_text, load_config, parse_config
from splal.data import SyntheticSpec
from splal.errors import ConfigurationError, InputDomainError
from splal.loss import total_loss
from splal.model import init_params
from splal.pseudo import combine
from splal.selector import gate

README = Path(__file__).resolve().parents[1] / "README.md"

# A value other than the default for every field, so each annotation's parser
# and the echo are exercised; a field added without a parser fails here.
NON_DEFAULT = dict(
    data_csv="train.csv", test_csv="test.csv", num_classes=3, class_counts=(7, 5, 3),
    height=9, width=10, noise_sigma=0.25, data_seed=4, test_per_class=6, labeled_ratio=0.3,
    gamma1=0.95, gamma2=0.02, temperature=0.2, alpha1=0.3, alpha2=0.3, alpha3=0.4, knn_k=7,
    lam1=0.7, lam2=0.3, hidden_widths=(8, 4), learning_rate=0.005, ema_decay=0.9,
    stages=2, epochs_warmup=3, epochs_stage=4, batch_size=16, queue_capacity=32,
    seeds=(3, 1, 2), mode="baseline",
)


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
            ({"gamma1": 0.25, "gamma2": 0.1}, "gamma1"),  # gamma1 <= 1/K
            ({"seeds": ()}, "seeds"),
            ({"seeds": (1, 1)}, "seeds"),
            ({"test_per_class": 0}, "test_per_class"),
            ({"seeds": (0, -1)}, "seeds: must lie in [0, inf), got -1"),
            ({"data_seed": -2}, "data_seed: must lie in [0, inf), got -2"),
            ({"ema_decay": float("nan")}, "ema_decay: must lie in [0, 1], got nan"),
            ({"learning_rate": float("inf")}, "learning_rate: must lie in (0, inf), got inf"),
            ({"hidden_widths": (8, 0)}, "hidden_widths: must lie in [1, 9223372036854775807], got 0"),
            ({"height": 100_000, "width": 100_000}, "height/width: one row of a 100000x100000 grid"),
            ({"class_counts": (2**62, 2**62, 1, 1)}, "class_counts: the total"),
            ({"test_per_class": 10**20}, "test_per_class: the test set's class_counts: the total 4"),
            ({"test_per_class": 2**61}, "test_per_class: the test set's class_counts: the total"),
            ({"temperature": 1e-310}, "temperature"),  # 1 / temperature overflows
            ({"temperature": 6e-309}, "temperature"),  # 1 / temperature is finite, 2 / temperature is not
            ({"queue_capacity": 2**63}, "queue_capacity: must lie in [1, "),
            ({"hidden_widths": (8, 10**20)}, "hidden_widths: must lie in [1, 9223372036854775807], got 10000"),
        ],
    )
    def test_rejections_name_the_field(self, kwargs, field):
        cfg = ExperimentConfig(**kwargs)
        with pytest.raises(ConfigurationError) as err:
            cfg.validate()
        assert field in str(err.value)

    def test_tiny_normal_temperature_passes(self):
        assert ExperimentConfig(temperature=1e-300).validate() == []

    def test_unattainable_gate_warns_but_passes(self):
        cfg = ExperimentConfig(temperature=1.0, num_classes=7, class_counts=(10,) * 7)
        with pytest.warns(UserWarning, match="unattainable"):
            notes = cfg.validate()
        assert len(notes) == 1

    @pytest.mark.parametrize("num_classes,gamma1", [(4, 0.25), (2, 0.5), (3, 1 / 3), (4, 0.2)])
    def test_gamma1_at_or_below_chance_rejected(self, num_classes, gamma1):
        # A uniform posterior would pass such a gate; the selector rejects it
        # at stage 1, so validation must reject it before the warm-up.
        cfg = ExperimentConfig(num_classes=num_classes, class_counts=(9,) * num_classes,
                               gamma1=gamma1, gamma2=0.1 * gamma1)
        with pytest.raises(ConfigurationError, match="^gamma1: "):
            cfg.validate()

    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("lam1/lam2", {"lam1": 0.7, "lam2": 0.4}),
            ("lam1/lam2", {"lam1": 1.1, "lam2": -0.1}),
            ("alpha1/alpha2/alpha3", {"alpha1": 0.5, "alpha2": 0.5, "alpha3": 0.5}),
            ("alpha1/alpha2/alpha3", {"alpha1": -0.1, "alpha2": 0.4, "alpha3": 0.7}),
            ("gamma1", {"gamma1": 0.2, "gamma2": 0.1}),  # 1/K = 0.25
            ("gamma1", {"gamma1": 1.5, "gamma2": 0.1}),
            ("gamma2", {"gamma1": 0.9, "gamma2": 0.95}),
            ("gamma2", {"gamma1": 0.9, "gamma2": -0.1}),
            ("temperature", {"temperature": 0.0}),
            ("temperature", {"temperature": -1.0}),
            ("temperature", {"temperature": 1e-310}),
            ("temperature", {"temperature": 6e-309}),
        ],
    )
    def test_config_and_library_call_raise_the_same_text(self, field, kwargs):
        # Each rule is checked in one place: the call that consumes the value
        # raises what validate() raises for the same values.
        cfg = ExperimentConfig(**kwargs)
        with pytest.raises(ConfigurationError) as from_config:
            cfg.validate()
        rng = np.random.default_rng(0)
        grids = rng.uniform(size=(2, 8, 8))
        p, eye = np.full(4, 0.25), np.eye(cfg.num_classes)
        with pytest.raises(ConfigurationError) as from_call:
            if field == "lam1/lam2":
                params = init_params(64, (8,), 4, rng)
                total_loss(params, grids, np.eye(4)[[0, 1]], 1.0, grids, grids, cfg.lam1, cfg.lam2)
            elif field == "alpha1/alpha2/alpha3":
                combine(p, p, p, (cfg.alpha1, cfg.alpha2, cfg.alpha3))
            else:
                gate(eye, eye, cfg.gamma1, cfg.effective_gamma2(), cfg.temperature)
        assert str(from_config.value).startswith(f"{field}: ")
        assert str(from_call.value) == str(from_config.value)

    def test_csv_mode_skips_synthetic_checks(self):
        cfg = ExperimentConfig(data_csv="d.csv", test_csv="t.csv", class_counts=(1, 2))
        assert cfg.validate() == []


# Numeric fields with no declared domain: the gate's (check_gate) and the weight sets' (check_convex)
# rules span fields, and the config's synthetic-data keys are checked through SyntheticSpec only.
CROSS_FIELD = ("gamma1", "gamma2", "temperature", "alpha1", "alpha2", "alpha3", "lam1", "lam2",
               "class_counts", "height", "width", "noise_sigma")
NUMERIC = ("int", "float", "float | None", "tuple[int, ...]")


def declared(cls):
    """(name, annotation, interval) of each field of `cls` declared with a domain."""
    return [(f.name, f.type, f.metadata["interval"]) for f in fields(cls) if "interval" in f.metadata]


def edge_values(annotation: str, interval: str):
    """(value, inside) just inside and just outside each finite end, then nan, inf and -inf for a float."""
    cases = []
    for end, closed, outward in zip(interval[1:-1].split(", "), (interval[0] == "[", interval[-1] == "]"), (-1, 1)):
        if end.lstrip("-") == "inf":
            continue
        if annotation == "float":
            e = float(end)
            inner, outer = math.nextafter(e, -outward * math.inf), math.nextafter(e, outward * math.inf)
        else:
            e = int(end)
            inner, outer = e - outward, e + outward
        cases += [(e, True), (outer, False)] if closed else [(inner, True), (e, False)]
    return cases + [(v, False) for v in (math.nan, math.inf, -math.inf) if annotation.startswith("float")]


def overrides(name: str, annotation: str, value) -> dict:
    """Config or spec keyword arguments that set field `name`, or each entry of it, to `value`."""
    if name == "class_counts":
        return {name: (value,) * SyntheticSpec.num_classes}
    if name == "num_classes":
        return {name: value, "class_counts": (9,) * max(value, 0)}
    return {name: (value,) if annotation.startswith("tuple") else value}


EDGES = [
    pytest.param(cls, f.name, f.type, f.metadata.get("interval"), value, inside, id=f"{cls.__name__}.{f.name}={value}")
    for cls in (ExperimentConfig, SyntheticSpec)
    for f in fields(cls)
    for value, inside in edge_values(f.type, f.metadata.get("interval", "(-inf, inf)"))
]


class TestDomains:
    def test_every_numeric_field_is_declared_or_cross_field(self):
        for cls in (ExperimentConfig, SyntheticSpec):
            numeric = {f.name for f in fields(cls) if f.type in NUMERIC}
            assert numeric - {name for name, *_ in declared(cls)} <= set(CROSS_FIELD), cls.__name__

    def test_readme_lists_every_declared_domain(self):
        text = README.read_text()
        for cls in (ExperimentConfig, SyntheticSpec):
            for name, _, interval in declared(cls):
                assert f"| `{name}` | {interval} |" in text, name

    @pytest.mark.parametrize("cls,name,annotation,interval,value,inside", EDGES)
    def test_edges_of_each_domain(self, tmp_path, capsys, cls, name, annotation, interval, value, inside):
        # A spec field is checked alone, then through the config key that mirrors it.
        kwargs = overrides(name, annotation, value)
        if cls is SyntheticSpec:
            spec = SyntheticSpec(**kwargs)
            if inside:
                spec.validate()
            else:
                with pytest.raises(InputDomainError, match=f"^{name}: "):
                    spec.validate()
            kwargs = {("data_seed" if key == "seed" else key): v for key, v in kwargs.items()}
            name = "data_seed" if name == "seed" else name
        cfg = ExperimentConfig(**kwargs)
        if inside:
            cfg.validate()
            return
        path, out = tmp_path / "exp.cfg", tmp_path / "o"
        path.write_text(config_to_text(cfg))
        assert main(["train", "--config", str(path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        if interval:
            assert err == f"config error: {name}: must lie in {interval}, got {value}\n"
        assert not out.exists()


class TestParsing:
    def test_round_trip_through_text(self):
        cfg = ExperimentConfig(
            gamma1=0.95, temperature=0.2, seeds=(3, 4, 5), hidden_widths=(8, 4),
            mode="baseline", data_csv="x.csv",
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
            mode = baseline
            data_csv = none
            """
        )
        assert cfg.gamma1 == 0.9
        assert cfg.gamma2 is None
        assert cfg.seeds == (1, 2, 3)
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

    def test_every_field_round_trips(self):
        default = asdict(ExperimentConfig())
        assert set(NON_DEFAULT) == set(default)
        assert all(NON_DEFAULT[name] != default[name] for name in default)
        cfg = ExperimentConfig(**NON_DEFAULT)
        assert parse_config(config_to_text(cfg)) == cfg

    def test_every_spec_field_round_trips(self):
        spec = SyntheticSpec(num_classes=3, class_counts=(4, 3, 2), height=9, width=11,
                             noise_sigma=0.05, seed=7)
        assert all(getattr(spec, f.name) != f.default for f in fields(SyntheticSpec))
        assert parse_config(config_to_text(spec), SyntheticSpec, "spec") == spec

    @pytest.mark.parametrize("key", [
        "pseudo_weight", "pseudo_in_queue", "ema_for_pseudo_labeling", "stop_gradient",
        "adam_beta1", "adam_beta2", "adam_eps", "soft_pseudo_labels",
    ])
    def test_retired_key_is_unknown(self, key):
        with pytest.raises(ConfigurationError, match=f"unknown key '{key}'"):
            parse_config(f"{key} = 1")

    def test_readme_example_parses_and_validates(self):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        cfg = parse_config(block)
        assert cfg.validate() == []
        assert (cfg.seeds, cfg.gamma2, cfg.lam2, cfg.mode) == ((0, 1, 2, 3, 4), None, 0.40, "splal")

    def test_bad_tuple_rejected(self):
        with pytest.raises(ConfigurationError, match="seeds"):
            parse_config("seeds = 1,two")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("gamma1 = 0.95\nstages = 2\n")
        cfg = load_config(path)
        assert cfg.gamma1 == 0.95
        assert cfg.stages == 2
