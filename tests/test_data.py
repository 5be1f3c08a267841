import numpy as np
import pytest

from splal.data import (
    GROUND_TRUTH,
    SyntheticSpec,
    balanced_test_spec,
    generate,
    load_csv,
    render_pattern,
    save_csv,
    split_labeled,
    write_manifest,
)
from splal.errors import InputDomainError, ParseError

DEFAULT = SyntheticSpec()


class TestGenerate:
    def test_counts_and_order(self):
        samples = generate(DEFAULT)
        assert len(samples) == 780
        counts = {k: 0 for k in range(4)}
        for i, s in enumerate(samples):
            assert s.sample_id == i
            counts[s.true_label] += 1
        assert counts == {0: 500, 1: 200, 2: 60, 3: 20}

    def test_values_clipped_to_unit_interval(self):
        for s in generate(SyntheticSpec(class_counts=(5, 5, 5, 5))):
            assert s.grid.shape == (16, 16)
            assert s.grid.min() >= 0.0
            assert s.grid.max() <= 1.0

    def test_deterministic_for_same_seed(self):
        a = generate(SyntheticSpec(class_counts=(3, 3, 3, 3), seed=7))
        b = generate(SyntheticSpec(class_counts=(3, 3, 3, 3), seed=7))
        for s, t in zip(a, b):
            np.testing.assert_array_equal(s.grid, t.grid)

    def test_seed_changes_data(self):
        a = generate(SyntheticSpec(class_counts=(3, 3, 3, 3), seed=7))
        b = generate(SyntheticSpec(class_counts=(3, 3, 3, 3), seed=8))
        assert any(not np.array_equal(s.grid, t.grid) for s, t in zip(a, b))

    def test_matches_per_sample_oracle(self):
        # render_pattern per sample (coordinates rebuilt each time), then the
        # noise draw, from a twin generator; class 4 adds the grating.
        spec = SyntheticSpec(num_classes=5, class_counts=(3, 2, 2, 1, 2), height=8, width=10, seed=4)
        twin = np.random.default_rng(np.random.SeedSequence(spec.seed))
        for s in generate(spec):
            clean = render_pattern(s.true_label, spec.height, spec.width, twin)
            noisy = clean + twin.normal(0.0, spec.noise_sigma, size=clean.shape)
            assert np.array_equal(s.grid, np.clip(noisy, 0.0, 1.0))

    def test_spec_validation(self):
        with pytest.raises(InputDomainError):
            generate(SyntheticSpec(height=4))
        with pytest.raises(InputDomainError):
            generate(SyntheticSpec(class_counts=(5, 5)))
        with pytest.raises(InputDomainError):
            generate(SyntheticSpec(class_counts=(5, 5, 5, 0)))


class TestPatternSymmetry:
    @pytest.mark.parametrize("class_id", range(6))
    def test_flip_invariance(self, class_id):
        # noise-free patterns must be exactly symmetric under both flips so
        # the flip augmentation cannot change the class identity
        rng = np.random.default_rng(class_id)
        p = render_pattern(class_id, 16, 16, rng)
        np.testing.assert_array_equal(p, p[:, ::-1])
        np.testing.assert_array_equal(p, p[::-1, :])


class TestBalancedTestSpec:
    def test_balanced_counts_disjoint_seed(self):
        spec = balanced_test_spec(DEFAULT, per_class=50)
        assert spec.class_counts == (50, 50, 50, 50)
        assert spec.seed == DEFAULT.seed + 10_000
        assert spec.height == DEFAULT.height


class TestSplit:
    def test_stratified_ceil_counts(self):
        samples = generate(DEFAULT)
        labeled, unlabeled = split_labeled(samples, 0.10, seed=0)
        by_class = {k: 0 for k in range(4)}
        for s in labeled:
            assert s.provenance == GROUND_TRUTH
            assert int(np.argmax(s.visible_label)) == s.true_label
            by_class[s.true_label] += 1
        assert by_class == {0: 50, 1: 20, 2: 6, 3: 2}
        assert len(labeled) + len(unlabeled) == len(samples)
        for s in unlabeled:
            assert s.visible_label is None

    def test_minimum_one_per_class(self):
        samples = generate(SyntheticSpec(class_counts=(40, 40, 40, 3)))
        labeled, _ = split_labeled(samples, 0.01, seed=1)
        per = {k: 0 for k in range(4)}
        for s in labeled:
            per[s.true_label] += 1
        assert all(v >= 1 for v in per.values())
        assert per[3] == 1  # ceil(0.01 * 3) = 1

    def test_disjoint_ids(self):
        samples = generate(SyntheticSpec(class_counts=(10, 10, 10, 10)))
        labeled, unlabeled = split_labeled(samples, 0.3, seed=2)
        ids_l = {s.sample_id for s in labeled}
        ids_u = {s.sample_id for s in unlabeled}
        assert not (ids_l & ids_u)
        assert ids_l | ids_u == {s.sample_id for s in samples}

    def test_split_deterministic(self):
        a = generate(SyntheticSpec(class_counts=(20, 20, 20, 20)))
        b = generate(SyntheticSpec(class_counts=(20, 20, 20, 20)))
        la, _ = split_labeled(a, 0.25, seed=3)
        lb, _ = split_labeled(b, 0.25, seed=3)
        assert [s.sample_id for s in la] == [s.sample_id for s in lb]

    def test_bad_ratio_rejected(self):
        samples = generate(SyntheticSpec(class_counts=(5, 5, 5, 5)))
        for ratio in (0.0, -0.1, 1.5):
            with pytest.raises(InputDomainError):
                split_labeled(samples, ratio, seed=0)


class TestCsvRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        samples = generate(SyntheticSpec(class_counts=(4, 3, 2, 1)))
        labeled, unlabeled = split_labeled(samples, 0.5, seed=0)
        for s in unlabeled:
            s.true_label = None  # persist them as unlabeled rows
        path = tmp_path / "data.csv"
        save_csv(samples, path, 16, 16, 4)
        loaded, h, w, k = load_csv(path)
        assert (h, w, k) == (16, 16, 4)
        assert len(loaded) == len(samples)
        for orig, got in zip(samples, loaded):
            assert got.sample_id == orig.sample_id
            assert got.true_label == orig.true_label
            np.testing.assert_array_equal(got.grid, orig.grid)

    def test_metadata_line_format(self, tmp_path):
        path = tmp_path / "d.csv"
        save_csv([], path, 8, 9, 3)
        assert path.read_text().splitlines()[0] == "# H=8 W=9 K=3"

    def test_missing_metadata_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,p0\n0,0,0.5\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 1

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# H=8 W=8 K=2\n" + ",".join(["id", "label"] + [f"p{i}" for i in range(64)]) + "\n0,0,0.5\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 3

    def test_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = ",".join(["id", "label"] + [f"p{i}" for i in range(4)])
        row = "0,5," + ",".join(["0.0"] * 4)
        path.write_text("# H=2 W=2 K=2\n" + header + "\n" + row + "\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_non_numeric_pixel_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = ",".join(["id", "label"] + [f"p{i}" for i in range(4)])
        path.write_text("# H=2 W=2 K=2\n" + header + "\n0,0,0.1,x,0.3,0.4\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_pixel_rejected(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        header = ",".join(["id", "label"] + [f"p{i}" for i in range(4)])
        path.write_text(
            "# H=2 W=2 K=2\n" + header + f"\n0,0,0.1,0.2,0.3,0.4\n1,1,0.1,{value},0.3,0.4\n"
        )
        with pytest.raises(ParseError, match="non-finite") as err:
            load_csv(path)
        assert err.value.line == 4

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = ",".join(["id", "label"] + [f"p{i}" for i in range(4)])
        rows = ["7,0,0.1,0.2,0.3,0.4", "8,1,0.1,0.2,0.3,0.4", "7,1,0.5,0.5,0.5,0.5"]
        path.write_text("# H=2 W=2 K=2\n" + header + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match="duplicate sample id 7.*line 3") as err:
            load_csv(path)
        assert err.value.line == 5


def test_manifest_contents(tmp_path):
    import json

    spec = SyntheticSpec(class_counts=(2, 2, 2, 2), seed=5)
    samples = generate(spec)
    csv_path = tmp_path / "d.csv"
    save_csv(samples, csv_path, 16, 16, 4)
    manifest_path = tmp_path / "d.manifest.json"
    write_manifest(manifest_path, spec, csv_path)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["class_counts"] == [2, 2, 2, 2]
    assert manifest["seed"] == 5
    assert len(manifest["csv_sha256"]) == 64
