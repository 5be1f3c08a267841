import hashlib
import pickle

import numpy as np
import pytest

from splal import data
from splal.data import (
    CSV_CACHE_VERSION,
    Pool,
    SyntheticSpec,
    balanced_test_spec,
    file_sha256,
    generate,
    load_csv,
    save_csv,
    split_labeled,
    write_manifest,
)
from splal.errors import InputDomainError, ParseError

from helpers import render_pattern

DEFAULT = SyntheticSpec()


class TestGenerate:
    def test_counts_and_order(self):
        samples = generate(DEFAULT)
        assert len(samples) == 780
        np.testing.assert_array_equal(samples.ids, np.arange(780))
        assert samples.grids.shape == (780, 16, 16)
        assert np.bincount(samples.truth).tolist() == [500, 200, 60, 20]
        assert (np.diff(samples.truth) >= 0).all()  # class order

    def test_values_clipped_to_unit_interval(self):
        grids = generate(SyntheticSpec(class_counts=(5, 5, 5, 5))).grids
        assert grids.shape == (20, 16, 16)
        assert grids.min() >= 0.0
        assert grids.max() <= 1.0

    def test_deterministic_for_same_seed(self):
        a = generate(SyntheticSpec(class_counts=(3, 3, 3, 3), seed=7))
        b = generate(SyntheticSpec(class_counts=(3, 3, 3, 3), seed=7))
        np.testing.assert_array_equal(a.grids, b.grids)

    def test_seed_changes_data(self):
        a = generate(SyntheticSpec(class_counts=(3, 3, 3, 3), seed=7))
        b = generate(SyntheticSpec(class_counts=(3, 3, 3, 3), seed=8))
        assert not np.array_equal(a.grids, b.grids)

    def test_matches_per_sample_oracle(self):
        # render_pattern per sample (coordinates rebuilt each time), then the
        # noise draw, from a twin generator; class 4 adds the grating.
        spec = SyntheticSpec(num_classes=5, class_counts=(3, 2, 2, 1, 2), height=8, width=10, seed=4)
        twin = np.random.default_rng(np.random.SeedSequence(spec.seed))
        pool = generate(spec)
        for grid, k in zip(pool.grids, pool.truth):
            clean = render_pattern(int(k), spec.height, spec.width, twin)
            noisy = clean + twin.normal(0.0, spec.noise_sigma, size=clean.shape)
            assert np.array_equal(grid, np.clip(noisy, 0.0, 1.0))

    def test_spec_validation(self):
        with pytest.raises(InputDomainError):
            generate(SyntheticSpec(height=4))
        with pytest.raises(InputDomainError):
            generate(SyntheticSpec(class_counts=(5, 5)))
        with pytest.raises(InputDomainError):
            generate(SyntheticSpec(class_counts=(5, 5, 5, 0)))

    @pytest.mark.parametrize("kwargs,message", [
        # One grid must fit in a CSV record: 16 + 8 H W bytes below 2**31.
        ({"height": 100_000, "width": 100_000}, r"^height/width: one row of a 100000x100000 grid takes 80000000016 "),
        ({"height": 8, "width": 2**25}, r"^height/width: one row of a 8x33554432 grid takes 2147483664 "),
        ({"class_counts": (2**63, 1, 1, 1)}, r"^class_counts: the total 9223372036854775811 does not fit in 64 bits$"),
        ({"class_counts": (2**61,) * 4}, r"^class_counts: the total 9223372036854775808 "),
    ])
    def test_oversized_spec_rejected_before_allocating(self, kwargs, message):
        with pytest.raises(InputDomainError, match=message):
            generate(SyntheticSpec(**kwargs))


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
        labeled, unlabeled = split_labeled(samples, 0.10, seed=0, num_classes=4)
        assert np.bincount(samples.truth[labeled]).tolist() == [50, 20, 6, 2]
        assert len(labeled) + len(unlabeled) == len(samples)
        assert (np.diff(labeled) > 0).all() and (np.diff(unlabeled) > 0).all()

    def test_minimum_one_per_class(self):
        samples = generate(SyntheticSpec(class_counts=(40, 40, 40, 3)))
        labeled, _ = split_labeled(samples, 0.01, seed=1, num_classes=4)
        per = np.bincount(samples.truth[labeled], minlength=4)
        assert (per >= 1).all()
        assert per[3] == 1  # ceil(0.01 * 3) = 1

    def test_disjoint_ids(self):
        samples = generate(SyntheticSpec(class_counts=(10, 10, 10, 10)))
        labeled, unlabeled = split_labeled(samples, 0.3, seed=2, num_classes=4)
        ids_l = set(samples.ids[labeled].tolist())
        ids_u = set(samples.ids[unlabeled].tolist())
        assert not (ids_l & ids_u)
        assert ids_l | ids_u == set(samples.ids.tolist())

    def test_split_deterministic(self):
        a = generate(SyntheticSpec(class_counts=(20, 20, 20, 20)))
        b = generate(SyntheticSpec(class_counts=(20, 20, 20, 20)))
        la, _ = split_labeled(a, 0.25, seed=3, num_classes=4)
        lb, _ = split_labeled(b, 0.25, seed=3, num_classes=4)
        np.testing.assert_array_equal(la, lb)

    def test_bad_ratio_rejected(self):
        samples = generate(SyntheticSpec(class_counts=(5, 5, 5, 5)))
        for ratio in (0.0, -0.1, 1.5):
            with pytest.raises(InputDomainError):
                split_labeled(samples, ratio, seed=0, num_classes=4)

    @pytest.mark.parametrize("missing", [(3,), (1,), (0, 1, 3)])
    def test_every_missing_class_named(self, missing):
        samples = generate(SyntheticSpec(class_counts=(5, 5, 5, 5)))
        keep = ~np.isin(samples.truth, missing)
        pool = Pool(samples.ids[keep], samples.grids[keep], samples.truth[keep])
        with pytest.raises(InputDomainError) as err:
            split_labeled(pool, 0.5, seed=0, num_classes=4)
        assert str(err.value) == f"classes with zero samples: {list(missing)}"


class TestCsvRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        samples = generate(SyntheticSpec(class_counts=(4, 3, 2, 1)))
        path = tmp_path / "data.csv"
        save_csv(samples, path, 4)
        loaded, h, w, k = load_csv(path)
        assert (h, w, k) == (16, 16, 4)
        assert len(loaded) == len(samples)
        np.testing.assert_array_equal(loaded.ids, samples.ids)
        np.testing.assert_array_equal(loaded.truth, samples.truth)
        np.testing.assert_array_equal(loaded.grids, samples.grids)

    def test_file_order_kept(self, tmp_path):
        samples = generate(SyntheticSpec(class_counts=(3, 3, 2, 2), height=8, width=8))
        order = np.random.default_rng(0).permutation(len(samples))
        shuffled = Pool(samples.ids[order], samples.grids[order], samples.truth[order])
        path = tmp_path / "data.csv"
        save_csv(shuffled, path, 4)
        loaded, *_ = load_csv(path)
        np.testing.assert_array_equal(loaded.ids, shuffled.ids)
        np.testing.assert_array_equal(loaded.grids, shuffled.grids)
        np.testing.assert_array_equal(loaded.truth, shuffled.truth)

    def test_non_square_shape_read_from_the_grids(self, tmp_path):
        samples = generate(SyntheticSpec(class_counts=(3, 2, 2, 1), height=8, width=9))
        path = tmp_path / "d.csv"
        save_csv(samples, path, 4)
        loaded, h, w, k = load_csv(path)
        assert (h, w, k) == (8, 9, 4)
        assert loaded.grids.shape == (8, 8, 9)
        np.testing.assert_array_equal(loaded.ids, samples.ids)
        np.testing.assert_array_equal(loaded.truth, samples.truth)
        assert loaded.grids.tobytes() == samples.grids.tobytes()

    def test_metadata_line_format(self, tmp_path):
        path = tmp_path / "d.csv"
        save_csv(Pool(np.zeros(0, dtype=np.int64), np.zeros((0, 8, 9)), np.zeros(0, dtype=np.int64)),
                 path, 3)
        assert path.read_text().splitlines()[0] == "# H=8 W=9 K=3"

    def test_missing_metadata_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,p0\n0,0,0.5\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("meta", ["# H=0 W=0 K=2", "# H=-2 W=-2 K=2", "# H=2 W=2 K=0", "# H=2 W"])
    def test_bad_metadata_rejected(self, tmp_path, meta):
        path = tmp_path / "bad.csv"
        header = ",".join(["id", "label"] + [f"p{i}" for i in range(4)])
        path.write_text(meta + "\n" + header + "\n0,0,0.1,0.2,0.3,0.4\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("h,w", [(100_000, 100_000), (1, 2**28 - 1), (16384, 16384)])
    def test_grid_past_a_record_rejected_at_line_one(self, tmp_path, h, w):
        # numpy's record dtype must fit in a C int: 16 + 8 H W bytes from 2**31 on fail as one ParseError.
        path = tmp_path / "big.csv"
        path.write_text(f"# H={h} W={w} K=4\nid,label,p0\n0,0,0.5\n")
        with pytest.raises(ParseError, match=rf"^line 1: H and W too large: one row of a {h}x{w} grid takes "):
            load_csv(path)

    def test_largest_record_grid_passes_the_metadata_line(self):
        assert data._read_metadata(f"# H=1 W={(2**31 - 17) // 8} K=2") == (1, (2**31 - 17) // 8, 2)

    def test_missing_column_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# H=2 W=2 K=2\n")
        with pytest.raises(ParseError, match=r"^line 2: missing column header$") as err:
            load_csv(path)
        assert err.value.line == 2

    def test_no_data_rows_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# H=2 W=2 K=2\n" + ",".join(["id", "label"] + [f"p{i}" for i in range(4)]) + "\n")
        with pytest.raises(ParseError, match="no data rows") as err:
            load_csv(path)
        assert err.value.line == 3

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

    def test_id_beyond_64_bits_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = ",".join(["id", "label"] + [f"p{i}" for i in range(4)])
        path.write_text("# H=2 W=2 K=2\n" + header + f"\n0,0,0.1,0.2,0.3,0.4\n{2**63},1,0.1,0.2,0.3,0.4\n")
        with pytest.raises(ParseError, match="64 bits") as err:
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


@pytest.mark.parametrize("line", [3, None])
def test_parse_error_survives_pickling(line):
    # How a worker process hands a CSV error back to the command that ran it.
    err = pickle.loads(pickle.dumps(ParseError("bad pixel", line=line)))
    assert type(err) is ParseError and err.line == line
    assert str(err) == ("bad pixel" if line is None else f"line {line}: bad pixel")


def test_manifest_contents(tmp_path):
    import json

    spec = SyntheticSpec(class_counts=(2, 2, 2, 2), seed=5)
    samples = generate(spec)
    csv_path = tmp_path / "d.csv"
    save_csv(samples, csv_path, 4)
    manifest_path = tmp_path / "d.manifest.json"
    write_manifest(manifest_path, spec, csv_path)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["class_counts"] == [2, 2, 2, 2]
    assert manifest["seed"] == 5
    assert len(manifest["csv_sha256"]) == 64


@pytest.mark.parametrize("size", [0, 5, (1 << 20) - 1, 1 << 20, 2 * (1 << 20) + 3])
def test_file_sha256_streams_the_whole_file(tmp_path, size):
    path = tmp_path / "blob"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert file_sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


# Malformed files, each with the message and line load_csv reports for it. Two
# messages come from numpy's reader, so only their start is fixed.
HEADER = "# H=2 W=2 K=2\nid,label,p0,p1,p2,p3\n"
MALFORMED = [
    ("id,label,p0\n0,0,0.5\n", "line 1: missing metadata comment line$"),
    ("# H=2 W\n0,0,0.1,0.2,0.3,0.4\n", "line 1: bad metadata line: dictionary update sequence element #1 "),
    ("# H=2 W=2 K=2\n", "line 2: missing column header$"),
    ("# H=2 W=2 K=2\nid,label,p0\n0,0,0.1,0.2,0.3,0.4\n", "line 2: expected 6 columns, found 3$"),
    (HEADER, "line 3: no data rows$"),
    (HEADER + "0,0,0.5\n", "line 3: expected 6 fields, found 3$"),
    (HEADER + "0,0,0.1,0.2,0.3,0.4\n\n1,1,0.1,0.2,0.3,0.4\n", "line 4: expected 6 fields, found 0$"),
    (HEADER + "0,0,0.1,x,0.3,0.4\n", "line 3: could not convert string 'x' to float"),
    (HEADER + "0,0,0.1,0.2,0.3,0.4\n1.0,1,0.1,0.2,0.3,0.4\n", "line 4: could not convert string '1.0' to int"),
    (HEADER + "0,5,0.0,0.0,0.0,0.0\n", "line 3: label 5 out of range for K=2$"),
    (HEADER + "0,0,0.1,0.2,0.3,0.4\n1,1,0.1,nan,0.3,0.4\n", "line 4: non-finite pixel value$"),
    (HEADER + f"0,0,0.1,0.2,0.3,0.4\n{2**63},1,0.1,0.2,0.3,0.4\n",
     f"line 4: sample id {2**63} does not fit in 64 bits$"),
    (HEADER + "7,0,0.1,0.2,0.3,0.4\n8,1,0.1,0.2,0.3,0.4\n7,1,0.5,0.5,0.5,0.5\n",
     r"line 5: duplicate sample id 7 \(first on line 3\)$"),
    (HEADER + '0,0,"0.1,0.2,0.3,0.4\n1,1,0.1,0.2,0.3,0.4\n', "line 3: unclosed double quote$"),
    (HEADER + "0,0,0.1,0.2,0.3,0.4\n1,1,0.1,nan,0.3,0.4\n0,1,0.1,0.2,0.3,0.4\n2,1,x,0.2,0.3,0.4\n",
     "line 4: non-finite pixel value$"),
]


class TestCsvCache:
    """load_csv's cache of parsed rows, one entry per file content under $XDG_CACHE_HOME/splal."""

    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        return tmp_path / "xdg" / "splal"

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "pool.csv"
        save_csv(generate(SyntheticSpec(class_counts=(4, 3, 2, 1), height=8, width=9)), path, 4)
        return path

    @staticmethod
    def entry(path):
        return f"{file_sha256(path)}-v{CSV_CACHE_VERSION}.npy"

    @staticmethod
    def no_parse(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the CSV was parsed")
        monkeypatch.setattr(data, "_parse_rows", fail)

    @staticmethod
    def assert_same_pools(a, b):
        for name in ("ids", "grids", "truth"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape, x.strides) == (y.dtype, y.shape, y.strides)
            assert x.tobytes() == y.tobytes()

    def test_hit_equals_the_parse_bit_for_bit(self, path, cache, monkeypatch):
        parsed, *meta = load_csv(path)
        assert [p.name for p in cache.iterdir()] == [self.entry(path)]
        self.no_parse(monkeypatch)
        hit, *hit_meta = load_csv(path)
        assert hit_meta == meta == [8, 9, 4]
        self.assert_same_pools(hit, parsed)
        assert np.may_share_memory(hit.grids, hit.ids) and hit.grids.flags.writeable

    def test_one_changed_pixel_digit_misses(self, path, cache):
        load_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[2].split(",")
        digit = fields[2][-1]
        fields[2] = fields[2][:-1] + str((int(digit) + 1) % 10)
        lines[2] = ",".join(fields)
        path.write_text("".join(lines))
        pool, *_ = load_csv(path)
        assert pool.grids[0, 0, 0] == float(fields[2])
        assert len(list(cache.iterdir())) == 2 and (cache / self.entry(path)).is_file()

    @pytest.mark.parametrize("keep", [0, 40, 0.5])
    def test_truncated_entry_is_parsed_and_rewritten(self, path, cache, keep):
        parsed, *_ = load_csv(path)
        entry = cache / self.entry(path)
        good = entry.read_bytes()
        entry.write_bytes(good[: int(keep * len(good)) if isinstance(keep, float) else keep])
        again, *_ = load_csv(path)
        self.assert_same_pools(again, parsed)
        assert entry.read_bytes() == good

    def test_entry_of_another_grid_shape_is_parsed_and_rewritten(self, path, cache):
        parsed, *_ = load_csv(path)
        entry = cache / self.entry(path)
        good = entry.read_bytes()
        rows = np.load(entry)
        wrong = np.dtype([("id", np.int64), ("label", np.int64), ("px", np.float64, (9, 8))])
        np.save(entry, rows.view(wrong))
        again, *_ = load_csv(path)
        self.assert_same_pools(again, parsed)
        assert entry.read_bytes() == good

    def test_two_dimensional_entry_is_parsed_and_rewritten(self, path, cache):
        parsed, *_ = load_csv(path)
        entry = cache / self.entry(path)
        good = entry.read_bytes()
        rows = np.load(entry)
        np.save(entry, rows.reshape(2, -1))  # the right record dtype, the wrong rank
        again, *_ = load_csv(path)
        self.assert_same_pools(again, parsed)
        assert entry.read_bytes() == good

    def test_entry_of_another_cache_version_misses(self, path, cache, monkeypatch):
        parsed, *_ = load_csv(path)
        old = cache / self.entry(path)
        monkeypatch.setattr(data, "CSV_CACHE_VERSION", 2)
        parses = []
        parse = data._parse_data
        monkeypatch.setattr(data, "_parse_data", lambda *args: parses.append(args) or parse(*args))
        again, *_ = load_csv(path)
        self.assert_same_pools(again, parsed)
        assert len(parses) == 1
        assert sorted(p.name for p in cache.iterdir()) == [old.name, old.name.replace("-v1.", "-v2.")]

    def test_rules_run_on_a_hit(self, path, cache, monkeypatch):
        load_csv(path)
        entry = cache / self.entry(path)
        rows = np.load(entry)
        rows["label"][1] = 4
        np.save(entry, rows)
        self.no_parse(monkeypatch)
        with pytest.raises(ParseError, match=r"^line 4: label 4 out of range for K=4$"):
            load_csv(path)

    def test_file_in_place_of_the_cache_directory(self, path, cache):
        cache.parent.mkdir()
        cache.write_text("not a directory")
        first, *_ = load_csv(path)
        second, *_ = load_csv(path)
        self.assert_same_pools(first, second)
        assert cache.read_text() == "not a directory"

    @pytest.mark.parametrize("text, message", MALFORMED)
    def test_malformed_file_keeps_its_error_and_leaves_no_entry(self, tmp_path, cache, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        for _ in range(2):
            with pytest.raises(ParseError, match="^" + message):
                load_csv(path)
        assert not cache.exists() or not list(cache.iterdir())
