"""Synthetic imbalanced grid datasets, labeled/unlabeled splits, CSV round-trip.

Each class renders a distinct parametric pattern that is exactly symmetric
under horizontal and vertical flips, so the weak augmentation is
label-preserving by construction. Pixel noise is added on top and values
are clipped to [0, 1].
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InputDomainError, ParseError

GROUND_TRUTH = "ground-truth"
PSEUDO = "pseudo"


@dataclass(frozen=True)
class Sample:
    """Read-only record of one pool row, as the pool views of a run yield it.

    The visible label is None for unlabeled samples, a one-hot vector for
    ground-truth labels, and a soft distribution once pseudo-labeled.
    """

    sample_id: int
    true_label: int | None
    visible_label: np.ndarray | None = None
    provenance: str | None = None


@dataclass(frozen=True)
class Pool:
    """Samples as arrays: ids (N,), grids (N, H, W), truth (N,) with -1 where unknown."""

    ids: np.ndarray
    grids: np.ndarray
    truth: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int = 4
    class_counts: tuple[int, ...] = (500, 200, 60, 20)
    height: int = 16
    width: int = 16
    noise_sigma: float = 0.15
    seed: int = 0

    def validate(self) -> None:
        """Raise InputDomainError, its message starting with the offending field."""
        counts = self.class_counts
        check_num_classes(self.num_classes)
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise InputDomainError(f"noise_sigma: must be finite and nonnegative, got {self.noise_sigma}")
        if self.seed < 0:
            raise InputDomainError(f"seed: must be nonnegative, got {self.seed}")
        if self.height < 8 or self.width < 8:
            raise InputDomainError(f"height/width: must be at least 8x8, got {self.height}x{self.width}")
        if len(counts) != self.num_classes:
            raise InputDomainError(f"class_counts: length {len(counts)} != num_classes {self.num_classes}")
        if any(c < 1 for c in counts):
            raise InputDomainError(f"class_counts: every class needs at least one sample, got {counts}")


def check_num_classes(num_classes: int) -> None:
    """Raise InputDomainError unless there are at least 2 classes, whatever the data source."""
    if num_classes < 2:
        raise InputDomainError("num_classes: need at least 2 classes")


def _centered_coords(h: int, w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    yy = np.arange(h, dtype=np.float64)[:, None] - (h - 1) / 2.0
    xx = np.arange(w, dtype=np.float64)[None, :] - (w - 1) / 2.0
    rr = np.sqrt(yy ** 2 + xx ** 2)
    return yy + np.zeros((h, w)), xx + np.zeros((h, w)), rr


def _render(class_id: int, coords: tuple[np.ndarray, np.ndarray, np.ndarray],
            rng: np.random.Generator) -> np.ndarray:
    """One sample's noise-free, flip-symmetric class pattern over _centered_coords (not modified)."""
    yy, xx, rr = coords
    h, w = rr.shape
    scale = min(h, w) / 16.0
    amplitude = rng.uniform(0.65, 0.95)
    kind = class_id % 4
    if kind == 0:
        # Symmetric pair of horizontal bars; offset/thickness vary per sample.
        offset = rng.uniform(5.0, 6.5) * scale
        thickness = rng.uniform(0.8, 1.4) * scale
        pattern = np.exp(-(((np.abs(yy) - offset) / thickness) ** 2))
    elif kind == 1:
        offset = rng.uniform(5.0, 6.5) * scale
        thickness = rng.uniform(0.8, 1.4) * scale
        pattern = np.exp(-(((np.abs(xx) - offset) / thickness) ** 2))
    elif kind == 2:
        sigma = rng.uniform(1.0, 2.0) * scale
        pattern = np.exp(-(rr ** 2) / (2.0 * sigma ** 2))
    else:
        # Radius range deliberately reaches down to blob-like shapes so a
        # slice of this class is genuinely ambiguous with the blob class.
        radius = rng.uniform(1.5, 4.0) * scale
        width_r = rng.uniform(0.8, 1.4) * scale
        pattern = np.exp(-((rr - radius) ** 2) / (2.0 * width_r ** 2))
    if class_id >= 4:
        # Extra classes modulate the base shape with an even cosine grating.
        freq = 2 + (class_id - 4) // 4
        grating = 0.5 * (1.0 + np.cos(2.0 * np.pi * freq * xx / w) * np.cos(2.0 * np.pi * freq * yy / h))
        pattern = pattern * grating
    return amplitude * pattern


def generate(spec: SyntheticSpec) -> Pool:
    """Deterministic dataset for a spec; sample ids are 0..n-1 in class order."""
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    coords = _centered_coords(spec.height, spec.width)
    truth = np.repeat(np.arange(spec.num_classes), spec.class_counts)
    grids = np.empty((len(truth), spec.height, spec.width))
    for grid, k in zip(grids, truth.tolist()):
        clean = _render(k, coords, rng)
        noisy = clean + rng.normal(0.0, spec.noise_sigma, size=clean.shape)
        np.clip(noisy, 0.0, 1.0, out=grid)
    return Pool(np.arange(len(truth)), grids, truth)


def balanced_test_spec(spec: SyntheticSpec, per_class: int = 50) -> SyntheticSpec:
    """Held-out evaluation spec: same patterns, balanced counts, disjoint seed."""
    return replace(
        spec,
        class_counts=tuple(per_class for _ in spec.class_counts),
        seed=spec.seed + 10_000,
    )


def split_labeled(pool: Pool, ratio: float, seed: int, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Stratified split of an id-sorted pool; ceil(ratio * n_k) labeled per class, at least 1.

    Returns the (labeled, unlabeled) row indices, each ascending. Every one
    of the `num_classes` classes needs a sample.
    """
    if not (0.0 < ratio <= 1.0):
        raise InputDomainError(f"labeled ratio must lie in (0, 1], got {ratio}")
    if (pool.truth < 0).any():
        raise InputDomainError(f"sample {pool.ids[pool.truth < 0][0]} has no label; cannot stratify")
    counts = np.bincount(pool.truth, minlength=num_classes)
    if not counts.all():
        raise InputDomainError(f"classes with zero samples: {np.flatnonzero(counts == 0).tolist()}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    labeled = np.zeros(len(pool), dtype=bool)
    for k, count in enumerate(counts.tolist()):
        group = np.flatnonzero(pool.truth == k)
        take = max(1, math.ceil(ratio * count))
        labeled[group[rng.permutation(count)[:take]]] = True
    return np.flatnonzero(labeled), np.flatnonzero(~labeled)


def save_csv(samples: Pool, path, num_classes: int) -> None:
    """Pixel CSV with a metadata comment line; each float by repr, the shortest form that round-trips."""
    _, height, width = samples.grids.shape
    with Path(path).open("w", newline="") as fh:
        fh.write(f"# H={height} W={width} K={num_classes}\n")
        writer = csv.writer(fh)
        writer.writerow(["id", "label"] + [f"p{i}" for i in range(height * width)])
        pixels = samples.grids.reshape(len(samples), height * width)
        for sid, label, row in zip(samples.ids.tolist(), samples.truth.tolist(), pixels):
            writer.writerow([sid, label, *map(repr, row.tolist())])


def load_csv(path) -> tuple[Pool, int, int, int]:
    """Inverse of save_csv, rows in file order; raises ParseError with a line number on bad input.

    One numpy pass parses the data rows into a record array, the row rules
    are array checks on its fields, and the grids are a view of it. When a
    line fails to parse, the rows above it are checked first, so the first
    bad line in the file is the one reported.
    """
    path = Path(path)
    with path.open() as fh:
        h, w, k = _read_metadata(fh.readline())
        fields = 2 + h * w
        header = fh.readline()
        if not header:
            raise ParseError("missing column header", line=2)
        columns = next(csv.reader([header]))
        if len(columns) != fields:
            raise ParseError(f"expected {fields} columns, found {len(columns)}", line=2)
        dtype = np.dtype([("id", np.int64), ("label", np.int64), ("px", np.float64, (h, w))])
        start = fh.tell()
        # numpy pulls one line at a time and fails on the line it just pulled,
        # so the count of lines handed over names the failing line.
        pulled, last = 0, ""

        def data_lines():
            nonlocal pulled, last
            for pulled, last in enumerate(fh, start=1):
                if last == "\n":  # numpy would skip it
                    raise ParseError(f"expected {fields} fields, found 0", line=pulled + 2)
                if '"' in last and next(csv.reader([last]))[-1].endswith("\n"):
                    # numpy would read on into the next line for the closing quote
                    raise ParseError("unclosed double quote", line=pulled + 2)
                yield last

        try:
            rows = _parse_rows(data_lines(), dtype)
        except ParseError as exc:
            failure = exc
        except (ValueError, DeprecationWarning) as exc:
            failure = ParseError(_row_error(last, fields, exc), line=pulled + 2)
        else:
            failure = None
        if failure is not None:
            fh.seek(start)
            _check_rows(_parse_rows(itertools.islice(fh, failure.line - 3), dtype), k)
            raise failure
    _check_rows(rows, k)
    if not len(rows):
        raise ParseError("no data rows", line=3)
    return Pool(rows["id"], rows["px"], rows["label"]), h, w, k


def _read_metadata(line: str) -> tuple[int, int, int]:
    """(H, W, K) from the `# H=.. W=.. K=..` first line."""
    line = line.strip()
    if not line.startswith("#"):
        raise ParseError("missing metadata comment line", line=1)
    try:
        meta = dict(part.split("=") for part in line.lstrip("# ").split())
        h, w, k = int(meta["H"]), int(meta["W"]), int(meta["K"])
    except (ValueError, KeyError) as exc:
        raise ParseError(f"bad metadata line: {exc}", line=1)
    if min(h, w, k) < 1:
        raise ParseError(f"H, W and K must be positive, got H={h} W={w} K={k}", line=1)
    return h, w, k


def _parse_rows(lines, dtype: np.dtype) -> np.ndarray:
    """Data lines as a 1-d record array, or ValueError from numpy's C reader."""
    with warnings.catch_warnings():
        # numpy 1.x parses an integer field that fails as an integer through
        # float, with a DeprecationWarning: "1.0" would pass and an id past
        # 2**63 would wrap. As an error it fails the line.
        warnings.simplefilter("error", DeprecationWarning)
        warnings.simplefilter("ignore", UserWarning)  # no rows: the caller says so
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                          quotechar='"', ndmin=1)


def _row_error(line: str, fields: int, exc: Exception) -> str:
    """Message for the data line numpy failed to parse."""
    row = next(csv.reader([line]))
    if len(row) != fields:
        return f"expected {fields} fields, found {len(row)}"
    try:
        sid = int(row[0])
    except ValueError:
        sid = 0
    if not -2**63 <= sid < 2**63:
        return f"sample id {sid} does not fit in 64 bits"
    return str(exc).partition(" at row ")[0]


def _check_rows(rows: np.ndarray, k: int) -> None:
    """Raise ParseError at the first row with a label outside [-1, K), a non-finite pixel or a repeated id."""
    ids, labels = rows["id"], rows["label"]
    bad_label = (labels < -1) | (labels >= k)
    # Row reductions, not an isfinite mask the size of the pool: freeing
    # that mask raised the large-pool peak RSS by ~0.2 MB.
    px = rows["px"]
    non_finite = ~(np.isfinite(px.min(axis=(1, 2))) & np.isfinite(px.max(axis=(1, 2))))
    unique_ids, first = np.unique(ids, return_index=True)
    repeated = np.ones(len(rows), dtype=bool)
    repeated[first] = False
    bad = bad_label | non_finite | repeated
    if not bad.any():
        return
    i = int(bad.argmax())
    if bad_label[i]:
        raise ParseError(f"label {labels[i]} out of range for K={k}", line=i + 3)
    if non_finite[i]:
        raise ParseError("non-finite pixel value", line=i + 3)
    first_row = first[np.searchsorted(unique_ids, ids[i])]
    raise ParseError(f"duplicate sample id {ids[i]} (first on line {first_row + 3})", line=i + 3)


def load_eval_csv(path, source: str, height: int, width: int, num_classes: int) -> Pool:
    """An evaluation CSV's pool; ConfigurationError unless it fits the model and every row is labeled."""
    samples, h, w, k = load_csv(path)
    if (h, w) != (height, width):
        raise ConfigurationError(f"{source}: grid shape {h}x{w} does not match the model's {height}x{width}")
    if k != num_classes:
        raise ConfigurationError(f"{source}: {k} classes do not match the model's {num_classes}")
    unlabeled = samples.ids[samples.truth < 0]
    if len(unlabeled):
        raise ConfigurationError(
            f"{source}: evaluation set must be fully labeled; unlabeled ids {unlabeled[:5].tolist()}"
        )
    return samples


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def write_manifest(path, spec: SyntheticSpec, csv_path) -> None:
    manifest = {
        "num_classes": spec.num_classes,
        "class_counts": list(spec.class_counts),
        "height": spec.height,
        "width": spec.width,
        "noise_sigma": spec.noise_sigma,
        "seed": spec.seed,
        "csv_sha256": file_sha256(csv_path),
    }
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
