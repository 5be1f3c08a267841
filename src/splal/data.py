"""Synthetic imbalanced grid datasets, labeled/unlabeled splits, CSV round-trip.

Each class renders a distinct parametric pattern that is exactly symmetric
under horizontal and vertical flips, so the weak augmentation is
label-preserving by construction. Pixel noise is added on top and values
are clipped to [0, 1].
"""

from __future__ import annotations

import csv
import hashlib
from array import array
import json
import math
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
    grid: np.ndarray
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
        if self.num_classes < 2:
            raise InputDomainError("num_classes: need at least 2 classes")
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


def _centered_coords(h: int, w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    yy = np.arange(h, dtype=np.float64)[:, None] - (h - 1) / 2.0
    xx = np.arange(w, dtype=np.float64)[None, :] - (w - 1) / 2.0
    rr = np.sqrt(yy ** 2 + xx ** 2)
    return yy + np.zeros((h, w)), xx + np.zeros((h, w)), rr


def render_pattern(class_id: int, h: int, w: int, rng: np.random.Generator) -> np.ndarray:
    """Noise-free pattern for one sample of a class; symmetric under both flips."""
    return _render(class_id, _centered_coords(h, w), rng)


def _render(class_id: int, coords: tuple[np.ndarray, np.ndarray, np.ndarray],
            rng: np.random.Generator) -> np.ndarray:
    """render_pattern over precomputed _centered_coords, which it does not modify."""
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


def balanced_test_spec(spec: SyntheticSpec, per_class: int = 50, seed_offset: int = 10_000) -> SyntheticSpec:
    """Held-out evaluation spec: same patterns, balanced counts, disjoint seed."""
    return replace(
        spec,
        class_counts=tuple(per_class for _ in spec.class_counts),
        seed=spec.seed + seed_offset,
    )


def split_labeled(pool: Pool, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stratified split of an id-sorted pool; ceil(ratio * n_k) labeled per class, at least 1.

    Returns the (labeled, unlabeled) row indices, each ascending.
    """
    if not (0.0 < ratio <= 1.0):
        raise InputDomainError(f"labeled ratio must lie in (0, 1], got {ratio}")
    if (pool.truth < 0).any():
        raise InputDomainError(f"sample {pool.ids[pool.truth < 0][0]} has no label; cannot stratify")
    counts = np.bincount(pool.truth)
    if not counts.all():
        raise InputDomainError(f"classes with zero samples: {np.flatnonzero(counts == 0).tolist()}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    labeled = np.zeros(len(pool), dtype=bool)
    for k, count in enumerate(counts.tolist()):
        group = np.flatnonzero(pool.truth == k)
        take = max(1, math.ceil(ratio * count))
        labeled[group[rng.permutation(count)[:take]]] = True
    return np.flatnonzero(labeled), np.flatnonzero(~labeled)


def save_csv(samples: Pool, path, height: int, width: int, num_classes: int) -> None:
    """Pixel CSV with a metadata comment line; floats at 17 significant digits."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(f"# H={height} W={width} K={num_classes}\n")
        writer = csv.writer(fh)
        writer.writerow(["id", "label"] + [f"p{i}" for i in range(height * width)])
        pixels = samples.grids.reshape(len(samples), height * width)
        for sid, label, row in zip(samples.ids.tolist(), samples.truth.tolist(), pixels):
            writer.writerow([sid, label, *map(repr, row.tolist())])


def load_csv(path) -> tuple[Pool, int, int, int]:
    """Inverse of save_csv, rows in file order; raises ParseError with a line number on bad input."""
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ParseError("missing metadata comment line", line=1)
        try:
            meta = dict(part.split("=") for part in header.lstrip("# ").split())
            h, w, k = int(meta["H"]), int(meta["W"]), int(meta["K"])
        except (ValueError, KeyError) as exc:
            raise ParseError(f"bad metadata line: {exc}", line=1)
        if min(h, w, k) < 1:
            raise ParseError(f"H, W and K must be positive, got H={h} W={w} K={k}", line=1)
        reader = csv.reader(fh)
        try:
            columns = next(reader)
        except StopIteration:
            raise ParseError("missing column header", line=2)
        expected_cols = 2 + h * w
        if len(columns) != expected_cols:
            raise ParseError(
                f"expected {expected_cols} columns, found {len(columns)}", line=2
            )
        labels: list[int] = []
        # One flat buffer that the grid array views, so no per-row arrays
        # and no stacked copy of them sit beside it.
        pixels = array("d")
        first_line: dict[int, int] = {}
        for lineno, row in enumerate(reader, start=3):
            if len(row) != expected_cols:
                raise ParseError(
                    f"expected {expected_cols} fields, found {len(row)}", line=lineno
                )
            try:
                sid = int(row[0])
                label = int(row[1])
                values = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno)
            if label < -1 or label >= k:
                raise ParseError(f"label {label} out of range for K={k}", line=lineno)
            if not -2**63 <= sid < 2**63:
                raise ParseError(f"sample id {sid} does not fit in 64 bits", line=lineno)
            if not all(map(math.isfinite, values)):
                raise ParseError("non-finite pixel value", line=lineno)
            if sid in first_line:
                raise ParseError(f"duplicate sample id {sid} (first on line {first_line[sid]})", line=lineno)
            first_line[sid] = lineno
            labels.append(label)
            pixels.fromlist(values)
    if not labels:
        raise ParseError("no data rows", line=3)
    grids = np.frombuffer(pixels).reshape(len(labels), h, w)
    return Pool(np.array(list(first_line)), grids, np.array(labels)), h, w, k


def require_labels(samples: Pool, source: str) -> None:
    """Reject an evaluation set with unlabeled (label -1) rows."""
    unlabeled = samples.ids[samples.truth < 0]
    if len(unlabeled):
        raise ConfigurationError(
            f"{source}: evaluation set must be fully labeled; unlabeled ids {unlabeled[:5].tolist()}"
        )


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
