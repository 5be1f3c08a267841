"""Synthetic imbalanced grid datasets, labeled/unlabeled splits, CSV round-trip.

Each class renders a distinct parametric pattern that is exactly symmetric
under horizontal and vertical flips, so the weak augmentation is
label-preserving by construction. Pixel noise is added on top and values
are clipped to [0, 1].
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InputDomainError, ParseError, check_array, check_num_classes

GROUND_TRUTH = "ground-truth"
PSEUDO = "pseudo"
# Bumped whenever load_csv's rules or its record layout change: older cache entries are then ignored.
CSV_CACHE_VERSION = 1


@dataclass(frozen=True)
class Sample:
    """Read-only record of one pool row, as the pool views of a run yield it.

    The visible label is None for unlabeled samples, a one-hot vector for
    ground-truth labels, and a soft distribution once pseudo-labeled.
    """

    sample_id: int
    true_label: int
    visible_label: np.ndarray | None = None
    provenance: str | None = None


@dataclass(frozen=True)
class Pool:
    """Samples as arrays: ids (N,), grids (N, H, W), truth (N,)."""

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
        if (why := _oversized_grid(self.height, self.width)) is not None:
            raise InputDomainError(f"height/width: {why}")
        if len(counts) != self.num_classes:
            raise InputDomainError(f"class_counts: length {len(counts)} != num_classes {self.num_classes}")
        if any(c < 1 for c in counts):
            raise InputDomainError(f"class_counts: every class needs at least one sample, got {counts}")
        if sum(counts) >= 2**63:
            raise InputDomainError(f"class_counts: the total {sum(counts)} does not fit in 64 bits")


def _oversized_grid(height: int, width: int) -> str | None:
    """Why one grid is too large for a CSV record (16 + 8 H W bytes, below 2**31 as numpy needs), or None."""
    size = 16 + 8 * height * width
    return None if size < 2**31 else f"one row of a {height}x{width} grid takes {size} bytes, over 2**31 - 1"


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


def balanced_test_spec(spec: SyntheticSpec, per_class: int) -> SyntheticSpec:
    """Held-out evaluation spec: same patterns, balanced counts, disjoint seed."""
    return replace(spec, class_counts=(per_class,) * len(spec.class_counts), seed=spec.seed + 10_000)


def checked_test_spec(field: str, per_class: int, spec: SyntheticSpec | None) -> SyntheticSpec | None:
    """`balanced_test_spec(spec, per_class)`, None for a None spec; InputDomainError naming `field` unless valid."""
    if per_class < 1:
        raise InputDomainError(f"{field}: must be >= 1, got {per_class}")
    if spec is None:
        return None
    test_spec = balanced_test_spec(spec, per_class)
    try:
        test_spec.validate()
    except InputDomainError as exc:
        raise InputDomainError(f"{field}: the test set's {exc}") from None
    return test_spec


def split_labeled(pool: Pool, ratio: float, seed: int, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Stratified split of an id-sorted pool; ceil(ratio * n_k) labeled per class, at least 1.

    Returns the (labeled, unlabeled) row indices, each ascending. Every one
    of the `num_classes` classes needs a sample.
    """
    if not (0.0 < ratio <= 1.0):
        raise InputDomainError(f"ratio: must lie in (0, 1], got {ratio}")
    truth = check_array("pool.truth", pool.truth, (len(pool),), "iu", below=num_classes)
    counts = np.bincount(truth, minlength=num_classes)
    if not counts.all():
        raise InputDomainError(f"classes with zero samples: {np.flatnonzero(counts == 0).tolist()}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    labeled = np.zeros(len(pool), dtype=bool)
    for k, count in enumerate(counts.tolist()):
        group = np.flatnonzero(truth == k)
        take = max(1, math.ceil(ratio * count))
        labeled[group[rng.permutation(count)[:take]]] = True
    return np.flatnonzero(labeled), np.flatnonzero(~labeled)


def save_csv(samples: Pool, path, num_classes: int) -> None:
    """Pixel CSV with a metadata comment line; csv.writer writes each float by repr, which round-trips."""
    _, height, width = samples.grids.shape
    with Path(path).open("w", newline="") as fh:
        fh.write(f"# H={height} W={width} K={num_classes}\n")
        writer = csv.writer(fh)
        writer.writerow(["id", "label"] + [f"p{i}" for i in range(height * width)])
        pixels = samples.grids.reshape(len(samples), height * width)
        for sid, label, row in zip(samples.ids.tolist(), samples.truth.tolist(), pixels):
            writer.writerow([sid, label, *row.tolist()])


def load_csv(path) -> tuple[Pool, int, int, int]:
    """Inverse of save_csv, rows in file order; raises ParseError with a line number on bad input.

    One numpy pass parses the data rows into a record array, the row rules
    are array checks on its fields, and the grids are a view of it. When a
    line fails to parse, the rows above it are checked first, so the first
    bad line in the file is the one reported. The record array of a file
    that passed is cached as $XDG_CACHE_HOME/splal/<sha256>-v<version>.npy
    (~/.cache when unset). A hit skips the parse and meets the same row rules.
    """
    path = Path(path)
    with path.open() as fh:
        h, w, k = _read_metadata(fh.readline())
        dtype = np.dtype([("id", np.int64), ("label", np.int64), ("px", np.float64, (h, w))])
        root = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
        entry = Path(root, "splal", f"{file_sha256(path)}-v{CSV_CACHE_VERSION}.npy")
        cached = _read_entry(entry, dtype)
        rows = _parse_data(fh, 2 + h * w, dtype, k) if cached is None else cached
    _check_rows(rows, k)
    if not len(rows):
        raise ParseError("no data rows", line=3)
    if cached is None:
        _write_entry(entry, rows)
    return Pool(rows["id"], rows["px"], rows["label"]), h, w, k


def _parse_data(fh, fields: int, dtype: np.dtype, k: int) -> np.ndarray:
    """Lines 2 on of an open CSV as a record array; a line that fails to parse has the rows above it checked first."""
    header = fh.readline()
    if not header:
        raise ParseError("missing column header", line=2)
    columns = next(csv.reader([header]))
    if len(columns) != fields:
        raise ParseError(f"expected {fields} columns, found {len(columns)}", line=2)
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
        return _parse_rows(data_lines(), dtype)
    except ParseError as exc:
        failure = exc
    except (ValueError, DeprecationWarning) as exc:
        failure = ParseError(_row_error(last, fields, exc), line=pulled + 2)
    fh.seek(start)
    _check_rows(_parse_rows(itertools.islice(fh, failure.line - 3), dtype), k)
    raise failure


def _read_entry(entry: Path, dtype: np.dtype) -> np.ndarray | None:
    """The cached record array, or None when it is missing, unreadable or not of `dtype`."""
    try:
        rows = np.load(entry, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    return rows if rows.dtype == dtype and rows.ndim == 1 else None


def _write_entry(entry: Path, rows: np.ndarray) -> None:
    """Cache rows that passed every rule; a per-process name, then an atomic rename, so racing workers are safe."""
    tmp = entry.with_name(f"{entry.name}.{os.getpid()}.tmp")
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("wb") as fh:
            np.save(fh, rows, allow_pickle=False)
        os.replace(tmp, entry)
    except (OSError, ValueError):
        with contextlib.suppress(OSError):
            tmp.unlink()


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
    if (why := _oversized_grid(h, w)) is not None:
        raise ParseError(f"H and W too large: {why}", line=1)
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
    """Raise ParseError at the first row with a label outside [0, K), a non-finite pixel or a repeated id."""
    ids, labels = rows["id"], rows["label"]
    bad_label = (labels < 0) | (labels >= k)
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
    """An evaluation CSV's pool; ConfigurationError unless its grid shape and class count fit the model."""
    samples, h, w, k = load_csv(path)
    if (h, w) != (height, width):
        raise ConfigurationError(f"{source}: grid shape {h}x{w} does not match the model's {height}x{width}")
    if k != num_classes:
        raise ConfigurationError(f"{source}: {k} classes do not match the model's {num_classes}")
    return samples


def file_sha256(path) -> str:
    """Hex SHA-256 of a file's bytes, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, spec: SyntheticSpec, csv_path) -> None:
    """The spec's fields and the CSV's SHA-256, as sorted-key JSON."""
    manifest = {**asdict(spec), "csv_sha256": file_sha256(csv_path)}
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
