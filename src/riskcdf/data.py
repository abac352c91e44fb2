"""Synthetic datasets and file ingestion.

Gaussian blob generation uses an explicit Box-Muller transform over a
counter-based (Philox) generator, so a dataset is a pure function of its
parameters and seed on every platform.  CSV loaders report parse failures
with exact row/column positions.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptySample, FormatError, InvalidLoss
from .models import Example
from .seeds import rng_from, standard_normal

__all__ = [
    "Dataset",
    "LossTable",
    "generate_blobs",
    "blob_mixture_sampler",
    "TOY_BLOB_SIZES",
    "TOY_BLOB_CENTERS",
    "TOY_BLOB_STDS",
    "toy_blobs",
    "load_dataset_csv",
    "save_dataset_csv",
    "load_loss_table",
]

# Imbalanced two-cluster toy setting: a diffuse majority at the origin and
# a tight minority at (1, 1).
TOY_BLOB_SIZES = (1000, 50)
TOY_BLOB_CENTERS = ((0.0, 0.0), (1.0, 1.0))
TOY_BLOB_STDS = (1.5, 0.5)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, label vector, and provenance metadata."""

    X: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=np.float64))
        y = np.asarray(self.y, dtype=np.float64).ravel()
        if X.shape[0] != y.shape[0]:
            raise FormatError(f"feature rows ({X.shape[0]}) != labels ({y.shape[0]})")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def __getitem__(self, i: int) -> Example:
        return Example(x=self.X[i], y=self.y[i])

    @property
    def examples(self) -> list[Example]:
        return [self[i] for i in range(self.n)]


def generate_blobs(sizes, centers, stds, seed: int = 0) -> Dataset:
    """Isotropic Gaussian clusters; cluster k contributes sizes[k] points labeled k.

    Points appear in cluster-block order (no shuffling) and are identical
    for identical arguments.
    """
    sizes = [int(s) for s in sizes]
    centers = [np.asarray(c, dtype=np.float64).ravel() for c in centers]
    stds = [float(s) for s in stds]
    if not (len(sizes) == len(centers) == len(stds)):
        raise ConfigError(
            f"sizes ({len(sizes)}), centers ({len(centers)}), and stds "
            f"({len(stds)}) must have equal length"
        )
    if any(s <= 0 for s in stds):
        raise ConfigError("cluster stds must be positive")
    if any(s < 1 for s in sizes):
        raise ConfigError("cluster sizes must be at least 1")
    dim = centers[0].shape[0]
    if any(c.shape[0] != dim for c in centers):
        raise ConfigError("all centers must share a dimension")
    rng = rng_from(seed, "blobs")
    blocks, labels = [], []
    for k, (size, center, std) in enumerate(zip(sizes, centers, stds)):
        blocks.append(center + std * standard_normal(rng, (size, dim)))
        labels.append(np.full(size, float(k)))
    return Dataset(
        X=np.concatenate(blocks),
        y=np.concatenate(labels),
        metadata={
            "source": "blobs",
            "seed": int(seed),
            "sizes": sizes,
            "centers": [list(map(float, c)) for c in centers],
            "stds": stds,
        },
    )


def toy_blobs(seed: int = 0) -> Dataset:
    """The imbalanced two-cluster toy dataset (1000 + 50 points in 2-D)."""
    return generate_blobs(TOY_BLOB_SIZES, TOY_BLOB_CENTERS, TOY_BLOB_STDS, seed=seed)


def blob_mixture_sampler(sizes=TOY_BLOB_SIZES, centers=TOY_BLOB_CENTERS,
                         stds=TOY_BLOB_STDS):
    """I.i.d. sampler from the blob mixture (weights proportional to sizes).

    Returns ``sample(rng, n) -> (X, y)`` for Monte Carlo drivers that need
    fresh draws from the population rather than a fixed dataset.
    """
    centers_arr = np.asarray(centers, dtype=np.float64)
    stds_arr = np.asarray(stds, dtype=np.float64)
    weights = np.asarray(sizes, dtype=np.float64)
    weights = weights / weights.sum()
    cum = np.cumsum(weights)

    def sample(rng: np.random.Generator, n: int):
        comp = np.searchsorted(cum, rng.random(n), side="right")
        z = standard_normal(rng, (n, centers_arr.shape[1]))
        x = centers_arr[comp] + stds_arr[comp, None] * z
        return x, comp.astype(np.float64)

    return sample


def load_dataset_csv(path, label_column: str | int = "label",
                     has_header: bool = True) -> Dataset:
    """Load a dataset; features are the non-label columns in header order.

    ``label_column`` is a header name (with ``has_header``) or a 0-based
    column index.  Any non-numeric cell raises :class:`FormatError` naming
    the cell.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if not rows:
        raise EmptySample(f"{path}: no rows")
    if has_header:
        header = [c.strip() for c in rows[0]]
        body = rows[1:]
        if isinstance(label_column, int):
            label_idx = label_column
        else:
            if label_column not in header:
                raise FormatError(f"{path}: label column {label_column!r} not in header {header}")
            label_idx = header.index(label_column)
        names = header
    else:
        if not isinstance(label_column, int):
            raise ConfigError("label_column must be a column index when has_header=False")
        label_idx = label_column
        body = rows
        names = [f"col{i}" for i in range(len(rows[0]))]
    if not body:
        raise EmptySample(f"{path}: no data rows")
    width = len(body[0])
    if not (0 <= label_idx < width):
        raise FormatError(f"{path}: label column index {label_idx} out of range for width {width}")
    feats, labels = [], []
    for r, row in enumerate(body):
        if len(row) != width:
            raise FormatError(f"{path}: row {r + 1 + int(has_header)}: expected {width} columns, got {len(row)}")
        parsed = []
        for c, cell in enumerate(row):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise FormatError(
                    f"{path}: row {r + 1 + int(has_header)}, column {c + 1} "
                    f"({names[c] if c < len(names) else c}): not a number: {cell!r}"
                ) from None
        labels.append(parsed[label_idx])
        feats.append([v for i, v in enumerate(parsed) if i != label_idx])
    return Dataset(
        X=np.asarray(feats),
        y=np.asarray(labels),
        metadata={"source": str(path), "label_column": label_column},
    )


def _sidecar_path(path) -> str:
    return f"{os.fspath(path)}.meta.json"


def save_dataset_csv(dataset: Dataset, path, label_name: str = "label") -> None:
    """Write features + label column (17 significant digits) and a metadata sidecar."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(dataset.dim)] + [label_name])
        for xi, yi in zip(dataset.X, dataset.y):
            writer.writerow([f"{v:.17g}" for v in xi] + [f"{yi:.17g}"])
    with open(_sidecar_path(path), "w") as fh:
        json.dump(dataset.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class LossTable:
    """Rectangular table of nonnegative losses, one column per model."""

    names: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def n_models(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.names.index(name)]


def _filled(row: list[str]) -> bool:
    return bool(row) and any(c.strip() for c in row)


def _parse_loss_rows(path, names: tuple[str, ...], body: str) -> np.ndarray:
    """Data rows cell by cell with ``float``, naming the first bad row and column."""
    rows = [row for row in csv.reader(io.StringIO(body)) if _filled(row)]
    if not rows:
        raise EmptySample(f"{path}: need a header and at least one data row")
    width = len(names)
    data = []
    for r, row in enumerate(rows, start=2):
        if len(row) != width:
            raise FormatError(f"{path}: row {r}: expected {width} columns, got {len(row)}")
        parsed = []
        for c, cell in enumerate(row):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise FormatError(
                    f"{path}: row {r}, column {c + 1} ({names[c]}): not a number: {cell!r}"
                ) from None
        data.append(parsed)
    return np.asarray(data)


def load_loss_table(path) -> LossTable:
    """Load a loss table CSV with a required header of model names.

    The data rows go through numpy's C parser; if it rejects them, the
    per-cell parse runs instead and either accepts what ``float`` accepts
    or raises a :class:`FormatError` naming the row and column.
    """
    with open(path, newline="") as fh:
        header = next((row for row in csv.reader(fh) if _filled(row)), None)
        body = fh.read()
    if header is None:
        raise EmptySample(f"{path}: need a header and at least one data row")
    names = tuple(c.strip() for c in header)
    values = None
    if body.strip():
        try:
            values = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if values is None or values.shape[1] != len(names):
        values = _parse_loss_rows(path, names, body)
    if not np.all(np.isfinite(values)):
        raise InvalidLoss(f"{path}: losses must be finite")
    if np.any(values < 0):
        bad = np.argwhere(values < 0)[0]
        raise InvalidLoss(
            f"{path}: negative loss at row {int(bad[0]) + 2}, column "
            f"{int(bad[1]) + 1} ({names[int(bad[1])]})"
        )
    return LossTable(names=names, values=values)
